"""Result persistence shared by the standalone benchmark scripts.

Every script (``benchmark_backends.py``, ``benchmark_dispatch.py``,
``benchmark_store.py``) writes its measured payload to a
``BENCH_<name>.json`` file so CI can upload the numbers as artifacts.
The output directory defaults to the current working directory and is
overridden with the ``BENCH_OUTPUT_DIR`` environment variable.  The
scripts gate on parity and their own speed floors; nothing compares
these files across runs -- speed over time is the end-to-end
benchmark's job (``benchmarks/e2e``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict

OUTPUT_ENV = "BENCH_OUTPUT_DIR"


def bench_name(file: str) -> str:
    """``benchmarks/benchmark_store.py`` -> ``store``."""
    stem = Path(file).stem
    prefix = "benchmark_"
    return stem[len(prefix):] if stem.startswith(prefix) else stem


def write_result(name: str, payload: Dict[str, Any]) -> Path:
    """Persist one benchmark run as ``BENCH_<name>.json``."""
    out_dir = Path(os.environ.get(OUTPUT_ENV, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    document = {
        "name": name,
        "unix_time": time.time(),
        "cpu_count": os.cpu_count(),
        **payload,
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    print(f"wrote {path}")
    return path

"""Every example script runs end to end.

Each ``examples/*.py`` runs as a subprocess and must exit 0, so an
example that drifts from the public API fails here with its stderr;
the quickstart's output is also checked against the paper's numbers.
"""

from __future__ import annotations

import functools
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@functools.lru_cache(maxsize=None)
def run_example(path: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_examples_exist():
    names = {path.name for path in ALL_EXAMPLES}
    assert "quickstart.py" in names
    assert "iceberg_monitoring.py" in names
    assert "road_traffic.py" in names
    assert "multi_observation_forensics.py" in names


@pytest.mark.parametrize(
    "path", ALL_EXAMPLES, ids=[p.stem for p in ALL_EXAMPLES]
)
def test_example_runs(path):
    completed = run_example(path)
    assert completed.returncode == 0, completed.stderr


def test_quickstart_output():
    completed = run_example(EXAMPLES_DIR / "quickstart.py")
    assert completed.returncode == 0, completed.stderr
    out = completed.stdout
    assert "0.864" in out              # the paper's running example
    assert "0.136" in out              # k-times distribution head
    assert "obj-0: P_exists = 0.960" in out  # backward vector entry

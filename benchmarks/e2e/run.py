"""End-to-end benchmark driver.

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--workload W]
                                               [--trace] [--repeat R]

Runs the four workloads (``adhoc_mixed``, ``monitor_stream``,
``service_fleet``, ``store_scatter``) through the public API, each in
a fresh child process, prints every metric by name with its unit,
checks answers, and writes one JSON result (default
``benchmarks/e2e/out/result.json``).  With ``--trace`` each workload
runs twice -- untraced for the end-to-end metrics, traced for the
per-layer metrics -- and ``trace_<workload>.json`` is written next to
the result.

With ``--workload W`` the last line of standard output is the one-line
JSON object the ``BENCHMARK.json`` contract asks for: the end-to-end
metrics every workload reports (``--trace 0``) or every per-layer
metric (``--trace 1``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import (  # noqa: E402
    DRIVER_END_TO_END,
    END_TO_END,
    PER_LAYER,
    median,
)

WORKLOAD_NAMES = ("adhoc_mixed", "monitor_stream", "service_fleet",
                  "store_scatter")
SOURCE = os.path.normpath(os.path.join(HERE, os.pardir, os.pardir, "src"))
CHILD_TIMEOUT = 170.0
SHM_DIR = "/dev/shm"
HASH_SEED = "0"


def fingerprint() -> Dict[str, Any]:
    """Hardware and software the numbers were measured on."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(package: str) -> Optional[str]:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "pythonhashseed": HASH_SEED,
        "blas_threads_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
    }


def _segments() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("repro-")}
    except OSError:
        return set()


def run_child(workload: str, args, traced: bool, out_dir: str,
              untraced_wall: Optional[float] = None) -> Dict[str, Any]:
    """One workload in a fresh process; returns its result plus the
    hygiene findings (leaked segments, scratch, worker processes)."""
    tag = f"{workload}-{os.getpid()}-{'t' if traced else 'u'}"
    result_path = os.path.join(out_dir, f"child-{tag}.json")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", args.scale,
        "--trace", "1" if traced else "0",
        "--scratch", out_dir, "--result", result_path,
        "--trace-file", os.path.join(out_dir, f"trace_{workload}.json"),
    ]
    if untraced_wall is not None:
        command += ["--untraced-wall", repr(untraced_wall)]
    if args.verify_all:
        command.append("--verify-all")
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    segments_before = _segments()
    # a fixed hash seed takes set-iteration order out of the run-to-run
    # noise; it is part of the fingerprint
    environment = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    child = subprocess.Popen(command, start_new_session=True,
                             env=environment)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        code = None
    # nothing the child started may outlive it
    stragglers = False
    try:
        os.killpg(child.pid, signal.SIGKILL if code is None else 0)
        stragglers = True
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    if code != 0:
        raise SystemExit(
            f"workload {workload!r} child "
            + ("timed out" if code is None else f"exited with {code}")
        )
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.unlink(result_path)
    leaked = sorted(_segments() - segments_before)
    for name in leaked:  # report, then clean up after the program
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    scratch = [n for n in os.listdir(out_dir)
               if n.startswith(f"tmp-{child.pid}")]
    result["hygiene"] = {
        "leaked_segments": leaked + result.pop("leaked_segments"),
        "scratch_left": scratch,
        "worker_processes_left": stragglers,
    }
    if traced:
        result["per_layer"]["dispatch.leaked_segments"] = len(
            result["hygiene"]["leaked_segments"]
        )
    return result


def clean(result: Dict[str, Any]) -> bool:
    hygiene = result["hygiene"]
    return not (hygiene["leaked_segments"] or hygiene["scratch_left"]
                or hygiene["worker_processes_left"])


def print_run(result: Dict[str, Any]) -> None:
    counts = ", ".join(f"{kind} n={count}"
                       for kind, count in sorted(result["op_counts"].items()))
    mode = "traced" if result["traced"] else "untraced"
    print(f"\n== {result['workload']} ({mode}, seed {result['seed']}) ==")
    print(f"   operations: {counts}; verified {result['verified']}, "
          f"failed {result['failed']} of {result['attempted']}; "
          f"timed wall {result['timed_wall_s']:.3f} s")
    if not result["traced"]:
        for name, (unit, _better, _bound) in END_TO_END.items():
            if name in result["end_to_end"]:
                print(f"   {name:<28} {result['end_to_end'][name]:>14.4f} {unit}")
    else:
        for name, (unit, _better) in PER_LAYER.items():
            print(f"   {name:<36} {result['per_layer'][name]:>16.4f} {unit}")
    for error in result["errors"]:
        print(f"   error: {error}")
    if not clean(result):
        print(f"   HYGIENE: {result['hygiene']}")


def contract_line(result: Dict[str, Any]) -> str:
    """The last stdout line of a single-workload run."""
    if result["traced"]:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result["end_to_end"][name],
                   "unit": END_TO_END[name][0]}
            for name in DRIVER_END_TO_END
        }
    failed = result["failed"] + (0 if clean(result) else 1)
    return json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="nominal timed-phase length; scales the "
                             "operation counts (default 12)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (compare.py "
                             "wants >= 3)")
    parser.add_argument("--quick", dest="scale", action="store_const",
                        const="quick", default="full",
                        help="self-test scale (seconds, not minutes)")
    parser.add_argument("--verify-all", action="store_true",
                        help="check every operation, not a 10%% sample")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)  # self-test hook
    parser.add_argument("--output", default=None,
                        help="result JSON (default out/result.json)")
    parser.add_argument("--append", action="store_true",
                        help="add this invocation's runs to an existing "
                             "--output (to collect two candidates "
                             "alternately: A, B, A, B, ...)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"run.py: no program to measure: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    output = args.output or os.path.join(out_dir, "result.json")

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    document: Dict[str, Any] = {
        "fingerprint": fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "runs": {},
        "traced": {},
        "medians": {},
    }
    if args.append and os.path.exists(output):
        with open(output, encoding="utf-8") as handle:
            earlier = json.load(handle)
        for key in ("seed", "seconds", "scale"):
            if earlier[key] != document[key]:
                print(f"run.py: {output} was measured with another {key}",
                      file=sys.stderr)
                return 2
        document["runs"] = earlier["runs"]
    last: Optional[Dict[str, Any]] = None
    for name in names:
        runs: List[Dict[str, Any]] = document["runs"].get(name, [])
        for _ in range(max(1, args.repeat)):
            runs.append(run_child(name, args, False, out_dir))
            print_run(runs[-1])
        document["runs"][name] = runs
        document["medians"][name] = {
            metric: median([run["end_to_end"][metric] for run in runs])
            for metric in runs[0]["end_to_end"]
        }
        last = runs[-1]
        if args.trace:
            walls = [run["timed_wall_s"] for run in runs]
            last = run_child(name, args, True, out_dir, median(walls))
            print_run(last)
            document["traced"][name] = last
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nresult written to {os.path.relpath(output)}")
    if args.workload:
        print(contract_line(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())

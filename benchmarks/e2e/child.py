"""One workload, one mode (traced or not), in this process.

``run.py`` starts this file in a fresh interpreter per workload and
mode, because the worker pool, the shared-memory publisher and the
slab pool of the program are process-global.  The result is written
as JSON to ``--result``; nothing is printed on success.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from metrics import median, percentile  # noqa: E402

SETUP_REPEATS = 5


def end_to_end(workload, ops: List[Any], setups: List[float],
               rss_self_kb: int, rss_children_kb: int) -> Dict[str, float]:
    """The end-to-end metrics this workload exercises (others absent)."""
    timed = [op for op in ops if op.kind != "recovery"]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    out: Dict[str, float] = {
        "setup_s": median(setups),
        "throughput_ops_s": len(timed) / workload.timed_wall,
        "peak_rss_mb": (rss_self_kb + rss_children_kb) / 1024.0,
        "failed_frac": failed / attempted,
    }
    by_kind: Dict[str, List[float]] = {}
    for op in timed:
        by_kind.setdefault(op.kind, []).append(op.seconds * 1e3)
    # the latency of the workload's primary read, as its caller sees
    # it; a percentile over a mix of kinds would mostly measure the mix
    primary = by_kind[workload.primary]
    out["latency_p50_ms"] = median(primary)
    out["latency_p95_ms"] = percentile(primary, 95.0)
    for kind in workload.kinds:
        out[f"{kind}_p50_ms"] = median(by_kind[kind])
    if "tick" in workload.kinds:
        out["tick_p95_ms"] = percentile(by_kind["tick"], 95.0)
    recovery = [op for op in ops if op.kind == "recovery"]
    if recovery:
        snapshot = sum(op.seconds for op in ops if op.kind == "snapshot")
        out["recovery_s"] = snapshot + recovery[0].seconds
    return out


def run(args) -> Dict[str, Any]:
    import trace as tracing
    from layers import per_layer_metrics, spmm_probe
    from workloads import Recorder, make_workload
    from repro.exec import dispatch

    scratch = os.path.join(args.scratch, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    tracer = None
    try:
        started = time.perf_counter()
        workload = make_workload(
            args.workload, args.seed, args.scale, args.seconds,
            args.verify_all, args.corrupt_reference, scratch,
        )
        generate_s = time.perf_counter() - started
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)

        setups: List[float] = []
        for repeat in range(SETUP_REPEATS):
            gc.collect()
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            if repeat < SETUP_REPEATS - 1:
                workload.teardown()

        recorder = Recorder(tracer)
        gc.collect()
        workload.timed(recorder)
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ops = recorder.ops
        script_ops = [op for op in ops if op.kind != "recovery"]
        timed_lo = min(op.start for op in script_ops)
        timed_hi = max(op.end for op in script_ops)

        workload.verify(recorder)
        spmm = {}
        if tracer is not None:
            matrix = next(iter(workload.fleet.chains.values()))
            spmm = spmm_probe(matrix)
        workload.teardown()
        dispatch.shutdown()
        # ru_maxrss of reaped children: the largest single worker
        rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        leaked = [
            info.name for info in dispatch.list_segments()
            if info.pid == os.getpid()
        ]

        counts: Dict[str, int] = {}
        for op in ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        result: Dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "traced": bool(args.trace),
            "sizes": workload.sizes,
            "attempted": len(ops),
            "failed": sum(1 for op in ops if not op.ok),
            "verified": sum(1 for op in ops if op.extra.get("verified")),
            "errors": sorted({op.error for op in ops if op.error})[:5],
            "op_counts": counts,
            "timed_wall_s": workload.timed_wall,
            "setup_samples_s": setups,
            "generate_s": generate_s,
            "leaked_segments": leaked,
            "counters": {
                key: value for key, value in workload.counters.items()
                if isinstance(value, (int, float, dict))
            },
            "end_to_end": end_to_end(workload, ops, setups, rss_self,
                                     rss_children),
        }
        if tracer is not None:
            tracing.uninstall()
            info = {
                "generate_s": generate_s,
                "timed_lo": timed_lo,
                "timed_hi": timed_hi,
                "untraced_wall": args.untraced_wall,
                "leaked_segments": len(leaked),
                "spmm": spmm,
            }
            result["per_layer"] = per_layer_metrics(
                workload, ops, tracer.spans, info
            )
            tracer.dump(args.trace_file, {
                "workload": args.workload, "seed": args.seed,
                "timed_lo": timed_lo, "timed_hi": timed_hi,
            })
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--untraced-wall", type=float, default=None)
    parser.add_argument("--verify-all", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

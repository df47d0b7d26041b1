#!/usr/bin/env python3
"""Native vs scipy linear-algebra backend on the large-dense-cohort
workload, with a hard parity + speedup gate.

The native backend exists for exactly one regime: stacked products of
a *dense-ish* chain against a wide block of object rows, where turning
the CSR sweep into a contiguous (JIT or BLAS) GEMM beats scipy's
general sparse kernels.  This benchmark builds that regime on purpose
-- one dense random chain (density ~0.25-0.3), a cohort of hundreds of
point-observed objects, the object-based stacked sweep forced, filters
off -- and requires:

1. **parity**: native values within 1e-12 of the scipy backend on
   every object (it is an optimisation, never a semantics change);
2. **speedup**: native >= 1.5x over scipy on this workload, in smoke
   and full mode alike (the win comes from kernel shape, not core
   count, so the gate holds on single-core CI too).

The k-times suffix-count sweep is timed and reported as well (same
parity bar) but only the object-based gate decides the exit code.

Everything lands in ``BENCH_backends.json``.  No other benchmark runs
the native kernels on a chain dense enough to take them: the
end-to-end workloads' chains stay below the density threshold, so
there ``linalg.spmm_ms.native`` reads the same as scipy.

Run:  PYTHONPATH=src python benchmarks/benchmark_backends.py [--smoke]
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro import (
    PlanOptions,
    PSTExistsQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.markov import MarkovChain
from repro.linalg import native

from _bench_result import bench_name, write_result

REQUIRED_SPEEDUP = 1.5
PARITY = 1e-12


def _dense_cohort(
    n_states: int, density: float, n_objects: int, seed: int = 42
):
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_states, n_states))
    matrix *= rng.random((n_states, n_states)) < density
    matrix += np.eye(n_states) * 0.05  # no empty rows
    matrix /= matrix.sum(axis=1, keepdims=True)
    database = TrajectoryDatabase.with_chain(
        MarkovChain(sp.csr_matrix(matrix)), chain_id="dense"
    )
    for index in range(n_objects):
        database.add(
            UncertainObject.at_state(
                f"obj-{index}",
                n_states,
                int(rng.integers(0, n_states)),
                0,
                chain_id="dense",
            )
        )
    return database


def _time_backend(engine, query, options, repeats: int):
    result = engine.evaluate(query, options=options)  # warm
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = engine.evaluate(query, options=options)
        best = min(best, time.perf_counter() - started)
    return best, result


def _max_delta(reference, other) -> float:
    worst = 0.0
    for object_id, expected in reference.values.items():
        delta = np.max(
            np.abs(
                np.asarray(expected, dtype=float)
                - np.asarray(other.values[object_id], dtype=float)
            )
        )
        worst = max(worst, float(delta))
    return worst


def run(
    n_states: int,
    density: float,
    n_objects: int,
    repeats: int,
    smoke: bool,
) -> int:
    database = _dense_cohort(n_states, density, n_objects)
    engine = QueryEngine(database)
    window = SpatioTemporalWindow.from_ranges(
        10, min(60, n_states - 1), 8, 12
    )
    native.prewarm()  # the JIT compile is a startup cost, not a kernel cost
    status = native.compile_status()
    print(
        f"workload: {n_objects} objects, {n_states} states, "
        f"density {density:g}, window [10,{min(60, n_states - 1)}] x "
        f"[8,12], best of {repeats}; native mode: {status['mode']}"
    )

    base = dict(prefilter=False, bfs_prune=False, dispatch="serial")
    kernels = {
        "ob": (PSTExistsQuery(window), dict(method="ob")),
        # k-times has exactly one exact method (the Section VII
        # suffix-count sweep), so no method override is needed
        "ct": (PSTKTimesQuery(window), dict()),
    }
    seconds: Dict[str, float] = {}
    deltas: Dict[str, float] = {}
    for kernel, (query, extra) in kernels.items():
        timings = {}
        results = {}
        for backend in ("scipy", "native"):
            timings[backend], results[backend] = _time_backend(
                engine,
                query,
                PlanOptions(**base, **extra, backend=backend),
                repeats,
            )
        deltas[kernel] = _max_delta(results["scipy"], results["native"])
        seconds[f"{kernel}_scipy"] = timings["scipy"]
        seconds[f"{kernel}_native"] = timings["native"]
        print(
            f"{kernel}: scipy {timings['scipy'] * 1e3:8.1f} ms, "
            f"native {timings['native'] * 1e3:8.1f} ms "
            f"({timings['scipy'] / timings['native']:.2f}x), "
            f"max |delta| {deltas[kernel]:.2e}"
        )

    speedup = seconds["ob_scipy"] / seconds["ob_native"]
    print(
        f"gate: ob native speedup {speedup:.2f}x "
        f"(required: {REQUIRED_SPEEDUP:.1f}x), parity bar {PARITY:g}"
    )

    write_result(bench_name(__file__), {
        "kind": "standalone",
        "smoke": smoke,
        "config": {
            "n_states": n_states,
            "density": density,
            "n_objects": n_objects,
            "repeats": repeats,
            "native_mode": status["mode"],
        },
        "ob_scipy_seconds": seconds["ob_scipy"],
        "ob_native_seconds": seconds["ob_native"],
        "ct_scipy_seconds": seconds["ct_scipy"],
        "ct_native_seconds": seconds["ct_native"],
        "speedup_native_vs_scipy": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "max_abs_delta": max(deltas.values()),
    })

    failed = False
    for kernel, delta in deltas.items():
        if delta > PARITY:
            print(
                f"FAIL: {kernel} backend parity broken: {delta:.2e} "
                f"> {PARITY:g}",
                file=sys.stderr,
            )
            failed = True
    if speedup < REQUIRED_SPEEDUP:
        print(
            f"FAIL: native speedup {speedup:.2f}x below required "
            f"{REQUIRED_SPEEDUP:.1f}x",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="native vs scipy backend: parity + >=1.5x gate "
                    "on the large-dense-cohort workload"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale CI configuration (same gates, smaller "
             "cohort)",
    )
    parser.add_argument("--states", type=int, default=None)
    parser.add_argument("--objects", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)
    if args.smoke:
        return run(
            n_states=args.states or 600,
            density=0.25,
            n_objects=args.objects or 384,
            repeats=args.repeats or 2,
            smoke=True,
        )
    return run(
        n_states=args.states or 900,
        density=0.3,
        n_objects=args.objects or 512,
        repeats=args.repeats or 3,
        smoke=False,
    )


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""In-RAM process dispatch through the spill vs serial evaluation.

A *single-chain* 2,000-object in-RAM workload runs the stacked
object-based sweep under both dispatch modes.  The sweep holds the GIL
for every sparse product, so inside one interpreter a single chain is
capped at one core -- the gap process dispatch closes: the database is
spilled once per version into the sharded store's slab format
(``/dev/shm`` where that exists) and its slab shards run across worker
processes (:mod:`repro.exec.dispatch`).  Every timed run follows a
version bump (one write and its undo, outside the timer), so each
process run pays one spill.  The script asserts 1e-12 parity of the two
modes on every object and, **on machines with >= 2 cores**, requires
the process pool to beat serial evaluation by >= 1.5x, spill included.
``--smoke`` never gates speedup: a tens-of-milliseconds workload
measures dispatch overhead, not scaling -- smoke's job is parity and
machinery coverage in CI.

``--case long`` reports, without a gate, where process dispatch pays
most: a wide region over a long window (2,000 objects, 4,000 states,
region [0, 1599], times [60, 120]), serial against process, both on
the in-RAM database and on a 16-shard store of it, where each worker
sweeps its eight shards as one stack.  No run bumps the version, so
the timings are of the warm sweep alone.  ``--smoke`` runs both cases
at a small size and gates parity only.

Everything lands in ``BENCH_dispatch.json``.

Run:  PYTHONPATH=src python benchmarks/benchmark_dispatch.py [--smoke]
      [--case default|long]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import PlanOptions, PSTExistsQuery, QueryEngine, UncertainObject
from repro.store import ShardedTrajectoryStore
from repro.workloads.synthetic import (
    SyntheticConfig,
    make_synthetic_database,
)

from _bench_result import bench_name, write_result

MIN_CORES_FOR_GATE = 2


def _bump_version(database) -> None:
    """One write and its undo: the version moves, no answer does."""
    template = next(iter(database))
    database.add(UncertainObject(
        object_id="__version-bump__",
        observations=template.observations,
        chain_id=template.chain_id,
    ))
    database.remove("__version-bump__")


def _time_mode(
    engine: QueryEngine,
    query: PSTExistsQuery,
    options: PlanOptions,
    repeats: int,
    bump: bool = True,
) -> float:
    best = float("inf")
    for _ in range(repeats):
        if bump:
            _bump_version(engine.database)
        started = time.perf_counter()
        engine.evaluate(query, options=options)
        best = min(best, time.perf_counter() - started)
    return best


def run(
    n_objects: int,
    n_states: int,
    repeats: int,
    required_speedup: Optional[float],
    smoke: bool,
) -> Tuple[int, Dict]:
    cores = os.cpu_count() or 1
    workers = max(2, min(8, cores))
    database = make_synthetic_database(
        SyntheticConfig(
            n_objects=n_objects, n_states=n_states, seed=13
        )
    )
    engine = QueryEngine(database)
    query = PSTExistsQuery.from_ranges(
        100, min(140, n_states - 1), 20, 25
    )
    # one chain, OB forced, filters off: every mode runs the identical
    # stacked sweep over all objects, so the *dispatch layer* is the
    # only variable being measured
    base = dict(method="ob", prefilter=False, bfs_prune=False)
    modes: Dict[str, PlanOptions] = {
        "serial": PlanOptions(**base, dispatch="serial"),
        "process": PlanOptions(
            **base, dispatch="process", max_workers=workers
        ),
    }
    print(
        f"workload: {n_objects} objects, 1 chain, {n_states} states, "
        f"window [100,{min(140, n_states - 1)}] x [20,25], "
        f"{cores} cores, {workers} workers, best of {repeats}"
    )

    # warm the pool and the plan cache so the fork and the matrix
    # builds are amortised the way a standing service amortises them;
    # the spill is not -- every timed run re-lays it
    results = {
        name: engine.evaluate(query, options=options)
        for name, options in modes.items()
    }
    worst = max(
        abs(
            results["process"].values[object_id]
            - results["serial"].values[object_id]
        )
        for object_id in database.object_ids
    )
    assert worst <= 1e-12, f"dispatch parity broken: {worst}"

    seconds = {
        name: _time_mode(engine, query, options, repeats)
        for name, options in modes.items()
    }
    speedup = seconds["serial"] / seconds["process"]
    for name in ("serial", "process"):
        print(f"{name:>8}: {seconds[name] * 1e3:9.1f} ms")
    gated = (
        required_speedup is not None and cores >= MIN_CORES_FOR_GATE
    )
    if gated:
        note = f"(required: {required_speedup:.1f}x)"
    elif required_speedup is None:
        note = "(smoke: parity only, speedup not gated)"
    else:
        note = f"(gate skipped: {cores} < {MIN_CORES_FOR_GATE} cores)"
    print(f"process vs serial: {speedup:5.2f}x  {note}")
    print(f"max |delta|      : {worst:.2e}")

    payload = {
        "kind": "standalone",
        "smoke": smoke,
        "config": {
            "n_objects": n_objects,
            "n_states": n_states,
            "repeats": repeats,
            "cores": cores,
            "workers": workers,
        },
        "serial_seconds": seconds["serial"],
        "process_seconds": seconds["process"],
        "speedup_process_vs_serial": speedup,
        "required_speedup": required_speedup if gated else None,
        "max_abs_delta": worst,
    }

    if gated and speedup < required_speedup:
        print(
            f"FAIL: process speedup {speedup:.2f}x below required "
            f"{required_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1, payload
    print("OK")
    return 0, payload


def run_long(
    n_objects: int,
    n_states: int,
    times: Tuple[int, int],
    shards: int,
    repeats: int,
) -> Dict:
    """Serial vs process on a wide, long object-based sweep, in-RAM and
    on a ``shards``-shard store; gates parity only."""
    cores = os.cpu_count() or 1
    workers = max(2, min(8, cores))
    database = make_synthetic_database(
        SyntheticConfig(n_objects=n_objects, n_states=n_states, seed=13)
    )
    region_end = n_states * 2 // 5 - 1
    query = PSTExistsQuery.from_ranges(0, region_end, *times)
    base = dict(method="ob", prefilter=False, bfs_prune=False)
    modes: Dict[str, PlanOptions] = {
        "serial": PlanOptions(**base, dispatch="serial"),
        "process": PlanOptions(
            **base, dispatch="process", max_workers=workers
        ),
    }
    print(
        f"long sweep: {n_objects} objects, 1 chain, {n_states} states, "
        f"window [0,{region_end}] x [{times[0]},{times[1]}], "
        f"{cores} cores, {workers} workers, best of {repeats}"
    )
    reference = QueryEngine(database).evaluate(
        query, options=modes["serial"]
    ).values
    seconds: Dict[str, Dict[str, float]] = {}
    worst = 0.0
    with tempfile.TemporaryDirectory(prefix="bench-dispatch-") as root:
        targets = {
            "in-RAM": database,
            f"store x{shards}": ShardedTrajectoryStore.create(
                Path(root) / "store", database, shards_per_chain=shards
            ),
        }
        for label, target in targets.items():
            engine = QueryEngine(target)
            for options in modes.values():  # warm pool, caches, slabs
                values = engine.evaluate(query, options=options).values
                worst = max(worst, max(
                    abs(values[object_id] - expected)
                    for object_id, expected in reference.items()
                ))
            seconds[label] = {
                name: _time_mode(engine, query, options, repeats, bump=False)
                for name, options in modes.items()
            }
            serial, process = seconds[label]["serial"], seconds[label]["process"]
            print(
                f"{label:>10}: serial {serial * 1e3:9.1f} ms, process "
                f"{process * 1e3:9.1f} ms ({serial / process:5.2f}x)"
            )
    assert worst <= 1e-12, f"long-sweep parity broken: {worst}"
    print(f"max |delta|      : {worst:.2e}  (report only, no speed gate)")
    return {
        "config": {
            "n_objects": n_objects,
            "n_states": n_states,
            "region": [0, region_end],
            "times": list(times),
            "shards": shards,
            "repeats": repeats,
            "workers": workers,
        },
        "seconds": seconds,
        "max_abs_delta": worst,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="in-RAM process dispatch through the spill vs "
                    "serial evaluation"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale CI configuration (parity gate only; "
             "speedup reported, not gated)",
    )
    parser.add_argument(
        "--case",
        choices=("default", "long"),
        default=None,
        help="run one case (default: the default case; both under "
             "--smoke)",
    )
    parser.add_argument("--objects", type=int, default=None)
    parser.add_argument("--states", type=int, default=None)
    args = parser.parse_args(argv)
    cases = [args.case] if args.case else (
        ["default", "long"] if args.smoke else ["default"]
    )
    code, payload = 0, {"kind": "standalone", "smoke": args.smoke}
    if "default" in cases:
        if args.smoke:
            code, payload = run(
                n_objects=args.objects or 400,
                n_states=args.states or 1_500,
                repeats=2,
                required_speedup=None,
                smoke=True,
            )
        else:
            code, payload = run(
                n_objects=args.objects or 2_000,
                n_states=args.states or 4_000,
                repeats=5,
                required_speedup=1.5,
                smoke=False,
            )
    if "long" in cases:
        payload["long"] = run_long(
            n_objects=args.objects or (300 if args.smoke else 2_000),
            n_states=args.states or (1_500 if args.smoke else 4_000),
            times=(30, 60) if args.smoke else (60, 120),
            shards=16,
            repeats=2 if args.smoke else 3,
        )
    write_result(bench_name(__file__), payload)
    return code


if __name__ == "__main__":
    sys.exit(main())

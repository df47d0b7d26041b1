"""The ``repro-bench`` command line.

Examples::

    repro-bench --list
    repro-bench fig8a
    repro-bench --all --scale 0.5 --output results/
    repro-bench --all --smoke

Each experiment prints an ASCII table to stdout; with ``--output`` it
also writes ``<id>.md`` and ``<id>.csv`` into the given directory.
``--smoke`` runs experiments at :data:`SMOKE_SCALE` (the whole registry
in seconds, for CI).

``repro-bench doctor`` is the spill health check: it lists every
``repro-*`` spill directory (the scratch stores process dispatch
writes in-RAM databases to) with its owning PID and liveness, sweeps
spills leaked by dead sessions (skip with ``--no-sweep``), and prints
the live-byte accounting of :func:`repro.exec.dispatch.memory_stats`.
Exit code 0 means no leaked bytes remain; 1 means orphans survived the
sweep (or were left by ``--no-sweep``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import to_ascii_table, to_csv, to_markdown

__all__ = ["main"]

#: the ``--smoke`` size multiplier: every experiment still runs every
#: code path, and the whole registry takes seconds
SMOKE_SCALE = 0.05


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the evaluation of 'Querying Uncertain "
                    "Spatio-Temporal Data' (ICDE 2012).",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (see --list), or the special "
             "command 'doctor'",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"seconds-scale CI run: experiments at --scale "
             f"{SMOKE_SCALE:g}",
    )
    parser.add_argument(
        "--no-sweep",
        action="store_true",
        help="doctor: report orphaned spills and stale store "
             "snapshots without removing them",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="doctor: also report the health of the sharded "
             "trajectory store at this path (shard count, slab and "
             "journal bytes, mapped-slab residency, stale snapshot "
             "generations) and sweep the stale generations",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="size multiplier for databases/state spaces (default 1.0 = "
             "laptop scale; ignored under --smoke)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory for per-experiment .md and .csv files",
    )
    return parser


def _run_doctor(args) -> int:
    """``repro-bench doctor``: health check of the spills.

    Lists the scratch spills, then runs the janitor and accounting.
    The exit code reflects only leaked bytes.
    """
    from repro.exec.dispatch import (
        list_segments,
        memory_stats,
        sweep_orphans,
    )

    spills = list_segments()
    if spills:
        print(f"{'spill':<32} {'pid':>8} {'bytes':>12} state")
        for info in spills:
            state = "live" if info.alive else "ORPHAN"
            print(
                f"{info.name:<32} {info.pid:>8} {info.size:>12} "
                f"{state}"
            )
    else:
        print("no repro-* spills found")
    if not args.no_sweep:
        swept = sweep_orphans()
        if swept:
            reclaimed = sum(info.size for info in swept)
            print(
                f"swept {len(swept)} orphaned spill(s), "
                f"reclaimed {reclaimed} bytes"
            )
        else:
            print("nothing to sweep")
    stats = memory_stats()
    print(
        f"session bytes : {stats['session_bytes']}\n"
        f"machine bytes : {stats['machine_bytes']} "
        f"({stats['segments']} spill(s))\n"
        f"leaked bytes  : {stats['orphan_bytes']}"
    )
    if args.store is not None:
        from repro.store.sharded import (
            store_health,
            sweep_stale_snapshots,
        )

        report = store_health(args.store)
        pool = report["pool"]
        print(
            f"store         : {report['path']} "
            f"(id={report['store_id']}, "
            f"generation={report['generation']})\n"
            f"  shards      : {report['shards']} holding "
            f"{report['objects']} object(s), "
            f"{report['slab_bytes']} slab bytes\n"
            f"  journal     : {report['journal_records']} record(s), "
            f"{report['journal_bytes']} bytes\n"
            f"  residency   : {pool['mapped_slabs']} slab(s) mapped, "
            f"{pool['mapped_bytes']} mapped bytes "
            f"(high water {pool['high_water_bytes']}), "
            f"{pool['evictions']} eviction(s)"
        )
        stale = report["stale_snapshots"]
        if stale:
            print(
                f"  stale       : {len(stale)} snapshot "
                f"generation(s), {report['stale_snapshot_bytes']} "
                f"bytes: {', '.join(stale)}"
            )
            if not args.no_sweep:
                removed, freed = sweep_stale_snapshots(args.store)
                print(
                    f"  swept {removed} stale snapshot(s), "
                    f"reclaimed {freed} bytes"
                )
        else:
            print("  stale       : none")
    return 0 if stats["orphan_bytes"] == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    if args.experiments and args.experiments[0] == "doctor":
        if len(args.experiments) > 1:
            print("doctor takes no extra experiment ids", file=sys.stderr)
            return 2
        return _run_doctor(args)
    if args.list:
        for experiment_id in sorted(EXPERIMENTS):
            print(experiment_id)
        return 0
    ids = sorted(EXPERIMENTS) if args.all else args.experiments
    if not ids:
        print(
            "no experiments selected (use ids, --all, or --list)",
            file=sys.stderr,
        )
        return 2
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        return 2
    if args.output is not None:
        args.output.mkdir(parents=True, exist_ok=True)
    scale = SMOKE_SCALE if args.smoke else args.scale
    for experiment_id in ids:
        series = run_experiment(experiment_id, scale=scale)
        print(to_ascii_table(series))
        if args.output is not None:
            (args.output / f"{experiment_id}.md").write_text(
                to_markdown(series)
            )
            (args.output / f"{experiment_id}.csv").write_text(
                to_csv(series)
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Compare two end-to-end results, metric by metric, workload by workload.

    python benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are results of ``run.py --repeat R`` with
``R >= 3`` -- two candidates measured on the same box with the same
seed (a committed baseline from another machine or day is not a
candidate; this script refuses nothing, but its verdicts only mean
something for candidate against candidate).  A is the base.

For every workload and end-to-end metric both sides report it prints
each side's median, the ratio B/A with its base, each side's
run-to-run spread (interquartile range over median) and a verdict:

``ok``          B is within the metric's bound of A;
``improved``    B is better than A by more than bound and spread;
``REGRESSION``  B is worse than A by more than bound and spread;
``unresolved``  the spread of either side exceeds the bound, so
                "unchanged" cannot be told from "changed".

``failed_frac`` has no tolerance: any increase is a regression.  Exit
status is 1 on any regression, 2 on unusable input, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import END_TO_END  # noqa: E402

MIN_RUNS = 3


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    center = statistics.median(values)
    if center == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(center)


def verdict(name: str, base: List[float], other: List[float]
            ) -> Tuple[str, float, float, float, float]:
    """``(verdict, median A, median B, spread A, spread B)``."""
    _unit, better, bound = END_TO_END[name]
    a, b = statistics.median(base), statistics.median(other)
    spread_a, spread_b = spread(base), spread(other)
    if name == "failed_frac":
        return ("REGRESSION" if b > a else "ok"), a, b, spread_a, spread_b
    worse = (b - a) / a if better == "lower" else (a - b) / a
    noise = max(spread_a, spread_b)
    if worse > max(bound, noise):
        result = "REGRESSION"
    elif noise > bound:
        result = "unresolved"
    elif -worse > max(bound, noise):
        result = "improved"
    else:
        result = "ok"
    return result, a, b, spread_a, spread_b


def samples(document: Dict[str, Any], workload: str, name: str
            ) -> List[float]:
    return [
        run["end_to_end"][name]
        for run in document["runs"][workload]
        if name in run["end_to_end"]
    ]


def compare(base: Dict[str, Any], other: Dict[str, Any]) -> int:
    status = 0
    counts = {"ok": 0, "improved": 0, "REGRESSION": 0, "unresolved": 0}
    for workload in base["runs"]:
        if workload not in other["runs"]:
            continue
        print(f"\n== {workload} ==")
        print(f"{'metric':<20}{'A median':>14}{'B median':>14}  "
              f"{'B/A':>7}  {'spread A':>8} {'spread B':>8}  "
              f"{'bound':>6}  verdict")
        for name, (unit, _better, bound) in END_TO_END.items():
            a_values = samples(base, workload, name)
            b_values = samples(other, workload, name)
            if not a_values or not b_values:
                continue
            if min(len(a_values), len(b_values)) < MIN_RUNS:
                print(f"compare.py: {workload}/{name}: need >= {MIN_RUNS} "
                      f"runs per side, got {len(a_values)} and "
                      f"{len(b_values)}", file=sys.stderr)
                return 2
            result, a, b, spread_a, spread_b = verdict(
                name, a_values, b_values
            )
            counts[result] += 1
            if result == "REGRESSION":
                status = 1
            ratio = f"{b / a:7.3f}" if a else "    n/a"
            print(f"{name:<20}{a:>14.4f}{b:>14.4f}  {ratio}  "
                  f"{spread_a:>8.3f} {spread_b:>8.3f}  {bound:>6.2f}  "
                  f"{result}  (base {a:.4g} {unit})")
    print("\n" + ", ".join(f"{count} {name}" for name, count in
                           counts.items()))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    for key in ("seed", "seconds", "scale"):
        if documents[0].get(key) != documents[1].get(key):
            print(f"compare.py: the two results differ in {key!r}: "
                  f"{documents[0].get(key)!r} vs {documents[1].get(key)!r}",
                  file=sys.stderr)
            return 2
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main())

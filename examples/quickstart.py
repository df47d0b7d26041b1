#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Reproduces Sections V-A, V-B and VII of "Querying Uncertain
Spatio-Temporal Data" (Emrich et al., ICDE 2012) on the 3-state
Markov chain used throughout the paper:

* the PST-exists probability 0.864 via both processing strategies,
* the visit-count distribution (0.136, 0.672, 0.192),
* the Monte-Carlo baseline converging to the same value,
* a tiny database queried through the engine facade.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro


def main() -> None:
    # --- the model: a 3-state homogeneous Markov chain -----------------
    chain = repro.MarkovChain(
        [
            [0.0, 0.0, 1.0],  # from s1: always to s3
            [0.6, 0.0, 0.4],  # from s2: to s1 (60%) or s3 (40%)
            [0.0, 0.8, 0.2],  # from s3: to s2 (80%) or stay (20%)
        ]
    )

    # --- the query window: S = {s1, s2}, T = {2, 3} --------------------
    window = repro.SpatioTemporalWindow(
        region=frozenset({0, 1}), times=frozenset({2, 3})
    )

    # --- the object: observed at s2 at time 0 --------------------------
    start = repro.StateDistribution.point(3, 1)

    print("== PST-exists query (paper Sections V-A / V-B) ==")
    p_ob = repro.ob_exists_probability(chain, start, window)
    p_qb = repro.qb_exists_probability(chain, start, window)
    print(f"object-based answer : {p_ob:.3f}   (paper: 0.864)")
    print(f"query-based answer  : {p_qb:.3f}   (paper: 0.864)")

    print("\n== the query-based backward vector (paper Example 2) ==")
    evaluator = repro.QueryBasedEvaluator(chain, window)
    for state in range(3):
        print(
            f"an object starting at s{state + 1} satisfies the query "
            f"with probability {evaluator.state_probability(state):.3f}"
        )

    print("\n== PST-k-times query (paper Section VII) ==")
    distribution = repro.ktimes_distribution(chain, start, window)
    for k, probability in enumerate(distribution):
        print(f"inside the window exactly {k} time(s): {probability:.3f}")

    print("\n== Monte-Carlo baseline (paper Section VIII-A) ==")
    for n_samples in (100, 10_000):
        result = repro.mc_exists_probability(
            chain, start, window, n_samples=n_samples, seed=0
        )
        print(
            f"{n_samples:>6} samples: estimate {result.estimate:.3f} "
            f"(std. err. {result.standard_error:.3f})"
        )

    print("\n== a database of objects, queried in batch ==")
    database = repro.TrajectoryDatabase.with_chain(chain)
    for index, state in enumerate((0, 1, 2)):
        database.add(
            repro.UncertainObject.at_state(f"obj-{index}", 3, state)
        )
    engine = repro.QueryEngine(database)
    result = engine.evaluate(
        repro.PSTExistsQuery(window), method="qb"
    )
    for object_id in database.object_ids:
        print(f"{object_id}: P_exists = {result.values[object_id]:.3f}")
    print(f"(answered {len(result)} objects in "
          f"{result.elapsed_seconds * 1000:.2f} ms)")

    # The engine evaluates all objects sharing a chain in one batched
    # sweep, and its plan cache keeps the backward vectors across
    # queries -- so a monitoring loop that re-issues the same window
    # pays the backward pass only once.
    # Pass plan_cache=repro.PlanCache() shared between engines to
    # amortise across sessions.
    repeat = engine.evaluate(repro.PSTExistsQuery(window), method="qb")
    stats = engine.plan_cache.stats
    print(f"\n== plan cache after a repeated query ==")
    print(f"constructions: {stats.total_constructions}, "
          f"hits: {stats.hits} "
          f"(repeat took {repeat.elapsed_seconds * 1000:.2f} ms)")


if __name__ == "__main__":
    main()

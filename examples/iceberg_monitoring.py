#!/usr/bin/env python3
"""Iceberg monitoring: the paper's motivating application.

The International Ice Patrol scenario from the paper's introduction:
icebergs near the Grand Banks drift with the current; sightings are
uncertain and become stale.  The Markov model answers:

1. *exists*: which icebergs have non-zero probability to enter a ship's
   route during its crossing window?
2. *for-all*: which icebergs will (probably) stay inside a survey region
   long enough for measurements?
3. *k-times*: for how many timestamps is an iceberg expected inside the
   shipping lane?
4. forecasting: which route cells will see the densest ice, and when
   will the most dangerous iceberg first reach the route?

Run:  python examples/iceberg_monitoring.py
"""

from __future__ import annotations

import repro
from repro.workloads.icebergs import (
    OceanCurrentField,
    make_iceberg_database,
)


def main() -> None:
    # a 16 x 16 ocean raster; the current is a gyre plus southward drift
    grid = repro.GridStateSpace(16, 16)
    field = OceanCurrentField(
        gyre_center=(8.0, 8.0), gyre_strength=0.25, drift=(0.0, -0.8)
    )
    database = make_iceberg_database(
        grid,
        n_icebergs=25,
        sighting_uncertainty=1,
        field=field,
        diffusion=0.35,
        seed=42,
    )
    chain = database.chain()
    engine = repro.QueryEngine(database)

    # ------------------------------------------------------------------
    # 1. ship route: a corridor crossed during timestamps 3..8
    # ------------------------------------------------------------------
    route = grid.box(0, 4, 15, 6)
    crossing = repro.SpatioTemporalWindow(
        frozenset(route), frozenset(range(3, 9))
    )
    exists = engine.evaluate(repro.PSTExistsQuery(crossing), method="qb")
    dangerous = exists.above(0.05)
    print("== icebergs threatening the ship route (P >= 5%) ==")
    for object_id, probability in sorted(
        dangerous.items(), key=lambda pair: -pair[1]
    ):
        print(f"  {object_id}: {probability:.3f}")
    print(f"  ({len(dangerous)} of {len(database)} icebergs)")

    # ------------------------------------------------------------------
    # 2. survey region: icebergs that stay put for timestamps 2..5
    # ------------------------------------------------------------------
    survey = grid.box(5, 5, 10, 10)
    stay = repro.SpatioTemporalWindow(
        frozenset(survey), frozenset(range(2, 6))
    )
    forall = engine.evaluate(repro.PSTForAllQuery(stay), method="qb")
    stable = forall.top(3)
    print("\n== best survey candidates (stay in region, t = 2..5) ==")
    for object_id, probability in stable:
        print(f"  {object_id}: P_forall = {probability:.3f}")

    # ------------------------------------------------------------------
    # 3. exposure: visit-count distribution for the most dangerous berg
    # ------------------------------------------------------------------
    worst_id = exists.top(1)[0][0]
    ktimes = engine.evaluate(repro.PSTKTimesQuery(crossing), method="qb")
    distribution = ktimes.values[worst_id]
    print(f"\n== lane-exposure distribution for {worst_id} ==")
    for k, probability in enumerate(distribution):
        if probability > 0.005:
            print(f"  in the lane at exactly {k} timestamps: "
                  f"{probability:.3f}")

    # ------------------------------------------------------------------
    # 4. occupancy forecast: the route cells expected to hold most ice
    # ------------------------------------------------------------------
    occupancy = sum(
        chain.propagate(obj.initial.distribution, 6).vector
        for obj in database
    )
    print("\n== route cells expected to hold the most ice at t = 6 ==")
    for state in sorted(route, key=lambda s: -occupancy[s])[:5]:
        x, y = grid.cell_of_state(state)
        print(f"  cell ({x:2d}, {y:2d}): E[count] = {occupancy[state]:.2f}")

    # ------------------------------------------------------------------
    # 5. when will the most dangerous iceberg first reach the lane?
    #    P(entered by t) is PST-exists over {1..t} (Section V-B); its
    #    increments are the first-entry distribution
    # ------------------------------------------------------------------
    start = database.get(worst_id).initial.distribution
    entered = [0.0] + [
        repro.qb_exists_probability(chain, start, repro.SpatioTemporalWindow(
            frozenset(route), frozenset(range(1, t + 1))))
        for t in range(1, 13)
    ]
    print(f"\n== first-entry forecast for {worst_id} ==")
    for t in range(1, 13):
        if entered[t] - entered[t - 1] > 0.005:
            print(f"  first in the lane at t = {t}: "
                  f"{entered[t] - entered[t - 1]:.3f}")
    print(f"  P(reaches the lane within 12 steps) = {entered[-1]:.3f}")


if __name__ == "__main__":
    main()

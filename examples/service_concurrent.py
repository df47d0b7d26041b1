#!/usr/bin/env python3
"""Many concurrent clients, one engine: the query service tier.

Demonstrates :class:`repro.QueryService` end to end:

* 24 concurrent clients across 3 tenants submit overlapping queries;
  queued requests sharing a fusion fingerprint join one group and are
  answered by a single stacked evaluation (watch the
  evaluations-vs-requests ratio),
* each caller's plan carries ``fusion`` events showing what was
  merged and what it paid,
* the same query asked again at the same database version is answered
  from the answer already in hand, without an evaluation,
* admission control rejects a tenant whose budget is exhausted and a
  request whose deadline the cost model says cannot be met,
* a standing query registered through the service bills its ticks to
  the owning tenant.

Run:  python examples/service_concurrent.py
"""

from __future__ import annotations

import asyncio

import numpy as np

import repro
from repro.core.state_space import LineStateSpace
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

N_STATES = 300


def build_database() -> repro.TrajectoryDatabase:
    rng = np.random.default_rng(7)
    database = repro.TrajectoryDatabase(
        N_STATES, state_space=LineStateSpace(N_STATES)
    )
    for index in range(3):
        database.register_chain(
            f"chain-{index}", make_line_chain(N_STATES, rng=rng)
        )
    for index in range(60):
        database.add(
            repro.UncertainObject.with_distribution(
                f"obj-{index}",
                make_object_distribution(N_STATES, 5, rng),
                time=int(rng.integers(0, 5)),
                chain_id=f"chain-{index % 3}",
            )
        )
    return database


async def main() -> None:
    engine = repro.QueryEngine(build_database())
    queries = [
        repro.PSTExistsQuery(
            repro.SpatioTemporalWindow.from_ranges(
                80 + 10 * i, 110 + 10 * i, 8, 11
            )
        )
        for i in range(3)  # two fingerprints across 24 clients, one spare
    ]

    async with repro.QueryService(engine) as service:
        print("== concurrent burst: 24 clients, 2 distinct queries ==")
        results = await asyncio.gather(
            *(
                service.submit(
                    queries[i % 2], tenant=f"tenant-{i % 3}"
                )
                for i in range(24)
            )
        )
        print(
            f"{len(results)} answers from {service.evaluations} "
            f"engine evaluation(s) ({service.fused_calls} fused)"
        )
        print("one caller's fusion events:")
        for event in results[0].plan.fusion:
            print(f"  {event}")

        print("\n== the same query again, no write in between ==")
        evaluations = service.evaluations
        again = await service.submit(queries[0], tenant="tenant-0")
        assert service.evaluations == evaluations
        assert again.values == results[0].values
        print(
            f"answered without an evaluation "
            f"({service.reused} reused answer(s)):"
        )
        for event in again.plan.fusion:
            print(f"  {event}")

        print("\n== admission control ==")
        service.set_tenant_budget("freeloader", 0.0)
        for kwargs in (
            {"tenant": "freeloader"},
            {"deadline_seconds": 0.0},
        ):
            try:
                # a query not answered yet: a reused one is priced at 0s
                await service.submit(queries[2], **kwargs)
            except repro.AdmissionRejected as rejection:
                print(f"rejected ({rejection.reason}): {rejection}")

        print("\n== standing query owned by a tenant ==")
        standing = service.watch(queries[0], tenant="monitor")
        tick = await standing.tick()
        batch = engine.evaluate(queries[0])
        worst = max(
            abs(tick.values[o] - batch.values[o]) for o in batch.values
        )
        print(f"tick matches batch evaluation: max |delta| = {worst:.1e}")

        print("\n== tenant accounts ==")
        header = f"{'tenant':<12} {'admitted':>8} {'rejected':>8} {'fused':>6}"
        print(header)
        for name, account in sorted(service.ledger.accounts().items()):
            print(
                f"{name:<12} {account.admitted:>8} "
                f"{account.rejected:>8} {account.fused:>6}"
            )


if __name__ == "__main__":
    asyncio.run(main())

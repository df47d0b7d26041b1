"""Query service: fusion parity, admission control, tenant accounting.

The load-bearing property mirrors the dispatch and fault suites: no
matter how many concurrent clients the broker fuses into one stacked
evaluation -- and no matter what the supervised process pool has to
survive underneath -- every client's values stay within 1e-12 of a
serial ``QueryEngine.evaluate`` of the same query.  Everything else
here is the service contract around that: typed admission rejections,
per-tenant budgets, fusion events on the plan, quarantine surfaced to
the owning tenant, drain-on-stop.
"""

from __future__ import annotations

import asyncio
import warnings

import numpy as np
import pytest

from repro import (
    AdmissionRejected,
    FaultInjector,
    FaultSpec,
    PlanOptions,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    QueryService,
    SpatioTemporalWindow,
    SupervisorPolicy,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.errors import ValidationError
from repro.core.state_space import LineStateSpace
from repro.exec import dispatch
from repro.service.broker import (
    PendingRequest,
    RequestBroker,
    fusion_key,
)
from repro.service.tenants import TenantLedger
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

N_STATES = 300
WINDOW = SpatioTemporalWindow.from_ranges(80, 110, 8, 11)
OTHER_WINDOW = SpatioTemporalWindow.from_ranges(120, 150, 8, 11)

needs_processes = pytest.mark.skipif(
    not dispatch.process_dispatch_available(),
    reason="process dispatch unavailable",
)


def build_database(
    seed: int, n_objects: int = 40, n_chains: int = 3
) -> TrajectoryDatabase:
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase(
        N_STATES, state_space=LineStateSpace(N_STATES)
    )
    for index in range(n_chains):
        database.register_chain(
            f"chain-{index}", make_line_chain(N_STATES, rng=rng)
        )
    for index in range(n_objects):
        database.add(
            UncertainObject.with_distribution(
                f"obj-{index}",
                make_object_distribution(N_STATES, 5, rng),
                time=int(rng.integers(0, 5)),
                chain_id=f"chain-{index % n_chains}",
            )
        )
    return database


def assert_parity(values, reference_values):
    assert set(values) == set(reference_values)
    for object_id, expected in reference_values.items():
        assert values[object_id] == pytest.approx(expected, abs=1e-12)


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# broker unit behaviour (no event loop)
# ----------------------------------------------------------------------
class TestFusionKey:
    def test_same_query_same_options_share_a_key(self):
        query = PSTExistsQuery(WINDOW)
        options = PlanOptions()
        assert fusion_key(query, options, 0) == fusion_key(
            PSTExistsQuery(WINDOW), PlanOptions(), 0
        )

    def test_value_affecting_dimensions_split_the_key(self):
        query = PSTExistsQuery(WINDOW)
        base = fusion_key(query, PlanOptions(), 0)
        assert fusion_key(PSTForAllQuery(WINDOW), PlanOptions(), 0) != base
        assert fusion_key(
            PSTKTimesQuery(WINDOW, k=2), PlanOptions(), 0
        ) != base
        assert fusion_key(
            PSTExistsQuery(OTHER_WINDOW), PlanOptions(), 0
        ) != base
        assert fusion_key(
            query, PlanOptions(method="qb"), 0
        ) != base
        # a database mutation between submissions must split groups
        assert fusion_key(query, PlanOptions(), 1) != base

    def test_execution_knobs_do_not_split_the_key(self):
        query = PSTExistsQuery(WINDOW)
        base = fusion_key(query, PlanOptions(), 0)
        assert fusion_key(
            query, PlanOptions(dispatch="process", max_workers=2), 0
        ) == base

    def test_seeded_monte_carlo_fuses_unseeded_never_does(self):
        query = PSTExistsQuery(WINDOW)
        seeded = PlanOptions(method="mc", seed=7)
        assert fusion_key(query, seeded, 0) == fusion_key(
            query, seeded, 0
        )
        unseeded = PlanOptions(method="mc")
        assert fusion_key(query, unseeded, 0) != fusion_key(
            query, unseeded, 0
        )


class TestRequestBroker:
    @staticmethod
    def _request(key, predicted, deadline_at=None):
        return PendingRequest(
            query=PSTExistsQuery(WINDOW),
            options=PlanOptions(),
            tenant="t",
            predicted_seconds=predicted,
            key=key,
            future=None,
            deadline_at=deadline_at,
        )

    def test_drain_fuses_by_key_and_orders_cheapest_first(self):
        broker = RequestBroker()
        broker.add(self._request(("b",), 3.0))
        broker.add(self._request(("a",), 1.0))
        broker.add(self._request(("a",), 1.0))
        groups = broker.drain()
        assert [g.key for g in groups] == [("a",), ("b",)]
        assert [len(g.requests) for g in groups] == [2, 1]
        assert len(broker) == 0

    def test_deadlines_run_before_undated_work(self):
        broker = RequestBroker()
        broker.add(self._request(("cheap",), 0.1))
        broker.add(self._request(("due",), 5.0, deadline_at=10.0))
        broker.add(self._request(("urgent",), 5.0, deadline_at=2.0))
        assert [g.key for g in broker.drain()] == [
            ("urgent",), ("due",), ("cheap",)
        ]

    def test_backlog_prices_the_queue_post_fusion(self):
        broker = RequestBroker()
        for _ in range(5):
            broker.add(self._request(("a",), 2.0))
        broker.add(self._request(("b",), 1.0))
        # five fusable requests cost one evaluation, not five
        assert broker.backlog_seconds() == pytest.approx(3.0)
        assert broker.has_pending(("a",))
        assert not broker.has_pending(("c",))


class TestTenantLedger:
    def test_settle_replaces_prediction_with_measurement(self):
        ledger = TenantLedger()
        ledger.set_budget("t", 10.0)
        ledger.charge("t", 4.0)
        assert ledger.account("t").remaining_seconds == pytest.approx(6.0)
        ledger.settle("t", 4.0, 0.5, fused=True)
        account = ledger.account("t")
        assert account.charged_seconds == pytest.approx(0.5)
        assert account.measured_seconds == pytest.approx(0.5)
        assert account.admitted == 1
        assert account.fused == 1

    def test_budget_validation(self):
        ledger = TenantLedger()
        with pytest.raises(ValidationError):
            ledger.set_budget("t", -1.0)
        with pytest.raises(ValidationError):
            ledger.account("")


# ----------------------------------------------------------------------
# service fusion parity
# ----------------------------------------------------------------------
class TestFusionParity:
    def test_concurrent_clients_match_serial_evaluation(self):
        database = build_database(seed=1)
        engine = QueryEngine(database)
        queries = {
            "exists": PSTExistsQuery(WINDOW),
            "forall": PSTForAllQuery(WINDOW),
            "ktimes": PSTKTimesQuery(WINDOW, k=2),
        }
        references = {
            name: engine.evaluate(query)
            for name, query in queries.items()
        }

        async def main():
            async with QueryService(
                engine, fusion_window_ms=2.0
            ) as service:
                results = await asyncio.gather(*(
                    service.submit(
                        queries[name], tenant=f"tenant-{i % 3}"
                    )
                    for i in range(8)
                    for name in queries
                ))
                return service, results

        service, results = run(main())
        for result in results:
            name = {
                PSTExistsQuery: "exists",
                PSTForAllQuery: "forall",
                PSTKTimesQuery: "ktimes",
            }[type(result.query)]
            assert_parity(result.values, references[name].values)
        # 24 requests, 3 fingerprints: fusion must have collapsed them
        assert service.evaluations < len(results)
        assert service.fused_calls >= 1

    def test_fusion_events_land_on_every_callers_plan(self):
        database = build_database(seed=2)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(
                engine, fusion_window_ms=2.0
            ) as service:
                return await asyncio.gather(*(
                    service.submit(query, tenant=f"t{i}")
                    for i in range(4)
                ))

        results = run(main())
        for index, result in enumerate(results):
            events = result.plan.fusion
            assert any("fused 4 requests" in e for e in events)
            assert any(f"tenant 't{index}'" in e for e in events)
            assert "fused    :" in result.plan.describe()
        # per-caller plans are distinct views, not shared mutable state
        assert results[0].plan.fusion is not results[1].plan.fusion

    def test_object_ids_filter_the_slice_not_the_fusion(self):
        database = build_database(seed=3)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        reference = engine.evaluate(query)

        async def main():
            async with QueryService(
                engine, fusion_window_ms=2.0
            ) as service:
                full, subset = await asyncio.gather(
                    service.submit(query),
                    service.submit(
                        query, object_ids=["obj-0", "obj-1"]
                    ),
                )
                return service, full, subset

        service, full, subset = run(main())
        assert service.evaluations == 1  # the subset rode the full call
        assert_parity(full.values, reference.values)
        assert set(subset.values) == {"obj-0", "obj-1"}
        for object_id, value in subset.values.items():
            assert value == pytest.approx(
                reference.values[object_id], abs=1e-12
            )

    def test_unseeded_monte_carlo_requests_never_fuse(self):
        database = build_database(seed=4, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(
                engine, fusion_window_ms=2.0
            ) as service:
                await asyncio.gather(*(
                    service.submit(query, method="mc", n_samples=20)
                    for _ in range(3)
                ))
                return service

        service = run(main())
        assert service.evaluations == 3
        assert service.fused_calls == 0

    @needs_processes
    def test_fused_group_survives_worker_faults(self):
        database = build_database(seed=5, n_objects=60)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        reference = engine.evaluate(
            query, options=PlanOptions(dispatch="serial")
        )
        options = PlanOptions(
            method="ob",
            dispatch="process",
            max_workers=2,
            supervisor=SupervisorPolicy(
                max_retries=3, backoff_seconds=0.01
            ),
            faults=FaultInjector(
                FaultSpec(
                    site="worker:store-shard",
                    action="kill",
                    match={"shard_id": "shard-0000", "attempt": 0},
                )
            ),
        )

        async def main():
            async with QueryService(
                engine, fusion_window_ms=2.0
            ) as service:
                results = await asyncio.gather(*(
                    service.submit(query, options=options)
                    for _ in range(6)
                ))
                return service, results

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            service, results = run(main())
        assert service.evaluations == 1
        for result in results:
            assert_parity(result.values, reference.values)
            # the recovery is visible on every fused caller's plan
            assert any(
                "worker crash" in event
                for event in result.plan.degradations
            )


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_tenant_budget_rejection(self):
        database = build_database(seed=6, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(engine) as service:
                service.set_tenant_budget("broke", 0.0)
                with pytest.raises(AdmissionRejected) as info:
                    await service.submit(query, tenant="broke")
                assert info.value.reason == "tenant-budget"
                assert service.tenant("broke").rejected == 1
                # other tenants are unaffected
                result = await service.submit(query, tenant="rich")
                return result

        result = run(main())
        assert result.values

    def test_deadline_rejection_and_admission(self):
        database = build_database(seed=7, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(engine) as service:
                with pytest.raises(AdmissionRejected) as info:
                    await service.submit(query, deadline_seconds=0.0)
                assert info.value.reason == "deadline"
                # a generous deadline admits and answers
                return await service.submit(
                    query, deadline_seconds=60.0
                )

        assert run(main()).values

    def test_mid_queue_deadline_fails_fast_but_group_survives(self):
        """A deadline that expires while queued fails at drain time.

        The doomed request is rejected with ``reason="deadline"``
        without running, is refunded (settled at 0s), and the other
        member of the same fused group still executes and answers.
        """
        database = build_database(seed=9, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(
                engine, fusion_window_ms=200.0
            ) as service:
                doomed = asyncio.ensure_future(
                    service.submit(
                        query, tenant="late", deadline_seconds=0.02
                    )
                )
                alive = asyncio.ensure_future(
                    service.submit(query, tenant="punctual")
                )
                results = await asyncio.gather(
                    doomed, alive, return_exceptions=True
                )
                return results, service.tenant("late")

        (doomed_result, alive_result), late = run(main())
        assert isinstance(doomed_result, AdmissionRejected)
        assert doomed_result.reason == "deadline"
        assert "while queued" in str(doomed_result)
        assert alive_result.values
        assert late.rejected == 1
        # settled at zero: the failed request cost the tenant nothing
        assert late.charged_seconds == pytest.approx(0.0)

    def test_backlog_shedding_spares_fusable_requests(self):
        database = build_database(seed=8, n_objects=12)
        engine = QueryEngine(database)
        query_a = PSTExistsQuery(WINDOW)
        query_b = PSTExistsQuery(OTHER_WINDOW)
        predicted = engine.planner.estimate_seconds(
            query_a, PlanOptions()
        )
        assert predicted > 0.0

        async def main():
            # window long enough that submissions stay queued while
            # the later ones hit admission
            async with QueryService(
                engine,
                fusion_window_ms=250.0,
                backlog_budget_seconds=predicted * 1.5,
            ) as service:
                first = asyncio.ensure_future(service.submit(query_a))
                await asyncio.sleep(0.05)  # first is now queued
                # distinct fingerprint: would add a second evaluation,
                # busting the backlog budget
                with pytest.raises(AdmissionRejected) as info:
                    await service.submit(query_b)
                assert info.value.reason == "backlog"
                # same fingerprint fuses with the queued work: free
                rider, lead = await asyncio.gather(
                    service.submit(query_a), first
                )
                return service, rider, lead

        service, rider, lead = run(main())
        assert service.evaluations == 1
        assert_parity(rider.values, lead.values)

    def test_stopped_service_rejects_submissions(self):
        database = build_database(seed=9, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            service = QueryService(engine)
            await service.start()
            await service.stop()
            with pytest.raises(AdmissionRejected) as info:
                await service.submit(query)
            assert info.value.reason == "stopped"

        run(main())

    def test_stop_without_drain_fails_queued_requests(self):
        database = build_database(seed=10, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            service = QueryService(engine, fusion_window_ms=500.0)
            await service.start()
            pending = asyncio.ensure_future(service.submit(query))
            await asyncio.sleep(0.05)
            await service.stop(drain=False)
            with pytest.raises(AdmissionRejected) as info:
                await pending
            assert info.value.reason == "stopped"

        run(main())

    def test_stop_with_drain_answers_queued_requests(self):
        database = build_database(seed=11, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        reference = engine.evaluate(query)

        async def main():
            service = QueryService(engine, fusion_window_ms=100.0)
            await service.start()
            pending = asyncio.ensure_future(service.submit(query))
            await asyncio.sleep(0.01)
            await service.stop(drain=True)
            return await pending

        assert_parity(run(main()).values, reference.values)

    def test_constructor_validation(self):
        engine = QueryEngine(build_database(seed=12, n_objects=4))
        with pytest.raises(ValidationError):
            QueryService(engine, fusion_window_ms=-1.0)
        with pytest.raises(ValidationError):
            QueryService(engine, backlog_budget_seconds=-5.0)
        with pytest.raises(ValidationError):
            QueryService(engine, max_concurrency=0)


# ----------------------------------------------------------------------
# tenant accounting through the service
# ----------------------------------------------------------------------
class TestAccounting:
    def test_fused_requests_settle_a_shared_measurement(self):
        database = build_database(seed=13, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(
                engine, fusion_window_ms=2.0
            ) as service:
                await asyncio.gather(*(
                    service.submit(query, tenant=f"t{i % 2}")
                    for i in range(8)
                ))
                return service

        service = run(main())
        for name in ("t0", "t1"):
            account = service.tenant(name)
            assert account.admitted == 4
            assert account.fused == 4
            assert account.measured_seconds > 0.0
            # each tenant paid a quarter of one evaluation, not four
            # evaluations' worth
            assert account.charged_seconds < 1.0

    def test_trivial_forall_is_priced_at_zero(self):
        database = build_database(seed=14, n_objects=8)
        engine = QueryEngine(database)
        # region covers the whole state space: the for-all answer is
        # trivially 1.0 per object and must be admissible at any budget
        query = PSTForAllQuery(
            SpatioTemporalWindow(
                frozenset(range(N_STATES)), frozenset({8, 9})
            )
        )
        assert engine.planner.estimate_seconds(
            query, PlanOptions()
        ) == 0.0

        async def main():
            async with QueryService(engine) as service:
                service.set_tenant_budget("broke", 0.0)
                return await service.submit(query, tenant="broke")

        result = run(main())
        assert result.plan is None
        assert all(v == 1.0 for v in result.values.values())


# ----------------------------------------------------------------------
# standing queries through the service
# ----------------------------------------------------------------------
class TestServiceStandingQueries:
    def test_tick_matches_batch_and_bills_the_tenant(self):
        database = build_database(seed=15, n_objects=20)
        engine = QueryEngine(database)

        async def main():
            async with QueryService(engine) as service:
                standing = service.watch(
                    PSTExistsQuery(WINDOW), tenant="monitor"
                )
                result = await standing.tick()
                return service, result

        service, result = run(main())
        reference = QueryEngine(
            build_database(seed=15, n_objects=20)
        ).evaluate(PSTExistsQuery(WINDOW))
        assert_parity(result.values, reference.values)
        assert service.tenant("monitor").measured_seconds > 0.0

    def test_quarantine_is_surfaced_on_the_owning_tenant(self):
        database = build_database(seed=16, n_objects=12)
        engine = QueryEngine(database)
        faults = FaultInjector(
            FaultSpec(site="streaming:tick", action="raise", times=2)
        )

        async def main():
            async with QueryService(engine) as service:
                standing = service.watch(
                    PSTExistsQuery(WINDOW),
                    tenant="monitor",
                    faults=faults,
                    quarantine_after=2,
                )
                for _ in range(2):
                    with pytest.raises(Exception):
                        await standing.tick()
                assert standing.quarantined
                assert service.tenant("monitor").quarantined == 1
                # reset revives it; the next tick matches batch
                await standing.reset()
                assert not standing.quarantined
                return await standing.tick()

        result = run(main())
        reference = QueryEngine(
            build_database(seed=16, n_objects=12)
        ).evaluate(PSTExistsQuery(WINDOW))
        assert_parity(result.values, reference.values)

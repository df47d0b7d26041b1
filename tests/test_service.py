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
import copy
import threading
import time
import warnings

import numpy as np
import pytest

from repro import (
    AdmissionRejected,
    FaultInjector,
    FaultSpec,
    Observation,
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
from repro.service.broker import (
    PendingRequest,
    RequestBroker,
    fusion_key,
)
from repro.service.tenants import TenantLedger
from repro.store.sharded import ShardedTrajectoryStore
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

N_STATES = 300
WINDOW = SpatioTemporalWindow.from_ranges(80, 110, 8, 11)
OTHER_WINDOW = SpatioTemporalWindow.from_ranges(120, 150, 8, 11)


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


class EvaluationProbe:
    """Stands in for ``engine.evaluate`` on the service's worker threads.

    Records each call's ``(start, end)`` and the peak number of calls
    running at once, holds every call while :attr:`gate` is clear,
    pauses each one ``pause`` seconds, and runs ``write`` (once) after
    the first evaluation has computed its answer but before it returns.
    """

    def __init__(self, engine, pause=0.0, write=None):
        self._evaluate = engine.evaluate
        self.pause = pause
        self.write = write
        self.gate = threading.Event()
        self.gate.set()
        self.spans = []
        self.active = self.peak = 0
        self._lock = threading.Lock()
        engine.evaluate = self

    def __call__(self, query, options=None):
        started = time.perf_counter()
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            self.gate.wait(10.0)
            time.sleep(self.pause)
            result = self._evaluate(query, options=options)
            write, self.write = self.write, None
            if write is not None:
                write()
            return result
        finally:
            with self._lock:
                self.active -= 1
                self.spans.append((started, time.perf_counter()))


async def until(predicate, timeout=10.0):
    """Yield to the event loop until ``predicate()`` holds."""
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        await asyncio.sleep(0.002)


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

    @staticmethod
    def _drain_all(broker):
        groups = []
        while len(broker):
            groups.append(broker.drain())
        return groups

    def test_drain_fuses_by_key_and_orders_oldest_first(self):
        broker = RequestBroker()
        broker.add(self._request(("b",), 3.0))
        broker.add(self._request(("a",), 1.0))
        broker.add(self._request(("a",), 1.0))
        # a late request joins the queued group of its key
        broker.add(self._request(("b",), 3.0))
        assert len(broker) == 4
        # one group per drain(), oldest arrival first (not cheapest)
        first = broker.drain()
        assert first.key == ("b",) and len(first.requests) == 2
        assert len(broker) == 2
        second = broker.drain()
        assert second.key == ("a",) and len(second.requests) == 2
        assert broker.drain() is None
        assert len(broker) == 0

    def test_deadlines_run_before_undated_work(self):
        broker = RequestBroker()
        broker.add(self._request(("cheap",), 0.1))
        broker.add(self._request(("due",), 5.0, deadline_at=10.0))
        broker.add(self._request(("urgent",), 5.0, deadline_at=2.0))
        broker.add(self._request(("later",), 0.1))
        assert [g.key for g in self._drain_all(broker)] == [
            ("urgent",), ("due",), ("cheap",), ("later",)
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


# ----------------------------------------------------------------------
# work-conserving dequeue
# ----------------------------------------------------------------------
class TestDequeue:
    def test_request_arriving_while_busy_joins_the_queued_group(self):
        database = build_database(seed=17, n_objects=12)
        engine = QueryEngine(database)
        probe = EvaluationProbe(engine)
        probe.gate.clear()
        busy = PSTExistsQuery(WINDOW)
        queued = PSTExistsQuery(OTHER_WINDOW)

        async def main():
            async with QueryService(engine) as service:
                first = asyncio.ensure_future(service.submit(busy))
                early = asyncio.ensure_future(
                    service.submit(queued, tenant="early")
                )
                await until(lambda: probe.active == 1)
                # the executor is busy with `busy`; `queued` still waits
                late = asyncio.ensure_future(
                    service.submit(queued, tenant="late")
                )
                await asyncio.sleep(0.02)
                probe.gate.set()
                answers = await asyncio.gather(first, early, late)
                return service, answers

        service, (_first, early, late) = run(main())
        assert service.evaluations == 2
        assert service.fused_calls == 1
        assert early.values == late.values
        assert any(
            "fused 2 requests from 2 tenant(s) in one queued group" in e
            for e in late.plan.fusion
        )

    def test_backlog_never_waits_for_the_idle_linger(self):
        database = build_database(seed=18, n_objects=12)
        engine = QueryEngine(database)
        probe = EvaluationProbe(engine)
        probe.gate.clear()

        async def main():
            async with QueryService(
                engine, fusion_window_ms=500.0
            ) as service:
                first = asyncio.ensure_future(
                    service.submit(PSTExistsQuery(WINDOW))
                )
                # the first group starts after one idle linger
                await until(lambda: probe.active == 1)
                second = asyncio.ensure_future(
                    service.submit(PSTExistsQuery(OTHER_WINDOW))
                )
                await asyncio.sleep(0.02)
                probe.gate.set()
                await asyncio.gather(first, second)

        run(main())
        (_, first_end), (second_start, _) = sorted(probe.spans)
        assert second_start - first_end < 0.25

    def test_max_concurrency_bounds_evaluations_in_flight(self):
        database = build_database(seed=19, n_objects=12)
        engine = QueryEngine(database)
        probe = EvaluationProbe(engine, pause=0.05)
        queries = [
            PSTExistsQuery(
                SpatioTemporalWindow.from_ranges(
                    60 + 20 * i, 90 + 20 * i, 8, 11
                )
            )
            for i in range(6)
        ]
        references = [engine.evaluate(q).values for q in queries]
        probe.peak = 0

        async def main():
            async with QueryService(
                engine, max_concurrency=2
            ) as service:
                answers = await asyncio.gather(
                    *(service.submit(q) for q in queries)
                )
                return service, answers

        service, answers = run(main())
        assert service.evaluations == 6
        assert probe.peak == 2
        for answer, reference in zip(answers, references):
            assert_parity(answer.values, reference)


class TestCancelledCallers:
    def test_cancelled_caller_does_not_stop_the_service(self):
        database = build_database(seed=20, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)
        reference = engine.evaluate(query)

        async def main():
            async with QueryService(
                engine, fusion_window_ms=50.0
            ) as service:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        service.submit(query, tenant="gone"), 0.01
                    )
                # joins the group its cancelled twin formed; a hung
                # service fails this by timeout instead of hanging
                answer = await asyncio.wait_for(
                    service.submit(query, tenant="stays"), 10.0
                )
                return service, answer

        service, answer = run(main())
        assert_parity(answer.values, reference.values)
        gone = service.tenant("gone")
        assert gone.admitted == 1
        assert gone.charged_seconds == pytest.approx(0.0)
        assert gone.measured_seconds == 0.0

    def test_group_whose_callers_all_left_is_not_evaluated(self):
        database = build_database(seed=21, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(
                engine, fusion_window_ms=50.0
            ) as service:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(service.submit(query), 0.01)
                await asyncio.sleep(0.15)  # the linger has passed
                return service

        service = run(main())
        assert service.evaluations == 0
        assert service.tenant("default").charged_seconds == 0.0


# ----------------------------------------------------------------------
# per-version answer reuse
# ----------------------------------------------------------------------
def _new_object(database, object_id="obj-new"):
    database.append_observation(
        object_id,
        Observation.precise(2, N_STATES, 95),
        chain_id="chain-0",
    )


class TestAnswerReuse:
    @pytest.mark.parametrize("kind", ["exists", "forall", "ktimes"])
    def test_identical_request_at_same_version_is_not_re_evaluated(
        self, kind
    ):
        database = build_database(seed=22, n_objects=12)
        engine = QueryEngine(database)
        query = {
            "exists": PSTExistsQuery(WINDOW),
            "forall": PSTForAllQuery(WINDOW),
            "ktimes": PSTKTimesQuery(WINDOW, k=2),
        }[kind]

        async def main():
            async with QueryService(engine) as service:
                first = await service.submit(query, tenant="a")
                second = await service.submit(query, tenant="b")
                return service, first, second

        service, first, second = run(main())
        assert service.evaluations == 1
        assert service.reused == 1
        assert set(second.values) == set(first.values)
        for object_id, value in first.values.items():
            assert np.array_equal(second.values[object_id], value)
        assert second.values is not first.values
        assert second.elapsed_seconds == 0.0
        assert any(e.startswith("reused ") for e in second.plan.fusion)
        rider = service.tenant("b")
        assert rider.admitted == 1
        assert rider.charged_seconds == 0.0
        assert rider.measured_seconds == 0.0

    @pytest.mark.parametrize("kind", ["ktimes", "exists"])
    def test_a_caller_cannot_change_a_kept_answer(self, kind):
        database = build_database(seed=29, n_objects=8)
        engine = QueryEngine(database)
        if kind == "ktimes":
            query = PSTKTimesQuery(WINDOW)  # values are whole distributions
        else:
            query = PSTExistsQuery(WINDOW)  # values are floats

        async def main():
            async with QueryService(engine) as service:
                first = await service.submit(query)
                kept = copy.deepcopy(first.values)
                for object_id, value in first.values.items():
                    if kind == "ktimes":
                        value[:] = -1.0
                    else:
                        first.values[object_id] = -1.0
                return service, kept, await service.submit(query)

        service, kept, second = run(main())
        assert service.reused == 1
        for object_id, value in kept.items():
            assert np.array_equal(second.values[object_id], value)

    def test_write_in_between_forces_re_evaluation(self):
        database = build_database(seed=23, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(engine) as service:
                before = await service.submit(query)
                _new_object(database)
                after = await service.submit(query)
                return service, before, after

        service, before, after = run(main())
        assert service.evaluations == 2
        assert service.reused == 0
        assert "obj-new" not in before.values
        assert_parity(after.values, engine.evaluate(query).values)

    def test_write_during_evaluation_leaves_nothing_stored(self):
        database = build_database(seed=24, n_objects=12)
        engine = QueryEngine(database)
        probe = EvaluationProbe(
            engine, write=lambda: _new_object(database)
        )
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(engine) as service:
                await service.submit(query)
                assert len(service._answers) == 0
                again = await service.submit(query)
                return service, again

        service, again = run(main())
        assert probe.write is None  # the write did land
        assert service.evaluations == 2
        assert service.reused == 0
        assert_parity(again.values, engine.evaluate(query).values)

    def test_unseeded_monte_carlo_is_never_reused(self):
        database = build_database(seed=25, n_objects=8)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(engine) as service:
                for _ in range(2):
                    await service.submit(query, method="mc", n_samples=20)
                unseeded = service.evaluations
                for _ in range(2):
                    await service.submit(
                        query, method="mc", n_samples=20, seed=3
                    )
                return service, unseeded

        service, unseeded = run(main())
        assert unseeded == 2
        # a seeded Monte-Carlo answer is deterministic, so it is kept
        assert service.evaluations == 3
        assert service.reused == 1

    def test_store_journal_write_and_snapshot_invalidate(self, tmp_path):
        database = build_database(seed=26, n_objects=12)
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=2
        )
        engine = QueryEngine(store)
        query = PSTExistsQuery(WINDOW)
        serial = PlanOptions(dispatch="serial")

        async def main():
            async with QueryService(engine) as service:
                counts = []
                answers = []
                for step in ("", "", "write", "", "snapshot", ""):
                    if step == "write":
                        _new_object(store)
                    elif step == "snapshot":
                        store.snapshot()
                    answers.append(
                        await service.submit(query, options=serial)
                    )
                    counts.append((service.evaluations, service.reused))
                return counts, answers

        counts, answers = run(main())
        assert counts == [(1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]
        assert "obj-new" not in answers[1].values
        assert_parity(
            answers[-1].values,
            QueryEngine(store).evaluate(query, options=serial).values,
        )

    def test_object_ids_slice_a_reused_answer(self):
        database = build_database(seed=27, n_objects=12)
        engine = QueryEngine(database)
        query = PSTExistsQuery(WINDOW)

        async def main():
            async with QueryService(engine) as service:
                full = await service.submit(query)
                subset = await service.submit(
                    query, object_ids=["obj-0", "obj-1"]
                )
                return service, full, subset

        service, full, subset = run(main())
        assert (service.evaluations, service.reused) == (1, 1)
        assert set(subset.values) == {"obj-0", "obj-1"}
        for object_id, value in subset.values.items():
            assert value == full.values[object_id]

    def test_reuse_passes_the_backlog_check_but_not_a_stop(self):
        database = build_database(seed=28, n_objects=12)
        engine = QueryEngine(database)
        hot = PSTExistsQuery(WINDOW)
        cold = [
            PSTExistsQuery(
                SpatioTemporalWindow.from_ranges(lo, lo + 30, 8, 11)
            )
            for lo in (120, 160)
        ]
        prices = [
            engine.planner.estimate_seconds(q, PlanOptions())
            for q in [hot] + cold
        ]
        # one queued cold query fits the budget, two do not
        budget = 1.5 * max(prices)
        assert prices[1] + prices[2] > budget

        async def main():
            service = QueryService(
                engine,
                fusion_window_ms=250.0,
                backlog_budget_seconds=budget,
            )
            first = await service.submit(hot)
            await asyncio.sleep(0.01)  # the service goes idle
            queued = asyncio.ensure_future(service.submit(cold[0]))
            await asyncio.sleep(0.05)  # lingering in the broker
            with pytest.raises(AdmissionRejected) as info:
                await service.submit(cold[1])
            assert info.value.reason == "backlog"
            reused = await service.submit(hot)
            assert not queued.done()  # answered without waiting
            await queued
            await service.stop()
            with pytest.raises(AdmissionRejected) as info:
                await service.submit(hot)
            assert info.value.reason == "stopped"
            return service, first, reused

        service, first, reused = run(main())
        assert (service.evaluations, service.reused) == (2, 1)
        assert reused.values == first.values

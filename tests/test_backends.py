"""Cross-backend parity: scipy vs pure vs native at 1e-12.

The native backend is an optimisation layer, never a semantics layer:
whatever combination of predicate (exists / for-all / k-times),
dispatch tier (serial / process) and backend answers a query,
the values must agree with the scipy serial reference to 1e-12 -- the
same tolerance every other execution tier in this repo is held to.
Also covered here:

* the numba-absent fallback path, forced via ``REPRO_DISABLE_NUMBA``
  (the dense-BLAS kernels must be a drop-in for the JIT ones);
* runtime degradation ``native -> scipy`` under
  ``REPRO_NATIVE_FORCE_FAIL``, recorded on ``plan.degradations``;
* streaming ticks on a native-promoted chain stream agreeing with
  batch re-evaluation of every slid window;
* the prewarm regression: compiling/warming the native kernels must
  not change a single planning decision.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.markov import MarkovChain
from repro.core.planner import PlanOptions
from repro.exec import dispatch
from repro.linalg import native
from repro.linalg.ops import available_backends

TOLERANCE = 1e-12
N_STATES = 48
WINDOW = SpatioTemporalWindow.from_ranges(8, 18, 4, 7)

QUERIES = [
    PSTExistsQuery(WINDOW),
    PSTForAllQuery(WINDOW),
    PSTKTimesQuery(WINDOW, k=2),
]
DISPATCHES = ["serial", "process"]


def dense_chain(seed: int, n_states: int = N_STATES) -> MarkovChain:
    """A chain dense enough for the native kernels to be exercised."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((n_states, n_states))
    matrix *= rng.random((n_states, n_states)) < 0.45
    matrix += np.eye(n_states) * 0.05  # no empty rows
    matrix /= matrix.sum(axis=1, keepdims=True)
    return MarkovChain(sp.csr_matrix(matrix))


def build_database(seed: int = 0, n_objects: int = 24):
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase.with_chain(
        dense_chain(seed), chain_id="chain-0"
    )
    for index in range(n_objects):
        database.add(
            UncertainObject.at_state(
                f"obj-{index}",
                N_STATES,
                int(rng.integers(0, N_STATES)),
                int(rng.integers(0, 3)),
                chain_id="chain-0",
            )
        )
    return database


def assert_values_close(result, reference):
    assert set(result.values) == set(reference.values)
    for object_id, expected in reference.values.items():
        got = np.asarray(result.values[object_id], dtype=float)
        want = np.asarray(expected, dtype=float)
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) < TOLERANCE, object_id


class TestRegistry:
    def test_native_backend_registered(self):
        assert "native" in available_backends()

    def test_unknown_backend_option_rejected(self):
        from repro.core.errors import ValidationError

        with pytest.raises(ValidationError):
            PlanOptions(backend="cuda")


class TestBatchParity:
    """Every (query, dispatch, backend) cell against scipy serial."""

    @pytest.fixture(scope="class")
    def database(self):
        return build_database()

    @pytest.fixture(scope="class")
    def references(self, database):
        engine = QueryEngine(database)
        return {
            type(query).__name__: engine.evaluate(
                query,
                options=PlanOptions(backend="scipy", dispatch="serial"),
            )
            for query in QUERIES
        }

    @pytest.mark.parametrize(
        "query", QUERIES, ids=lambda q: type(q).__name__
    )
    @pytest.mark.parametrize("mode", DISPATCHES)
    @pytest.mark.parametrize("backend", ["scipy", "native"])
    def test_backend_dispatch_parity(
        self, database, references, query, mode, backend
    ):
        engine = QueryEngine(database)
        result = engine.evaluate(
            query,
            options=PlanOptions(
                backend=backend, dispatch=mode, max_workers=2
            ),
        )
        assert_values_close(result, references[type(query).__name__])

    @pytest.mark.parametrize(
        "query", QUERIES, ids=lambda q: type(q).__name__
    )
    @pytest.mark.parametrize("mode", ["serial"])
    def test_pure_backend_parity(self, database, references, query, mode):
        # the pure-python backend cannot publish shared-memory CSR
        # views, so it has no process tier; serial must still agree
        # with the scipy reference
        engine = QueryEngine(database, backend="pure")
        result = engine.evaluate(
            query, options=PlanOptions(dispatch=mode, max_workers=2)
        )
        assert_values_close(result, references[type(query).__name__])

    def test_explain_shows_backend_and_prediction(self, database):
        engine = QueryEngine(database)
        engine.evaluate(
            QUERIES[0], options=PlanOptions(backend="native")
        )
        description = engine.explain(
            QUERIES[0], options=PlanOptions(backend="native")
        ).describe()
        assert "backend=native" in description
        assert "predicted=" in description


class TestNumbaFallbackToggle:
    """REPRO_DISABLE_NUMBA forces the dense-BLAS path everywhere."""

    def test_toggle_reports_fallback_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        status = native.compile_status()
        assert status["numba_disabled"] is True
        assert status["mode"] == "dense-blas"

    @pytest.mark.parametrize(
        "query", QUERIES, ids=lambda q: type(q).__name__
    )
    def test_fallback_parity(self, monkeypatch, query):
        database = build_database(seed=3)
        engine = QueryEngine(database)
        reference = engine.evaluate(
            query, options=PlanOptions(backend="scipy")
        )
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        result = QueryEngine(database).evaluate(
            query, options=PlanOptions(backend="native")
        )
        assert_values_close(result, reference)


class TestRuntimeDegradation:
    """A failing native kernel falls to scipy, recorded on the plan."""

    @pytest.mark.filterwarnings("ignore:degraded native")
    def test_forced_failure_degrades_and_answers(self, monkeypatch):
        database = build_database(seed=4)
        engine = QueryEngine(database)
        reference = engine.evaluate(
            QUERIES[0], options=PlanOptions(backend="scipy")
        )
        monkeypatch.setenv("REPRO_NATIVE_FORCE_FAIL", "1")
        result = QueryEngine(database).evaluate(
            QUERIES[0], options=PlanOptions(backend="native")
        )
        assert_values_close(result, reference)
        assert any(
            "native -> scipy" in event
            for event in result.plan.degradations
        )

    def test_unservable_backend_records_the_process_fall(self):
        """The pool cannot publish a pure-backend engine's matrices:
        a forced process plan answers serially and says so, and auto
        never picks process for such an engine."""
        from repro.core.errors import DegradedExecutionWarning
        from repro.core.planner import CostModel

        database = build_database(seed=6)
        reference = QueryEngine(database).evaluate(
            QUERIES[0], options=PlanOptions(dispatch="serial")
        )
        # thresholds under which auto picks the pool for this query
        eager = CostModel(process_min_cost=0.0, shard_min_objects=4)
        auto = PlanOptions(method="ob", max_workers=2)
        assert QueryEngine(database, cost_model=eager).planner.plan(
            QUERIES[0], auto
        ).dispatch == "process"
        engine = QueryEngine(database, backend="pure", cost_model=eager)
        with pytest.warns(
            DegradedExecutionWarning, match="process -> serial"
        ):
            result = engine.evaluate(
                QUERIES[0],
                method="ob",
                options=PlanOptions(dispatch="process", max_workers=2),
            )
        assert_values_close(result, reference)
        assert result.plan.dispatch == "process"
        assert result.plan.stages[-1].detail.startswith("serial")
        assert len(result.plan.degradations) == 1
        assert result.plan.degradations[0].startswith(
            "degraded process -> serial after ExecutionError"
        )
        assert "'pure'" in result.plan.degradations[0]
        planned = engine.evaluate(QUERIES[0], options=auto)
        assert planned.plan.dispatch == "serial"
        assert planned.plan.degradations == []
        assert_values_close(planned, reference)

    def test_streaming_tick_degrades_and_answers(self, monkeypatch):
        database = build_database(seed=5)
        reference_engine = QueryEngine(database)
        query = PSTKTimesQuery(WINDOW)
        monkeypatch.setenv("REPRO_NATIVE_FORCE_FAIL", "1")
        standing = QueryEngine(database).watch(query, stride=1)
        assert any(
            stream.backend == "native"
            for stream in standing._chains.values()
        )
        result = standing.tick()
        plan = standing.explain()
        assert all(
            group.backend == "scipy" for group in plan.groups
        )
        assert any(
            "native -> scipy" in event for event in plan.degradations
        )
        monkeypatch.delenv("REPRO_NATIVE_FORCE_FAIL")
        reference = reference_engine.evaluate(
            PSTKTimesQuery(result.query.window),
            options=PlanOptions(backend="scipy"),
        )
        assert_values_close(result, reference)


    def test_degradation_survives_a_failed_retry(self, monkeypatch):
        """The retried tick fails between building its plan and the
        commit point: the ``native -> scipy`` event is still owed and
        the next committed tick reports it."""
        from repro.exec.faults import (
            FaultInjector,
            FaultSpec,
            InjectedFaultError,
        )

        database = build_database(seed=5)
        monkeypatch.setenv("REPRO_NATIVE_FORCE_FAIL", "1")
        standing = QueryEngine(database).watch(
            PSTKTimesQuery(WINDOW),
            faults=FaultInjector(
                FaultSpec(site="streaming:commit", match={"tick": 0})
            ),
        )
        with pytest.raises(InjectedFaultError):
            standing.tick()  # BackendError -> scipy retry -> poisoned
        assert standing.ticks == 0
        assert all(
            stream.backend == "scipy"
            for stream in standing._chains.values()
        )
        standing.tick()
        assert any(
            "native -> scipy" in event
            for event in standing.explain().degradations
        )
        # reported once, not on every later plan
        standing.tick()
        assert not standing.explain().degradations


class TestStreamingParity:
    """Native-promoted chain streams tick within 1e-12 of batch."""

    def test_ktimes_ticks_match_batch(self):
        database = build_database(seed=6)
        query = PSTKTimesQuery(WINDOW)
        standing = QueryEngine(database).watch(query, stride=1)
        assert any(
            stream.backend == "native"
            for stream in standing._chains.values()
        )
        reference_engine = QueryEngine(database)
        for _ in range(4):
            result = standing.tick()
            reference = reference_engine.evaluate(
                PSTKTimesQuery(result.query.window),
                options=PlanOptions(backend="scipy"),
            )
            assert_values_close(result, reference)
        assert any(
            group.backend == "native"
            for group in standing.explain().groups
        )

    def test_exists_ticks_match_batch(self):
        database = build_database(seed=7)
        query = PSTExistsQuery(WINDOW)
        standing = QueryEngine(database).watch(query, stride=1)
        reference_engine = QueryEngine(database)
        for _ in range(3):
            result = standing.tick()
            reference = reference_engine.evaluate(
                PSTExistsQuery(result.query.window),
                options=PlanOptions(backend="scipy"),
            )
            assert_values_close(result, reference)


class TestPrewarm:
    """Warming the kernels never changes a planning decision."""

    def test_prewarm_marks_status(self):
        dispatch.prewarm(2, compile_native=True)
        assert native.compile_status()["prewarmed"] is True

    def test_cold_and_warm_plans_identical(self):
        database = build_database(seed=8)
        cold_engine = QueryEngine(database)
        cold = [
            cold_engine.planner.plan(query).describe()
            for query in QUERIES
        ]
        native.prewarm()
        dispatch.prewarm(2, compile_native=True)
        warm_engine = QueryEngine(database)
        warm = [
            warm_engine.planner.plan(query).describe()
            for query in QUERIES
        ]
        assert cold == warm

    def test_prewarm_swallows_forced_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_FORCE_FAIL", "1")
        native.prewarm()  # must not raise
        assert os.environ.get("REPRO_NATIVE_FORCE_FAIL") == "1"


class TestServicePrewarm:
    def test_service_startup_triggers_prewarm(self):
        import asyncio

        native._PREWARMED = False
        database = build_database(seed=9, n_objects=8)
        engine = QueryEngine(database)

        async def main():
            from repro import QueryService

            async with QueryService(engine) as service:
                return await service.submit(PSTExistsQuery(WINDOW))

        result = asyncio.run(main())
        assert result.values
        assert native.compile_status()["prewarmed"] is True

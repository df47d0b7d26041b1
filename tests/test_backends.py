"""Cross-backend parity: scipy vs pure at 1e-12.

The backend is a property of the engine (``QueryEngine(database,
backend=...)``): scipy in production, pure where scipy is missing and
as the independent reference.  Whatever combination of predicate
(exists / for-all / k-times), dispatch tier (serial / process) and
backend answers a query, the values must agree with the scipy serial
reference to 1e-12 -- the same tolerance every other execution tier
in this repo is held to.  Also covered here:

* an unknown backend is rejected when the engine is constructed;
* a pure engine forced onto the process tier (which runs the scipy
  kernels only) answers serially and records the fall on the plan;
* streaming ticks on a pure engine agreeing with scipy batch
  re-evaluation of every slid window;
* the prewarm regression: building the worker pool must not change a
  single planning decision.
"""

from __future__ import annotations

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
    """A random chain with many non-zeros per row."""
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
    def test_unknown_backend_option_rejected(self):
        """The engine is the one place a backend is named, so an
        unknown one fails at construction, not at the first query."""
        from repro.core.errors import ValidationError

        database = build_database(n_objects=1)
        for name in ("bogus", "native"):
            with pytest.raises(
                ValidationError, match=rf"{name}.*\['pure', 'scipy'\]"
            ):
                QueryEngine(database, backend=name)


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
                query, options=PlanOptions(dispatch="serial")
            )
            for query in QUERIES
        }

    @pytest.mark.parametrize(
        "query", QUERIES, ids=lambda q: type(q).__name__
    )
    @pytest.mark.parametrize("mode", DISPATCHES)
    @pytest.mark.parametrize("backend", ["scipy"])
    def test_backend_dispatch_parity(
        self, database, references, query, mode, backend
    ):
        engine = QueryEngine(database, backend=backend)
        result = engine.evaluate(
            query, options=PlanOptions(dispatch=mode, max_workers=2)
        )
        assert_values_close(result, references[type(query).__name__])

    @pytest.mark.parametrize(
        "query", QUERIES, ids=lambda q: type(q).__name__
    )
    @pytest.mark.parametrize("mode", ["serial"])
    def test_pure_backend_parity(self, database, references, query, mode):
        # the pool runs only the scipy kernels, so the pure-python
        # backend has no process tier; serial must still agree with
        # the scipy reference
        engine = QueryEngine(database, backend="pure")
        result = engine.evaluate(
            query, options=PlanOptions(dispatch=mode, max_workers=2)
        )
        assert_values_close(result, references[type(query).__name__])

    def test_explain_shows_backend_and_prediction(self, database):
        engine = QueryEngine(database, backend="pure")
        plan = engine.explain(QUERIES[0])
        assert [group.backend for group in plan.groups] == ["pure"]
        description = plan.describe()
        assert "backend=pure" in description
        assert "predicted=" in description


class TestRuntimeDegradation:
    def test_unservable_backend_records_the_process_fall(self, tmp_path):
        """The pool runs only the scipy kernels: a pure-backend
        engine's forced process plan answers serially and says so, and
        auto never picks process for such an engine -- not even over a
        sharded store, the one layout auto scatters."""
        from repro.core.errors import DegradedExecutionWarning
        from repro.core.planner import CostModel
        from repro.store.sharded import ShardedTrajectoryStore

        database = build_database(seed=6)
        reference = QueryEngine(database).evaluate(
            QUERIES[0], options=PlanOptions(dispatch="serial")
        )
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=2
        )
        # thresholds under which auto picks the pool for this query
        eager = CostModel(process_min_cost=0.0, shard_min_objects=4)
        auto = PlanOptions(method="ob", max_workers=2)
        assert QueryEngine(store, cost_model=eager).planner.plan(
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
        planned = QueryEngine(
            store, backend="pure", cost_model=eager
        ).evaluate(QUERIES[0], options=auto)
        assert planned.plan.dispatch == "serial"
        assert planned.plan.degradations == []
        assert_values_close(planned, reference)


class TestStreamingParity:
    """Pure-engine chain streams tick within 1e-12 of scipy batch."""

    def test_ktimes_ticks_match_batch(self):
        database = build_database(seed=6)
        query = PSTKTimesQuery(WINDOW)
        standing = QueryEngine(database, backend="pure").watch(
            query, stride=1
        )
        reference_engine = QueryEngine(database)
        for _ in range(4):
            result = standing.tick()
            reference = reference_engine.evaluate(
                PSTKTimesQuery(result.query.window)
            )
            assert_values_close(result, reference)
        assert all(
            group.backend == "pure"
            for group in standing.explain().groups
        )

    def test_exists_ticks_match_batch(self):
        database = build_database(seed=7)
        query = PSTExistsQuery(WINDOW)
        standing = QueryEngine(database, backend="pure").watch(
            query, stride=1
        )
        reference_engine = QueryEngine(database)
        for _ in range(3):
            result = standing.tick()
            reference = reference_engine.evaluate(
                PSTExistsQuery(result.query.window)
            )
            assert_values_close(result, reference)


class TestPrewarm:
    """Warming the pool never changes a planning decision."""

    def test_cold_and_warm_plans_identical(self):
        database = build_database(seed=8)
        cold_engine = QueryEngine(database)
        cold = [
            cold_engine.planner.plan(query).describe()
            for query in QUERIES
        ]
        dispatch.prewarm(2)
        warm_engine = QueryEngine(database)
        warm = [
            warm_engine.planner.plan(query).describe()
            for query in QUERIES
        ]
        assert cold == warm

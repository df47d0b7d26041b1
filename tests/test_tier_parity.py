"""Parity across execution tiers at 1e-12.

Whatever combination of predicate (exists / for-all / k-times) and
dispatch tier (serial / process) answers a query, the values must agree
with the serial reference to 1e-12 -- the same tolerance every other
execution tier in this repo is held to -- and the serial engine must
agree with each object stepped on its own through the built Section
V-A (or Section VII blocked) matrices.  Also covered here:

* a process plan whose scatter fails answers serially and records the
  fall on the plan;
* streaming ticks over a dense chain agreeing with batch re-evaluation
  of every slid window;
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
from repro.core.ktimes import ktimes_distribution_blocked
from repro.core.markov import MarkovChain
from repro.core.planner import PlanOptions
from repro.exec import dispatch

from augmented import build_absorbing_matrices

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


def rowwise_exists(chain, initial, start, window) -> float:
    """PST-exists of one object, its extended initial stepped on the
    built ``M_minus`` / ``M_plus``."""
    matrices = build_absorbing_matrices(chain, window.region)
    x = matrices.extend_initial(
        np.asarray(initial.vector), start, window.times
    )
    for time in range(start + 1, window.t_end + 1):
        x = x @ matrices.matrix_for_target_time(time, window.times)
    return float(x[matrices.top_index])


def rowwise(query, chain, initial, start) -> float:
    """The query's answer for one object, row by row on built matrices:
    exists directly, for-all as one minus exists over the complement,
    k-times through the Section VII blocked matrices."""
    window = query.window
    if isinstance(query, PSTForAllQuery):
        complement = frozenset(range(chain.n_states)) - window.region
        return 1.0 - rowwise_exists(
            chain, initial, start, window.with_region(complement)
        )
    if isinstance(query, PSTKTimesQuery):
        return float(ktimes_distribution_blocked(
            chain, initial, window, start
        )[query.k])
    return rowwise_exists(chain, initial, start, window)


class TestBatchParity:
    """Every (query, dispatch) cell against serial, and serial against
    the row-wise reference."""

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
    def test_dispatch_parity(self, database, references, query, mode):
        engine = QueryEngine(database)
        result = engine.evaluate(
            query, options=PlanOptions(dispatch=mode, max_workers=2)
        )
        assert_values_close(result, references[type(query).__name__])

    @pytest.mark.parametrize(
        "query", QUERIES, ids=lambda q: type(q).__name__
    )
    def test_serial_matches_rowwise_reference(
        self, database, references, query
    ):
        result = references[type(query).__name__]
        chain = database.chain("chain-0")
        assert len(result.values) == len(database)
        for obj in database:
            expected = rowwise(
                query, chain, obj.initial.distribution, obj.initial.time
            )
            assert abs(result.values[obj.object_id] - expected) < TOLERANCE
        assert max(result.values.values()) > 0.0

    def test_explain_shows_prediction(self, database):
        plan = QueryEngine(database).explain(QUERIES[0])
        assert [group.backend for group in plan.groups] == ["scipy"]
        description = plan.describe()
        assert "backend=" not in description
        assert "predicted=" in description


class TestRuntimeDegradation:
    @pytest.mark.parametrize("layout", ["in-ram", "store"])
    def test_failed_scatter_records_the_process_fall(
        self, tmp_path, monkeypatch, layout
    ):
        """A process plan whose scatter raises an execution error
        answers serially with the same kernels and says so."""
        from repro.core.errors import (
            DegradedExecutionWarning,
            WorkerCrashError,
        )
        from repro.store.sharded import ShardedTrajectoryStore

        database = build_database(seed=6)
        reference = QueryEngine(database).evaluate(
            QUERIES[0], options=PlanOptions(dispatch="serial")
        )
        if layout == "store":
            database = ShardedTrajectoryStore.create(
                tmp_path / "store", database, shards_per_chain=2
            )

        def crash(*args, **kwargs):
            raise WorkerCrashError("every worker died")

        monkeypatch.setattr(dispatch, "run_groups_in_processes", crash)
        monkeypatch.setattr(dispatch, "run_store_shards", crash)
        with pytest.warns(
            DegradedExecutionWarning, match="process -> serial"
        ):
            result = QueryEngine(database).evaluate(
                QUERIES[0],
                method="ob",
                options=PlanOptions(dispatch="process", max_workers=2),
            )
        assert_values_close(result, reference)
        assert result.plan.dispatch == "process"
        assert result.plan.stages[-1].detail.startswith("serial")
        assert result.plan.degradations == [
            "degraded process -> serial after WorkerCrashError: "
            "every worker died"
        ]


class TestStreamingParity:
    """Dense-chain streams tick within 1e-12 of batch re-evaluation."""

    def test_ktimes_ticks_match_batch(self):
        database = build_database(seed=6)
        query = PSTKTimesQuery(WINDOW)
        standing = QueryEngine(database).watch(query, stride=1)
        reference_engine = QueryEngine(database)
        for _ in range(4):
            result = standing.tick()
            reference = reference_engine.evaluate(
                PSTKTimesQuery(result.query.window)
            )
            assert_values_close(result, reference)

    def test_exists_ticks_match_batch(self):
        database = build_database(seed=7)
        query = PSTExistsQuery(WINDOW)
        standing = QueryEngine(database).watch(query, stride=1)
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

"""Safety of the forced geometric prefilter stage.

``PlanOptions(prefilter=True)`` runs
:class:`~repro.database.pruning.GeometricPrefilter` ahead of (here:
instead of) the exact BFS filter.  Its label is a lower bound on the
steps into the region, so it must never drop an object whose exact
answer is non-zero: forced answers are bit-identical to unfiltered
ones.  Covered: a 1-D line, a 2-D grid with objects exactly
``bound x horizon`` from the region, mixed start times, a chain that
never moves, a database without positions, and serial against
store-scatter execution of the same stage.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro import (
    GeometricPrefilter,
    GridStateSpace,
    LineStateSpace,
    MarkovChain,
    PlanOptions,
    PSTExistsQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.store.sharded import ShardedTrajectoryStore
from repro.workloads.synthetic import (
    make_line_chain,
    make_object_distribution,
)

from conftest import random_chain

FORCED = PlanOptions(prefilter=True, bfs_prune=False)
NO_FILTERS = PlanOptions(prefilter=False, bfs_prune=False)
LINE_STATES = 300
LINE_WINDOW = SpatioTemporalWindow.from_ranges(100, 130, 6, 9)


def line_database(seed=0, n_objects=60):
    """Line space, local chain, objects observed at times 0..4."""
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase(
        LINE_STATES, state_space=LineStateSpace(LINE_STATES)
    )
    database.register_chain(
        "default", make_line_chain(LINE_STATES, max_step=8, rng=rng)
    )
    for index in range(n_objects):
        database.add(
            UncertainObject.with_distribution(
                f"o{index}",
                make_object_distribution(LINE_STATES, 4, rng),
                time=int(rng.integers(0, 5)),
            )
        )
    return database


def grid_chain(grid, diagonal):
    """Uniform random walk over a cell and its grid neighbours."""
    rows, cols, vals = [], [], []
    for state in range(grid.n_states):
        targets = [state] + grid.neighbors(state, diagonal=diagonal)
        rows += [state] * len(targets)
        cols += targets
        vals += [1.0 / len(targets)] * len(targets)
    return MarkovChain(
        sp.csr_matrix(
            (vals, (rows, cols)), shape=(grid.n_states, grid.n_states)
        )
    )


def prefilter_dropped(result):
    stage = result.plan.stages[0]
    assert stage.name == "prefilter"
    return stage.candidates_in - stage.candidates_out


def assert_forced_exact(database, query, method, atol=0.0):
    """Forced answers equal unfiltered ones (to the last bit unless
    ``atol`` says otherwise); returns the forced result."""
    engine = QueryEngine(database)
    plain = engine.evaluate(query, method=method, options=NO_FILTERS)
    forced = engine.evaluate(query, method=method, options=FORCED)
    assert set(forced.values) == set(plain.values)
    for object_id, value in plain.values.items():
        assert np.allclose(
            forced.values[object_id], value, rtol=0.0, atol=atol
        ), object_id
    return forced


class TestForcedPrefilterSafety:
    @pytest.mark.parametrize("method", ["qb", "ob"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_line_space(self, seed, method):
        database = line_database(seed)
        forced = assert_forced_exact(
            database, PSTExistsQuery(LINE_WINDOW), method
        )
        assert prefilter_dropped(forced) > 0
        assert any(value > 0.0 for value in forced.values.values())

    def test_line_space_ktimes(self):
        # a dropped object's answer is the exact point mass at zero
        # visits; the kernel's own sums it to within an ulp of 1
        database = line_database(3)
        forced = assert_forced_exact(
            database, PSTKTimesQuery(LINE_WINDOW), "qb", atol=1e-12
        )
        assert prefilter_dropped(forced) > 0

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_grid_object_at_bound_times_horizon_is_kept(self, diagonal):
        """An object exactly ``bound x horizon`` from the region can
        just reach it, so its label must admit it.  On 1.5-unit cells
        the diagonal case computes ``dist / bound`` as a hair above 5;
        the floor keeps the label at 5."""
        grid = GridStateSpace(12, 12, cell_size=1.5)
        database = TrajectoryDatabase(grid.n_states, state_space=grid)
        database.register_chain("default", grid_chain(grid, diagonal))
        bound = database.chain_displacement_bound()
        assert bound == pytest.approx(1.5 * (np.sqrt(2.0) if diagonal else 1.0))
        edge = (5, 5) if diagonal else (5, 0)
        beyond = (6, 6) if diagonal else (6, 0)
        for name, (x, y) in (("edge", edge), ("beyond", beyond)):
            database.add(
                UncertainObject.at_state(
                    name, grid.n_states, grid.state_of_cell(x, y)
                )
            )
        window = SpatioTemporalWindow(
            frozenset({grid.state_of_cell(0, 0)}), frozenset({5})
        )
        labels = GeometricPrefilter(
            database.state_positions(), bound
        ).probe(window.region)
        assert labels[grid.state_of_cell(*edge)] == 5
        assert labels[grid.state_of_cell(*beyond)] == 6
        forced = assert_forced_exact(database, PSTExistsQuery(window), "qb")
        assert forced.values["edge"] > 0.0
        assert forced.values["beyond"] == 0.0
        assert prefilter_dropped(forced) == 1

    def test_mixed_start_times(self):
        """The same support observed earlier has the longer horizon:
        the early object is kept, the late one dropped."""
        database = line_database(4, n_objects=20)
        labels = GeometricPrefilter(
            database.state_positions(),
            database.chain_displacement_bound(),
        ).probe(LINE_WINDOW.region)
        state = int(np.flatnonzero(labels == 8)[0])
        before = prefilter_dropped(assert_forced_exact(
            database, PSTExistsQuery(LINE_WINDOW), "qb"
        ))
        for name, time in (("early", 1), ("late", 4)):
            database.add(
                UncertainObject.at_state(
                    name, LINE_STATES, state, time=time
                )
            )
        forced = assert_forced_exact(
            database, PSTExistsQuery(LINE_WINDOW), "qb"
        )
        # t_end 9: horizon 8 admits label 8, horizon 5 does not
        assert before > 0
        assert prefilter_dropped(forced) == before + 1
        assert forced.values["late"] == 0.0

    def test_zero_displacement_chain(self):
        """A chain that never moves has bound 0: states outside the
        region get the unreachable label (no division by zero),
        objects inside are kept."""
        n_states = 50
        database = TrajectoryDatabase(
            n_states, state_space=LineStateSpace(n_states)
        )
        database.register_chain("default", MarkovChain(np.eye(n_states)))
        for state in (3, 10, 11, 12, 40):
            database.add(
                UncertainObject.at_state(f"s{state}", n_states, state)
            )
        assert database.chain_displacement_bound() == 0.0
        window = SpatioTemporalWindow.from_ranges(10, 12, 2, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            labels = GeometricPrefilter(
                database.state_positions(), 0.0
            ).probe(window.region)
            forced = assert_forced_exact(
                database, PSTExistsQuery(window), "qb"
            )
        assert labels.dtype == np.int64
        assert (labels[10:13] == 0).all()
        assert (labels[:10] == np.iinfo(np.int64).max).all()
        assert {k for k, v in forced.values.items() if v > 0.0} == {
            "s10", "s11", "s12"
        }
        assert all(forced.values[f"s{s}"] == 1.0 for s in (10, 11, 12))
        assert prefilter_dropped(forced) == 2

    def test_no_positions_keeps_everything(self):
        rng = np.random.default_rng(5)
        database = TrajectoryDatabase.with_chain(random_chain(10, rng))
        for index in range(6):
            database.add(
                UncertainObject.at_state(f"o{index}", 10, index)
            )
        window = SpatioTemporalWindow(frozenset({1}), frozenset({2}))
        forced = assert_forced_exact(database, PSTExistsQuery(window), "qb")
        stage = forced.plan.stages[0]
        assert stage.detail == "no geometry"
        assert stage.candidates_out == stage.candidates_in == 6

    def test_serial_and_store_scatter_drop_the_same_rows(self, tmp_path):
        database = line_database(6)
        query = PSTExistsQuery(LINE_WINDOW)
        serial = QueryEngine(database).evaluate(
            query, options=PlanOptions(
                prefilter=True, bfs_prune=False, dispatch="serial"
            ),
        )
        store = ShardedTrajectoryStore.create(
            tmp_path / "store", database, shards_per_chain=4
        )
        scattered = QueryEngine(store).evaluate(
            query, options=PlanOptions(
                prefilter=True, bfs_prune=False,
                dispatch="process", max_workers=2,
            ),
        )
        assert scattered.plan.store_stats["shards"] > 0
        dropped = prefilter_dropped(serial)
        assert dropped > 0
        assert scattered.plan.store_stats["prefilter_pruned"] == dropped
        assert scattered.plan.store_stats["bfs_pruned"] == 0
        plain = QueryEngine(database).evaluate(query, options=NO_FILTERS)
        assert serial.values == plain.values
        assert scattered.values == plain.values

"""Tests for reachability pruning -- safety is the key property."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    GeometricPrefilter,
    LineStateSpace,
    QueryEngine,
    PSTExistsQuery,
    ReachabilityPruner,
    SpatioTemporalWindow,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.errors import ValidationError
from repro.workloads.synthetic import (
    SyntheticConfig,
    make_synthetic_database,
)

from conftest import random_chain


def build_database(n_states=40, n_objects=12, seed=0):
    rng = np.random.default_rng(seed)
    chain = random_chain(n_states, rng, density=0.08)
    database = TrajectoryDatabase.with_chain(
        chain, state_space=LineStateSpace(n_states)
    )
    for index in range(n_objects):
        database.add(
            UncertainObject.at_state(
                f"o{index}", n_states, int(rng.integers(0, n_states))
            )
        )
    return database


class TestReachabilityPruner:
    def test_never_discards_positive_probability_objects(self):
        """Safety: every object with non-zero result must survive."""
        for seed in range(5):
            database = build_database(seed=seed)
            window = SpatioTemporalWindow(
                frozenset({0, 1, 2}), frozenset({2, 3})
            )
            pruner = ReachabilityPruner(database)
            surviving = {
                obj.object_id for obj in pruner.candidates(window)
            }
            engine = QueryEngine(database)
            result = engine.evaluate(PSTExistsQuery(window), method="qb")
            for object_id, probability in result.values.items():
                if probability > 1e-12:
                    assert object_id in surviving

    def test_pruned_objects_have_zero_probability(self):
        database = build_database(seed=3)
        window = SpatioTemporalWindow(
            frozenset({5}), frozenset({1, 2})
        )
        pruner = ReachabilityPruner(database)
        surviving = {obj.object_id for obj in pruner.candidates(window)}
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(window), method="qb")
        for object_id, probability in result.values.items():
            if object_id not in surviving:
                assert probability == pytest.approx(0.0, abs=1e-12)

    def test_pruned_fraction(self):
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=50, n_states=2_000, max_step=10, seed=1
            )
        )
        # a tight window near state 0 that few objects can reach
        window = SpatioTemporalWindow(
            frozenset(range(0, 10)), frozenset({3, 4})
        )
        pruner = ReachabilityPruner(database)
        assert pruner.pruned_fraction(window) > 0.5

    def test_query_in_the_past_prunes_everything(self):
        database = build_database()
        pruner = ReachabilityPruner(database)
        # object observed at t=0; window entirely "before" is impossible
        # here: simulate by asking with horizon < 0 via obj at later time
        database.add(
            UncertainObject.at_state("late", database.n_states, 0, time=9)
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({2}))
        late = database.get("late")
        assert not pruner.can_satisfy(late, window)

    def test_empty_database(self):
        chain_db = TrajectoryDatabase.with_chain(
            random_chain(5, np.random.default_rng(0))
        )
        pruner = ReachabilityPruner(chain_db)
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        assert pruner.pruned_fraction(window) == 0.0


def geometric_ids(prefilter, database, window, start_time=None):
    """Reference for the forced geometric stage, one object at a time:
    an object survives iff some state of its first support is labelled
    within its horizon."""
    labels = prefilter.probe(window.region)
    kept = []
    for obj in database:
        start = obj.initial.time if start_time is None else start_time
        states = obj.initial.distribution.sparse()[0]
        if labels[states].min() <= window.t_end - start:
            kept.append(obj.object_id)
    return kept


class TestGeometricPrefilter:
    def test_superset_of_exact_filter(self):
        """The geometric filter must keep everything BFS keeps: its
        label never exceeds the exact reverse-BFS label."""
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=60, n_states=1_000, max_step=10, seed=2
            )
        )
        window = SpatioTemporalWindow(
            frozenset(range(100, 121)), frozenset({5, 6, 7})
        )
        geometric = GeometricPrefilter(
            database.state_positions(),
            max_displacement=5.0,  # max_step / 2
        )
        exact = ReachabilityPruner(database)
        (chain_id,) = database.chain_ids
        assert (
            geometric.probe(window.region)
            <= exact.min_levels(chain_id, window.region)
        ).all()
        geometric_kept = set(geometric_ids(geometric, database, window))
        exact_ids = {
            obj.object_id for obj in exact.candidates(window)
        }
        assert exact_ids <= geometric_kept

    def test_distant_objects_filtered(self):
        database = make_synthetic_database(
            SyntheticConfig(
                n_objects=60, n_states=5_000, max_step=10, seed=3
            )
        )
        window = SpatioTemporalWindow(
            frozenset(range(0, 20)), frozenset({2, 3})
        )
        geometric = GeometricPrefilter(
            database.state_positions(), max_displacement=5.0
        )
        kept = geometric_ids(geometric, database, window)
        # objects are uniform over 5000 states; the reachable stripe is
        # ~20 + 5*3 wide, so most objects must be gone
        assert len(kept) < len(database) / 2

    def test_requires_state_space(self):
        rng = np.random.default_rng(0)
        database = TrajectoryDatabase.with_chain(random_chain(5, rng))
        assert database.state_positions() is None
        with pytest.raises(ValidationError):
            GeometricPrefilter(
                database.state_positions(), max_displacement=1.0
            )

    def test_negative_displacement_rejected(self):
        database = build_database()
        with pytest.raises(ValidationError):
            GeometricPrefilter(
                database.state_positions(), max_displacement=-1.0
            )

    def test_past_window_returns_nothing(self):
        database = build_database()
        geometric = GeometricPrefilter(
            database.state_positions(), max_displacement=1.0
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        assert geometric_ids(geometric, database, window, 5) == []

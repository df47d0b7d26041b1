"""Tests for the QueryEngine facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Observation,
    ObservationSet,
    PlanOptions,
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    QueryEngine,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
)
from repro.core.errors import QueryError, ValidationError

from conftest import random_chain


def build_database(n_states=12, n_objects=8, seed=0, multi=False):
    rng = np.random.default_rng(seed)
    chain = random_chain(n_states, rng, density=0.4)
    database = TrajectoryDatabase.with_chain(chain)
    for index in range(n_objects):
        if multi and index % 3 == 0:
            observations = ObservationSet.of(
                Observation.precise(
                    0, n_states, int(rng.integers(0, n_states))
                ),
                Observation.uniform(
                    4,
                    n_states,
                    [int(s) for s in rng.choice(n_states, 4, replace=False)],
                ),
            )
            database.add(UncertainObject(f"o{index}", observations))
        else:
            database.add(
                UncertainObject.at_state(
                    f"o{index}", n_states, int(rng.integers(0, n_states))
                )
            )
    return database


WINDOW = SpatioTemporalWindow(frozenset({0, 1, 2}), frozenset({2, 3}))


class TestMethodsAgree:
    def test_qb_equals_ob_exists(self):
        database = build_database()
        engine = QueryEngine(database)
        qb = engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        ob = engine.evaluate(PSTExistsQuery(WINDOW), method="ob")
        for object_id in database.object_ids:
            assert qb.values[object_id] == pytest.approx(
                ob.values[object_id], abs=1e-12
            )

    def test_qb_equals_ob_forall(self):
        database = build_database(seed=1)
        engine = QueryEngine(database)
        qb = engine.evaluate(PSTForAllQuery(WINDOW), method="qb")
        ob = engine.evaluate(PSTForAllQuery(WINDOW), method="ob")
        for object_id in database.object_ids:
            assert qb.values[object_id] == pytest.approx(
                ob.values[object_id], abs=1e-12
            )

    def test_mc_converges_to_exact(self):
        database = build_database(n_objects=3, seed=2)
        engine = QueryEngine(database)
        exact = engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        estimate = engine.evaluate(
            PSTExistsQuery(WINDOW), method="mc", n_samples=20_000, seed=0
        )
        for object_id in database.object_ids:
            assert estimate.values[object_id] == pytest.approx(
                exact.values[object_id], abs=0.02
            )

    def test_multi_observation_objects_handled_in_both(self):
        database = build_database(seed=3, multi=True)
        engine = QueryEngine(database)
        qb = engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        ob = engine.evaluate(PSTExistsQuery(WINDOW), method="ob")
        for object_id in database.object_ids:
            assert qb.values[object_id] == pytest.approx(
                ob.values[object_id], abs=1e-12
            )


class TestKTimes:
    def test_full_distribution(self):
        database = build_database(seed=4)
        engine = QueryEngine(database)
        result = engine.evaluate(PSTKTimesQuery(WINDOW), method="ob")
        for distribution in result.values.values():
            assert distribution.shape == (WINDOW.duration + 1,)
            assert distribution.sum() == pytest.approx(1.0)

    def test_single_k(self):
        database = build_database(seed=5)
        engine = QueryEngine(database)
        full = engine.evaluate(PSTKTimesQuery(WINDOW), method="ob")
        single = engine.evaluate(
            PSTKTimesQuery(WINDOW, k=1), method="ob"
        )
        for object_id in database.object_ids:
            assert single.values[object_id] == pytest.approx(
                float(full.values[object_id][1])
            )

    def test_consistency_with_exists(self):
        database = build_database(seed=6)
        engine = QueryEngine(database)
        ktimes = engine.evaluate(
            PSTKTimesQuery(WINDOW, k=0), method="qb"
        )
        exists = engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        for object_id in database.object_ids:
            assert exists.values[object_id] == pytest.approx(
                1.0 - ktimes.values[object_id], abs=1e-10
            )

    def test_mc_ktimes(self):
        database = build_database(n_objects=2, seed=7)
        engine = QueryEngine(database)
        exact = engine.evaluate(PSTKTimesQuery(WINDOW), method="ob")
        estimate = engine.evaluate(
            PSTKTimesQuery(WINDOW), method="mc", n_samples=20_000, seed=1
        )
        for object_id in database.object_ids:
            assert np.allclose(
                estimate.values[object_id],
                exact.values[object_id],
                atol=0.02,
            )

    def test_ktimes_multi_observation_rejected(self):
        database = build_database(seed=8, multi=True)
        engine = QueryEngine(database)
        with pytest.raises(QueryError):
            engine.evaluate(PSTKTimesQuery(WINDOW), method="ob")


class TestPruneOption:
    def test_prune_preserves_answers(self):
        database = build_database(seed=9)
        engine = QueryEngine(database)
        plain = engine.evaluate(PSTExistsQuery(WINDOW), method="ob")
        pruned = engine.evaluate(
            PSTExistsQuery(WINDOW),
            method="ob",
            options=PlanOptions(bfs_prune=True),
        )
        for object_id in database.object_ids:
            assert pruned.values[object_id] == pytest.approx(
                plain.values[object_id], abs=1e-12
            )


class TestMultipleChains:
    def test_per_class_chains(self):
        rng = np.random.default_rng(10)
        n = 10
        database = TrajectoryDatabase(n)
        database.register_chain("cars", random_chain(n, rng))
        database.register_chain("buses", random_chain(n, rng))
        database.add(
            UncertainObject.at_state("c1", n, 0, chain_id="cars")
        )
        database.add(
            UncertainObject.at_state("b1", n, 0, chain_id="buses")
        )
        engine = QueryEngine(database)
        window = SpatioTemporalWindow(frozenset({1, 2}), frozenset({2}))
        result = engine.evaluate(PSTExistsQuery(window), method="qb")
        # same start state, different models -> different answers
        from repro import qb_exists_probability

        assert result.values["c1"] == pytest.approx(
            qb_exists_probability(
                database.chain("cars"),
                StateDistribution.point(n, 0),
                window,
            )
        )
        assert result.values["b1"] == pytest.approx(
            qb_exists_probability(
                database.chain("buses"),
                StateDistribution.point(n, 0),
                window,
            )
        )


class TestMixedObservationTimes:
    def test_objects_observed_at_different_times(self):
        rng = np.random.default_rng(11)
        n = 8
        chain = random_chain(n, rng)
        database = TrajectoryDatabase.with_chain(chain)
        database.add(UncertainObject.at_state("t0", n, 2, time=0))
        database.add(UncertainObject.at_state("t1", n, 2, time=1))
        window = SpatioTemporalWindow(frozenset({0}), frozenset({3}))
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(window), method="qb")
        from repro import ob_exists_probability

        assert result.values["t1"] == pytest.approx(
            ob_exists_probability(
                chain, StateDistribution.point(n, 2), window, start_time=1
            )
        )
        assert result.values["t0"] != result.values["t1"]


class TestResultContainer:
    def test_above_and_top(self):
        database = build_database(seed=12)
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        above = result.above(0.2)
        assert all(value >= 0.2 for value in above.values())
        top = result.top(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_probability_lookup(self):
        database = build_database(seed=13)
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        assert result.probability("o0") == result.values["o0"]
        with pytest.raises(ValidationError):
            result.probability("missing")

    def test_len_and_elapsed(self):
        database = build_database(seed=14)
        engine = QueryEngine(database)
        result = engine.evaluate(PSTExistsQuery(WINDOW), method="qb")
        assert len(result) == len(database)
        assert result.elapsed_seconds >= 0.0


class TestExtensionQueries:
    def test_first_passage_delegates(self):
        from repro import first_passage_distribution

        database = build_database(seed=20)
        engine = QueryEngine(database)
        obj = database.get("o0")
        chain = database.chain(obj.chain_id)
        via_engine = engine.first_passage("o0", {0, 1}, horizon=5)
        direct = first_passage_distribution(
            chain, obj.initial.distribution, {0, 1}, 5
        )
        assert np.allclose(via_engine.pmf, direct.pmf)

    def test_nearest_neighbor_delegates(self):
        from repro import LineStateSpace

        rng = np.random.default_rng(21)
        n = 10
        chain = random_chain(n, rng)
        database = TrajectoryDatabase.with_chain(
            chain, state_space=LineStateSpace(n)
        )
        database.add(UncertainObject.at_state("a", n, 1))
        database.add(UncertainObject.at_state("b", n, 8))
        engine = QueryEngine(database)
        result = engine.nearest_neighbor((2.0,), time=0)
        assert result["a"] == pytest.approx(1.0)

    def test_sequence_probabilities(self):
        from repro.core.sequence import Pattern

        database = build_database(seed=22)
        engine = QueryEngine(database)
        pattern = Pattern.any().plus()
        values = engine.sequence_probabilities(pattern, length=3)
        assert set(values) == set(database.object_ids)
        assert all(
            value == pytest.approx(1.0) for value in values.values()
        )


class TestValidation:
    def test_unknown_method(self):
        database = build_database()
        engine = QueryEngine(database)
        with pytest.raises(QueryError):
            engine.evaluate(PSTExistsQuery(WINDOW), method="magic")

    def test_window_out_of_range(self):
        database = build_database(n_states=5)
        engine = QueryEngine(database)
        window = SpatioTemporalWindow(frozenset({99}), frozenset({1}))
        with pytest.raises(QueryError):
            engine.evaluate(PSTExistsQuery(window))

    def test_forall_whole_space_trivial(self):
        database = build_database(n_states=4, seed=15)
        engine = QueryEngine(database)
        window = SpatioTemporalWindow(
            frozenset(range(4)), frozenset({1, 2})
        )
        result = engine.evaluate(PSTForAllQuery(window), method="qb")
        assert all(
            value == pytest.approx(1.0)
            for value in result.values.values()
        )

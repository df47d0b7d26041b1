"""Parity tests: batched evaluation must match the per-object paths.

The batched sweeps of :mod:`repro.core.batch` are pure restructurings
of the per-object algorithms, so every probability they produce must
agree with the corresponding single-object function to 1e-12 --
including mixed start times, multi-observation objects, pruned-out
objects, the Monte-Carlo engine path, and each row stepped on its own
through the Section V-A matrices.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Observation,
    ObservationSet,
    PlanOptions,
    PSTExistsQuery,
    QueryBasedEvaluator,
    QueryEngine,
    ReachabilityPruner,
    SpatioTemporalWindow,
    StateDistribution,
    TrajectoryDatabase,
    UncertainObject,
    backward_vectors,
    batch_exists_multi,
    batch_ob_exists,
    batch_qb_exists,
    build_absorbing_matrices,
    ob_exists_probability,
    ob_exists_probability_multi,
)
from repro.core.errors import QueryError, ValidationError

from conftest import random_chain, random_distribution, random_window
from test_montecarlo import reference_exists

TOLERANCE = 1e-12


def _setup(seed, n_states=9, n_objects=7, max_start=3):
    rng = np.random.default_rng(seed)
    chain = random_chain(n_states, rng, density=0.5)
    initials = [
        random_distribution(n_states, rng, sparse=bool(i % 2))
        for i in range(n_objects)
    ]
    starts = [int(rng.integers(0, max_start + 1)) for _ in initials]
    window = SpatioTemporalWindow(
        frozenset(
            int(s)
            for s in rng.choice(n_states, size=3, replace=False)
        ),
        frozenset({max_start + 1, max_start + 3}),
    )
    return chain, initials, starts, window


class TestBatchObExists:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_object(self, seed):
        chain, initials, starts, window = _setup(seed)
        batched = batch_ob_exists(
            chain, initials, window, start_times=starts
        )
        for probability, initial, start in zip(
            batched, initials, starts
        ):
            assert probability == pytest.approx(
                ob_exists_probability(
                    chain, initial, window, start_time=start
                ),
                abs=TOLERANCE,
            )

    def test_scalar_start_time_broadcast(self, paper_chain, paper_window):
        initials = [
            StateDistribution.point(3, state) for state in range(3)
        ]
        batched = batch_ob_exists(paper_chain, initials, paper_window)
        for probability, initial in zip(batched, initials):
            assert probability == pytest.approx(
                ob_exists_probability(paper_chain, initial, paper_window),
                abs=TOLERANCE,
            )

    def test_paper_answer(self, paper_chain, paper_window, paper_start):
        batched = batch_ob_exists(
            paper_chain, [paper_start], paper_window
        )
        assert batched[0] == pytest.approx(0.864)

    def test_matches_rowwise_augmented_steps(self):
        chain, initials, starts, window = _setup(11, n_objects=4)
        batched = batch_ob_exists(
            chain, initials, window, start_times=starts
        )
        matrices = build_absorbing_matrices(chain, window.region)
        for probability, initial, start in zip(batched, initials, starts):
            x = matrices.extend_initial(
                np.asarray(initial.vector), start, window.times
            )
            for time in range(start + 1, window.t_end + 1):
                x = x @ matrices.matrix_for_target_time(time, window.times)
            assert probability == pytest.approx(
                x[matrices.top_index], abs=TOLERANCE
            )

    def test_empty_input(self, paper_chain, paper_window):
        assert batch_ob_exists(paper_chain, [], paper_window).shape == (0,)

    def test_start_after_window_rejected(self, paper_chain, paper_window):
        with pytest.raises(QueryError):
            batch_ob_exists(
                paper_chain,
                [StateDistribution.point(3, 0)],
                paper_window,
                start_times=[paper_window.t_start + 1],
            )

    def test_start_count_mismatch_rejected(
        self, paper_chain, paper_window
    ):
        with pytest.raises(ValidationError):
            batch_ob_exists(
                paper_chain,
                [StateDistribution.point(3, 0)],
                paper_window,
                start_times=[0, 0],
            )

    def test_foreign_matrices_rejected(self, paper_chain, paper_window):
        other = build_absorbing_matrices(paper_chain, {2})
        with pytest.raises(QueryError):
            batch_ob_exists(
                paper_chain,
                [StateDistribution.point(3, 0)],
                paper_window,
                matrices=other,
            )


class TestBatchQbExists:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_evaluator(self, seed):
        chain, initials, starts, window = _setup(seed + 100)
        batched = batch_qb_exists(
            chain, initials, window, start_times=starts
        )
        evaluators = {}
        for probability, initial, start in zip(
            batched, initials, starts
        ):
            if start not in evaluators:
                evaluators[start] = QueryBasedEvaluator(
                    chain, window, start_time=start
                )
            assert probability == pytest.approx(
                evaluators[start].probability(initial), abs=TOLERANCE
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_batch_ob(self, seed):
        chain, initials, starts, window = _setup(seed + 200)
        qb = batch_qb_exists(chain, initials, window, start_times=starts)
        ob = batch_ob_exists(chain, initials, window, start_times=starts)
        assert np.allclose(qb, ob, atol=TOLERANCE)

    def test_backward_vectors_bit_identical_to_evaluator(
        self, paper_chain, paper_window
    ):
        vectors = backward_vectors(paper_chain, paper_window, [0, 1, 2])
        for start, vector in vectors.items():
            evaluator = QueryBasedEvaluator(
                paper_chain, paper_window, start_time=start
            )
            assert np.array_equal(vector, evaluator.backward_vector)

    def test_backward_vector_at_t_end(self, paper_chain):
        window = SpatioTemporalWindow(frozenset({0}), frozenset({2}))
        vectors = backward_vectors(paper_chain, window, [2])
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.array_equal(vectors[2], expected)

    def test_empty_inputs(self, paper_chain, paper_window):
        assert batch_qb_exists(paper_chain, [], paper_window).shape == (0,)
        assert backward_vectors(paper_chain, paper_window, []) == {}


class TestBatchMulti:
    def _observation_sets(self, rng, n_states, n_objects):
        sets = []
        for index in range(n_objects):
            first_time = int(rng.integers(0, 2))
            first = Observation(
                first_time, random_distribution(n_states, rng)
            )
            later_time = first_time + int(rng.integers(2, 5))
            later = Observation.uniform(
                later_time,
                n_states,
                [
                    int(s)
                    for s in rng.choice(n_states, 4, replace=False)
                ],
            )
            sets.append(ObservationSet.of(first, later))
        return sets

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_object(self, seed):
        rng = np.random.default_rng(seed + 300)
        n_states = 8
        chain = random_chain(n_states, rng, density=0.6)
        observation_sets = self._observation_sets(rng, n_states, 6)
        window = SpatioTemporalWindow(
            frozenset({0, 3, 5}), frozenset({2, 4})
        )
        batched = batch_exists_multi(chain, observation_sets, window)
        for probability, observations in zip(
            batched, observation_sets
        ):
            assert probability == pytest.approx(
                ob_exists_probability_multi(
                    chain, observations, window
                ),
                abs=TOLERANCE,
            )

    def test_observation_after_window_end(self, paper_chain_section6):
        # the per-object result is read at the object's own final time,
        # which here lies beyond t_end
        observations = ObservationSet.of(
            Observation.precise(0, 3, 1),
            Observation.uniform(6, 3, [0, 1]),
        )
        window = SpatioTemporalWindow(frozenset({0}), frozenset({2, 3}))
        batched = batch_exists_multi(
            paper_chain_section6, [observations], window
        )
        assert batched[0] == pytest.approx(
            ob_exists_probability_multi(
                paper_chain_section6, observations, window
            ),
            abs=TOLERANCE,
        )

    def test_empty_input(self, paper_chain, paper_window):
        result = batch_exists_multi(paper_chain, [], paper_window)
        assert result.shape == (0,)


class TestEngineParity:
    def _database(self, seed, n_states=10, n_objects=9):
        rng = np.random.default_rng(seed)
        chain = random_chain(n_states, rng, density=0.4)
        database = TrajectoryDatabase.with_chain(chain)
        for index in range(n_objects):
            if index % 3 == 0:
                observations = ObservationSet.of(
                    Observation.precise(
                        0, n_states, int(rng.integers(0, n_states))
                    ),
                    Observation.uniform(
                        4,
                        n_states,
                        [
                            int(s)
                            for s in rng.choice(
                                n_states, 3, replace=False
                            )
                        ],
                    ),
                )
                database.add(
                    UncertainObject(f"o{index}", observations)
                )
            else:
                database.add(
                    UncertainObject.with_distribution(
                        f"o{index}",
                        random_distribution(n_states, rng),
                        time=int(rng.integers(0, 2)),
                    )
                )
        return database

    @pytest.mark.parametrize("method", ["qb", "ob"])
    def test_engine_matches_per_object_functions(self, method):
        database = self._database(7)
        window = SpatioTemporalWindow(
            frozenset({0, 1, 4}), frozenset({2, 3})
        )
        result = QueryEngine(database).evaluate(
            PSTExistsQuery(window), method=method
        )
        chain = database.chain()
        for obj in database:
            if obj.has_multiple_observations():
                expected = ob_exists_probability_multi(
                    chain, obj.observations, window
                )
            else:
                expected = ob_exists_probability(
                    chain,
                    obj.initial.distribution,
                    window,
                    start_time=obj.initial.time,
                )
            assert result.values[obj.object_id] == pytest.approx(
                expected, abs=TOLERANCE
            )

    def test_pruned_objects_reported_zero(self):
        database = self._database(13)
        window = SpatioTemporalWindow(
            frozenset({0, 1}), frozenset({1, 2})
        )
        engine = QueryEngine(database)
        pruned = engine.evaluate(
            PSTExistsQuery(window),
            method="ob",
            options=PlanOptions(bfs_prune=True),
        )
        plain = engine.evaluate(PSTExistsQuery(window), method="ob")
        surviving = {
            obj.object_id
            for obj in ReachabilityPruner(database).candidates(window)
        }
        for obj in database:
            if obj.object_id in surviving:
                assert pruned.values[obj.object_id] == pytest.approx(
                    plain.values[obj.object_id], abs=TOLERANCE
                )
            else:
                assert pruned.values[obj.object_id] == 0.0

    def test_mc_engine_matches_manual_sampler_loop(self):
        # every object samples its own stream seeded by (base seed +
        # database position), so estimates are reproducible regardless
        # of which other objects a filter stage removed
        database = self._database(17, n_objects=6)
        window = SpatioTemporalWindow(
            frozenset({0, 1, 4}), frozenset({2, 3})
        )
        result = QueryEngine(database).evaluate(
            PSTExistsQuery(window), method="mc", n_samples=64, seed=5
        )
        for position, object_id in enumerate(database.object_ids):
            obj = database.get(object_id)
            assert result.values[object_id] == reference_exists(
                database.chain(obj.chain_id), obj.observations, window,
                64, 5 + position,
            )

    def test_random_windows_property(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n_states = int(rng.integers(4, 12))
            chain = random_chain(n_states, rng)
            window = random_window(n_states, rng)
            initials = [
                random_distribution(n_states, rng) for _ in range(4)
            ]
            qb = batch_qb_exists(chain, initials, window)
            ob = batch_ob_exists(chain, initials, window)
            per_object = [
                ob_exists_probability(chain, initial, window)
                for initial in initials
            ]
            assert np.allclose(qb, per_object, atol=TOLERANCE)
            assert np.allclose(ob, per_object, atol=TOLERANCE)

"""Tests for query-based processing (Section V-B)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PossibleWorldEnumerator,
    QueryBasedEvaluator,
    QueryBasedKTimesEvaluator,
    SpatioTemporalWindow,
    StateDistribution,
    build_absorbing_matrices,
    ktimes_distribution,
    ob_exists_probability,
    qb_exists_probability,
    qb_forall_probability,
)
from repro.core.batch import batch_qb_exists
from repro.core.errors import QueryError, ValidationError
from repro.exec.operators import BACKWARD_SWEEP

from conftest import random_chain, random_distribution, random_window

def augmented_backward(chain, window, start):
    """The Section V-B pass over the Section V-A pair: ``v(t) =
    M(t -> t+1) . v(t+1)`` with ``M_plus`` into a query time and
    ``M_minus`` otherwise -- the reference the chain-matrix pass
    reproduces."""
    matrices = build_absorbing_matrices(chain, window.region)
    vector = np.zeros(matrices.size, dtype=float)
    vector[matrices.top_index] = 1.0
    for time in range(window.t_end - 1, start - 1, -1):
        matrix = matrices.matrix_for_target_time(time + 1, window.times)
        vector = matrix @ vector
    return vector


class TestPaperExample:
    def test_exists_equals_0_864(self, paper_chain, paper_window,
                                 paper_start):
        assert qb_exists_probability(
            paper_chain, paper_start, paper_window
        ) == pytest.approx(0.864)

    def test_backward_vector_matches_example2(self, paper_chain,
                                              paper_window):
        """The paper computes P(t=0) = (0.96, 0.864, 0.928, 1)."""
        evaluator = QueryBasedEvaluator(paper_chain, paper_window)
        assert np.allclose(
            evaluator.backward_vector, [0.96, 0.864, 0.928, 1.0]
        )

    def test_state_probability_reads_backward_vector(self, paper_chain,
                                                     paper_window):
        evaluator = QueryBasedEvaluator(paper_chain, paper_window)
        assert evaluator.state_probability(0) == pytest.approx(0.96)
        assert evaluator.state_probability(1) == pytest.approx(0.864)
        assert evaluator.state_probability(2) == pytest.approx(0.928)


class TestAgainstObjectBased:
    """OB and QB must agree exactly -- the paper's two views of one sum."""

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=6)
            ob = ob_exists_probability(chain, initial, window)
            qb = qb_exists_probability(chain, initial, window)
            assert qb == pytest.approx(ob, abs=1e-12)

    def test_start_time_inside_window(self):
        rng = np.random.default_rng(8)
        chain = random_chain(4, rng)
        initial = random_distribution(4, rng)
        window = SpatioTemporalWindow(
            frozenset({0, 2}), frozenset({0, 1, 3})
        )
        assert qb_exists_probability(
            chain, initial, window
        ) == pytest.approx(
            ob_exists_probability(chain, initial, window)
        )

    def test_against_enumeration(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng, sparse=True)
            window = random_window(n, rng, max_time=5)
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).exists_probability(window)
            assert qb_exists_probability(
                chain, initial, window
            ) == pytest.approx(expected, abs=1e-10)


class TestBackwardPassOracle:
    """The chain-matrix backward pass (``M_plus . v = M . (v with S_q
    set to 1)`` given ``v[TOP] = 1``) against the augmented pass."""

    def check(self, chain, window, starts):
        vectors = BACKWARD_SWEEP((window, starts), chain, window.region)
        assert sorted(vectors) == sorted(set(starts))
        for start, vector in vectors.items():
            assert vector.shape == (chain.n_states + 1,)
            assert vector[-1] == 1.0
            np.testing.assert_allclose(
                vector,
                augmented_backward(chain, window, start),
                rtol=0,
                atol=1e-12,
            )

    def test_random_chains(self):
        rng = np.random.default_rng(38)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            chain = random_chain(n, rng, density=float(rng.uniform(0.2, 0.9)))
            window = random_window(n, rng, max_time=8)
            starts = sorted({
                int(t) for t in rng.integers(0, window.t_start + 1, 3)
            })
            self.check(chain, window, starts)

    def test_single_state_and_near_full_complement(self):
        rng = np.random.default_rng(39)
        chain = random_chain(9, rng)
        times = frozenset({4, 5, 6})
        single = SpatioTemporalWindow(frozenset({3}), times)
        # for-all runs its complement as exists: all states but one
        complement = SpatioTemporalWindow(frozenset(range(9)) - {3}, times)
        for window in (single, complement):
            self.check(chain, window, [0, 2, 3])

    def test_start_at_t_end_inside_t_q_and_gapped_t_q(self):
        rng = np.random.default_rng(40)
        chain = random_chain(7, rng)
        gapped = SpatioTemporalWindow(
            frozenset({1, 4}), frozenset({2, 5, 9})
        )
        # start == t_end is only a valid start when T_q is one time
        at_end = SpatioTemporalWindow(frozenset({1, 4}), frozenset({6}))
        self.check(chain, gapped, [0, 1, 2])
        self.check(chain, at_end, [0, 6])
        for start in (0, 1, 2):
            initial = random_distribution(7, rng)
            qb = batch_qb_exists(chain, [initial], gapped, start)
            ob = ob_exists_probability(chain, initial, gapped, start)
            assert qb[0] == pytest.approx(ob, abs=1e-12)

    def test_against_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng, sparse=True)
            window = random_window(n, rng, max_time=5)
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).exists_probability(window)
            assert qb_exists_probability(
                chain, initial, window
            ) == pytest.approx(expected, abs=1e-12)


class TestBatchEvaluation:
    def test_one_backward_pass_many_objects(self, paper_chain,
                                            paper_window):
        evaluator = QueryBasedEvaluator(paper_chain, paper_window)
        initials = [
            StateDistribution.point(3, 0),
            StateDistribution.point(3, 1),
            StateDistribution.point(3, 2),
        ]
        probabilities = evaluator.probabilities(initials)
        assert probabilities == pytest.approx([0.96, 0.864, 0.928])

    def test_uncertain_initial_is_convex_combination(self, paper_chain,
                                                     paper_window):
        evaluator = QueryBasedEvaluator(paper_chain, paper_window)
        mixed = StateDistribution([0.5, 0.5, 0.0])
        assert evaluator.probability(mixed) == pytest.approx(
            0.5 * 0.96 + 0.5 * 0.864
        )


class TestForAll:
    def test_matches_ob_forall(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=4)
            from repro import ob_forall_probability

            assert qb_forall_probability(
                chain, initial, window
            ) == pytest.approx(
                ob_forall_probability(chain, initial, window),
                abs=1e-12,
            )

    def test_whole_space(self, paper_chain, paper_start):
        window = SpatioTemporalWindow(
            frozenset({0, 1, 2}), frozenset({1})
        )
        assert qb_forall_probability(
            paper_chain, paper_start, window
        ) == 1.0


class TestKTimesEvaluator:
    def test_matches_ct_algorithm(self, paper_chain, paper_window,
                                  paper_start):
        evaluator = QueryBasedKTimesEvaluator(paper_chain, paper_window)
        assert np.allclose(
            evaluator.distribution(paper_start),
            ktimes_distribution(paper_chain, paper_start, paper_window),
        )

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=4)
            evaluator = QueryBasedKTimesEvaluator(chain, window)
            assert np.allclose(
                evaluator.distribution(initial),
                ktimes_distribution(chain, initial, window),
                atol=1e-10,
            )

    def test_start_in_window_footnote3(self):
        rng = np.random.default_rng(12)
        chain = random_chain(3, rng)
        initial = random_distribution(3, rng)
        window = SpatioTemporalWindow(frozenset({0}), frozenset({0, 2}))
        evaluator = QueryBasedKTimesEvaluator(chain, window)
        assert np.allclose(
            evaluator.distribution(initial),
            ktimes_distribution(chain, initial, window),
            atol=1e-10,
        )

    def test_dimension_check(self, paper_chain, paper_window):
        evaluator = QueryBasedKTimesEvaluator(paper_chain, paper_window)
        with pytest.raises(ValidationError):
            evaluator.distribution(StateDistribution.point(5, 0))


class TestValidation:
    def test_region_out_of_range(self, paper_chain):
        window = SpatioTemporalWindow(frozenset({9}), frozenset({1}))
        with pytest.raises(QueryError):
            QueryBasedEvaluator(paper_chain, window)

    def test_query_before_start_time(self, paper_chain, paper_window):
        with pytest.raises(QueryError):
            QueryBasedEvaluator(paper_chain, paper_window, start_time=5)

    def test_negative_start_time(self, paper_chain, paper_window):
        with pytest.raises(QueryError):
            QueryBasedEvaluator(
                paper_chain, paper_window, start_time=-1
            )

    def test_probability_dimension_check(self, paper_chain,
                                         paper_window):
        evaluator = QueryBasedEvaluator(paper_chain, paper_window)
        with pytest.raises(ValidationError):
            evaluator.probability(StateDistribution.point(4, 0))

    def test_state_probability_range_check(self, paper_chain,
                                           paper_window):
        evaluator = QueryBasedEvaluator(paper_chain, paper_window)
        with pytest.raises(ValidationError):
            evaluator.state_probability(3)

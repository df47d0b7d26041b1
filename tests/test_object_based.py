"""Tests for object-based query processing (Section V-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MarkovChain,
    PossibleWorldEnumerator,
    SpatioTemporalWindow,
    StateDistribution,
    build_absorbing_matrices,
    ob_exists_probability,
    ob_forall_probability,
)
from repro.core.errors import QueryError, ValidationError

from conftest import random_chain, random_distribution, random_window


class TestPaperExample:
    def test_exists_equals_0_864(self, paper_chain, paper_window, paper_start):
        assert ob_exists_probability(
            paper_chain, paper_start, paper_window
        ) == pytest.approx(0.864)

    def test_intermediate_vectors(self, paper_chain, paper_window):
        """Walk the paper's Example 1 step by step.

        Note: the paper prints P(o,2) = (0, 0, 0.64, 0.36), but its own
        Section V-A prose derives P(o,2) = (0, 0.32, 0.68) -- a 32% true-hit
        lower bound with 68% remaining at s3 -- and only (0.68, 0.32)
        leads to the printed final result 0.864.  The printed intermediate
        is a typo; we assert the self-consistent values.
        """
        matrices = build_absorbing_matrices(paper_chain, paper_window.region)
        vector = matrices.extend_initial(
            np.array([0.0, 1.0, 0.0]), 0, paper_window.times
        )
        assert np.allclose(vector, [0, 1, 0, 0])
        vector = vector @ matrices.m_minus  # t=1 not in T
        assert np.allclose(vector, [0.6, 0, 0.4, 0])
        vector = vector @ matrices.m_plus  # t=2 in T
        assert np.allclose(vector, [0, 0, 0.68, 0.32])
        vector = vector @ matrices.m_plus  # t=3 in T
        assert np.allclose(vector, [0, 0, 0.136, 0.864])

    def test_lower_bound_after_first_query_time(self, paper_chain, paper_start):
        # P(o,2) gives the 32% lower bound the paper derives
        window = SpatioTemporalWindow(frozenset({0, 1}), frozenset({2}))
        assert ob_exists_probability(
            paper_chain, paper_start, window
        ) == pytest.approx(0.32)


class TestAgainstEnumeration:
    def test_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng, sparse=True)
            window = random_window(n, rng, max_time=5)
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).exists_probability(window)
            actual = ob_exists_probability(chain, initial, window)
            assert actual == pytest.approx(expected, abs=1e-10)

    def test_start_time_inside_window(self):
        rng = np.random.default_rng(43)
        chain = random_chain(4, rng)
        initial = random_distribution(4, rng)
        window = SpatioTemporalWindow(
            frozenset({1, 2}), frozenset({0, 2})
        )
        expected = PossibleWorldEnumerator(
            chain, initial, window.t_end
        ).exists_probability(window)
        assert ob_exists_probability(
            chain, initial, window
        ) == pytest.approx(expected)

    def test_noncontiguous_region_and_times(self):
        rng = np.random.default_rng(44)
        chain = random_chain(6, rng)
        initial = random_distribution(6, rng)
        window = SpatioTemporalWindow(
            frozenset({0, 5}), frozenset({1, 4})
        )
        expected = PossibleWorldEnumerator(
            chain, initial, 4
        ).exists_probability(window)
        assert ob_exists_probability(
            chain, initial, window
        ) == pytest.approx(expected)


class TestForAll:
    def test_complement_identity_paper_chain(self, paper_chain, paper_start):
        window = SpatioTemporalWindow(
            frozenset({1, 2}), frozenset({1, 2})
        )
        expected = PossibleWorldEnumerator(
            paper_chain, paper_start, 2
        ).forall_probability(window)
        assert ob_forall_probability(
            paper_chain, paper_start, window
        ) == pytest.approx(expected)

    def test_whole_space_region_is_certain(self, paper_chain, paper_start):
        window = SpatioTemporalWindow(
            frozenset({0, 1, 2}), frozenset({1, 2, 3})
        )
        assert ob_forall_probability(
            paper_chain, paper_start, window
        ) == pytest.approx(1.0)

    def test_random_instances(self):
        rng = np.random.default_rng(45)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=4)
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).forall_probability(window)
            assert ob_forall_probability(
                chain, initial, window
            ) == pytest.approx(expected, abs=1e-10)


class TestEarlyTermination:
    def test_threshold_returns_lower_bound(self, paper_chain, paper_start,
                                           paper_window):
        # stop as soon as P(TOP) >= 0.3: after t=2 it is 0.32 (the paper's
        # "lower bound of 32%" in Section V-A)
        result = ob_exists_probability(
            paper_chain,
            paper_start,
            paper_window,
            stop_at_probability=0.3,
        )
        assert result == pytest.approx(0.32)
        assert result <= 0.864

    def test_threshold_not_reached_gives_exact(self, paper_chain,
                                               paper_start, paper_window):
        result = ob_exists_probability(
            paper_chain,
            paper_start,
            paper_window,
            stop_at_probability=0.99,
        )
        assert result == pytest.approx(0.864)


class TestPruning:
    """``S_reach`` is no option any more: the forward sweep only steps
    the states an object has spread to.  The inputs that exercised the
    old restricted-chain path now check plain OB directly."""

    def test_pruned_matches_unpruned(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            chain = random_chain(n, rng, density=0.35)
            initial = random_distribution(n, rng, sparse=True)
            window = random_window(n, rng, max_time=4)
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).exists_probability(window)
            assert ob_exists_probability(
                chain, initial, window
            ) == pytest.approx(expected, abs=1e-12)

    def test_unreachable_region_returns_zero(self):
        # two disconnected components
        chain = MarkovChain(
            [
                [0.5, 0.5, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.3, 0.7],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        initial = StateDistribution.point(4, 0)
        window = SpatioTemporalWindow(frozenset({2, 3}), frozenset({5}))
        assert ob_exists_probability(chain, initial, window) == 0.0


class TestValidation:
    def test_dimension_mismatch(self, paper_chain, paper_window):
        with pytest.raises(ValidationError):
            ob_exists_probability(
                paper_chain, StateDistribution.point(5, 0), paper_window
            )

    def test_query_before_observation(self, paper_chain, paper_start):
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        with pytest.raises(QueryError):
            ob_exists_probability(
                paper_chain, paper_start, window, start_time=2
            )

    def test_region_out_of_range(self, paper_chain, paper_start):
        window = SpatioTemporalWindow(frozenset({9}), frozenset({1}))
        with pytest.raises(QueryError):
            ob_exists_probability(paper_chain, paper_start, window)

    def test_wrong_prebuilt_matrices(self, paper_chain, paper_start,
                                     paper_window):
        matrices = build_absorbing_matrices(paper_chain, {2})
        with pytest.raises(QueryError):
            ob_exists_probability(
                paper_chain, paper_start, paper_window, matrices=matrices
            )

    def test_negative_start_time(self, paper_chain, paper_start,
                                 paper_window):
        with pytest.raises(QueryError):
            ob_exists_probability(
                paper_chain, paper_start, paper_window, start_time=-1
            )


class TestLaterObservationStart:
    def test_start_time_shifts_window_semantics(self, paper_chain):
        """Observation at t=1 with window T={3,4} equals the t=0 case
        with T={2,3} (homogeneous chain: only elapsed steps matter)."""
        start = StateDistribution.point(3, 1)
        shifted = SpatioTemporalWindow(
            frozenset({0, 1}), frozenset({3, 4})
        )
        assert ob_exists_probability(
            paper_chain, start, shifted, start_time=1
        ) == pytest.approx(0.864)

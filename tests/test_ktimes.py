"""Tests for PST-k-times processing (Section VII)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PossibleWorldEnumerator,
    SpatioTemporalWindow,
    StateDistribution,
    ktimes_distribution,
    ktimes_distribution_blocked,
    ktimes_probability,
    ob_exists_probability,
)
from repro.core.errors import QueryError, ValidationError

from conftest import random_chain, random_distribution, random_window


class TestPaperExample:
    def test_ct_algorithm(self, paper_chain, paper_window, paper_start):
        assert ktimes_distribution(
            paper_chain, paper_start, paper_window
        ) == pytest.approx([0.136, 0.672, 0.192])

    def test_blocked_matrices(self, paper_chain, paper_window,
                              paper_start):
        assert ktimes_distribution_blocked(
            paper_chain, paper_start, paper_window
        ) == pytest.approx([0.136, 0.672, 0.192])

    def test_single_probability(self, paper_chain, paper_window,
                                paper_start):
        assert ktimes_probability(
            paper_chain, paper_start, paper_window, k=1
        ) == pytest.approx(0.672)


class TestConsistencyIdentities:
    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=5)
            distribution = ktimes_distribution(chain, initial, window)
            assert distribution.sum() == pytest.approx(1.0)
            assert (distribution >= -1e-12).all()

    def test_exists_equals_one_minus_p0(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=5)
            distribution = ktimes_distribution(chain, initial, window)
            exists = ob_exists_probability(chain, initial, window)
            assert exists == pytest.approx(
                1.0 - distribution[0], abs=1e-10
            )

    def test_forall_equals_p_full_count(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=4)
            distribution = ktimes_distribution(chain, initial, window)
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).forall_probability(window)
            assert distribution[window.duration] == pytest.approx(
                expected, abs=1e-10
            )


class TestAgainstEnumeration:
    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng, sparse=True)
            window = random_window(n, rng, max_time=5)
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).ktimes_distribution(window)
            assert ktimes_distribution(
                chain, initial, window
            ) == pytest.approx(expected, abs=1e-10)

    def test_blocked_matches_ct(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=5)
            assert np.allclose(
                ktimes_distribution(chain, initial, window),
                ktimes_distribution_blocked(chain, initial, window),
                atol=1e-12,
            )

    def test_start_time_in_window_footnote3(self):
        """Footnote 3: t=0 in T shifts initial in-region mass to k=1."""
        rng = np.random.default_rng(25)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = SpatioTemporalWindow(
                frozenset({0}), frozenset({0, 1, 2})
            )
            expected = PossibleWorldEnumerator(
                chain, initial, window.t_end
            ).ktimes_distribution(window)
            assert ktimes_distribution(
                chain, initial, window
            ) == pytest.approx(expected, abs=1e-10)
            assert ktimes_distribution_blocked(
                chain, initial, window
            ) == pytest.approx(expected, abs=1e-10)


class TestValidation:
    def test_k_out_of_range(self, paper_chain, paper_window,
                            paper_start):
        with pytest.raises(QueryError):
            ktimes_probability(
                paper_chain, paper_start, paper_window, k=5
            )

    def test_dimension_mismatch(self, paper_chain, paper_window):
        with pytest.raises(ValidationError):
            ktimes_distribution(
                paper_chain, StateDistribution.point(4, 0), paper_window
            )

    def test_query_before_observation(self, paper_chain, paper_start):
        window = SpatioTemporalWindow(frozenset({0}), frozenset({1}))
        with pytest.raises(QueryError):
            ktimes_distribution(
                paper_chain, paper_start, window, start_time=3
            )

    def test_region_out_of_range(self, paper_chain, paper_start):
        window = SpatioTemporalWindow(frozenset({8}), frozenset({1}))
        with pytest.raises(QueryError):
            ktimes_distribution(paper_chain, paper_start, window)

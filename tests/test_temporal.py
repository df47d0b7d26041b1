"""Tests for first-passage analyses and expected visit counts."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MarkovChain,
    PossibleWorldEnumerator,
    SpatioTemporalWindow,
    StateDistribution,
    expected_entry_time,
    expected_visit_count,
    first_passage_distribution,
    ktimes_distribution,
    ob_exists_probability,
)
from repro.core.errors import QueryError, ValidationError

from conftest import random_chain, random_distribution, random_window


def brute_force_first_passage(chain, initial, region, horizon):
    """First-entry pmf + never-mass by enumerating possible worlds."""
    pmf = np.zeros(horizon + 1)
    never = 0.0
    enumerator = PossibleWorldEnumerator(chain, initial, horizon)
    for trajectory, probability in enumerator.worlds():
        entry = next(
            (
                offset
                for offset, state in enumerate(trajectory.states)
                if state in region
            ),
            None,
        )
        if entry is None:
            never += probability
        else:
            pmf[entry] += probability
    return pmf, never


class TestFirstPassage:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng, sparse=True)
            region = {int(rng.integers(0, n))}
            horizon = int(rng.integers(1, 6))
            result = first_passage_distribution(
                chain, initial, region, horizon
            )
            expected_pmf, expected_never = brute_force_first_passage(
                chain, initial, region, horizon
            )
            assert np.allclose(result.pmf, expected_pmf, atol=1e-10)
            assert result.never_probability == pytest.approx(
                expected_never, abs=1e-10
            )

    def test_mass_conservation(self):
        rng = np.random.default_rng(1)
        chain = random_chain(5, rng)
        initial = random_distribution(5, rng)
        result = first_passage_distribution(
            chain, initial, {0, 2}, horizon=6
        )
        assert result.pmf.sum() + result.never_probability == (
            pytest.approx(1.0)
        )

    def test_start_inside_region(self):
        rng = np.random.default_rng(2)
        chain = random_chain(3, rng)
        initial = StateDistribution.point(3, 1)
        result = first_passage_distribution(chain, initial, {1}, 4)
        assert result.pmf[0] == pytest.approx(1.0)
        assert result.never_probability == pytest.approx(0.0)

    def test_cdf_equals_exists_probability(self):
        """P(entry <= t) must equal the exists-query over [0..t]."""
        rng = np.random.default_rng(3)
        chain = random_chain(4, rng)
        initial = random_distribution(4, rng)
        region = {2}
        result = first_passage_distribution(chain, initial, region, 5)
        for t in range(6):
            window = SpatioTemporalWindow(
                frozenset(region), frozenset(range(0, t + 1))
            )
            assert result.entry_by(t) == pytest.approx(
                ob_exists_probability(chain, initial, window),
                abs=1e-10,
            )

    def test_entry_by_before_start(self):
        rng = np.random.default_rng(4)
        chain = random_chain(3, rng)
        result = first_passage_distribution(
            chain, StateDistribution.point(3, 0), {1}, 4, start_time=2
        )
        assert result.entry_by(1) == 0.0
        assert result.horizon == 4  # horizon is an absolute timestamp
        assert len(result.pmf) == 3  # offsets 0..2 (t = 2, 3, 4)

    def test_conditional_mean_and_quantile(self):
        # deterministic cycle 0 -> 1 -> 2 -> 0: enters {2} exactly at 2
        chain = MarkovChain(
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        )
        initial = StateDistribution.point(3, 0)
        result = first_passage_distribution(chain, initial, {2}, 5)
        assert result.conditional_mean() == pytest.approx(2.0)
        assert result.quantile(0.5) == 2
        assert result.quantile(1.0) == 2

    def test_unreachable_region(self):
        chain = MarkovChain([[1.0, 0.0], [0.0, 1.0]])
        initial = StateDistribution.point(2, 0)
        result = first_passage_distribution(chain, initial, {1}, 10)
        assert result.never_probability == pytest.approx(1.0)
        assert result.conditional_mean() is None
        assert result.quantile(0.5) is None

    def test_expected_entry_time_helper(self):
        chain = MarkovChain(
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        )
        initial = StateDistribution.point(3, 0)
        assert expected_entry_time(
            chain, initial, {1}, 5
        ) == pytest.approx(1.0)

    def test_validation(self, paper_chain, paper_start):
        with pytest.raises(QueryError):
            first_passage_distribution(
                paper_chain, paper_start, set(), 3
            )
        with pytest.raises(QueryError):
            first_passage_distribution(
                paper_chain, paper_start, {9}, 3
            )
        with pytest.raises(QueryError):
            first_passage_distribution(
                paper_chain, paper_start, {-1, 0}, 3
            )
        with pytest.raises(QueryError):
            first_passage_distribution(
                paper_chain, paper_start, {0}, 1, start_time=3
            )
        with pytest.raises(ValidationError):
            first_passage_distribution(
                paper_chain, StateDistribution.point(4, 0), {0}, 3
            )
        result = first_passage_distribution(
            paper_chain, paper_start, {0}, 3
        )
        with pytest.raises(ValidationError):
            result.quantile(0.0)


class TestExpectedVisitCount:
    def test_equals_mean_of_ktimes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            chain = random_chain(n, rng)
            initial = random_distribution(n, rng)
            window = random_window(n, rng, max_time=5)
            distribution = ktimes_distribution(chain, initial, window)
            mean = float(
                np.arange(len(distribution)) @ distribution
            )
            assert expected_visit_count(
                chain, initial, window
            ) == pytest.approx(mean, abs=1e-10)

    def test_paper_example(self, paper_chain, paper_window, paper_start):
        # mean of (0.136, 0.672, 0.192) = 0.672 + 2 * 0.192 = 1.056
        assert expected_visit_count(
            paper_chain, paper_start, paper_window
        ) == pytest.approx(1.056)

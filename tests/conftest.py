"""Shared fixtures and strategy helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro import (
    MarkovChain,
    SpatioTemporalWindow,
    StateDistribution,
)

# A property test without its own example count runs hypothesis's
# default (100) in tier-1 and 2,000 under REPRO_HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def paper_chain() -> MarkovChain:
    """The running-example chain of Sections V-A / V-B (0.6 / 0.4 row)."""
    return MarkovChain(
        [
            [0.0, 0.0, 1.0],
            [0.6, 0.0, 0.4],
            [0.0, 0.8, 0.2],
        ]
    )


@pytest.fixture
def paper_chain_section6() -> MarkovChain:
    """The Section VI example chain (0.5 / 0.5 row)."""
    return MarkovChain(
        [
            [0.0, 0.0, 1.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.8, 0.2],
        ]
    )


@pytest.fixture
def paper_window() -> SpatioTemporalWindow:
    """The running-example window: S = {s1, s2}, T = {2, 3}.

    State indices are zero-based here, so the paper's {s1, s2} is {0, 1}.
    """
    return SpatioTemporalWindow(frozenset({0, 1}), frozenset({2, 3}))


@pytest.fixture
def paper_start() -> StateDistribution:
    """The running-example start: observed at s2 (index 1) at t = 0."""
    return StateDistribution.point(3, 1)


def random_chain(
    n_states: int, rng: np.random.Generator, density: float = 0.6
) -> MarkovChain:
    """A random row-stochastic chain for property tests.

    Each row gets at least one non-zero entry; entry positions follow a
    Bernoulli(density) mask.
    """
    matrix = np.zeros((n_states, n_states))
    for i in range(n_states):
        mask = rng.random(n_states) < density
        if not mask.any():
            mask[rng.integers(0, n_states)] = True
        weights = rng.random(n_states) * mask
        matrix[i] = weights / weights.sum()
    return MarkovChain(matrix)


def random_distribution(
    n_states: int, rng: np.random.Generator, sparse: bool = False
) -> StateDistribution:
    """A random distribution; optionally with small support."""
    if sparse:
        support_size = int(rng.integers(1, max(2, n_states // 2)))
        support = rng.choice(n_states, size=support_size, replace=False)
        weights = np.zeros(n_states)
        weights[support] = rng.random(support_size) + 1e-3
    else:
        weights = rng.random(n_states) + 1e-3
    return StateDistribution(weights / weights.sum())


def random_window(
    n_states: int, rng: np.random.Generator, max_time: int = 6
) -> SpatioTemporalWindow:
    """A random non-empty window within the given horizon."""
    region_size = int(rng.integers(1, n_states))
    region = rng.choice(n_states, size=region_size, replace=False)
    n_times = int(rng.integers(1, max_time))
    times = rng.choice(
        np.arange(1, max_time + 1), size=n_times, replace=False
    )
    return SpatioTemporalWindow(
        frozenset(int(s) for s in region),
        frozenset(int(t) for t in times),
    )

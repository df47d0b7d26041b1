"""Temporal analyses derived from the absorbing construction.

The Section V-A absorbing construction answers more than the window
predicate: because the TOP state accumulates exactly the worlds that
have *entered* the region, the increments of ``P(TOP)`` over time are
the distribution of the **first entry time** into the region.  This module exposes that
and the quantities built on it:

* :func:`first_passage_distribution` -- ``P(first entry at t)`` for
  ``t = start_time .. horizon`` plus the never-entering mass;
* :func:`expected_entry_time` -- conditional mean first-entry time;
* :func:`expected_visit_counts` -- expected number of query timestamps
  spent inside a region (the mean of the PSTkQ distribution, but
  computed directly from marginals by linearity).

These power queries like the introduction's "predict the number of cars
that will be in a congested road segment after 10-15 minutes" and "when
will this iceberg reach the shipping lane?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.distribution import StateDistribution
from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.naive import region_marginals
from repro.core.query import SpatioTemporalWindow

__all__ = [
    "FirstPassageResult",
    "first_passage_distribution",
    "expected_entry_time",
    "expected_visit_count",
]


@dataclass(frozen=True)
class FirstPassageResult:
    """The first-entry-time distribution into a region.

    Attributes:
        start_time: the observation timestamp (time of ``pmf[0]``).
        pmf: ``pmf[i]`` is the probability that the object enters the
            region for the first time at ``start_time + i``.
        never_probability: mass of worlds that never enter within the
            horizon.
    """

    start_time: int
    pmf: np.ndarray
    never_probability: float

    @property
    def horizon(self) -> int:
        """The last timestamp covered (``start_time + len(pmf) - 1``)."""
        return self.start_time + len(self.pmf) - 1

    def entry_by(self, time: int) -> float:
        """``P(first entry <= time)`` (the CDF)."""
        if time < self.start_time:
            return 0.0
        offset = min(time - self.start_time, len(self.pmf) - 1)
        return float(self.pmf[: offset + 1].sum())

    def conditional_mean(self) -> Optional[float]:
        """Mean entry time *given* entry within the horizon.

        None when entry is impossible within the horizon.
        """
        total = float(self.pmf.sum())
        if total <= 0.0:
            return None
        times = self.start_time + np.arange(len(self.pmf))
        return float((times * self.pmf).sum() / total)

    def quantile(self, q: float) -> Optional[int]:
        """Smallest time with ``P(entry <= time) >= q * P(entry)``.

        The quantile of the *conditional* entry-time distribution;
        None when entry is impossible.
        """
        if not (0.0 < q <= 1.0):
            raise ValidationError(f"q must be in (0, 1], got {q}")
        total = float(self.pmf.sum())
        if total <= 0.0:
            return None
        cumulative = np.cumsum(self.pmf) / total
        offset = int(np.searchsorted(cumulative, q - 1e-12))
        return self.start_time + min(offset, len(self.pmf) - 1)


def first_passage_distribution(
    chain: MarkovChain,
    initial: StateDistribution,
    region: Iterable[int],
    horizon: int,
    start_time: int = 0,
) -> FirstPassageResult:
    """Distribution of the first time the object enters ``region``.

    Runs the absorbing iteration with *every* timestamp treated as a
    query time: each step takes the chain's own matrix and moves the
    mass now inside the region onto TOP, and the mass moved is exactly
    the first-entry probability at that step.

    Args:
        chain: the trajectory model.
        initial: the object's distribution at ``start_time``.
        region: the target region.
        horizon: last timestamp to account for (``>= start_time``).
        start_time: the observation timestamp.
    """
    if initial.n_states != chain.n_states:
        raise ValidationError(
            f"initial distribution over {initial.n_states} states, "
            f"chain over {chain.n_states}"
        )
    if horizon < start_time:
        raise QueryError(
            f"horizon {horizon} precedes start_time {start_time}"
        )
    frozen = frozenset(int(s) for s in region)
    if not frozen:
        raise QueryError("region is empty")
    for state in (min(frozen), max(frozen)):
        if not 0 <= state < chain.n_states:
            raise QueryError(
                f"region state {state} outside [0, {chain.n_states})"
            )
    inside = np.zeros(chain.n_states, dtype=bool)
    inside[list(frozen)] = True
    vector = np.array(initial.vector, dtype=float)
    pmf = np.zeros(horizon - start_time + 1, dtype=float)
    for offset in range(len(pmf)):
        if offset:
            vector = np.asarray(vector @ chain.matrix, dtype=float)
        # offset 0: the mass already inside at start_time
        pmf[offset] = vector[inside].sum()
        vector[inside] = 0.0
    return FirstPassageResult(
        start_time=start_time,
        pmf=pmf,
        never_probability=max(0.0, 1.0 - float(pmf.sum())),
    )


def expected_entry_time(
    chain: MarkovChain,
    initial: StateDistribution,
    region: Iterable[int],
    horizon: int,
    start_time: int = 0,
) -> Optional[float]:
    """Conditional mean first-entry time into ``region`` (or None)."""
    return first_passage_distribution(
        chain, initial, region, horizon, start_time
    ).conditional_mean()


def expected_visit_count(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
) -> float:
    """Expected number of query timestamps spent inside the region.

    By linearity of expectation this is the sum of the per-timestamp
    region marginals -- no possible-worlds machinery needed, and it
    equals the mean of the PSTkQ distribution (checked in the tests).
    """
    marginals = region_marginals(chain, initial, window, start_time)
    return float(marginals.sum())

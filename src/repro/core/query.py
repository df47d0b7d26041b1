"""Probabilistic spatio-temporal query definitions.

A query window ``Q = S_q x T_q`` pairs a spatial region (any set of states,
not necessarily connected) with a temporal region (any set of timestamps,
not necessarily contiguous) -- Section III of the paper explicitly allows
arbitrary subsets of both domains.

Three query semantics are defined over the window:

* :class:`PSTExistsQuery`  (Definition 2) -- object in ``S_q`` at *some*
  ``t in T_q``.
* :class:`PSTForAllQuery`  (Definition 3) -- object in ``S_q`` at *all*
  ``t in T_q``.
* :class:`PSTKTimesQuery`  (Definition 4) -- object in ``S_q`` at *exactly
  k* timestamps of ``T_q``; the processor returns the full distribution
  over ``k = 0 .. |T_q|``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

import numpy as np

from repro.core.errors import QueryError

__all__ = [
    "Region",
    "SpatioTemporalWindow",
    "PSTQuery",
    "PSTExistsQuery",
    "PSTForAllQuery",
    "PSTKTimesQuery",
]


class Region(frozenset):
    """A spatial query region ``S_q`` in canonical form.

    A plain ``frozenset`` of state indices that also carries, computed
    once at construction:

    Attributes:
        array: the states as a sorted, read-only ``int64`` array --
            what the vectorised filter stages and matrix constructions
            index with.
        key: a 16-byte digest of ``array``.  Caches
            (:class:`~repro.core.plan_cache.PlanCache`,
            :class:`~repro.database.pruning.ReachabilityPruner`) key on
            it, so a probe costs one short ``bytes`` comparison instead
            of re-freezing the region and comparing two equal sets
            element by element.

    ``Region(x)`` returns ``x`` itself when it already is a region, so
    every layer can normalise its argument for free.  Equality and
    hashing are the inherited set semantics: a region equals the plain
    frozenset of the same states.
    """

    __slots__ = ("array", "key")

    def __new__(cls, states: Iterable[int] = ()) -> "Region":
        if type(states) is cls:
            return states
        try:
            array = np.unique(
                np.fromiter(map(int, states), dtype=np.int64)
            )
        except OverflowError:
            raise QueryError(
                "query region holds a state index beyond int64"
            ) from None
        return cls._of_sorted(array)

    @classmethod
    def _of_sorted(cls, array: np.ndarray) -> "Region":
        """The region of a sorted, duplicate-free ``int64`` array."""
        self = super().__new__(cls, array.tolist())
        array.setflags(write=False)
        self.array = array
        self.key = hashlib.blake2b(
            array.tobytes(), digest_size=16
        ).digest()
        return self

    def complement(self, n_states: int) -> "Region":
        """Every state of an ``n_states`` space outside this region
        (the for-all reduction of Section VII)."""
        outside = np.ones(int(n_states), dtype=bool)
        outside[self.array[self.array < n_states]] = False
        return Region._of_sorted(np.flatnonzero(outside))


@dataclass(frozen=True)
class SpatioTemporalWindow:
    """The query window ``Q = S_q x T_q``.

    Attributes:
        region: the spatial query region ``S_q`` (state indices), held
            as a canonical :class:`Region`.
        times: the temporal query region ``T_q`` (timestamps).
    """

    region: FrozenSet[int]
    times: FrozenSet[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", Region(self.region))
        object.__setattr__(self, "times", frozenset(int(t) for t in self.times))
        if not self.region:
            raise QueryError("query region is empty")
        if not self.times:
            raise QueryError("query time set is empty")
        if self.region.array[0] < 0:
            raise QueryError(
                f"negative state index {int(self.region.array[0])}"
            )
        if min(self.times) < 0:
            raise QueryError(f"negative query time {min(self.times)}")

    @classmethod
    def from_ranges(
        cls,
        state_low: int,
        state_high: int,
        time_low: int,
        time_high: int,
    ) -> "SpatioTemporalWindow":
        """Contiguous window, e.g. the paper's states [100,120] x [20,25]."""
        if state_low > state_high:
            raise QueryError(
                f"empty state range [{state_low}, {state_high}]"
            )
        if time_low > time_high:
            raise QueryError(f"empty time range [{time_low}, {time_high}]")
        return cls(
            frozenset(range(state_low, state_high + 1)),
            frozenset(range(time_low, time_high + 1)),
        )

    @property
    def t_start(self) -> int:
        """Earliest query timestamp ``min(T_q)``."""
        return min(self.times)

    @property
    def t_end(self) -> int:
        """Latest query timestamp ``max(T_q)`` (the paper's ``t_end``)."""
        return max(self.times)

    @property
    def duration(self) -> int:
        """Number of query timestamps ``|T_q|``."""
        return len(self.times)

    def contains_time(self, time: int) -> bool:
        """Whether ``time`` belongs to ``T_q``."""
        return time in self.times

    def with_region(self, region: Iterable[int]) -> "SpatioTemporalWindow":
        """Same times, different spatial region (the for-all reduction)."""
        return SpatioTemporalWindow(Region(region), self.times)

    def validate_for(self, n_states: int) -> None:
        """Check every region state exists in an ``n_states`` space."""
        worst = int(self.region.array[-1])
        if worst >= n_states:
            raise QueryError(
                f"query region state {worst} out of range [0, {n_states})"
            )


@dataclass(frozen=True)
class PSTQuery:
    """Base class for the three probabilistic spatio-temporal queries."""

    window: SpatioTemporalWindow

    @property
    def region(self) -> FrozenSet[int]:
        """Spatial part ``S_q`` of the window."""
        return self.window.region

    @property
    def times(self) -> FrozenSet[int]:
        """Temporal part ``T_q`` of the window."""
        return self.window.times


@dataclass(frozen=True)
class PSTExistsQuery(PSTQuery):
    """PST-exists (Definition 2): in the region at *some* query time."""

    @classmethod
    def from_ranges(
        cls, state_low: int, state_high: int, time_low: int, time_high: int
    ) -> "PSTExistsQuery":
        """Contiguous-window convenience constructor."""
        return cls(
            SpatioTemporalWindow.from_ranges(
                state_low, state_high, time_low, time_high
            )
        )


@dataclass(frozen=True)
class PSTForAllQuery(PSTQuery):
    """PST-for-all (Definition 3): in the region at *all* query times.

    Processed through the paper's complement identity (Section VII):
    ``P_forall(S_q, T_q) = 1 - P_exists(S \\ S_q, T_q)``.
    """

    @classmethod
    def from_ranges(
        cls, state_low: int, state_high: int, time_low: int, time_high: int
    ) -> "PSTForAllQuery":
        """Contiguous-window convenience constructor."""
        return cls(
            SpatioTemporalWindow.from_ranges(
                state_low, state_high, time_low, time_high
            )
        )

    def complement_exists(self, n_states: int) -> PSTExistsQuery:
        """The equivalent exists-query over the complement region."""
        if self.region.array[-1] >= n_states:
            raise QueryError(
                f"query region exceeds state space of size {n_states}"
            )
        complement = self.region.complement(n_states)
        if not complement:
            raise QueryError(
                "for-all region covers the whole space; probability is "
                "trivially 1"
            )
        return PSTExistsQuery(self.window.with_region(complement))


@dataclass(frozen=True)
class PSTKTimesQuery(PSTQuery):
    """PST-k-times (Definition 4): in the region at exactly ``k`` times.

    When ``k`` is None the processor reports the full distribution over
    ``k = 0 .. |T_q|``; otherwise a single probability.
    """

    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k is not None and not (0 <= self.k <= self.window.duration):
            raise QueryError(
                f"k={self.k} outside [0, |T_q|={self.window.duration}]"
            )

    @classmethod
    def from_ranges(
        cls,
        state_low: int,
        state_high: int,
        time_low: int,
        time_high: int,
        k: Optional[int] = None,
    ) -> "PSTKTimesQuery":
        """Contiguous-window convenience constructor."""
        return cls(
            SpatioTemporalWindow.from_ranges(
                state_low, state_high, time_low, time_high
            ),
            k,
        )

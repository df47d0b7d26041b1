"""Observations of uncertain spatio-temporal objects.

An observation fixes (possibly with uncertainty) the state of an object at
one timestamp.  Section VI of the paper handles an arbitrary number of
observations per object: the first observation anchors the forward
computation, later observations are fused in via Lemma 1 (independent
evidence: elementwise product + normalisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.distribution import StateDistribution
from repro.core.errors import ObservationError

__all__ = ["Observation", "ObservationSet"]


@dataclass(frozen=True)
class Observation:
    """One observation: a distribution over states at a timestamp.

    Attributes:
        time: the timestamp ``t`` of the observation (non-negative).
        distribution: the paper's ``P_obs`` -- where the object may have
            been at ``t``, as a probability distribution over states.  A
            precise observation is a point distribution.
    """

    time: int
    distribution: StateDistribution

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ObservationError(
                f"observation time must be non-negative, got {self.time}"
            )

    @classmethod
    def precise(cls, time: int, n_states: int, state: int) -> "Observation":
        """An exact sighting of the object at ``state``."""
        return cls(time, StateDistribution.point(n_states, state))

    @classmethod
    def uniform(
        cls, time: int, n_states: int, states: Iterable[int]
    ) -> "Observation":
        """An observation that narrows the object to a uniform region.

        This matches the synthetic generator's ``object_spread`` parameter
        (Table I): the location at ``t_0`` is "a PDF over a certain number
        of states".
        """
        return cls(time, StateDistribution.uniform(n_states, states))

    @classmethod
    def weighted(
        cls, time: int, n_states: int, weights: Mapping[int, float]
    ) -> "Observation":
        """An observation with explicit per-state weights (normalised)."""
        return cls(
            time,
            StateDistribution.from_dict(n_states, weights, normalize=True),
        )

    @property
    def n_states(self) -> int:
        """Number of states of the underlying distribution."""
        return self.distribution.n_states

    def is_precise(self) -> bool:
        """Whether the observation pins the object to a single state."""
        return self.distribution.support_size() == 1


@dataclass(frozen=True)
class ObservationSet:
    """A time-ordered collection of observations of one object.

    Invariants enforced at construction: at least one observation, all over
    the same state count, strictly increasing timestamps.
    """

    observations: Tuple[Observation, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.observations:
            raise ObservationError("an object needs at least one observation")
        ordered = tuple(sorted(self.observations, key=lambda o: o.time))
        object.__setattr__(self, "observations", ordered)
        n_states = ordered[0].n_states
        previous_time: Optional[int] = None
        for observation in ordered:
            if observation.n_states != n_states:
                raise ObservationError(
                    f"observations over {n_states} and "
                    f"{observation.n_states} states cannot be mixed"
                )
            if previous_time is not None and observation.time == previous_time:
                raise ObservationError(
                    f"two observations at time {observation.time}; fuse "
                    f"them first (Observation distributions support .fuse)"
                )
            previous_time = observation.time

    @classmethod
    def single(cls, observation: Observation) -> "ObservationSet":
        """The common case of one observation (extrapolation queries)."""
        return cls((observation,))

    @classmethod
    def of(cls, *observations: Observation) -> "ObservationSet":
        """Variadic convenience constructor."""
        return cls(tuple(observations))

    @classmethod
    def from_columns(
        cls, n_states: int, times, indptr, states, weights
    ) -> "ObservationSet":
        """One object's observations from columnar storage.

        Observation ``i`` is at ``times[i]`` with support
        ``states[indptr[i]:indptr[i + 1]]`` and the parallel
        ``weights`` -- how the sharded store's slabs hold them.  The weights must
        not be renormalised: they are exact copies of the source
        vectors' entries, so the rebuilt rows pass validation
        unchanged, whereas normalising would perturb bits the parity
        suite compares at 1e-12.
        """
        return cls(tuple(
            Observation(
                int(time),
                StateDistribution.from_support(
                    n_states, states[lo:hi], weights[lo:hi]
                ),
            )
            for time, lo, hi in zip(times, indptr[:-1], indptr[1:])
        ))

    @property
    def n_states(self) -> int:
        """State count shared by all observations."""
        return self.observations[0].n_states

    @property
    def first(self) -> Observation:
        """The earliest observation (anchors forward processing)."""
        return self.observations[0]

    @property
    def last(self) -> Observation:
        """The latest observation."""
        return self.observations[-1]

    @property
    def times(self) -> Tuple[int, ...]:
        """All observation timestamps, ascending."""
        return tuple(observation.time for observation in self.observations)

    def at(self, time: int) -> Optional[Observation]:
        """The observation at ``time`` if one exists."""
        for observation in self.observations:
            if observation.time == time:
                return observation
        return None

    def after(self, time: int) -> List[Observation]:
        """Observations strictly after ``time``, ascending."""
        return [o for o in self.observations if o.time > time]

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations)

    def __len__(self) -> int:
        return len(self.observations)

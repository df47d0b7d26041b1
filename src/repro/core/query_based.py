"""Query-based (QB) query processing -- Section V-B.

The query-based approach reverses the computation: one backward pass from
``t_end`` to the observation time, ``v(t) = M(t -> t+1) . v(t+1)``,
produces a vector ``v`` whose entry ``v[s]`` is the probability that an
object starting at state ``s`` satisfies the query.  Each object is then
answered by a single (sparse) dot product ``P(o, 0) . v``.  The pass needs
only the chain matrix and the region: ``v[TOP]`` is 1 at every step, so
``M_plus . v = M . (v with its S_q entries set to 1)`` and
``M_minus . v = M . v`` -- no augmented matrix is built.

The backward pass is shared across *all* objects that follow the same
chain, which is why QB beats OB by orders of magnitude on large databases
(Section V-C; Figures 8-10 of the paper).  Databases whose objects follow
per-class chains simply run one evaluator per class.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.core.batch import backward_vectors
from repro.core.distribution import StateDistribution
from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.matrices import build_ktimes_block_matrices
from repro.core.query import SpatioTemporalWindow

__all__ = [
    "QueryBasedEvaluator",
    "qb_exists_probability",
    "qb_forall_probability",
]


class QueryBasedEvaluator:
    """Pre-computed backward vector for one (chain, window) pair.

    Construction runs the backward pass once (``O(|S_reach|^2 . dt)`` in
    the paper's notation) on the chain's own matrix; afterwards
    :meth:`probability` answers each object in time proportional to its
    support size -- "a total CPU cost of O(1) per object" for point
    observations.

    Args:
        chain: the Markov model shared by the objects.
        window: the query window ``S_q x T_q``.
        start_time: the observation timestamp the backward pass stops at.
        plan_cache: optional :class:`~repro.core.plan_cache.PlanCache`
            supplying (and keeping) the backward vector.
    """

    def __init__(
        self,
        chain: MarkovChain,
        window: SpatioTemporalWindow,
        start_time: int = 0,
        plan_cache=None,
    ) -> None:
        window.validate_for(chain.n_states)
        if start_time < 0:
            raise QueryError(
                f"start_time must be non-negative, got {start_time}"
            )
        if window.t_start < start_time:
            raise QueryError(
                f"query time {window.t_start} precedes start_time "
                f"{start_time}"
            )
        self.chain = chain
        self.window = window
        self.start_time = start_time
        self._backward = backward_vectors(
            chain, window, [start_time], plan_cache
        )[start_time]
        # the per-state answers: mass inside S_q at a start time that is
        # itself a query timestamp is an immediate hit (TOP, worth 1)
        self._answers = self._backward[:-1]
        if start_time in window.times:
            self._answers = self._answers.copy()
            self._answers[window.region.array] = 1.0

    @property
    def backward_vector(self) -> np.ndarray:
        """``v(start_time)``: per-start-state satisfaction probability.

        ``v(t_end) = (0, ..., 0, 1)`` (only TOP satisfies the query at
        the end); then ``v(t) = M(t -> t+1) . v(t+1)`` -- the shared
        :data:`~repro.exec.operators.BACKWARD_SWEEP` pass the batched
        kernels and the streaming anchor run.  Entry ``s < n`` is the
        probability that an object sitting at state ``s`` at
        ``start_time`` satisfies the query; the final entry is the TOP
        component (always 1).
        """
        return self._backward

    def state_probability(self, state: int) -> float:
        """Satisfaction probability for a point observation at ``state``."""
        if not (0 <= state < self.chain.n_states):
            raise ValidationError(
                f"state {state} out of range [0, {self.chain.n_states})"
            )
        return float(self._answers[state])

    def probability(self, initial: StateDistribution) -> float:
        """``P_exists(o, S_q, T_q)`` for one object's distribution."""
        if initial.n_states != self.chain.n_states:
            raise ValidationError(
                f"initial distribution over {initial.n_states} states, "
                f"chain over {self.chain.n_states}"
            )
        return float(np.asarray(initial.vector, dtype=float) @ self._answers)

    def probabilities(
        self, initials: Iterable[StateDistribution]
    ) -> List[float]:
        """Batch evaluation -- one dot product per object."""
        return [self.probability(initial) for initial in initials]


def qb_exists_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
    plan_cache=None,
) -> float:
    """One-shot QB PST-exists (builds the evaluator and answers once).

    Prefer constructing a :class:`QueryBasedEvaluator` explicitly when
    several objects share the chain -- that is the whole point of QB --
    or pass a :class:`~repro.core.plan_cache.PlanCache` so repeated
    calls reuse the backward vector.
    """
    evaluator = QueryBasedEvaluator(
        chain,
        window,
        start_time=start_time,
        plan_cache=plan_cache,
    )
    return evaluator.probability(initial)


def qb_forall_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
) -> float:
    """QB PST-for-all via the complement identity (Section VII)."""
    window.validate_for(chain.n_states)
    complement = frozenset(range(chain.n_states)) - window.region
    if not complement:
        return 1.0
    return 1.0 - qb_exists_probability(
        chain,
        initial,
        window.with_region(complement),
        start_time=start_time,
    )


class QueryBasedKTimesEvaluator:
    """QB evaluation of PSTkQ via the blocked matrices (Section VII).

    One backward pass propagates the ``|T_q| + 1`` per-count terminal
    indicators simultaneously as the columns of a dense matrix, so the
    cost grows linearly with ``|T_q|`` -- the behaviour Figure 10(b)
    reports.
    """

    def __init__(
        self,
        chain: MarkovChain,
        window: SpatioTemporalWindow,
        start_time: int = 0,
    ) -> None:
        window.validate_for(chain.n_states)
        if window.t_start < start_time:
            raise QueryError(
                f"query time {window.t_start} precedes start_time "
                f"{start_time}"
            )
        self.chain = chain
        self.window = window
        self.start_time = start_time
        self.n_blocks = window.duration + 1
        self.m_minus, self.m_plus = build_ktimes_block_matrices(
            chain, window.region, window.duration
        )
        self._backward = self._run_backward_pass()

    def _run_backward_pass(self) -> np.ndarray:
        n = self.chain.n_states
        size = self.n_blocks * n
        # column k of the terminal matrix is the indicator of block k
        terminal = np.zeros((size, self.n_blocks), dtype=float)
        for block in range(self.n_blocks):
            terminal[block * n:(block + 1) * n, block] = 1.0
        current = terminal
        for time in range(self.window.t_end - 1, self.start_time - 1, -1):
            matrix = (
                self.m_plus
                if (time + 1) in self.window.times
                else self.m_minus
            )
            current = np.asarray(matrix @ current, dtype=float)
        return current

    def distribution(self, initial: StateDistribution) -> np.ndarray:
        """``P(k)`` for ``k = 0 .. |T_q|`` for one object."""
        if initial.n_states != self.chain.n_states:
            raise ValidationError(
                f"initial distribution over {initial.n_states} states, "
                f"chain over {self.chain.n_states}"
            )
        n = self.chain.n_states
        size = self.n_blocks * n
        extended = np.zeros(size, dtype=float)
        extended[:n] = initial.vector
        if self.start_time in self.window.times:
            # footnote 3: mass observed inside the region starts at k = 1
            for state in self.window.region:
                extended[n + state] = extended[state]
                extended[state] = 0.0
        return np.asarray(extended @ self._backward, dtype=float)

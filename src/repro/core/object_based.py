"""Object-based (OB) query processing -- Sections V-A and VI.

The object-based approach evaluates a query *per object*: the object's
distribution vector is pushed forward through time with the paper's
augmented matrices ``M_minus`` / ``M_plus``; the probability
accumulated in the absorbing TOP state after the last query timestamp
is exactly the PST-exists probability under possible-worlds semantics.
The sweep (:class:`~repro.exec.operators.ForwardSweep`) steps the
chain's own matrix and moves the ``S_q`` mass onto TOP after each step
into ``T_q``, which is the same product; no augmented matrix is
built.

Features beyond the basic loop, all from the paper:

* **early termination** (Section V-C): for threshold queries, processing
  can stop as soon as ``P(TOP)`` exceeds the threshold;
* **reachability** (Section V-C / the ``S_reach`` discussion): large
  stacks sweep as a sparse frontier
  (:class:`~repro.exec.operators.ForwardSweep`), so each step touches
  only the states the objects can have reached;
* **multiple observations** (Section VI): the doubled-state-space variant
  -- each object a row and its "window hit" shadow row -- with Lemma 1
  evidence fusion at each later observation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.distribution import StateDistribution, SupportBlock
from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.observation import ObservationSet
from repro.core.query import SpatioTemporalWindow
from repro.exec.operators import FORWARD_SWEEP, SweepSchedule

__all__ = [
    "ob_exists_probability",
    "ob_forall_probability",
    "ob_exists_probability_multi",
]


def _check_window(
    chain: MarkovChain, window: SpatioTemporalWindow, start_time: int
) -> None:
    window.validate_for(chain.n_states)
    if start_time < 0:
        raise QueryError(f"start_time must be non-negative, got {start_time}")
    if window.t_start < start_time:
        raise QueryError(
            f"query time {window.t_start} precedes the observation at "
            f"t={start_time}; extrapolation queries need all query times "
            f">= the observation time"
        )


def ob_exists_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
    stop_at_probability: Optional[float] = None,
) -> float:
    """PST-exists probability of one object, object-based (Section V-A).

    Args:
        chain: the object's Markov model.
        initial: the object's distribution at ``start_time`` (its
            observation).
        window: the query window ``S_q x T_q``.
        start_time: the timestamp of the observation (default 0, as in the
            paper's exposition).
        stop_at_probability: when set, return as soon as ``P(TOP)`` reaches
            this value -- a lower bound sufficient for threshold queries
            (the paper's early-termination note in Section V-C).

    Returns:
        ``P_exists(o, S_q, T_q)`` -- exact up to float arithmetic (or a
        lower bound when early termination fired).
    """
    if initial.n_states != chain.n_states:
        raise ValidationError(
            f"initial distribution over {initial.n_states} states, "
            f"chain over {chain.n_states}"
        )
    _check_window(chain, window, start_time)

    # a one-row schedule through the shared ForwardSweep operator: the
    # same kernel the batched path runs, with Section V-C early
    # termination expressed as the schedule's stop threshold
    schedule = SweepSchedule(
        n_rows=1,
        first=start_time,
        last=window.t_end,
        times=window.times,
        activations={
            start_time: (
                np.zeros(1, dtype=np.int64),
                SupportBlock.from_distributions(
                    [initial], chain.n_states
                ),
            )
        },
        harvests={window.t_end: [0]},
        read="top",
        stop_threshold=stop_at_probability,
    )
    result = FORWARD_SWEEP(schedule, chain, window.region)
    return float(result[0])


def ob_forall_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
) -> float:
    """PST-for-all probability via the complement identity (Section VII).

    ``P_forall(o, S_q, T_q) = 1 - P_exists(o, S \\ S_q, T_q)``.  When the
    region covers the whole space the probability is trivially one.
    """
    _check_window(chain, window, start_time)
    complement = frozenset(range(chain.n_states)) - window.region
    if not complement:
        return 1.0
    return 1.0 - ob_exists_probability(
        chain,
        initial,
        window.with_region(complement),
        start_time=start_time,
    )


def ob_exists_probability_multi(
    chain: MarkovChain,
    observations: ObservationSet,
    window: SpatioTemporalWindow,
) -> float:
    """PST-exists with multiple observations (Section VI).

    The first observation anchors a forward pass over the *doubled* state
    space (the object's row and its "window hit" shadow row); every later
    observation is fused in with Lemma 1 (elementwise product of the
    observation pdf over both rows, then renormalisation).  The result is
    the posterior probability of the shadow row after all observations
    and all query times have been processed.

    Raises:
        InfeasibleEvidenceError: when the observations are mutually
            contradictory under the chain (zero posterior mass).
        QueryError: when a query time precedes the first observation.
    """
    if observations.n_states != chain.n_states:
        raise ValidationError(
            f"observations over {observations.n_states} states, "
            f"chain over {chain.n_states}"
        )
    first = observations.first
    _check_window(chain, window, first.time)

    # the one-object case of the batched Section VI sweep: same
    # operator, same schedule shape, one row
    from repro.core.batch import batch_exists_multi

    result = batch_exists_multi(chain, [observations], window)
    return float(result[0])

"""Object-based (OB) query processing -- Sections V-A and VI.

The object-based approach evaluates a query *per object*: the object's
distribution vector is pushed forward through time with the augmented
matrices ``M_minus`` / ``M_plus``; the probability accumulated in the
absorbing TOP state after the last query timestamp is exactly the
PST-exists probability under possible-worlds semantics.

Features beyond the basic loop, all from the paper:

* **early termination** (Section V-C): for threshold queries, processing
  can stop as soon as ``P(TOP)`` exceeds the threshold;
* **reachability pruning** (Section V-C / the ``S_reach`` discussion):
  the chain is restricted to the states actually reachable from the
  object's start distribution within the query horizon, shrinking the
  matrices;
* **multiple observations** (Section VI): the doubled-state-space variant
  with Lemma 1 evidence fusion at each later observation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.distribution import StateDistribution, SupportBlock
from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.matrices import AbsorbingMatrices, DoubledMatrices
from repro.core.observation import ObservationSet
from repro.core.plan_cache import resolve_absorbing, resolve_doubled
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
    matrices: Optional[AbsorbingMatrices] = None,
    backend: Optional[str] = None,
    stop_at_probability: Optional[float] = None,
    prune: bool = False,
    plan_cache=None,
) -> float:
    """PST-exists probability of one object, object-based (Section V-A).

    Args:
        chain: the object's Markov model.
        initial: the object's distribution at ``start_time`` (its
            observation).
        window: the query window ``S_q x T_q``.
        start_time: the timestamp of the observation (default 0, as in the
            paper's exposition).
        matrices: pre-built absorbing matrices to reuse across objects
            sharing a chain; built on the fly when omitted.  Must have been
            built for exactly ``window.region``.
        backend: linear-algebra backend name (ignored when ``matrices`` is
            given).
        stop_at_probability: when set, return as soon as ``P(TOP)`` reaches
            this value -- a lower bound sufficient for threshold queries
            (the paper's early-termination note in Section V-C).
        prune: restrict the computation to states reachable from the
            initial support within the horizon (the paper's ``S_reach``).
        plan_cache: optional :class:`~repro.core.plan_cache.PlanCache`
            supplying the absorbing matrices across calls (ignored when
            ``matrices`` is given or ``prune`` restricts the chain).

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

    if prune and matrices is None:
        return _ob_exists_pruned(
            chain, initial, window, start_time, backend, stop_at_probability
        )

    matrices = resolve_absorbing(
        chain, window.region, backend, plan_cache, matrices
    )

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
        read_offset=matrices.top_index,
        stop_threshold=stop_at_probability,
    )
    result = FORWARD_SWEEP(
        (matrices, schedule), chain, window.region, backend
    )
    return float(result[0])


def _ob_exists_pruned(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int,
    backend: Optional[str],
    stop_at_probability: Optional[float],
) -> float:
    """OB with the chain restricted to the reachable state set."""
    horizon = window.t_end - start_time
    reachable = chain.reachable_within(initial.support(), horizon)
    region = window.region & reachable
    if not region:
        return 0.0  # the object cannot enter the window at all
    sub_chain, index_map = chain.restricted(sorted(reachable))
    sub_initial = np.zeros(sub_chain.n_states, dtype=float)
    for state, probability in initial.items():
        sub_initial[index_map[state]] = probability
    sub_window = SpatioTemporalWindow(
        frozenset(index_map[s] for s in region), window.times
    )
    return ob_exists_probability(
        sub_chain,
        StateDistribution(sub_initial, normalize=True),
        sub_window,
        start_time=start_time,
        backend=backend,
        stop_at_probability=stop_at_probability,
        prune=False,
    )


def ob_forall_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
    backend: Optional[str] = None,
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
        backend=backend,
    )


def ob_exists_probability_multi(
    chain: MarkovChain,
    observations: ObservationSet,
    window: SpatioTemporalWindow,
    matrices: Optional[DoubledMatrices] = None,
    backend: Optional[str] = None,
    plan_cache=None,
) -> float:
    """PST-exists with multiple observations (Section VI).

    The first observation anchors a forward pass over the *doubled* state
    space; every later observation is fused in with Lemma 1 (elementwise
    product of the tiled observation pdf, then renormalisation).  The
    result is the posterior probability of the "window hit" block after
    all observations and all query times have been processed.

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

    matrices = resolve_doubled(
        chain, window.region, backend, plan_cache, matrices
    )

    # the one-object case of the batched Section VI sweep: same
    # operator, same schedule shape, one row
    from repro.core.batch import batch_exists_multi

    result = batch_exists_multi(
        chain,
        [observations],
        window,
        matrices=matrices,
        backend=backend,
    )
    return float(result[0])

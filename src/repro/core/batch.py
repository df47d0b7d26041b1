"""Batched multi-object query evaluation.

The paper's reduction (Sections V--VI) turns one query over one object
into a sequence of sparse vector--matrix products.  A database query is
many objects sharing a chain, so the per-object row vectors can be
stacked into one ``(n_objects, size)`` matrix ``X`` and the whole
forward pass becomes *one* sparse-dense product ``X @ M_t`` per
timestep: ``O(objects x timesteps)`` vecmats collapse into
``O(timesteps)`` matmats, which is how the paper's Figure 9/11
experiments amortise the linear algebra.  Per row the products are
identical to the per-object path, so results agree exactly (asserted to
1e-12 in the test suite).

Since the operator-layer refactor these functions are thin schedule
builders over :mod:`repro.exec.operators`: the sweeps themselves run as
:data:`~repro.exec.operators.FORWARD_SWEEP` /
:data:`~repro.exec.operators.BACKWARD_SWEEP` /
:data:`~repro.exec.operators.MC_SAMPLE`, the *same* operator instances
the per-object fallbacks, the streaming ladder, and the process-pool
shard workers of :mod:`repro.exec.dispatch` execute.  Three batched
evaluators are provided, mirroring the per-object functions of
:mod:`repro.core.object_based` and :mod:`repro.core.query_based`:

* :func:`batch_ob_exists` -- the Section V-A forward pass over the
  absorbing matrices, with mixed per-object start times handled by
  activating each object's row when the sweep reaches its observation
  timestamp;
* :func:`batch_qb_exists` -- the Section V-B backward pass run *once*
  (one pass serves every start time via :func:`backward_vectors`),
  then one sparse product ``P @ v`` answers all objects of a start
  group;
* :func:`batch_exists_multi` -- the Section VI doubled-space forward
  pass with per-row Lemma 1 evidence fusion at each object's later
  observations.

All three accept an optional :class:`~repro.core.plan_cache.PlanCache`
so repeated windows skip matrix construction entirely, and an optional
:class:`~repro.exec.operators.ExecutionContext` collecting per-operator
timings for EXPLAIN ANALYZE output.

Single-observation kernels take their ``initials`` either as a
sequence of :class:`~repro.core.distribution.StateDistribution` or --
what the pipeline and the shard workers pass, gathered straight from
columnar storage -- as one
:class:`~repro.core.distribution.SupportBlock`; the sequence form is
stacked into a block on entry, so there is one staging path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.distribution import StateDistribution, SupportBlock
from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.matrices import AbsorbingMatrices, DoubledMatrices
from repro.core.montecarlo import MonteCarloSampler
from repro.core.observation import ObservationSet
from repro.core.query import SpatioTemporalWindow
from repro.exec.operators import (
    BACKWARD_SWEEP,
    BUILD_ABSORBING,
    BUILD_DOUBLED,
    FORWARD_SWEEP,
    KTIMES_CORE,
    KTIMES_SWEEP,
    MC_SAMPLE,
    ExecutionContext,
    KTimesSchedule,
    SweepSchedule,
)

__all__ = [
    "backward_vectors",
    "batch_ob_exists",
    "batch_qb_exists",
    "batch_exists_multi",
    "batch_mc_exists",
    "batch_ktimes_distribution",
    "ktimes_sweep",
    "evaluate_rows",
]

StartTimes = Union[int, Sequence[int]]
Initials = Union[Sequence[StateDistribution], SupportBlock]


def _normalize_starts(
    start_times: StartTimes, n_objects: int
) -> np.ndarray:
    if isinstance(start_times, (int, np.integer)):
        starts = np.full(n_objects, int(start_times), dtype=np.int64)
    else:
        starts = np.fromiter(
            map(int, start_times), dtype=np.int64
        )
        if len(starts) != n_objects:
            raise ValidationError(
                f"{len(starts)} start times for {n_objects} objects"
            )
    if n_objects and starts.min() < 0:
        raise QueryError(
            f"start_time must be non-negative, got {int(starts.min())}"
        )
    return starts


def _check_starts(
    window: SpatioTemporalWindow, starts: np.ndarray
) -> None:
    late = starts[starts > window.t_start]
    if late.size:
        raise QueryError(
            f"query time {window.t_start} precedes the observation "
            f"at t={int(late[0])}; extrapolation queries need all query "
            f"times >= the observation time"
        )


def _as_block(chain: MarkovChain, initials: Initials) -> SupportBlock:
    """The initials as one block over the chain's states."""
    stacked = isinstance(initials, SupportBlock)
    for initial in [initials] if stacked else initials:
        if initial.n_states != chain.n_states:
            raise ValidationError(
                f"initial distribution over {initial.n_states} states, "
                f"chain over {chain.n_states}"
            )
    if stacked:
        return initials
    return SupportBlock.from_distributions(initials, chain.n_states)


def _rows_by_start(starts: np.ndarray) -> Dict[int, np.ndarray]:
    """``{start time: rows observed then}``, ascending by time."""
    order = np.argsort(starts, kind="stable")
    times, first = np.unique(starts[order], return_index=True)
    return dict(zip(times.tolist(), np.split(order, first[1:])))


def _activations(
    block: SupportBlock, starts: np.ndarray
) -> Dict[int, tuple]:
    """Sweep activations: per start time, the rows entering then and
    their sub-block."""
    groups = _rows_by_start(starts)
    if len(groups) == 1:  # the common shared-clock case: no re-gather
        return {time: (rows, block) for time, rows in groups.items()}
    return {
        time: (rows, block.take(rows)) for time, rows in groups.items()
    }


def backward_vectors(
    matrices: AbsorbingMatrices,
    window: SpatioTemporalWindow,
    start_times: Iterable[int],
    context: Optional[ExecutionContext] = None,
) -> Dict[int, np.ndarray]:
    """Section V-B backward vectors for every requested start time.

    One pass from ``t_end`` down to the earliest start yields ``v(t)``
    for *all* intermediate ``t``; the requested ones are copied out.
    Each returned vector is bit-identical to the one
    :class:`~repro.core.query_based.QueryBasedEvaluator` computes for
    that start time alone.  Delegates to
    :data:`~repro.exec.operators.BACKWARD_SWEEP`.
    """
    return BACKWARD_SWEEP(
        (matrices, window, start_times),
        region=window.region,
        context=context,
    )


def batch_ob_exists(
    chain: MarkovChain,
    initials: Initials,
    window: SpatioTemporalWindow,
    start_times: StartTimes = 0,
    matrices: Optional[AbsorbingMatrices] = None,
    backend: Optional[str] = None,
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Object-based PST-exists for many objects in one forward sweep.

    Args:
        chain: the Markov model shared by the objects.
        initials: one observation distribution per object (a sequence,
            or one :class:`~repro.core.distribution.SupportBlock`).
        window: the query window ``S_q x T_q``.
        start_times: one observation timestamp per object (or a single
            shared one).  Objects observed later join the sweep when it
            reaches their timestamp, so mixed starts cost one pass, not
            one pass per start.
        matrices: pre-built absorbing matrices (else cache/build).
        backend: linear-algebra backend name.
        plan_cache: optional :class:`~repro.core.plan_cache.PlanCache`
            supplying the matrices.
        context: optional operator-timing context.

    Returns:
        ``P_exists`` per object, aligned with ``initials``.
    """
    n_objects = len(initials)
    window.validate_for(chain.n_states)
    if n_objects == 0:
        return np.zeros(0, dtype=float)
    block = _as_block(chain, initials)
    starts = _normalize_starts(start_times, n_objects)
    _check_starts(window, starts)
    matrices = BUILD_ABSORBING(
        matrices, chain, window.region, backend,
        context=context, plan_cache=plan_cache,
    )

    schedule = SweepSchedule(
        n_rows=n_objects,
        first=int(starts.min()),
        last=window.t_end,
        times=window.times,
        activations=_activations(block, starts),
        harvests={window.t_end: range(n_objects)},
        read="top",
        read_offset=matrices.top_index,
    )
    return FORWARD_SWEEP(
        (matrices, schedule), chain, window.region, backend,
        context=context,
    )


def batch_qb_exists(
    chain: MarkovChain,
    initials: Initials,
    window: SpatioTemporalWindow,
    start_times: StartTimes = 0,
    matrices: Optional[AbsorbingMatrices] = None,
    backend: Optional[str] = None,
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Query-based PST-exists for many objects: one backward pass,
    one sparse product per start-time group.

    Arguments mirror :func:`batch_ob_exists`.  With a ``plan_cache``
    the backward vectors themselves are reused across queries, so a
    repeated window costs only the final dot products.
    """
    n_objects = len(initials)
    window.validate_for(chain.n_states)
    if n_objects == 0:
        return np.zeros(0, dtype=float)
    block = _as_block(chain, initials)
    starts = _normalize_starts(start_times, n_objects)
    _check_starts(window, starts)
    unique_starts = np.unique(starts).tolist()
    if plan_cache is not None and matrices is None:
        # cache the backward vectors themselves, not just the matrices
        vectors = plan_cache.backward_vectors(
            chain, window, unique_starts, backend, context=context
        )
        matrices = plan_cache.absorbing(chain, window.region, backend)
    else:
        matrices = BUILD_ABSORBING(
            matrices, chain, window.region, backend, context=context
        )
        vectors = backward_vectors(
            matrices, window, unique_starts, context=context
        )

    result = np.zeros(n_objects, dtype=float)
    for start, (rows, group) in _activations(block, starts).items():
        # the extended initials (mass already inside the region at a
        # query-time start sits on TOP) against v(start), row by row
        entry_rows, states, mass = matrices.extend_block(
            group, start, window.times
        )
        result[rows] = np.bincount(
            entry_rows,
            weights=mass * vectors[start][states],
            minlength=len(rows),
        )
    return result


def batch_exists_multi(
    chain: MarkovChain,
    observation_sets: Sequence[ObservationSet],
    window: SpatioTemporalWindow,
    matrices: Optional[DoubledMatrices] = None,
    backend: Optional[str] = None,
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Section VI PST-exists for many multi-observation objects at once.

    All objects advance through the doubled state space in one stacked
    sweep; Lemma 1 evidence fusion (elementwise product with the tiled
    observation pdf, then renormalisation) is applied per row at each
    object's later observation timestamps.  Each object's answer is
    read off at its own final timestamp, exactly as the per-object
    :func:`~repro.core.object_based.ob_exists_probability_multi` does.

    Raises:
        InfeasibleEvidenceError: when any object's observations are
            mutually contradictory under the chain.
    """
    n_objects = len(observation_sets)
    window.validate_for(chain.n_states)
    if n_objects == 0:
        return np.zeros(0, dtype=float)
    for observations in observation_sets:
        if observations.n_states != chain.n_states:
            raise ValidationError(
                f"observations over {observations.n_states} states, "
                f"chain over {chain.n_states}"
            )
    starts = _normalize_starts(
        [observations.first.time for observations in observation_sets],
        n_objects,
    )
    _check_starts(window, starts)
    matrices = BUILD_DOUBLED(
        matrices, chain, window.region, backend,
        context=context, plan_cache=plan_cache,
    )

    block = SupportBlock.from_distributions(
        [
            observations.first.distribution
            for observations in observation_sets
        ],
        chain.n_states,
    )
    fusions: Dict[int, List] = {}
    for row, observations in enumerate(observation_sets):
        for observation in observations.after(int(starts[row])):
            fusions.setdefault(observation.time, []).append((
                row,
                matrices.tile_observation(
                    np.asarray(
                        observation.distribution.vector, dtype=float
                    )
                ),
            ))
    harvests: Dict[int, List[int]] = {}
    finals = [
        max(window.t_end, observations.last.time)
        for observations in observation_sets
    ]
    for row, final in enumerate(finals):
        harvests.setdefault(final, []).append(row)

    schedule = SweepSchedule(
        n_rows=n_objects,
        first=int(starts.min()),
        last=max(finals),
        times=window.times,
        activations=_activations(block, starts),
        fusions=fusions,
        harvests=harvests,
        read="tail",
        read_offset=matrices.n_states,
    )
    return FORWARD_SWEEP(
        (matrices, schedule), chain, window.region, backend,
        context=context,
    )


def batch_ktimes_distribution(
    chain: MarkovChain,
    initials: Initials,
    window: SpatioTemporalWindow,
    start_times: StartTimes = 0,
    backend: Optional[str] = None,
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Section VII visit-count distributions for many objects at once.

    Two batched forms of the C(t) algorithm, picked per object:

    * observations *strictly before* the window ride the suffix-count
      decomposition (:data:`~repro.exec.operators.KTIMES_CORE`): one
      shared backward recursion from ``t_end`` down to the earliest
      start yields a ``(|S|, |T_q|+1)`` block ``D(start)`` per start
      time, and a whole start group answers with a single sparse
      product ``P @ D(start)`` -- the k-times analogue of
      :func:`batch_qb_exists`, amortising one pass over arbitrarily
      many objects.  With a ``plan_cache`` the blocks themselves are
      reused across queries.
    * observations *at* the window start (footnote 3: the observation
      time is itself a query time) run the stacked
      :data:`~repro.exec.operators.KTIMES_SWEEP` cohort: one sparse
      product plus one cohort-wide column shift per timestep, the
      batched analogue of :func:`batch_ob_exists`.

    Per object the result is identical (to 1e-12) to
    :func:`repro.core.ktimes.ktimes_distribution`.

    Args:
        chain: the Markov model shared by the objects.
        initials: one observation distribution per object (a sequence,
            or one :class:`~repro.core.distribution.SupportBlock`).
        window: the query window ``S_q x T_q``.
        start_times: one observation timestamp per object (or a single
            shared one); each must be ``<= min(T_q)``.
        backend: linear-algebra backend name (cache keys and timing
            attribution; the kernels always run on the chain's CSR).
        plan_cache: optional :class:`~repro.core.plan_cache.PlanCache`
            supplying (and retaining) the suffix-count blocks.
        context: optional operator-timing context.

    Returns:
        ``(n_objects, |T_q| + 1)`` array; row ``i`` is object ``i``'s
        distribution over exact visit counts (each row sums to one).
    """
    n_objects = len(initials)
    window.validate_for(chain.n_states)
    n_rows = window.duration + 1
    if n_objects == 0:
        return np.zeros((0, n_rows), dtype=float)
    block = _as_block(chain, initials)
    starts = _normalize_starts(start_times, n_objects)
    _check_starts(window, starts)
    result = np.zeros((n_objects, n_rows), dtype=float)

    before = np.flatnonzero(starts < window.t_start)
    at_start = np.flatnonzero(starts == window.t_start)
    if before.size:
        groups = _rows_by_start(starts[before])
        if plan_cache is not None:
            blocks = plan_cache.ktimes_blocks(
                chain, window, list(groups), backend, context=context
            )
        else:
            blocks = KTIMES_CORE(
                (window, list(groups)),
                chain,
                window.region,
                backend,
                context=context,
            )
        for start, rows in groups.items():
            rows = before[rows]
            result[rows] = block.take(rows).dot(blocks[start])
    if at_start.size:
        result[at_start] = ktimes_sweep(
            chain,
            block.take(at_start),
            starts[at_start],
            window,
            backend=backend,
            context=context,
        )
    return result


def ktimes_sweep(
    chain: MarkovChain,
    block: SupportBlock,
    starts: np.ndarray,
    window: SpatioTemporalWindow,
    backend: Optional[str] = None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """The stacked :data:`~repro.exec.operators.KTIMES_SWEEP` cohort
    over ``block``: every object joins at its own start time and the
    whole cohort advances with one sparse product per timestep.
    Returns the ``(len(block), |T_q| + 1)`` count distributions."""
    schedule = KTimesSchedule(
        n_objects=len(block),
        n_rows=window.duration + 1,
        first=int(starts.min()),
        last=window.t_end,
        times=window.times,
        region_columns=window.region.array,
        activations=_activations(block, starts),
    )
    return KTIMES_SWEEP(
        schedule, chain, window.region, backend, context=context
    )


def batch_mc_exists(
    chain: MarkovChain,
    observation_sets: Sequence[ObservationSet],
    window: SpatioTemporalWindow,
    n_samples: int = 100,
    seeds: Optional[Sequence[Optional[int]]] = None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Monte-Carlo PST-exists for many objects sharing a chain.

    One :class:`~repro.core.montecarlo.MonteCarloSampler` serves every
    object (its per-chain CDF tables are built once), reseeded per
    object from ``seeds``.  Per-object seeding keeps each estimate
    independent of which other objects a pruning stage removed, so the
    pipeline's filtered MC path reproduces the unfiltered one draw for
    draw on every surviving object.

    Args:
        chain: the Markov model shared by the objects.
        observation_sets: one observation set per object; objects with
            several observations use the Section VI multi-observation
            estimator.
        window: the query window.
        n_samples: sampled paths per object (paper default 100).
        seeds: one RNG seed per object (``None`` entries sample
            nondeterministically); omitted = all nondeterministic.
        context: optional operator-timing context.

    Returns:
        Estimated ``P_exists`` per object, aligned with
        ``observation_sets``.
    """
    n_objects = len(observation_sets)
    window.validate_for(chain.n_states)
    if n_objects == 0:
        return np.zeros(0, dtype=float)
    if seeds is None:
        seeds = [None] * n_objects
    if len(seeds) != n_objects:
        raise ValidationError(
            f"{len(seeds)} seeds for {n_objects} objects"
        )
    return MC_SAMPLE(
        (observation_sets, window, n_samples, seeds),
        chain, window.region, None,
        context=context,
    )


def evaluate_rows(
    chain: MarkovChain,
    window: SpatioTemporalWindow,
    kind: str,
    method: str,
    rows: np.ndarray,
    *,
    block,
    start_time: np.ndarray,
    is_multi: np.ndarray,
    observation_sets,
    n_samples: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    backend: Optional[str] = None,
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """The planned kernel over ``rows`` of one chain group's columns.

    The one place ``(kind, method, is_multi) -> kernel`` is decided
    (tabulated in ``docs/ARCHITECTURE.md``); the one-shot pipeline,
    the shared-memory shard worker and the store shard worker build
    their columns and call it.  ``method="mc"`` samples every row
    (:func:`batch_mc_exists`; for k-times one reseeded sampler per
    object, there being no batched k-times sampler).  Exact k-times is
    :func:`batch_ktimes_distribution` whatever the method.  Exact
    exists runs single-observation rows through
    :func:`batch_qb_exists` or :func:`batch_ob_exists` as planned and
    multi-observation rows through :func:`batch_exists_multi`.

    Args:
        kind: ``"exists"`` (for-all plans run their complement as
            exists) or ``"ktimes"``.
        method: the group's planned method.
        rows: indices into the columns below.
        block: ``rows -> SupportBlock`` of first observations
            (:meth:`Cohort.block <repro.database.cohort.Cohort.block>`).
        start_time / is_multi: per-row columns, indexed by ``rows``.
        observation_sets: ``rows -> [ObservationSet]``, called only for
            the rows whose kernel needs every observation (Section VI
            fusion, sampling).
        n_samples / seeds: Monte-Carlo parameters; ``seeds`` is
            aligned with ``rows``.

    Returns:
        Answers aligned with ``rows``: ``(len(rows),)`` probabilities
        for exists, ``(len(rows), |T_q| + 1)`` count distributions for
        k-times.
    """
    shared = dict(backend=backend, plan_cache=plan_cache, context=context)
    if method == "mc":
        sets = observation_sets(rows)
        if kind != "ktimes":
            return batch_mc_exists(
                chain, sets, window,
                n_samples=n_samples, seeds=seeds, context=context,
            )
        # per-object resampling: there is no batched k-times sampler
        sampler = MonteCarloSampler(chain)
        answers = np.zeros((len(rows), window.duration + 1), dtype=float)
        for row, observations in enumerate(sets):
            sampler.reseed(None if seeds is None else seeds[row])
            answers[row] = sampler.ktimes_distribution(
                observations.first.distribution,
                window,
                n_samples,
                start_time=observations.first.time,
            )
        return answers
    if kind == "ktimes":
        return batch_ktimes_distribution(
            chain, block(rows), window,
            start_times=start_time[rows], **shared,
        )
    multi = is_multi[rows]
    answers = np.zeros(len(rows), dtype=float)
    if not multi.all():
        singles = rows[~multi]
        evaluate = batch_qb_exists if method == "qb" else batch_ob_exists
        answers[~multi] = evaluate(
            chain, block(singles), window,
            start_times=start_time[singles], **shared,
        )
    if multi.any():  # Section VI path regardless of qb/ob
        answers[multi] = batch_exists_multi(
            chain, observation_sets(rows[multi]), window, **shared
        )
    return answers

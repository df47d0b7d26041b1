"""Batched multi-object query evaluation.

The paper's reduction (Sections V--VI) turns one query over one object
into a sequence of sparse vector--matrix products.  A database query is
many objects sharing a chain, so the per-object row vectors can be
stacked into one ``(n_objects, size)`` matrix ``X`` and the whole
forward pass becomes *one* sparse product ``X @ M_t`` per timestep:
``O(objects x timesteps)`` vecmats collapse into ``O(timesteps)``
matmats.  ``X`` is itself sparse (a CSR frontier holding only the
states the objects have spread to, dense once it fills up or when the
stack is small), so a step costs what the supports cover, not ``|S|``
per object -- the paper's Figure 9/11 argument for the object-based
pass.  Per row the products are those of the per-object path, so
results agree to rounding (asserted to 1e-12 in the test suite).

Since the operator-layer refactor these functions are thin schedule
builders over :mod:`repro.exec.operators`: the sweeps themselves run as
:data:`~repro.exec.operators.FORWARD_SWEEP` /
:data:`~repro.exec.operators.BACKWARD_SWEEP` /
:data:`~repro.exec.operators.MC_SAMPLE`, the *same* operator instances
the per-object fallbacks, the streaming ladder, and the process-pool
shard workers of :mod:`repro.exec.dispatch` execute.  Three batched
evaluators are provided, mirroring the per-object functions of
:mod:`repro.core.object_based` and :mod:`repro.core.query_based`:

* :func:`batch_ob_exists` -- the Section V-A forward pass, stepped on
  the chain's own matrix with TOP's mass kept per row (no augmented
  matrix is built), with mixed per-object start times handled by
  activating each object's row when the sweep reaches its observation
  timestamp;
* :func:`batch_qb_exists` -- the Section V-B backward pass run *once*
  over the chain's own matrix (one pass serves every start time via
  :func:`backward_vectors`; no augmented matrix is built), then one
  sparse product ``P @ v`` answers all objects of a start group;
* :func:`batch_exists_multi` -- the Section VI forward pass, each
  object a row and its "window hit" shadow row over the chain's own
  matrix (the doubled state space is not built), with per-object
  Lemma 1 evidence fusion at its later observations.

No kernel builds an augmented matrix.  :func:`batch_qb_exists` takes an
optional :class:`~repro.core.plan_cache.PlanCache` so a repeated window
skips the backward pass entirely, and all three an optional
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

import itertools
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.core.distribution import StateDistribution, SupportBlock
from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.matrices import extend_block
from repro.core.observation import ObservationSet
from repro.core.query import SpatioTemporalWindow
from repro.exec.operators import (
    BACKWARD_SWEEP,
    FORWARD_SWEEP,
    KTIMES_CORE,
    KTIMES_SWEEP,
    MC_SAMPLE,
    POSTERIOR_COLLAPSE,
    ExecutionContext,
    KTimesSchedule,
    SweepSchedule,
    sweeps_frontier,
)

__all__ = [
    "backward_vectors",
    "batch_ob_exists",
    "batch_qb_exists",
    "batch_exists_multi",
    "batch_ktimes_distribution",
    "ktimes_sweep",
    "evaluate_rows",
    "filter_rows",
    "row_values",
    "zero_answers",
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
    chain: MarkovChain,
    window: SpatioTemporalWindow,
    start_times: Iterable[int],
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
) -> Dict[int, np.ndarray]:
    """Section V-B backward vectors for every requested start time.

    One pass over the chain's own matrix from ``t_end`` down to the
    earliest start yields ``v(t)`` for *all* intermediate ``t``; the
    requested ones are copied out.  Each returned vector is
    bit-identical to the one
    :class:`~repro.core.query_based.QueryBasedEvaluator` computes for
    that start time alone.  Runs as
    :data:`~repro.exec.operators.BACKWARD_SWEEP`, through the
    ``plan_cache`` when one is given (the vectors are then reused
    across queries).
    """
    if plan_cache is not None:
        return plan_cache.backward_vectors(
            chain, window, start_times, context=context
        )
    return BACKWARD_SWEEP(
        (window, start_times), chain, window.region, context=context
    )


def batch_ob_exists(
    chain: MarkovChain,
    initials: Initials,
    window: SpatioTemporalWindow,
    start_times: StartTimes = 0,
    context: Optional[ExecutionContext] = None,
    levels=None,
    groups: Optional[np.ndarray] = None,
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
        context: optional operator-timing context.
        levels: optional ``fetch_levels(depth)`` labelling of the region
            (as ``BFS_PRUNE`` takes): a frontier sweep then skips the mass
            that can no longer reach it, with the same answers.
        groups: optional per-object group ids: a frontier sweep
            densifies each group on its own fill.

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

    first = int(starts.min())
    schedule = SweepSchedule(
        n_rows=n_objects,
        first=first,
        last=window.t_end,
        times=window.times,
        activations=_activations(block, starts),
        harvests={window.t_end: range(n_objects)},
        read="top",
        reach=np.append(levels(window.t_end - first), 0)
        if levels is not None
        and sweeps_frontier(n_objects * (chain.n_states + 1))
        else None,
        groups=groups,
    )
    return FORWARD_SWEEP(schedule, chain, window.region, context=context)


def batch_qb_exists(
    chain: MarkovChain,
    initials: Initials,
    window: SpatioTemporalWindow,
    start_times: StartTimes = 0,
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Query-based PST-exists for many objects: one backward pass over
    the chain's own matrix, one sparse product per start-time group.

    Arguments mirror :func:`batch_ob_exists`.  With a ``plan_cache``
    the backward vectors are reused across queries, so a repeated
    window costs only the final dot products.
    """
    n_objects = len(initials)
    window.validate_for(chain.n_states)
    if n_objects == 0:
        return np.zeros(0, dtype=float)
    block = _as_block(chain, initials)
    starts = _normalize_starts(start_times, n_objects)
    _check_starts(window, starts)
    vectors = backward_vectors(
        chain, window, np.unique(starts).tolist(), plan_cache, context
    )

    result = np.zeros(n_objects, dtype=float)
    for start, (rows, group) in _activations(block, starts).items():
        # the extended initials (mass already inside the region at a
        # query-time start sits on TOP) against v(start), row by row
        entry_rows, states, mass = extend_block(
            group, window.region, start, window.times
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
    context: Optional[ExecutionContext] = None,
) -> np.ndarray:
    """Section VI PST-exists for many multi-observation objects at once.

    All objects advance in one stacked sweep, each as a row and its
    "window hit" shadow row over the chain's own matrix; Lemma 1
    evidence fusion (elementwise product with the observation pdf over
    both rows, then renormalisation) is applied per object at its later
    observation timestamps.  Each object's answer is
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
                np.asarray(observation.distribution.vector, dtype=float),
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
    )
    return FORWARD_SWEEP(schedule, chain, window.region, context=context)


def batch_ktimes_distribution(
    chain: MarkovChain,
    initials: Initials,
    window: SpatioTemporalWindow,
    start_times: StartTimes = 0,
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
                chain, window, list(groups), context=context
            )
        else:
            blocks = KTIMES_CORE(
                (window, list(groups)), chain, window.region,
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
            context=context,
        )
    return result


def ktimes_sweep(
    chain: MarkovChain,
    block: SupportBlock,
    starts: np.ndarray,
    window: SpatioTemporalWindow,
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
    return KTIMES_SWEEP(schedule, chain, window.region, context=context)


def collapse_posteriors(
    chain: MarkovChain,
    observation_sets: Sequence[ObservationSet],
    context: Optional[ExecutionContext] = None,
) -> SupportBlock:
    """Lemma 1 posteriors ``P(X_t_last | observations)``, one row per
    observation set, each at its latest observation time."""
    return SupportBlock.from_sparse([
        POSTERIOR_COLLAPSE(
            (observations, None), chain, None, context=context
        )[1:]
        for observations in observation_sets
    ], chain.n_states)


def refuse_multi_ktimes(kind: str, is_multi: np.ndarray) -> None:
    """Reject a k-times query over re-sighted objects (Definition 4
    counts visits from one observation).  Callers check every row
    before any filter, so the outcome cannot depend on pruning."""
    if kind == "ktimes" and is_multi.any():
        raise QueryError(
            "PSTkQ with multiple observations is not part of the "
            "paper's framework; query the first observation only"
        )


def zero_answers(kind: str, count: int, duration: int) -> np.ndarray:
    """The exact answers of ``count`` objects that cannot be in the
    region at a query time: probability 0 (for-all plans run their
    complement as exists), or for k-times one point mass at zero visits
    per row of a fresh ``(count, duration + 1)`` block."""
    if kind != "ktimes":
        return np.zeros(count, dtype=float)
    answers = np.zeros((count, duration + 1), dtype=float)
    answers[:, 0] = 1.0
    return answers


def row_values(answers: np.ndarray) -> Iterable:
    """An answer block's rows as result values: count-distribution rows
    of a k-times block, Python floats of an exists block -- of an
    all-zero one (a filter stage's :func:`zero_answers`) one shared
    ``0.0``, so a pruned object costs no float of its own."""
    if answers.ndim == 2:
        return answers
    if not answers.any():
        return itertools.repeat(0.0, len(answers))
    return answers.tolist()


def filter_rows(stage, labels, columns, rows, window, kind, context=None):
    """One Section V-C filter stage over ``rows`` of a chain group.

    ``stage`` (:data:`~repro.exec.operators.BFS_PRUNE` or ``PREFILTER``)
    keeps a row iff, under the ``fetch_levels`` ``labels``, it can be in
    the region by the deadline, the window's ``t_end``; ``columns`` (a
    cohort or a shard view) has ``block(rows)`` and ``start_time``.
    Returns ``(kept rows, dropped rows, their zero answers)``.
    """
    keep = stage(
        (labels, columns.block(rows), columns.start_time[rows], window.t_end),
        region=window.region,
        context=context,
    )
    dropped = rows[~keep]
    return rows[keep], dropped, zero_answers(kind, len(dropped), window.duration)


def evaluate_rows(
    chain: MarkovChain,
    window: SpatioTemporalWindow,
    kind: str,
    method: str,
    rows: np.ndarray,
    *,
    block,
    start_time: np.ndarray,
    last_time: np.ndarray,
    is_multi: np.ndarray,
    observation_sets,
    posteriors,
    n_samples: Optional[int] = None,
    seeds: Optional[Sequence[Optional[int]]] = None,
    plan_cache=None,
    context: Optional[ExecutionContext] = None,
    levels=None,
    groups: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The planned kernel over ``rows`` of one chain group's columns.

    The one place ``(kind, method, is_multi) -> kernel`` is decided
    (tabulated in ``docs/ARCHITECTURE.md``); the one-shot pipeline,
    the store shard worker and a standing query's tick (for the rows
    its ladder does not answer) build their columns and call it.
    ``method="mc"`` samples every row, exists or k-times, in one
    columnar :data:`~repro.exec.operators.MC_SAMPLE` call.  Exact k-times is
    :func:`batch_ktimes_distribution` whatever the method.  Exact
    exists runs the planned :func:`batch_qb_exists` /
    :func:`batch_ob_exists` in one call over the single-observation rows
    and the re-sighted rows whose evidence all precedes ``min(T_q)``,
    which start from their Lemma 1 posterior at ``last_time``; rows
    sighted at or after ``min(T_q)`` take :func:`batch_exists_multi`.

    Args:
        kind: ``"exists"`` (for-all plans run their complement as
            exists) or ``"ktimes"``.
        method: the group's planned method.
        rows: indices into the columns below.
        block: ``rows -> SupportBlock`` of first observations
            (:meth:`Cohort.block <repro.database.cohort.Cohort.block>`).
        start_time / last_time / is_multi: per-row columns, indexed by
            ``rows``.
        observation_sets: ``rows -> [ObservationSet]``, called only for
            the rows whose kernel needs every observation (Section VI
            fusion, sampling).
        posteriors: ``(rows, last) -> SupportBlock``, the Lemma 1
            posteriors of re-sighted rows at times ``last``
            (:func:`collapse_posteriors`, or the database's table).
        n_samples / seeds: Monte-Carlo parameters; ``seeds`` is
            aligned with ``rows``.
        levels: the ``fetch_levels`` :func:`batch_ob_exists` takes.
        groups: optional per-row column of group ids (a worker's shard
            per row), passed on to :func:`batch_ob_exists`.

    Returns:
        Answers aligned with ``rows``: ``(len(rows),)`` probabilities
        for exists, ``(len(rows), |T_q| + 1)`` count distributions for
        k-times.
    """
    if method == "mc":
        multi = np.flatnonzero(is_multi[rows])
        evidence = dict(zip(multi.tolist(), observation_sets(rows[multi])))
        return MC_SAMPLE(
            (block(rows), start_time[rows], window, n_samples, seeds, kind,
             evidence),
            chain, window.region, context=context,
        )
    if kind == "ktimes":
        return batch_ktimes_distribution(
            chain, block(rows), window, start_times=start_time[rows],
            plan_cache=plan_cache, context=context,
        )
    multi = is_multi[rows]
    last = last_time[rows]
    doubled = multi & (last >= window.t_start)
    answers = np.zeros(len(rows), dtype=float)
    if not doubled.all():
        riding = np.flatnonzero(~multi)
        initials, starts = block(rows[riding]), start_time[rows[riding]]
        collapsed = np.flatnonzero(multi & ~doubled)
        if collapsed.size:
            initials = initials.concat(
                posteriors(rows[collapsed], last[collapsed])
            )
            starts = np.concatenate([starts, last[collapsed]])
            riding = np.concatenate([riding, collapsed])
        if method == "qb":
            evaluate = partial(batch_qb_exists, plan_cache=plan_cache)
        else:
            evaluate = partial(
                batch_ob_exists, levels=levels,
                groups=None if groups is None else groups[rows[riding]],
            )
        answers[riding] = evaluate(
            chain, initials, window, start_times=starts, context=context
        )
    if doubled.any():
        answers[doubled] = batch_exists_multi(
            chain, observation_sets(rows[doubled]), window, context=context
        )
    return answers

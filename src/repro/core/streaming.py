"""Incremental evaluation of standing sliding-window queries.

The paper's motivating workloads (iceberg tracking, traffic monitoring)
do not ask a window query once -- they re-issue it every tick as the
window slides forward and new sightings stream in.  Re-planning each
tick repeats the Section V-B backward pass over the full horizon, yet
the pass for the shifted window is a one-step extension of the previous
one: writing the backward vector of a window ``T`` from start time
``t_0 < min(T)`` as

    v_T(t_0) = M_minus^(min(T)-1-t_0) . w        (w = the window core)

shows that sliding every query time forward by ``s`` only prepends
``s`` more ``M_minus`` factors::

    v_{T+s}(t_0) = M_minus^s . v_T(t_0)

so a tick costs *one* sparse product over the tracked start-time
columns instead of an ``O(horizon)`` sweep -- and because the product
extends the exact same factor sequence the full sweep would execute,
the incremental values are bit-identical to re-evaluation from scratch
(asserted to 1e-12 in the test suite).

:class:`StreamingQueryEngine` registers standing queries
(:meth:`~StreamingQueryEngine.watch`, also available as
:meth:`repro.core.engine.QueryEngine.watch`) and returns
:class:`StandingQuery` handles whose :meth:`~StandingQuery.tick`

* pulls the database's mutation journal
  (:meth:`~repro.database.uncertain_db.TrajectoryDatabase.changes_since`)
  and patches its state for objects entering, leaving, or being
  re-sighted mid-stream;
* advances all tracked backward columns by ``stride`` sparse products;
* answers every single-observation object with one sparse GEMV per
  start-time group (the object's support pdf against the column);
* falls back to the exact PR-1 batched kernels
  (:func:`~repro.core.batch.batch_qb_exists` /
  :func:`~repro.core.batch.batch_exists_multi`) for objects the
  incremental identity does not cover: observations at or after the
  current window start, and Section VI multi-observation objects;
* reports a ``streaming`` stage on the executed
  :class:`~repro.core.planner.QueryPlan` with the per-tick candidate
  delta (objects whose BFS reachability threshold the sliding horizon
  crossed this tick).

Exists, for-all *and k-times* queries are supported (for-all through
the Section VII complement identity).  K-times windows use the
*suffix-count decomposition*: the backward block
``D(t)[s, k] = P(exactly k visits at query times > t | X_t = s)``
satisfies ``D(t) = M . E(t+1)`` (``E`` shifting region rows' counts up
at query times), is shift-invariant exactly like the exists backward
vector, and below the window extends by plain ``M`` products -- so the
ladder caches per-gap *C-blocks* ``rel[d] = M^d . W`` (``W`` the
:data:`~repro.exec.operators.KTIMES_CORE` window core, computed once
per standing query) and a tick costs ``stride`` sparse products per
chain, each carrying the ``|T_q|+1`` count columns, rather than a full
re-sweep.  Dead C-blocks are evicted per tick exactly like the exists
rungs, so memory stays bounded by the live gap spread.  Objects whose
observation lands at or inside the window fall back to the exact
batched :func:`~repro.core.batch.batch_ktimes_distribution` kernel
until the window slides past them; multi-observation objects are
rejected, matching the batch pipeline's Definition 4 semantics.

**Transactional ticks.**  A :meth:`StandingQuery.tick` either fully
commits -- ladder rungs extended, journal cursor advanced, tick
counter and window offset moved -- or rolls back to the pre-tick state
and re-raises: a snapshot of every mutable field (cheap pointer
copies; ladder vectors are never mutated in place) is restored on any
exception, so a failed tick can simply be retried and resyncs from
the database journal.  A standing query that keeps failing
(``quarantine_after`` consecutive tick failures, default 3) is
*quarantined* with the error recorded on :attr:`StandingQuery.error`;
ticking it raises
:class:`~repro.core.errors.QuarantinedQueryError` until
:meth:`StandingQuery.reset` rebuilds it from the database, and
:meth:`StreamingQueryEngine.tick_all` skips it instead of letting one
poisoned query take down the whole engine.
"""

from __future__ import annotations

import bisect
import dataclasses
import time as _time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.batch import (
    batch_exists_multi,
    batch_ktimes_distribution,
    batch_qb_exists,
)
from repro.core.errors import (
    BackendError,
    QuarantinedQueryError,
    QueryError,
)
from repro.core.plan_cache import PlanCache
from repro.core.planner import (
    CostModel,
    GroupFeatures,
    GroupPlan,
    PlanOptions,
    QueryPlan,
    StageStats,
)
from repro.core.query import (
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    PSTQuery,
    SpatioTemporalWindow,
)
from repro.database.objects import UncertainObject
from repro.database.pruning import ReachabilityPruner
from repro.database.uncertain_db import TrajectoryDatabase
from repro.exec.operators import (
    LADDER_EXTEND,
    POSTERIOR_COLLAPSE,
    ExecutionContext,
)

try:  # scipy is the production backend; pure-python installs fall back
    import scipy.sparse as _sp
except ImportError:  # pragma: no cover - exercised only without scipy
    _sp = None

__all__ = ["StreamingQueryEngine", "StandingQuery"]

_UNREACHABLE = int(np.iinfo(np.int64).max)


def _shift_window(
    window: SpatioTemporalWindow, offset: int
) -> SpatioTemporalWindow:
    """The window slid ``offset`` timestamps into the future."""
    if offset == 0:
        return window
    return SpatioTemporalWindow(
        window.region, frozenset(t + offset for t in window.times)
    )


class _StartGroup:
    """All single-observation objects of one chain sharing a start time.

    The group's support pdfs are stacked into one sparse ``(k, n)``
    matrix so a tick answers the whole group with a single sparse GEMV
    against the group's backward column.
    """

    def __init__(self, start: int) -> None:
        self.start = start
        self.ids: List[str] = []
        self.distributions: List["StateDistribution"] = []
        self.initials: List[np.ndarray] = []
        self._supports: List[np.ndarray] = []  # nonzero states/object
        self._weights: List[np.ndarray] = []
        self._stacked = None  # rebuilt lazily after mutations

    def add(
        self, object_id: str, distribution: "StateDistribution"
    ) -> None:
        vector = np.asarray(distribution.vector, dtype=float)
        support = np.nonzero(vector)[0]
        self.ids.append(object_id)
        self.distributions.append(distribution)
        self.initials.append(vector)
        self._supports.append(support)
        self._weights.append(vector[support])
        self._stacked = None

    def discard(self, object_id: str) -> bool:
        if object_id not in self.ids:
            return False
        index = self.ids.index(object_id)
        del self.ids[index]
        del self.distributions[index]
        del self.initials[index]
        del self._supports[index]
        del self._weights[index]
        self._stacked = None
        return True

    def clone(self) -> "_StartGroup":
        """A rollback copy: fresh lists, shared immutable elements."""
        twin = _StartGroup(self.start)
        twin.ids = list(self.ids)
        twin.distributions = list(self.distributions)
        twin.initials = list(self.initials)
        twin._supports = list(self._supports)
        twin._weights = list(self._weights)
        twin._stacked = self._stacked
        return twin

    def answers(self, column: np.ndarray) -> np.ndarray:
        """Per-object answers: the stacked pdfs times the column.

        ``column`` is the exists backward vector (``(n,)`` -> one
        ``P_exists`` per object) or a k-times C-block
        (``(n, |T_q|+1)`` -> one count distribution per object).
        """
        if self._stacked is None:
            if _sp is not None:
                counts = [s.size for s in self._supports]
                rows = np.repeat(np.arange(len(counts)), counts)
                self._stacked = _sp.csr_matrix(
                    (
                        np.concatenate(self._weights),
                        (rows, np.concatenate(self._supports)),
                    ),
                    shape=(len(self.initials), self.initials[0].size),
                )
            else:
                self._stacked = np.vstack(self.initials)
        result = np.asarray(self._stacked @ column, dtype=float)
        return result.reshape(-1) if column.ndim == 1 else result


class _ChainStream:
    """Incremental per-chain state of one standing query.

    Holds the chain's absorbing matrices (shared with the batch engine
    through the plan cache), the tracked backward columns -- one per
    distinct start time strictly before the current window -- and the
    shift-invariant *anchor* vector ``v(min(T)-1)`` from which columns
    for newly arriving start times are derived in ``O(gap)`` sparse
    products instead of a full backward sweep.
    """

    def __init__(
        self,
        chain_id: str,
        owner: "StandingQuery",
    ) -> None:
        self.chain_id = chain_id
        self.owner = owner
        self.chain = owner.engine.database.chain(chain_id)
        # the stream's backend is a per-chain plan decision, fixed at
        # construction (ticks must stay O(stride)); a runtime
        # BackendError flips it to scipy -- see StandingQuery.tick
        self.backend = owner._chain_backend(self.chain)
        if owner.kind == "ktimes":
            # the suffix-count ladder runs on the plain chain matrix;
            # the count dimension lives in the C-blocks, not in an
            # augmented construction
            self.matrices = None
        else:
            self.matrices = owner.engine.plan_cache.absorbing(
                self.chain, owner.region, self.backend
            )
        self.groups: Dict[int, _StartGroup] = {}
        self.multis: Dict[str, UncertainObject] = {}
        self.singles: Dict[str, int] = {}  # object_id -> start time
        # filtered posterior per multi object, as (time, pdf, number of
        # observations incorporated): once every observation precedes
        # the window, the object is Markov from this pdf and rides the
        # same backward columns as the singles (computed once per
        # re-sighting, not per tick).  The count detects backfilled
        # sightings below the cached time, which invalidate the pdf.
        self.posteriors: Dict[str, Tuple[int, np.ndarray, int]] = {}
        # the backward-vector ladder: rel[d] = M_minus^d . anchor,
        # where anchor = v(min(T)-1).  Shift invariance makes both
        # independent of the tick -- the column of start time t_0 under
        # the window at any tick is rel[min(T)-1-t_0] -- so one ladder
        # rung per slid timestamp serves every start time ever tracked.
        # Kept as a gap->vector dict so rungs no live start time can
        # reference are *evicted* after every tick: the footprint is
        # bounded by the live gap spread, not by how long the query
        # has been standing.
        self.rel: Dict[int, np.ndarray] = {}
        self._touched: set = set()  # gaps referenced this tick
        self.matvecs = 0  # sparse products spent, for EXPLAIN output

    # ------------------------------------------------------------------
    # transactional snapshot
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        """Every mutable field, copied one level deep.

        Shallow copies suffice: ladder rungs, posteriors and support
        arrays are replaced wholesale, never mutated in place, so a
        restored dict points at the untouched pre-tick values.
        """
        return {
            "groups": {
                start: group.clone()
                for start, group in self.groups.items()
            },
            "multis": dict(self.multis),
            "singles": dict(self.singles),
            "posteriors": dict(self.posteriors),
            "rel": dict(self.rel),
            "touched": set(self._touched),
            "matvecs": self.matvecs,
        }

    def _restore(self, state: dict) -> None:
        self.groups = state["groups"]
        self.multis = state["multis"]
        self.singles = state["singles"]
        self.posteriors = state["posteriors"]
        self.rel = state["rel"]
        self._touched = state["touched"]
        self.matvecs = state["matvecs"]

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_object(self, obj: UncertainObject) -> None:
        if obj.has_multiple_observations():
            if self.owner.kind == "ktimes":
                raise QueryError(
                    "PSTkQ with multiple observations is not part of "
                    "the paper's framework; query the first "
                    "observation only"
                )
            self.multis[obj.object_id] = obj
            return
        start = obj.initial.time
        self.singles[obj.object_id] = start
        group = self.groups.get(start)
        if group is None:
            group = self.groups[start] = _StartGroup(start)
        group.add(obj.object_id, obj.initial.distribution)

    def remove_object(self, object_id: str) -> None:
        if object_id in self.multis:
            del self.multis[object_id]
            self.posteriors.pop(object_id, None)
            return
        start = self.singles.pop(object_id, None)
        if start is None:
            return
        group = self.groups.get(start)
        if group is not None:
            group.discard(object_id)
            if not group.ids:
                del self.groups[start]

    # ------------------------------------------------------------------
    # multi-observation posteriors (Lemma 1 forward filtering)
    # ------------------------------------------------------------------
    def _posterior(self, obj: UncertainObject) -> Tuple[int, np.ndarray]:
        """``(t_last, P(X_t_last | all observations))`` for a multi.

        Lemma 1 forward filtering through the shared
        :data:`~repro.exec.operators.POSTERIOR_COLLAPSE` operator.
        Because every observation precedes the query window when this
        is used, no query time interleaves the evidence and the object
        is exactly Markov from the returned pdf -- its window
        probability is the same backward-column dot a
        single-observation object pays.  Cached per re-sighting; a
        backfilled sighting below the cached time invalidates the
        cache and refilters from scratch.
        """
        observations = obj.observations
        t_last = observations.last.time
        cached = self.posteriors.get(obj.object_id)
        if cached is not None:
            cached_time, _, incorporated = cached
            upto = sum(
                1 for o in observations if o.time <= cached_time
            )
            if cached_time > t_last or upto != incorporated:
                # a sighting was backfilled below the cached time; the
                # cached pdf never folded it in -- refilter from scratch
                cached = None
        if cached is not None and cached[0] == t_last:
            return cached[0], cached[1]
        resume = (
            (cached[0], cached[1]) if cached is not None else None
        )
        t_last, vector = POSTERIOR_COLLAPSE(
            (observations, resume),
            self.chain,
            self.owner.region,
            self.backend,
            context=self.owner.context,
        )
        self.posteriors[obj.object_id] = (
            t_last, vector, len(observations)
        )
        return t_last, vector

    # ------------------------------------------------------------------
    # backward columns
    # ------------------------------------------------------------------
    def _ladder_matrix(self):
        """The matrix one rung extension multiplies by.

        ``M_minus`` for exists ladders (the absorbing prefix); the
        plain chain matrix for k-times C-block ladders (no absorption
        -- the count dimension rides in the block's columns).
        """
        if self.matrices is None:
            return self.chain.matrix
        return self.matrices.m_minus

    def _extend(self, base_gap: int, steps: int) -> None:
        """Fill rungs ``base_gap+1 .. base_gap+steps`` from ``base_gap``.

        Runs as the shared :data:`~repro.exec.operators.LADDER_EXTEND`
        operator; the dense fill keeps a tick's amortised cost at
        ``stride`` sparse products per chain, exactly like the
        unbounded ladder did.
        """
        rungs = LADDER_EXTEND(
            (self._ladder_matrix(), self.rel[base_gap], steps),
            self.chain,
            self.owner.region,
            self.backend,
            context=self.owner.context,
        )
        self.matvecs += steps
        for offset, rung in enumerate(rungs, start=1):
            self.rel[base_gap + offset] = rung

    def _seed_anchor(self, window: SpatioTemporalWindow) -> np.ndarray:
        """The shift-invariant rung-0 anchor for the current mode.

        Exists: the backward vector ``v(min(T)-1)`` (plan-cache
        shared).  K-times: the suffix-count core ``W = D(min(T)-1)``
        of :data:`~repro.exec.operators.KTIMES_CORE`.  Both are
        numerically identical for every slid window, so seeding
        happens once per standing query (plus after a full eviction).
        """
        if self.owner.kind == "ktimes":
            blocks = self.owner.engine.plan_cache.ktimes_blocks(
                self.chain,
                window,
                [window.t_start - 1],
                self.backend,
                context=self.owner.context,
            )
            return np.asarray(blocks[window.t_start - 1], dtype=float)
        anchor_start = window.t_start - 1
        vectors = self.owner.engine.plan_cache.backward_vectors(
            self.chain,
            window,
            [anchor_start],
            self.backend,
            context=self.owner.context,
        )
        return np.asarray(vectors[anchor_start], dtype=float)

    def ensure_column(
        self, start: int, window: SpatioTemporalWindow
    ) -> np.ndarray:
        """The backward column (or C-block) of ``start`` for the window.

        The column is ``rel[gap]`` with ``gap = min(T) - 1 - start``;
        the anchor ``rel[0]`` (``v(min(T)-1)`` for exists, the k-times
        core ``W`` -- see :meth:`_seed_anchor`) is numerically
        identical for every slid window (the whole backward pass
        shifts with the times), so the ladder is computed once and
        only *extended*: a tick of stride ``s`` deepens the largest
        live gap by ``s``, which costs ``s`` sparse products per chain
        -- independent of how many start times, arrivals, or
        re-sightings it serves.  A gap below every retained rung
        (possible only after eviction dropped the shallow end) is
        re-derived -- one shared backward pass for exists, an anchor
        reseed + extension for k-times -- exact either way, since
        every rung is a pure function of its gap.
        """
        gap = (window.t_start - 1) - start
        self._touched.add(gap)
        column = self.rel.get(gap)
        if column is not None:
            return column
        if not self.rel:
            # first use: seed the shift-invariant rung-0 anchor
            self.rel[0] = self._seed_anchor(window)
            if gap == 0:
                return self.rel[0]
        below = [g for g in self.rel if g < gap]
        if below:
            base_gap = max(below)
            self._extend(base_gap, gap - base_gap)
            return self.rel[gap]
        # eviction dropped every shallower rung
        if self.owner.kind == "ktimes":
            # reseed the core and extend down to this gap (bounded by
            # the window span plus the shallowest live gap)
            self.rel[0] = self._seed_anchor(window)
            if gap > 0:
                self._extend(0, gap)
            return self.rel[gap]
        # exists: one backward pass rebuilds this start's column
        vectors = self.owner.engine.plan_cache.backward_vectors(
            self.chain,
            window,
            [start],
            self.backend,
            context=self.owner.context,
        )
        column = np.asarray(vectors[start], dtype=float)
        self.rel[gap] = column
        return column

    def evict_ladder(self) -> int:
        """Drop rungs no live start time can reference; return count.

        Called after every tick with ``self._touched`` holding exactly
        the gaps the tick's live start times (and collapsed multi
        posteriors) referenced.  Live gaps only ever grow as the
        window slides, so rungs *below* the shallowest live gap are
        dead, and rungs above the deepest are leftovers of departed
        objects; the dense range in between is kept so per-tick
        extension stays ``O(stride)``.
        """
        if not self._touched:
            evicted = len(self.rel)
            self.rel.clear()
            return evicted
        low, high = min(self._touched), max(self._touched)
        dead = [g for g in self.rel if g < low or g > high]
        for gap in dead:
            del self.rel[gap]
        self._touched = set()
        return len(dead)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, window: SpatioTemporalWindow
    ) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per-object answers for the current window."""
        if self.owner.kind == "ktimes":
            return self._evaluate_ktimes(window)
        values: Dict[str, float] = {}
        counters = {"stream": 0, "fallback": 0, "multi": 0}
        n = self.matrices.n_states
        # the standing query's BFS thresholds (observation time + BFS
        # distance into the region) are exact-safe: an object below
        # its threshold provably has probability 0, so the fallback
        # kernels only ever run on true candidates -- the same
        # reachability bound the batch pipeline's filter stage applies
        thresholds = self.owner._threshold_by_id
        t_end = window.t_end

        def reachable(object_id: str) -> bool:
            return thresholds.get(object_id, _UNREACHABLE) <= t_end

        fallback: List[Tuple[str, int, np.ndarray]] = []
        for start, group in sorted(self.groups.items()):
            if not group.ids:
                continue
            if start < window.t_start:
                column = self.ensure_column(start, window)
                answers = group.answers(column[:n])
                for object_id, answer in zip(group.ids, answers):
                    values[object_id] = float(answer)
                counters["stream"] += len(group.ids)
            else:
                for object_id, distribution in zip(
                    group.ids, group.distributions
                ):
                    if reachable(object_id):
                        fallback.append(
                            (object_id, start, distribution)
                        )
                    else:
                        values[object_id] = 0.0
        if fallback:
            # observations at/inside the window have no M_minus prefix
            # to extend; they take the exact batched backward kernel
            # until the window slides past them
            answers = batch_qb_exists(
                self.chain,
                [distribution for _, _, distribution in fallback],
                window,
                start_times=[start for _, start, _ in fallback],
                backend=self.backend,
                plan_cache=self.owner.engine.plan_cache,
                context=self.owner.context,
            )
            for (object_id, _, _), answer in zip(fallback, answers):
                values[object_id] = float(answer)
            counters["fallback"] = len(fallback)
        if self.multis:
            candidates = sorted(filter(reachable, self.multis))
            surviving = set(candidates)
            for object_id in self.multis:
                if object_id not in surviving:
                    values[object_id] = 0.0
            doubled: List[str] = []
            for object_id in candidates:
                obj = self.multis[object_id]
                if obj.observations.last.time < window.t_start:
                    # all evidence precedes the window: the object is
                    # Markov from its filtered posterior and pays one
                    # sparse dot, like any single-observation object
                    t_last, posterior = self._posterior(obj)
                    column = self.ensure_column(t_last, window)
                    support = np.nonzero(posterior)[0]
                    values[object_id] = float(
                        posterior[support] @ column[support]
                    )
                else:
                    doubled.append(object_id)
            if doubled:
                # evidence at/inside the window needs the full Section
                # VI doubled sweep (transient: the window slides past)
                answers = batch_exists_multi(
                    self.chain,
                    [self.multis[object_id].observations
                     for object_id in doubled],
                    window,
                    backend=self.backend,
                    plan_cache=self.owner.engine.plan_cache,
                    context=self.owner.context,
                )
                for object_id, answer in zip(doubled, answers):
                    values[object_id] = float(answer)
            counters["multi"] = len(candidates)
        return values, counters

    def _evaluate_ktimes(
        self, window: SpatioTemporalWindow
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        """Per-object visit-count distributions for the current window.

        Start groups strictly before the window ride the C-block
        ladder: one stacked-pdf GEMM against ``rel[gap]`` answers the
        whole group.  Observations at or inside the window have no
        ``M`` prefix to extend and take the exact batched
        :func:`~repro.core.batch.batch_ktimes_distribution` kernel
        until the window slides past them; objects below their BFS
        reachability threshold are answered with the point mass at
        zero visits (the same exact-safe bound the batch pipeline's
        filter stage applies).
        """
        values: Dict[str, np.ndarray] = {}
        counters = {"stream": 0, "fallback": 0, "multi": 0}
        n_rows = window.duration + 1
        thresholds = self.owner._threshold_by_id
        t_end = window.t_end

        def reachable(object_id: str) -> bool:
            return thresholds.get(object_id, _UNREACHABLE) <= t_end

        def zero_visits() -> np.ndarray:
            distribution = np.zeros(n_rows, dtype=float)
            distribution[0] = 1.0
            return distribution

        fallback: List[Tuple[str, int, "StateDistribution"]] = []
        for start, group in sorted(self.groups.items()):
            if not group.ids:
                continue
            if start < window.t_start:
                block = self.ensure_column(start, window)
                answers = group.answers(block)
                for object_id, answer in zip(group.ids, answers):
                    values[object_id] = np.asarray(answer, dtype=float)
                counters["stream"] += len(group.ids)
            else:
                for object_id, distribution in zip(
                    group.ids, group.distributions
                ):
                    if reachable(object_id):
                        fallback.append(
                            (object_id, start, distribution)
                        )
                    else:
                        values[object_id] = zero_visits()
        if fallback:
            answers = batch_ktimes_distribution(
                self.chain,
                [distribution for _, _, distribution in fallback],
                window,
                start_times=[start for _, start, _ in fallback],
                backend=self.backend,
                plan_cache=self.owner.engine.plan_cache,
                context=self.owner.context,
            )
            for (object_id, _, _), answer in zip(fallback, answers):
                values[object_id] = np.array(answer, dtype=float)
            counters["fallback"] = len(fallback)
        return values, counters


class StandingQuery:
    """One registered sliding-window query; obtain via ``watch()``.

    Attributes:
        query: the base (tick-0) query.
        stride: timestamps the window advances per tick.
        ticks: committed ticks (a rolled-back tick does not count).
        resyncs: full rebuilds from the database (journal overflow or
            chain replacement).
        quarantined: True after ``quarantine_after`` consecutive tick
            failures; :meth:`tick` then raises
            :class:`~repro.core.errors.QuarantinedQueryError` until
            :meth:`reset`.
    """

    def __init__(
        self,
        engine: "StreamingQueryEngine",
        query: PSTQuery,
        stride: int = 1,
        faults=None,
        quarantine_after: int = 3,
        on_quarantine=None,
    ) -> None:
        if stride < 1:
            raise QueryError(
                f"stride must be positive, got {stride}"
            )
        if quarantine_after < 1:
            raise QueryError(
                f"quarantine_after must be positive, got "
                f"{quarantine_after}"
            )
        self.kind = "exists"
        self.k: Optional[int] = None
        if isinstance(query, PSTForAllQuery):
            complement = query.region.complement(
                engine.database.n_states
            )
            if not complement:
                raise QueryError(
                    "for-all region covers the whole space; the "
                    "probability is trivially 1 at every tick"
                )
            self.region = complement
            self.complemented = True
        elif isinstance(query, PSTKTimesQuery):
            self.kind = "ktimes"
            self.k = query.k
            self.region = query.region
            self.complemented = False
        elif isinstance(query, PSTExistsQuery):
            self.region = query.region
            self.complemented = False
        else:
            raise QueryError(
                f"unsupported standing query type {type(query)!r}"
            )
        query.window.validate_for(engine.database.n_states)
        self.engine = engine
        self.query = query
        self.stride = int(stride)
        self.ticks = 0
        self.faults = faults
        self.quarantine_after = int(quarantine_after)
        self.quarantined = False
        # notification hook fired once per quarantine transition (the
        # service tier surfaces it to the owning tenant); exceptions
        # it raises are swallowed so a broken observer cannot mask
        # the tick's original error
        self.on_quarantine = on_quarantine
        self.resyncs = 0
        self._failures = 0  # consecutive rolled-back ticks
        self._error: Optional[str] = None
        # per-tick operator timing sink (reset by every tick; the
        # executed plan carries the tick's per-operator totals)
        self.context = ExecutionContext(
            engine.plan_cache, engine.backend, faults=faults
        )
        self._offset = 0
        self._base = SpatioTemporalWindow(self.region, query.times)
        self._chains: Dict[str, _ChainStream] = {}
        # per object: the earliest t_end at which it can be non-zero
        # (observation time + BFS distance into the region); the sorted
        # copy turns per-tick candidate counting into one bisect
        self._threshold_by_id: Dict[str, int] = {}
        self._thresholds: List[int] = []
        self._active = 0
        self._synced_version = 0
        self._last_plan: Optional[QueryPlan] = None
        # backend falls (native -> scipy) recorded by the *next*
        # committed tick's plan; see the BackendError branch of tick()
        self._pending_degradations: List[str] = []
        self._initialize()

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def window(self) -> SpatioTemporalWindow:
        """The window the *next* tick will evaluate."""
        return _shift_window(self.query.window, self._offset)

    @property
    def error(self) -> Optional[str]:
        """The recorded error of the last rolled-back tick, if any."""
        return self._error

    def tick(self) -> "QueryResult":
        """Evaluate the current window, then slide it by ``stride``.

        Returns the same :class:`~repro.core.engine.QueryResult` a
        batch :meth:`~repro.core.engine.QueryEngine.evaluate` of the
        current window would return (values agree to 1e-12; asserted in
        the test suite), with the executed plan carrying a
        ``streaming`` stage whose detail records the tick number, the
        candidate delta, and the sparse products spent.

        The tick is transactional: on any exception every mutable
        field (ladder rungs, journal cursor, membership, tick counter,
        window offset) is restored to its pre-tick state and the
        exception re-raised -- the query is never left half-patched,
        and the next tick resyncs from the database journal.  After
        ``quarantine_after`` consecutive failures the query is
        quarantined and raises
        :class:`~repro.core.errors.QuarantinedQueryError` until
        :meth:`reset`.
        """
        from repro.core.engine import QueryResult

        if self.quarantined:
            raise QuarantinedQueryError(
                f"standing query is quarantined after "
                f"{self._failures} consecutive tick failures "
                f"(last error: {self._error}); call reset() to "
                f"rebuild it from the database"
            )
        snapshot = self._snapshot()
        started = _time.perf_counter()
        self.context = ExecutionContext(
            self.engine.plan_cache, self.engine.backend,
            faults=self.faults,
        )
        try:
            self._sync()
            if self.faults is not None:
                self.faults.fire("streaming:tick", tick=self.ticks)
            window = _shift_window(self._base, self._offset)
            matvecs_before = sum(
                stream.matvecs for stream in self._chains.values()
            )
            values: Dict[str, float] = {}
            counters = {"stream": 0, "fallback": 0, "multi": 0}
            stage_started = _time.perf_counter()
            for stream in self._chains.values():
                chain_values, chain_counters = stream.evaluate(window)
                values.update(chain_values)
                for key, count in chain_counters.items():
                    counters[key] += count
            if self.complemented:
                values = {
                    object_id: 1.0 - value
                    for object_id, value in values.items()
                }
            if self.kind == "ktimes" and self.k is not None:
                # a fixed k asks for one scalar, like evaluate()
                values = {
                    object_id: float(distribution[self.k])
                    for object_id, distribution in values.items()
                }
            evaluate_seconds = _time.perf_counter() - stage_started

            # drop ladder rungs no live start time can reference --
            # the memory bound the eviction regression test asserts
            rungs_evicted = sum(
                stream.evict_ladder()
                for stream in self._chains.values()
            )
            previously_active = self._active
            self._active = bisect.bisect_right(
                self._thresholds, window.t_end
            )
            matvecs = sum(
                stream.matvecs for stream in self._chains.values()
            ) - matvecs_before
            plan = self._build_plan(
                window,
                n_total=len(values),
                entered=self._active - previously_active,
                matvecs=matvecs,
                counters=counters,
                evaluate_seconds=evaluate_seconds,
                rungs_evicted=rungs_evicted,
            )
            if self.faults is not None:
                self.faults.fire("streaming:commit", tick=self.ticks)
            # ---- commit point: everything below is rollback-free ----
            self._last_plan = plan
            evaluated = _shift_window(self.query.window, self._offset)
            self.ticks += 1
            self._offset += self.stride
        except Exception as exc:
            self._restore(snapshot)
            if isinstance(exc, BackendError):
                fallen = [
                    stream
                    for stream in self._chains.values()
                    if stream.backend == "native"
                ]
                if fallen:
                    # same contract as the batch pipeline: the native
                    # kernels are an optimisation, never a correctness
                    # dependency -- flip the failing streams to scipy
                    # and re-run the tick (the rollback above restored
                    # every ladder; stream.backend is not part of the
                    # snapshot, so the flip survives the retry)
                    for stream in fallen:
                        stream.backend = "scipy"
                    self._pending_degradations.append(
                        "degraded native -> scipy after "
                        f"BackendError: {exc}"
                    )
                    return self.tick()
            self._failures += 1
            self._error = f"{type(exc).__name__}: {exc}"
            if self._failures >= self.quarantine_after:
                self.quarantined = True
                if self.on_quarantine is not None:
                    try:
                        self.on_quarantine(self)
                    except Exception:
                        pass  # observers never mask the tick error
            raise
        self._failures = 0
        self._error = None
        autosnapshot = getattr(
            self.engine.database, "maybe_autosnapshot", None
        )
        if callable(autosnapshot):
            # after the commit point: a sharded store folds its grown
            # journal overlay into fresh slabs once it crosses the
            # configured threshold, so long-running streams never let
            # the replay-on-open cost grow without bound
            autosnapshot()
        return QueryResult(
            # replace() keeps query-type-specific fields (e.g. the
            # fixed k of a PSTKTimesQuery) on the slid window
            query=dataclasses.replace(self.query, window=evaluated),
            method="streaming",
            values=values,
            elapsed_seconds=_time.perf_counter() - started,
            plan=plan,
        )

    def reset(self) -> "StandingQuery":
        """Revive a quarantined query: rebuild from the database.

        Clears the failure record and re-derives every chain stream,
        threshold and ladder from current database state (the same
        path a journal overflow takes); returns self for chaining.
        """
        self._failures = 0
        self._error = None
        self.quarantined = False
        self._rebuild()
        return self

    def explain(self) -> QueryPlan:
        """The plan executed by the most recent :meth:`tick`."""
        if self._last_plan is None:
            raise QueryError(
                "no tick has run yet; call tick() before explain()"
            )
        return self._last_plan

    # ------------------------------------------------------------------
    # transactional snapshot
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        """Pre-tick copy of all mutable state, one level deep."""
        return {
            "ticks": self.ticks,
            "offset": self._offset,
            "synced": self._synced_version,
            "active": self._active,
            "resyncs": self.resyncs,
            "thresholds": list(self._thresholds),
            "threshold_by_id": dict(self._threshold_by_id),
            "last_plan": self._last_plan,
            "chains": dict(self._chains),
            "chain_states": {
                chain_id: stream._snapshot()
                for chain_id, stream in self._chains.items()
            },
        }

    def _restore(self, state: dict) -> None:
        self.ticks = state["ticks"]
        self._offset = state["offset"]
        self._synced_version = state["synced"]
        self._active = state["active"]
        self.resyncs = state["resyncs"]
        self._thresholds = state["thresholds"]
        self._threshold_by_id = state["threshold_by_id"]
        self._last_plan = state["last_plan"]
        self._chains = state["chains"]
        for chain_id, stream in self._chains.items():
            stream._restore(state["chain_states"][chain_id])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        database = self.engine.database
        self._synced_version = database.version
        for chain_id, objects in sorted(
            database.objects_by_chain().items()
        ):
            stream = self._chains[chain_id] = _ChainStream(
                chain_id, self
            )
            for obj in objects:
                stream.add_object(obj)
                self._track(obj)

    def _track(self, obj: UncertainObject) -> None:
        steps = self.engine.pruner.min_steps(obj, self.region)
        if steps >= _UNREACHABLE:
            return  # can never enter the region at any horizon
        threshold = obj.initial.time + steps
        self._threshold_by_id[obj.object_id] = threshold
        bisect.insort(self._thresholds, threshold)

    def _untrack(self, object_id: str) -> None:
        threshold = self._threshold_by_id.pop(object_id, None)
        if threshold is None:
            return
        index = bisect.bisect_left(self._thresholds, threshold)
        if (
            index < len(self._thresholds)
            and self._thresholds[index] == threshold
        ):
            del self._thresholds[index]

    def _sync(self) -> None:
        """Patch streaming state from the database mutation journal."""
        database = self.engine.database
        changes = database.changes_since(self._synced_version)
        if changes is None:
            # the bounded journal no longer covers our last sync
            self._rebuild()
            return
        self._synced_version = database.version
        for change in changes:
            if change.op == "chain":
                # a replaced model invalidates every derived artefact
                self._rebuild()
                return
            # drop any prior tracking of this id (no-op for fresh adds)
            for stream in self._chains.values():
                if (
                    change.object_id in stream.singles
                    or change.object_id in stream.multis
                ):
                    posterior = stream.posteriors.get(change.object_id)
                    stream.remove_object(change.object_id)
                    if change.op == "observe" and posterior:
                        # keep the filtered pdf: _posterior extends it
                        # (and detects backfills) instead of
                        # refiltering from the first observation
                        stream.posteriors[change.object_id] = posterior
                    break
            self._untrack(change.object_id)
            if change.op in ("add", "observe"):
                if change.object_id not in database:
                    continue
                obj = database.get(change.object_id)
                target = self._chains.get(obj.chain_id)
                if target is None:
                    target = self._chains[obj.chain_id] = _ChainStream(
                        obj.chain_id, self
                    )
                target.add_object(obj)
                self._track(obj)

    def _rebuild(self) -> None:
        """Re-derive all streaming state from current database state.

        The recovery path for journal overflow ("the bounded journal
        no longer covers our last sync"), chain replacement, and
        :meth:`reset` after quarantine; ``resyncs`` counts these.
        """
        self.resyncs += 1
        self._chains = {}
        self._threshold_by_id = {}
        self._thresholds = []
        self._active = 0
        self._initialize()

    def _chain_backend(self, chain) -> Optional[str]:
        """The linear-algebra backend one chain stream runs on.

        Decided once per stream, mirroring the batch planner's
        structural heuristic (:meth:`CostModel.best_backend`): an
        explicit engine backend always wins; otherwise only the
        k-times C-block ladder -- a dense ``(n, duration+1)`` GEMM per
        extension step -- is promoted to the native kernels, and only
        on chains dense enough for them to pay
        (``native_min_density``) and small enough to densify
        (``REPRO_NATIVE_DENSE_CAP``).  Exists ladders are single
        matvec extensions where sparse scipy products stay ahead.
        """
        engine_backend = self.engine.backend
        if engine_backend not in (None, "scipy"):
            return engine_backend
        if self.kind != "ktimes":
            return engine_backend
        try:
            from repro.linalg import native as native_kernels
            from repro.linalg.ops import available_backends
        except Exception:  # pragma: no cover - linalg always imports
            return engine_backend
        if "native" not in available_backends():
            return engine_backend
        model = CostModel()
        n = chain.n_states
        density = chain.nnz / max(1, n * n)
        if (
            density >= model.native_min_density
            and n * n <= native_kernels.dense_cap()
        ):
            return "native"
        return engine_backend

    def _build_plan(
        self,
        window: SpatioTemporalWindow,
        n_total: int,
        entered: int,
        matvecs: int,
        counters: Dict[str, int],
        evaluate_seconds: float,
        rungs_evicted: int = 0,
    ) -> QueryPlan:
        options = PlanOptions()
        plan = QueryPlan(
            kind=self.kind,
            window=window,
            requested_method="streaming",
            complemented=self.complemented,
            use_prefilter=False,
            use_bfs=False,
            parallel=False,
            max_workers=1,
            options=options,
            semantics="forall" if self.complemented else self.kind,
            groups=[
                GroupPlan(
                    chain_id=chain_id,
                    method="stream",
                    features=GroupFeatures(
                        n_single=len(stream.singles),
                        n_multi=len(stream.multis),
                        n_states=(
                            stream.matrices.size
                            if stream.matrices is not None
                            else stream.chain.n_states
                        ),
                        nnz=stream.chain.nnz,
                        horizon=max(
                            0,
                            window.t_end - min(
                                stream.groups, default=window.t_end
                            ),
                        ),
                        duration=window.duration,
                    ),
                    survivors=len(stream.singles) + len(stream.multis),
                    backend=stream.backend,
                )
                for chain_id, stream in sorted(self._chains.items())
            ],
        )
        plan.degradations = list(self._pending_degradations) + list(
            self.context.events
        )
        self._pending_degradations = []
        rungs = sum(
            len(stream.rel) for stream in self._chains.values()
        )
        plan.stages = [
            StageStats(
                "streaming",
                n_total,
                self._active,
                0.0,
                f"tick {self.ticks}, stride {self.stride}, "
                f"{entered:+d} candidates, {matvecs} sparse products, "
                f"{rungs} rungs ({rungs_evicted} evicted)",
            ),
            StageStats(
                "evaluate",
                self._active,
                self._active,
                evaluate_seconds,
                f"incremental={counters['stream']}, "
                f"fallback={counters['fallback']}, "
                f"multi={counters['multi']}",
            ),
        ]
        plan.operator_seconds = self.context.timings
        return plan


class StreamingQueryEngine:
    """Registers and drives standing sliding-window queries.

    Shares its :class:`~repro.core.plan_cache.PlanCache` and
    :class:`~repro.database.pruning.ReachabilityPruner` with a batch
    :class:`~repro.core.engine.QueryEngine` when constructed through
    :meth:`~repro.core.engine.QueryEngine.watch`, so matrices, backward
    vectors and BFS labellings built by either engine serve both.

    Args:
        database: the database standing queries run against.
        backend: linear-algebra backend name (default scipy).
        plan_cache: shared construction cache (private when omitted).
        pruner: shared reachability filter (private when omitted).
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        backend: Optional[str] = None,
        plan_cache: Optional[PlanCache] = None,
        pruner: Optional[ReachabilityPruner] = None,
    ) -> None:
        self.database = database
        self.backend = backend
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache()
        )
        self.pruner = pruner or ReachabilityPruner(database)
        self._standing: List[StandingQuery] = []

    @property
    def standing(self) -> Tuple[StandingQuery, ...]:
        """Every standing query registered through :meth:`watch`."""
        return tuple(self._standing)

    def watch(
        self,
        query: PSTQuery,
        stride: int = 1,
        faults=None,
        quarantine_after: int = 3,
        on_quarantine=None,
    ) -> StandingQuery:
        """Register a standing query; every :meth:`StandingQuery.tick`
        evaluates the current window and slides it ``stride`` forward.

        ``faults`` threads a
        :class:`~repro.exec.faults.FaultInjector` through the query's
        ticks; ``quarantine_after`` consecutive failed (rolled-back)
        ticks quarantine the query instead of failing forever.
        ``on_quarantine`` is called with the standing query when the
        quarantine trips (once per transition; exceptions it raises
        are swallowed) -- the service tier uses it to surface the
        quarantine to the owning tenant.
        """
        standing = StandingQuery(
            self,
            query,
            stride=stride,
            faults=faults,
            quarantine_after=quarantine_after,
            on_quarantine=on_quarantine,
        )
        self._standing.append(standing)
        return standing

    def tick_all(self) -> List[Optional["QueryResult"]]:
        """Tick every registered standing query; never raises.

        Returns one entry per registered query, in registration
        order: the tick's :class:`~repro.core.engine.QueryResult`, or
        ``None`` for a query that is quarantined or whose tick rolled
        back this round.  A failing query records its error
        (:attr:`StandingQuery.error`) and, after its
        ``quarantine_after`` threshold, stops being ticked -- one
        poisoned query cannot take down the other standing queries.
        """
        results: List[Optional["QueryResult"]] = []
        for standing in self._standing:
            if standing.quarantined:
                results.append(None)
                continue
            try:
                results.append(standing.tick())
            except Exception:
                # rolled back and recorded on the standing query; the
                # remaining queries still get their tick
                results.append(None)
        return results

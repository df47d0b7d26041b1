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

* catches up with the database: objects live in the chain's
  :class:`~repro.database.cohort.Cohort` -- the rows one-shot queries
  plan over, patched from the mutation journal
  (:meth:`~repro.database.uncertain_db.TrajectoryDatabase.changes_since`)
  -- so entering objects are new rows (one batched BFS-threshold
  gather per sync), leaving ones tombstones, re-sightings column
  flips; the Python spent is per *changed* object;
* advances the chain's backward columns by ``stride`` sparse products
  (the ladder is one 2-D array, rungs x states);
* answers every object whose evidence precedes the window -- single
  observations and re-sighted objects collapsed to their Lemma 1
  posterior alike -- with one gather over the supports against each
  row's rung and one per-row reduction, per chain, however many
  distinct start times there are.  The posterior of a re-sighting does
  not depend on the query region: the database keeps one table per
  cohort (:class:`~repro.database.cohort.Posteriors`) that every
  standing query and one-shot query reads, so a re-sighting is
  filtered once;
* hands the objects the incremental identity does not cover --
  observations at or after the current window start, single or
  Section VI -- to :func:`~repro.core.batch.evaluate_rows`, the kernel
  router of one-shot queries and store shards;
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
rungs, so memory stays bounded by the live gap spread.  Objects
observed at or inside the window go through ``evaluate_rows`` until
the window slides past them; multi-observation objects are rejected
(:func:`~repro.core.batch.refuse_multi_ktimes`).

**Transactional ticks.**  A :meth:`StandingQuery.tick` either fully
commits -- ladder rungs extended, journal cursor advanced, tick
counter and window offset moved -- or rolls back to the pre-tick state
and re-raises: a snapshot of every mutable field (references only:
threshold array, ladder slice, journal cursor, counters -- a tick
replaces the threshold array and writes rungs only outside the
snapshot's slice, and the shared posteriors are a pure function of
the database) is restored on any exception, so a failed tick can
simply be retried and resyncs from the database journal.  The cohort
itself is shared with every other query and keeps being patched, so a
tick works on the :class:`~repro.database.cohort.CohortView` it took
at sync: rows and evidence times as of then (the records it reads
are cut at those times), whatever lands later.  A standing query that
keeps failing (``quarantine_after`` consecutive tick failures, default
3) is *quarantined* with the error recorded on :attr:`StandingQuery.error`;
ticking it raises
:class:`~repro.core.errors.QuarantinedQueryError` until
:meth:`StandingQuery.reset` rebuilds it from the database, and
:meth:`StreamingQueryEngine.tick_all` skips it instead of letting one
poisoned query take down the whole engine.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.batch import evaluate_rows, refuse_multi_ktimes
from repro.core.distribution import SupportBlock
from repro.core.errors import (
    QuarantinedQueryError,
    QueryError,
)
from repro.core.plan_cache import PlanCache
from repro.core.planner import (
    GroupFeatures,
    GroupPlan,
    PlanOptions,
    QueryPlan,
    StageStats,
    group_split,
)
from repro.core.query import (
    PSTExistsQuery,
    PSTForAllQuery,
    PSTKTimesQuery,
    PSTQuery,
    SpatioTemporalWindow,
)
from repro.database.pruning import ReachabilityPruner
from repro.database.uncertain_db import TrajectoryDatabase
from repro.exec.operators import LADDER_EXTEND, ExecutionContext

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


class _ChainStream:
    """Incremental per-chain state of one standing query.

    Reads the objects from the database's
    :class:`~repro.database.cohort.Cohort` of the chain -- the same
    rows one-shot queries plan over, through the
    :class:`~repro.database.cohort.CohortView` taken at each sync --
    and keeps beside it only what depends on the query: one BFS
    threshold per row and the backward-column ladder (seeded from the
    batch engine's plan-cache backward vectors, extended on the chain
    matrix).
    """

    def __init__(
        self, chain_id: str, owner: "StandingQuery", cohort
    ) -> None:
        self.chain_id = chain_id
        self.owner = owner
        self.cohort = cohort
        self.view = None  # the current tick's, set by register()
        self.chain = owner.engine.database.chain(chain_id)
        # per cohort row (registered rows only): the earliest t_end at
        # which the object can be non-zero -- first observation time
        # plus BFS distance into the region.  Exact-safe: below it the
        # probability is provably 0, the same reachability bound the
        # batch pipeline's filter stage applies.
        self.threshold = np.zeros(0, dtype=np.int64)
        # the backward-vector ladder: rel[g - gap_lo] = M_minus^g .
        # anchor, where anchor = v(min(T)-1) (a C-block for k-times).
        # Shift invariance makes both independent of the tick -- the
        # column of start time t_0 under the window at any tick is the
        # rung of gap min(T)-1-t_0 -- so one rung per slid timestamp
        # serves every start time ever tracked.  ``rel`` is the live
        # slice of ``_buffer`` (ending at ``_end``): extension writes
        # into the spare tail, eviction only moves the slice, so the
        # footprint is bounded by eight times the live gap spread (see
        # _extend), not by how long the query has been standing.  A
        # tick writes only outside the slice it started from, so
        # rolling back is restoring that slice.
        self._buffer = self.rel = np.zeros((0, 0), dtype=float)
        self._end = 0
        self.gap_lo = 0
        self.matvecs = 0  # sparse products spent, for EXPLAIN output

    # ------------------------------------------------------------------
    # transactional snapshot
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple:
        """References only: a tick replaces the threshold array and
        writes rungs only outside this ladder slice."""
        return (
            self.threshold, self._buffer, self.rel, self._end,
            self.gap_lo, self.matvecs,
        )

    def _restore(self, state: tuple) -> None:
        (
            self.threshold, self._buffer, self.rel, self._end,
            self.gap_lo, self.matvecs,
        ) = state

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, view) -> None:
        """Adopt ``view`` for the coming tick; thresholds for the
        cohort rows appended since the last sync (all of them at
        ``watch()`` time): one BFS labelling gathered over the new
        rows' supports."""
        cohort = self.cohort
        self.view = view
        refuse_multi_ktimes(self.owner.kind, view.is_multi)
        fresh = np.arange(len(self.threshold), view.n_rows)
        if not fresh.size:
            return
        steps = cohort.block(fresh).min_over_support(
            self.owner.engine.pruner.min_levels(
                self.chain_id, self.owner.region
            )
        )
        reachable = steps < _UNREACHABLE
        steps[reachable] += cohort.start_time[fresh][reachable]
        self.threshold = np.concatenate([self.threshold, steps])

    # ------------------------------------------------------------------
    # backward columns
    # ------------------------------------------------------------------
    def _extend(self, steps: int) -> None:
        """Append ``steps`` rungs above the deepest one.

        Runs as the shared :data:`~repro.exec.operators.LADDER_EXTEND`
        operator, writing into the buffer's spare tail; a tick's
        amortised cost stays at ``stride`` sparse products per chain.
        The live slice slides through the whole buffer, so all of it
        ends up resident: when the tail runs out the slice moves back
        to the front (dead slots, already paged in, clear of the slice
        a rollback restores).  Only a slice grown past half the buffer
        or shrunk below an eighth of it gets a new one, four times its
        size (a young query's live part grows as it slides, and a new
        buffer is a ladder's worth of fresh pages): resident ladder
        memory is at most eight times the live part.
        """
        if steps <= 0:
            return
        count = len(self.rel)
        if self._end + steps > len(self._buffer):
            buffer, need = self._buffer, count + steps
            if self._end - count < need or len(buffer) > 8 * need:
                buffer = np.empty(
                    (4 * need,) + self.rel.shape[1:], dtype=float
                )
            buffer[:count] = self.rel
            self._buffer, self._end = buffer, count
        # the chain matrix steps both ladders: an exists rung's real
        # block (M_minus's real rows are M's, TOP stays 1) and a k-times
        # C-block (the count dimension rides in the block's columns)
        LADDER_EXTEND(
            (self.chain.matrix, self._buffer[self._end - 1], steps),
            self.chain, self.owner.region,
            context=self.owner.context,
            out=self._buffer[self._end:self._end + steps],
        )
        self._end += steps
        self.rel = self._buffer[self._end - count - steps:self._end]
        self.matvecs += steps

    def _seed_anchor(self, window: SpatioTemporalWindow) -> np.ndarray:
        """The shift-invariant rung-0 anchor for the current mode.

        Exists: the backward vector ``v(min(T)-1)`` (plan-cache
        shared).  K-times: the suffix-count core ``W = D(min(T)-1)``
        of :data:`~repro.exec.operators.KTIMES_CORE`.  Both are
        numerically identical for every slid window, so seeding
        happens once per standing query (plus after eviction dropped
        the shallow end).
        """
        anchor_start = window.t_start - 1
        cache = self.owner.engine.plan_cache
        build = (
            cache.ktimes_blocks
            if self.owner.kind == "ktimes"
            else cache.backward_vectors
        )
        return np.asarray(
            build(
                self.chain, window, [anchor_start],
                context=self.owner.context,
            )[anchor_start],
            dtype=float,
        )

    def _cover(
        self, lo: int, hi: int, window: SpatioTemporalWindow
    ) -> int:
        """Make ``rel`` hold exactly the rungs of gaps ``lo..hi``;
        returns how many rungs that evicted.

        The column of start time ``t_0`` is the rung of gap
        ``min(T) - 1 - t_0``, and the ladder is only ever *extended*:
        a tick of stride ``s`` deepens the largest live gap by ``s``,
        which costs ``s`` sparse products per chain -- independent of
        how many start times, arrivals, or re-sightings it serves.  A
        gap below every retained rung (possible only after eviction
        dropped the shallow end) reseeds the anchor and refills the
        range in between; exact either way, since every rung is a pure
        function of its gap.  Live gaps only ever grow as the window
        slides, so rungs below ``lo`` are dead and rungs above ``hi``
        are leftovers of departed objects.
        """
        count = len(self.rel)
        if not count or lo < self.gap_lo:
            anchor = self._seed_anchor(window)
            kept, kept_lo = self.rel, self.gap_lo if count else 1
            self._buffer = np.empty(
                (max(hi + 1, kept_lo + count),) + anchor.shape,
                dtype=float,
            )
            self._buffer[0] = anchor
            self.rel, self._end, self.gap_lo = self._buffer[:1], 1, 0
            self._extend(kept_lo - 1)
            if count:
                self._buffer[kept_lo:kept_lo + count] = kept
                self._end += count
                self.rel = self._buffer[:self._end]
        self._extend(hi - (self.gap_lo + len(self.rel) - 1))
        evicted = len(self.rel) - (hi - lo + 1)
        self._end -= self.gap_lo + len(self.rel) - 1 - hi
        self.rel = self._buffer[self._end - (hi - lo + 1):self._end]
        self.gap_lo = lo
        return evicted

    def _ride(self, block: SupportBlock, gaps: np.ndarray) -> np.ndarray:
        """Every row of ``block`` against the rung of its gap: one
        gather over the supports, one per-row reduction."""
        entries = self.rel[
            np.repeat(gaps - self.gap_lo, np.diff(block.indptr)),
            block.states,
        ]
        weights = block.probs if entries.ndim == 1 else block.probs[:, None]
        return block.row_sums(weights * entries)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, window: SpatioTemporalWindow
    ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Per-object answers for the current window, plus the tick's
        row counts for the plan.

        Rows whose evidence all precedes the window -- single
        observations and collapsed Section VI objects alike -- ride
        the ladder: a row's answer is its pdf against the rung of its
        gap (exists: ``P_exists``; k-times: the C-block, giving the
        visit-count distribution).  Observations at or inside the
        window have no ``M_minus`` prefix to extend and go through
        ``evaluate_rows`` until the window slides past them.  Rows
        below their BFS threshold get the query's zero element.
        """
        owner = self.owner
        engine = owner.engine
        cohort = self.cohort
        # the sync's view, not the live columns: other queries keep
        # patching the cohort while this tick runs
        view = self.view
        rows, multi, last = view.rows, view.is_multi, view.last_time
        start_time = cohort.start_time[rows]
        reach = self.threshold[rows] <= window.t_end
        before = last < window.t_start
        if owner.kind == "ktimes":
            out = np.zeros((len(rows), window.duration + 1), dtype=float)
            out[:, 0] = 1.0  # zero visits
        else:
            out = np.zeros(len(rows), dtype=float)

        # re-sighted rows whose record a racing write took away
        gone = np.zeros(len(rows), dtype=bool)
        riding = before & (reach | ~multi)
        evicted = len(self.rel)
        if riding.any():
            gaps = (window.t_start - 1) - last
            evicted = self._cover(
                int(gaps[riding].min()), int(gaps[riding].max()), window
            )
            single = np.flatnonzero(riding & ~multi)
            collapsed = np.flatnonzero(riding & multi)
            block = cohort.block(rows[single])
            if collapsed.size:
                # all evidence precedes the window: the object is
                # Markov from its filtered posterior
                posteriors = cohort.posteriors.collapse(
                    rows[collapsed], last[collapsed], self.chain,
                    engine.database, owner.context,
                )
                block = block.concat(posteriors)
                gone[collapsed[np.diff(posteriors.indptr) == 0]] = True
            picked = np.concatenate([single, collapsed])
            out[picked] = self._ride(block, gaps[picked])
        else:
            self.rel = self.rel[:0]

        rest = np.flatnonzero(reach & ~before)
        doubled = rest[multi[rest]]
        # the evidence as of the sync, whatever was sighted since
        records = {
            p: cohort.record(engine.database, rows[p], last[p])
            for p in doubled.tolist()
        }
        gone[doubled] = [record is None for record in records.values()]
        rest = rest[~gone[rest]]
        if rest.size:
            out[rest] = evaluate_rows(
                self.chain, window, owner.kind, "qb", rest,
                block=lambda picked: cohort.block(rows[picked]),
                start_time=start_time,
                last_time=last,
                is_multi=multi,
                observation_sets=lambda picked: [
                    records[p] for p in picked.tolist()
                ],
                posteriors=None,  # every row here has last >= t_start
                plan_cache=engine.plan_cache,
                context=owner.context,
            )

        if owner.complemented:
            out = 1.0 - out
        if owner.k is not None:
            out = out[:, owner.k]  # a fixed k asks for one scalar
        counters = {
            "stream": int(np.count_nonzero(before & ~multi)),
            "fallback": int(np.count_nonzero(reach & ~before & ~multi)),
            "multi": int(np.count_nonzero(reach & multi)),
            "active": int(np.count_nonzero(reach)),
            "evicted": evicted,
            "split": group_split(window, start_time, last, multi)[0],
        }
        if gone.any():
            rows, out = rows[~gone], out[~gone]
        return (
            dict(zip(
                cohort.ids(rows), out.tolist() if out.ndim == 1 else out
            )),
            counters,
        )


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
        self.context = ExecutionContext(faults=faults)
        self._offset = 0
        self._base = SpatioTemporalWindow(self.region, query.times)
        self._chains: Dict[str, _ChainStream] = {}
        # objects at or above their BFS threshold at the last tick
        self._active = 0
        self._synced_version = 0
        self._last_plan: Optional[QueryPlan] = None
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
        field (ladder rungs, journal cursor, row watermark, tick
        counter, window offset) is restored to its pre-tick state and the
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
        self.context = ExecutionContext(faults=self.faults)
        try:
            self._sync()
            if self.faults is not None:
                self.faults.fire("streaming:tick", tick=self.ticks)
            window = _shift_window(self._base, self._offset)
            matvecs_before = sum(
                stream.matvecs for stream in self._chains.values()
            )
            values: Dict[str, object] = {}
            counters: Dict[str, Dict[str, int]] = {}
            stage_started = _time.perf_counter()
            for chain_id, stream in self._chains.items():
                chain_values, counters[chain_id] = stream.evaluate(
                    window
                )
                values.update(chain_values)
            evaluate_seconds = _time.perf_counter() - stage_started

            previously_active = self._active
            self._active = sum(
                chain["active"] for chain in counters.values()
            )
            matvecs = sum(
                stream.matvecs for stream in self._chains.values()
            ) - matvecs_before
            plan = self._build_plan(
                window,
                entered=self._active - previously_active,
                matvecs=matvecs,
                counters=counters,
                evaluate_seconds=evaluate_seconds,
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
    def _snapshot(self) -> tuple:
        """Pre-tick references to all mutable state (the shared
        posterior tables are a pure function of the database and stay
        out)."""
        return (
            self.ticks, self._offset, self._synced_version,
            self._active, self.resyncs, self._last_plan,
            dict(self._chains),
            [stream._snapshot() for stream in self._chains.values()],
        )

    def _restore(self, state: tuple) -> None:
        (
            self.ticks, self._offset, self._synced_version,
            self._active, self.resyncs, self._last_plan,
            self._chains, chain_states,
        ) = state
        for stream, chain_state in zip(
            self._chains.values(), chain_states
        ):
            stream._restore(chain_state)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        self._synced_version = self.engine.database.version
        self._register(self.engine.database.cohort_views())

    def _register(self, views) -> None:
        """Open a stream per chain that has objects and register the
        cohort rows appended since the last sync."""
        for chain_id, view in sorted(views.items()):
            stream = self._chains.get(chain_id)
            if stream is None:
                if not view.rows.size:
                    continue
                stream = self._chains[chain_id] = _ChainStream(
                    chain_id, self, view.cohort
                )
            stream.register(view)

    def _sync(self) -> None:
        """Catch up with the database: the cohorts are patched from
        the mutation journal (departures are tombstoned rows,
        re-sightings flip columns in place), the tick takes its view
        of them, new rows get their thresholds."""
        database = self.engine.database
        # version first: an entry landing after this line is replayed
        # by the next sync
        version = database.version
        changes = database.changes_since(self._synced_version)
        views = database.cohort_views()
        if (
            # the bounded journal no longer covers our last sync
            changes is None
            # a replaced model invalidates every derived artefact
            or any(change.op == "chain" for change in changes)
            # compaction renumbered the rows
            or any(
                chain_id not in views
                or views[chain_id].cohort is not stream.cohort
                for chain_id, stream in self._chains.items()
            )
        ):
            self._rebuild()
            return
        self._synced_version = version
        self._register(views)

    def _rebuild(self) -> None:
        """Re-derive all streaming state from current database state.

        The recovery path for journal overflow ("the bounded journal
        no longer covers our last sync"), chain replacement, a
        compacted cohort, and :meth:`reset` after quarantine;
        ``resyncs`` counts these.
        """
        self.resyncs += 1
        self._chains = {}
        self._active = 0
        self._initialize()

    def _build_plan(
        self,
        window: SpatioTemporalWindow,
        entered: int,
        matvecs: int,
        counters: Dict[str, Dict[str, int]],
        evaluate_seconds: float,
    ) -> QueryPlan:
        options = PlanOptions()
        plan = QueryPlan(
            kind=self.kind,
            window=window,
            requested_method="streaming",
            complemented=self.complemented,
            use_prefilter=False,
            use_bfs=False,
            max_workers=1,
            options=options,
            semantics="forall" if self.complemented else self.kind,
            groups=[
                GroupPlan(
                    chain_id=chain_id,
                    method="stream",
                    features=GroupFeatures(
                        **counters[chain_id]["split"],
                        n_states=stream.chain.n_states + 1,
                        nnz=stream.chain.nnz,
                        duration=window.duration,
                    ),
                    survivors=len(stream.view.rows),
                )
                for chain_id, stream in sorted(self._chains.items())
            ],
        )
        plan.degradations = list(self.context.events)
        total = {
            key: sum(chain[key] for chain in counters.values())
            for key in ("stream", "fallback", "multi", "evicted")
        }
        rungs = sum(
            len(stream.rel) for stream in self._chains.values()
        )
        plan.stages = [
            StageStats(
                "streaming",
                sum(group.survivors for group in plan.groups),
                self._active,
                0.0,
                f"tick {self.ticks}, stride {self.stride}, "
                f"{entered:+d} candidates, {matvecs} sparse products, "
                f"{rungs} rungs ({total['evicted']} evicted)",
            ),
            StageStats(
                "evaluate",
                self._active,
                self._active,
                evaluate_seconds,
                f"incremental={total['stream']}, "
                f"fallback={total['fallback']}, "
                f"multi={total['multi']}",
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
        plan_cache: shared construction cache (private when omitted).
        pruner: shared reachability filter (private when omitted).
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        plan_cache: Optional[PlanCache] = None,
        pruner: Optional[ReachabilityPruner] = None,
    ) -> None:
        self.database = database
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

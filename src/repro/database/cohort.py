"""Columnar chain cohorts: one chain group's objects as arrays.

Everything a query asks about an object -- when it was first and last
observed, over which states, whether later observations exist -- it
asks of every object of a chain group.  A :class:`Cohort` answers for
the whole group at once: the first-observation supports as one CSR
(``indptr`` / ``states`` / ``probs``) plus the parallel per-object
columns ``start_time``, ``last_time``, ``is_multi`` and ``object_id``.
Planner, filter stages, kernel staging and result assembly of a
one-shot query, and every tick of a standing query
(:mod:`repro.core.streaming`), pass *row-index arrays* over it, so
both cost a constant number of Python steps per chain group instead of
per object.

Cohorts are owned by
:class:`~repro.database.uncertain_db.TrajectoryDatabase`, which builds
them on the first query and afterwards patches them from its mutation
journal.  Rows are append-only with tombstones: a new object goes to
the end, a removed one is marked dead, and row numbers never change --
a row array taken from :attr:`Cohort.rows` keeps naming the same
objects whatever is written later.  Once dead rows outnumber the live
ones the database swaps in a :meth:`Cohort.compacted` copy.

Growth replaces the columns, so rows taken earlier always index them
safely; liveness, ``is_multi`` and ``last_time`` are patched in place,
and a reader that needs one state of them while other threads keep
syncing the cohort takes a :class:`CohortView`.  Beside each cohort
sits its :class:`Posteriors`, shared by every reader of the cohort.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.distribution import SupportBlock
from repro.core.errors import ValidationError
from repro.core.observation import ObservationSet
from repro.exec.operators import POSTERIOR_COLLAPSE

__all__ = ["Cohort", "CohortView", "Posteriors"]


class Cohort:
    """The objects of one chain group, column-wise.

    Attributes:
        indptr, states, probs: first-observation supports, CSR.
        start_time: per row, timestamp of the first observation.
        last_time: per row, timestamp of the latest observation
            (``start_time`` unless ``is_multi``).
        is_multi: per row, later observations exist (Section VI).
        object_id: per row, the object's id (``object`` array).
        row_of: ``{object id: row}`` of the live objects.
        posteriors: the rows' shared Lemma 1 posteriors.
    """

    def __init__(self, chain_id: str, n_states: int) -> None:
        self.chain_id = chain_id
        self.n_states = int(n_states)
        self.indptr = np.zeros(1, dtype=np.int64)
        self.states = np.zeros(0, dtype=np.int64)
        self.probs = np.zeros(0, dtype=float)
        self.start_time = np.zeros(0, dtype=np.int64)
        self.last_time = np.zeros(0, dtype=np.int64)
        self.is_multi = np.zeros(0, dtype=bool)
        self.object_id = np.zeros(0, dtype=object)
        self.row_of: Dict[str, int] = {}
        self._alive = np.zeros(0, dtype=bool)
        self._rows: Optional[np.ndarray] = None
        self.posteriors = Posteriors(self)

    @property
    def n_rows(self) -> int:
        """Rows ever appended, dead ones included."""
        return len(self.start_time)

    @property
    def rows(self) -> np.ndarray:
        """Row indices of the live objects, ascending.

        A fresh array after every mutation, never modified in place:
        a plan holds on to it as the snapshot it was made on.
        """
        rows = self._rows  # one read: a patch may reset it meanwhile
        if rows is None:
            rows = self._rows = np.flatnonzero(self._alive)
        return rows

    def __len__(self) -> int:
        return len(self.row_of)

    def block(self, rows: np.ndarray) -> SupportBlock:
        """The first-observation distributions of ``rows`` as one CSR."""
        return SupportBlock.gather(
            self.n_states,
            self.states,
            self.probs,
            self.indptr[rows],
            self.indptr[rows + 1],
        )

    def ids(self, rows: np.ndarray) -> List[str]:
        """Object ids of ``rows``, in that order."""
        return self.object_id[rows].tolist()

    def rows_of(self, object_ids: Sequence[str]) -> np.ndarray:
        """Rows of the given ids; ids the cohort does not hold (another
        chain's, or removed since) are skipped."""
        row_of = self.row_of
        return np.fromiter(
            (row_of[i] for i in object_ids if i in row_of),
            dtype=np.int64,
        )

    def record(
        self, database, row: int, upto: Optional[int] = None
    ) -> Optional[ObservationSet]:
        """The observations of row ``row`` in ``database`` -- ``None``
        once a write racing the reader has removed or re-anchored the
        object (the row is dead by then).  With ``upto`` (the latest
        observation time in the caller's view) only the observations at
        or before it: a sighting that landed since is not the caller's
        evidence."""
        try:
            observations = database.get(self.object_id[row]).observations
        except ValidationError:
            return None
        if observations.first.time != self.start_time[row]:
            return None
        if upto is not None and observations.last.time > upto:
            observations = ObservationSet(tuple(
                o for o in observations if o.time <= upto
            ))
        return observations

    # ------------------------------------------------------------------
    # mutation (the owning database only, under its cohort lock)
    # ------------------------------------------------------------------
    def extend(
        self,
        object_ids: Sequence[str],
        block: SupportBlock,
        start_times: Sequence[int],
        last_times: Sequence[int],
    ) -> None:
        """Append one row per object of ``block``; an id already held
        is superseded (its old row dies).  Columns are replaced, not
        resized in place, so arrays handed out earlier stay intact."""
        for object_id in object_ids:
            self.discard(object_id)
        first = self.n_rows
        ids = np.empty(len(object_ids), dtype=object)
        ids[:] = object_ids
        self.indptr = np.concatenate(
            [self.indptr, self.indptr[-1] + block.indptr[1:]]
        )
        self.states = np.concatenate([self.states, block.states])
        self.probs = np.concatenate([self.probs, block.probs])
        start_times = np.asarray(start_times, dtype=np.int64)
        last_times = np.asarray(last_times, dtype=np.int64)
        self.start_time = np.concatenate([self.start_time, start_times])
        self.last_time = np.concatenate([self.last_time, last_times])
        self.is_multi = np.concatenate(
            [self.is_multi, last_times > start_times]
        )
        self.object_id = np.concatenate([self.object_id, ids])
        self._alive = np.concatenate(
            [self._alive, np.ones(len(ids), dtype=bool)]
        )
        self.row_of.update(zip(object_ids, range(first, self.n_rows)))
        self._rows = None

    def add_objects(self, objects: Sequence) -> None:
        """Append (or supersede)
        :class:`~repro.database.objects.UncertainObject` records."""
        self.extend(
            [obj.object_id for obj in objects],
            SupportBlock.from_distributions(
                [obj.initial.distribution for obj in objects],
                self.n_states,
            ),
            [obj.initial.time for obj in objects],
            [obj.observations.last.time for obj in objects],
        )

    def discard(self, object_id: str) -> None:
        """Tombstone an object's row (no-op for unknown ids)."""
        row = self.row_of.pop(object_id, None)
        if row is not None:
            self._alive[row] = False
            self._rows = None

    def view(self) -> "CohortView":
        """Copies of the live rows' patched-in-place columns (call
        under the owning database's cohort lock)."""
        rows = self.rows
        return CohortView(
            self, self.n_rows, rows, self.is_multi[rows], self.last_time[rows]
        )

    def compacted(self) -> "Cohort":
        """A copy holding only the live rows, renumbered from zero."""
        rows = self.rows
        fresh = Cohort(self.chain_id, self.n_states)
        fresh.extend(
            self.ids(rows),
            self.block(rows),
            self.start_time[rows],
            self.last_time[rows],
        )
        return fresh


class CohortView(NamedTuple):
    """One state of a cohort's live rows, private to its holder:
    ``is_multi`` and ``last_time`` are copies aligned with ``rows``,
    ``n_rows`` the row count then; later patches do not show."""

    cohort: Cohort
    n_rows: int
    rows: np.ndarray
    is_multi: np.ndarray
    last_time: np.ndarray


class Posteriors:
    """Lemma 1 filtered posteriors of one cohort's re-sighted objects.

    ``P(X_t_last | observations)`` does not depend on the query region,
    so every reader -- one-shot queries, the store's in-parent path,
    standing-query ticks -- shares the table: a re-sighting is
    collapsed once, whoever asks first.  Row-aligned with the cohort:
    ``slot[row]`` names the row's entry in an append-only CSR (``-1``:
    none), ``time[row]`` the observation time it is filtered up to,
    ``folded[row]`` how many observations it folded in.  A removed or
    re-anchored object gets a fresh row and a compacted cohort a fresh
    table, so nothing inherits an entry; the journal replay drops one
    a backfilled sighting invalidates, and a call with another chain
    empties the table.
    """

    def __init__(self, cohort: Cohort) -> None:
        self.cohort = cohort
        self._lock = threading.Lock()
        self._clear(None)

    def _clear(self, chain) -> None:
        self.chain = chain
        self.slot = np.zeros(0, dtype=np.int64)
        self.time = np.zeros(0, dtype=np.int64)
        self.folded = np.zeros(0, dtype=np.int64)
        self.indptr = np.zeros(1, dtype=np.int64)
        self.states = np.zeros(0, dtype=np.int64)
        self.weights = np.zeros(0, dtype=float)

    def _grow(self) -> None:
        """One (empty) entry per cohort row appended since."""
        fresh = np.full(
            self.cohort.n_rows - len(self.slot), -1, dtype=np.int64
        )
        if fresh.size:
            self.slot = np.concatenate([self.slot, fresh])
            self.time = np.concatenate([self.time, fresh])
            self.folded = np.concatenate([self.folded, fresh])

    def observed(self, row: int, observations: ObservationSet) -> None:
        """A sighting landed on ``row``: drop the entry if it was
        backfilled below it (a later one is resumed from)."""
        with self._lock:
            if row >= len(self.slot) or self.slot[row] < 0:
                return
            upto = sum(o.time <= self.time[row] for o in observations)
            if upto != self.folded[row]:
                self.slot[row] = self.time[row] = -1

    def collapse(
        self, rows, last, chain, database, backend=None, context=None
    ) -> SupportBlock:
        """The posteriors of ``rows`` at ``last`` (the latest
        observation time in the caller's view of each) as one CSR.
        Entries missing or not at ``last`` are filtered first through
        :data:`~repro.exec.operators.POSTERIOR_COLLAPSE`; a row whose
        record a racing write took away gets an empty one."""
        with self._lock:
            if chain is not self.chain:
                self._clear(chain)
            self._fill(rows, last, database, backend, context)
            return self._block(rows)

    def _block(self, rows: np.ndarray) -> SupportBlock:
        """The entries of ``rows`` (all filled) as one CSR."""
        slots = self.slot[rows]
        return SupportBlock.gather(
            self.cohort.n_states, self.states, self.weights,
            self.indptr[slots], self.indptr[slots + 1],
        )

    def _fill(self, rows, last, database, backend, context) -> None:
        self._grow()
        cohort = self.cohort
        pick = self.time[rows] != last
        if not pick.any():
            return
        stale = rows[pick]
        supports, weights, folded = [], [], []
        for row, slot, upto in zip(
            stale.tolist(), self.slot[stale].tolist(), last[pick].tolist()
        ):
            observations = cohort.record(database, row, upto)
            if observations is None:
                supports.append(self.states[:0])
                weights.append(self.weights[:0])
                folded.append(0)
                continue
            resume = None
            if slot >= 0 and self.time[row] < upto:
                entry = slice(self.indptr[slot], self.indptr[slot + 1])
                resume = (int(self.time[row]), self.states[entry],
                          self.weights[entry])
            _t_last, support, weight = POSTERIOR_COLLAPSE(
                (observations, resume), self.chain, None, backend,
                context=context,
            )
            supports.append(support)
            weights.append(weight)
            folded.append(len(observations))
        n_slots = len(self.indptr) - 1
        self.indptr = np.concatenate([
            self.indptr,
            self.indptr[-1] + np.cumsum([len(s) for s in supports]),
        ])
        self.states = np.concatenate([self.states] + supports)
        self.weights = np.concatenate([self.weights] + weights)
        self.slot[stale] = np.arange(n_slots, n_slots + len(stale))
        self.time[stale] = last[pick]
        self.folded[stale] = folded
        live = np.zeros(len(self.slot), dtype=bool)
        live[cohort.rows[cohort.rows < len(live)]] = live[rows] = True
        live = np.flatnonzero(live & (self.slot >= 0))
        if len(self.indptr) - 1 > 2 * len(live) + 64:
            # superseded and departed entries outnumber the live ones
            block = self._block(live)
            self.indptr, self.states = block.indptr, block.states
            self.weights = block.probs
            self.slot[:] = -1
            self.slot[live] = np.arange(len(live))
            self.time[self.slot < 0] = -1

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
syncing the cohort takes a :class:`CohortView`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.distribution import SupportBlock

__all__ = ["Cohort", "CohortView"]


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
        if self._rows is None:
            self._rows = np.flatnonzero(self._alive)
        return self._rows

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

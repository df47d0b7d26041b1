"""The trajectory database: uncertain objects over shared Markov chains.

A :class:`TrajectoryDatabase` holds

* an optional :class:`~repro.core.state_space.StateSpace` giving geometric
  meaning to state indices,
* one or more named Markov chains (one per object class, Section V-C),
* any number of :class:`~repro.database.objects.UncertainObject` records.

All consistency checks (matching state counts, known chain ids, unique
object ids) happen at insertion time so query processing can assume a
well-formed database.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from dataclasses import dataclass, replace

from repro.core.distribution import StateDistribution
from repro.core.errors import StateSpaceError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.observation import Observation, ObservationSet
from repro.core.state_space import StateSpace
from repro.database.cohort import Cohort, CohortView
from repro.database.objects import DEFAULT_CHAIN, UncertainObject

if TYPE_CHECKING:  # avoid a circular import with database.pruning
    from repro.database.pruning import GeometricPrefilter

__all__ = ["TrajectoryDatabase", "DatabaseChange"]

# mutation-journal retention: far above any realistic tick-to-tick lag
# of a standing query, small enough that a perpetual feed stays bounded
_JOURNAL_LIMIT = 65_536


@dataclass(frozen=True)
class DatabaseChange:
    """One entry of the database's mutation journal.

    Attributes:
        version: the database version right after the mutation.
        op: ``"add"``, ``"remove"``, ``"observe"`` (an observation was
            appended to an existing object) or ``"chain"`` (a chain was
            registered or replaced).
        object_id: the affected object (chain id for ``"chain"`` ops).
    """

    version: int
    op: str
    object_id: str


def _by_chain(objects) -> Dict[str, List[UncertainObject]]:
    groups: Dict[str, List[UncertainObject]] = {}
    for obj in objects:
        groups.setdefault(obj.chain_id, []).append(obj)
    return groups


class TrajectoryDatabase:
    """A collection of uncertain spatio-temporal objects.

    Args:
        n_states: number of states of every chain and object in the
            database.
        state_space: optional geometric state space; when given its size
            must equal ``n_states``.
    """

    def __init__(
        self, n_states: int, state_space: Optional[StateSpace] = None
    ) -> None:
        if n_states <= 0:
            raise ValidationError(
                f"n_states must be positive, got {n_states}"
            )
        if state_space is not None and state_space.n_states != n_states:
            raise ValidationError(
                f"state space has {state_space.n_states} states, "
                f"database declared {n_states}"
            )
        self.n_states = int(n_states)
        self.state_space = state_space
        self._chains: Dict[str, MarkovChain] = {}
        self._objects: Dict[str, UncertainObject] = {}
        # lazy geometry metadata for the filter-refinement pipeline
        self._positions: Optional[np.ndarray] = None
        self._positions_known = False
        self._displacement_bounds: Dict[str, Optional[float]] = {}
        self._prefilters: Dict[str, Optional["GeometricPrefilter"]] = {}
        # mutation journal: streaming consumers sync against `version`.
        # Bounded: a long-running feed must not accumulate memory, so
        # the oldest entries are dropped past _JOURNAL_LIMIT and
        # consumers that fell further behind are told to resync.
        self._version = 0
        self._journal: List[DatabaseChange] = []
        self._journal_dropped = 0
        # columnar chain cohorts: built on the first query, then
        # patched from the journal like any other streaming consumer
        self._cohorts: Optional[Dict[str, Cohort]] = None
        self._cohort_version = 0
        self._cohort_lock = threading.Lock()

    @classmethod
    def with_chain(
        cls,
        chain: MarkovChain,
        state_space: Optional[StateSpace] = None,
        chain_id: str = DEFAULT_CHAIN,
    ) -> "TrajectoryDatabase":
        """Database with a single shared chain (the common case)."""
        database = cls(chain.n_states, state_space)
        database.register_chain(chain_id, chain)
        return database

    # ------------------------------------------------------------------
    # chains
    # ------------------------------------------------------------------
    def register_chain(self, chain_id: str, chain: MarkovChain) -> None:
        """Register (or replace) the chain for an object class."""
        if chain.n_states != self.n_states:
            raise ValidationError(
                f"chain over {chain.n_states} states, database over "
                f"{self.n_states}"
            )
        self._chains[str(chain_id)] = chain
        # the displacement bound depends on the chain's transitions
        self._displacement_bounds.pop(str(chain_id), None)
        self._prefilters.pop(str(chain_id), None)
        self._record("chain", str(chain_id))

    def chain(self, chain_id: str = DEFAULT_CHAIN) -> MarkovChain:
        """The chain registered under ``chain_id``."""
        try:
            return self._chains[chain_id]
        except KeyError:
            raise ValidationError(
                f"no chain registered under {chain_id!r}; known: "
                f"{sorted(self._chains)}"
            ) from None

    @property
    def chain_ids(self) -> List[str]:
        """All registered chain identifiers, sorted."""
        return sorted(self._chains)

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------
    def add(self, obj: UncertainObject) -> None:
        """Insert an object; validates chain id, state count, unique id."""
        if obj.object_id in self._objects:
            raise ValidationError(
                f"duplicate object id {obj.object_id!r}"
            )
        if obj.chain_id not in self._chains:
            raise ValidationError(
                f"object {obj.object_id!r} references unknown chain "
                f"{obj.chain_id!r}"
            )
        if obj.n_states != self.n_states:
            raise ValidationError(
                f"object {obj.object_id!r} is over {obj.n_states} states, "
                f"database over {self.n_states}"
            )
        self._objects[obj.object_id] = obj
        prefilter = self._prefilters.get(obj.chain_id)
        if prefilter is not None:  # patch the built index, don't rebuild
            prefilter.insert_object(obj)
        self._record("add", obj.object_id)

    def add_all(self, objects: Sequence[UncertainObject]) -> None:
        """Insert several objects."""
        for obj in objects:
            self.add(obj)

    def get(self, object_id: str) -> UncertainObject:
        """Fetch an object by id."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise ValidationError(
                f"unknown object id {object_id!r}"
            ) from None

    def remove(self, object_id: str) -> UncertainObject:
        """Delete and return an object."""
        obj = self.get(object_id)
        del self._objects[object_id]
        prefilter = self._prefilters.get(obj.chain_id)
        if prefilter is not None:
            prefilter.remove_object(object_id)
        self._record("remove", object_id)
        return obj

    def append_observation(
        self,
        object_id: str,
        observation: Observation,
        chain_id: str = DEFAULT_CHAIN,
    ) -> UncertainObject:
        """Record a new (later) observation of an object, online.

        The monitoring entry point: a sighting arriving mid-stream is
        folded into the database *incrementally* -- the per-chain R-tree
        prefilter, displacement bounds and reachability labellings are
        patched or left untouched rather than rebuilt (appending to an
        existing object keeps its anchoring first observation, so the
        R-tree entry is already correct; chain-level caches do not
        depend on objects at all).

        Args:
            object_id: an existing object (the observation is appended
                to its observation set, making it a Section VI
                multi-observation object) or a new id (a fresh
                single-observation object enters the database).
            observation: the new sighting; for existing objects its
                timestamp must differ from all previous ones.
            chain_id: chain for objects entering the database (ignored
                for existing objects).

        Returns:
            The inserted or updated (immutable) object record.
        """
        if observation.n_states != self.n_states:
            raise ValidationError(
                f"observation over {observation.n_states} states, "
                f"database over {self.n_states}"
            )
        existing = self._objects.get(object_id)
        if existing is None:
            obj = UncertainObject(
                object_id=str(object_id),
                observations=ObservationSet.single(observation),
                chain_id=chain_id,
            )
            self.add(obj)
            return obj
        updated = replace(
            existing,
            observations=ObservationSet(
                existing.observations.observations + (observation,)
            ),
        )
        self._objects[object_id] = updated
        if updated.initial.time != existing.initial.time:
            # a backfilled earlier sighting moves the R-tree anchor
            prefilter = self._prefilters.get(updated.chain_id)
            if prefilter is not None:
                prefilter.remove_object(object_id)
                prefilter.insert_object(updated)
        self._record("observe", object_id)
        return updated

    # ------------------------------------------------------------------
    # mutation journal (streaming consumers)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter, bumped by every mutation."""
        return self._version

    def changes_since(
        self, version: int
    ) -> Optional[List[DatabaseChange]]:
        """Journal entries strictly after ``version``, oldest first.

        Standing queries (:mod:`repro.core.streaming`) poll this per
        tick to patch their incremental state instead of re-reading
        the whole database.  Returns ``None`` when the bounded journal
        no longer reaches back to ``version`` (the consumer fell more
        than ``_JOURNAL_LIMIT`` mutations behind) -- the caller must
        then resync from the database itself.
        """
        if version >= self._version:
            return []
        if version < self._journal_dropped:
            return None
        # entries are dense in version: the entry created as version v
        # sits at journal index v - 1 - dropped
        return self._journal[int(version) - self._journal_dropped:]

    def _record(self, op: str, object_id: str) -> None:
        self._version += 1
        self._journal.append(
            DatabaseChange(self._version, op, object_id)
        )
        if len(self._journal) > _JOURNAL_LIMIT:
            excess = len(self._journal) - _JOURNAL_LIMIT
            del self._journal[:excess]
            self._journal_dropped += excess

    # ------------------------------------------------------------------
    # columnar chain cohorts (one-shot queries and standing-query ticks)
    # ------------------------------------------------------------------
    def cohorts(self) -> Dict[str, Cohort]:
        """The per-chain :class:`~repro.database.cohort.Cohort` arrays,
        in sync with :attr:`version`.

        Built on first use (one pass over the objects); every later
        call replays only the journal entries since the previous one.
        Writers therefore pay nothing beyond their journal entry, and
        a query pays Python per *changed* object, not per object.  The
        planner calls this once per query, before any group fans out
        to a worker thread; the row arrays it takes from
        :attr:`Cohort.rows` keep naming the same objects whatever is
        written afterwards.
        """
        if self._cohorts is None or self._cohort_version != self._version:
            with self._cohort_lock:
                self._sync_cohorts()
        return self._cohorts

    def cohort_views(self) -> Dict[str, CohortView]:
        """:meth:`cohorts`, each as a
        :class:`~repro.database.cohort.CohortView` taken under the
        cohort lock -- what a standing-query tick works on while other
        queries keep syncing the cohorts."""
        with self._cohort_lock:
            if self._cohorts is None or self._cohort_version != self._version:
                self._sync_cohorts()
            return {
                chain_id: cohort.view()
                for chain_id, cohort in self._cohorts.items()
            }

    def _sync_cohorts(self) -> None:
        # version first: a write landing after this line is replayed
        # by the next sync (replaying an entry twice is harmless, each
        # id is reconciled against the current record)
        version = self._version
        changes = (
            None
            if self._cohorts is None
            else self.changes_since(self._cohort_version)
        )
        if changes is None:
            # first use, or the bounded journal no longer reaches back
            self._cohorts = {}
            self._load_cohorts()
        else:
            self._patch_cohorts(changes)
        self._cohort_version = version

    def _load_cohorts(self) -> None:
        """Fill the (empty) cohorts from the current object set."""
        self._extend_cohorts(self._objects.values())

    def _extend_cohorts(self, objects) -> None:
        """Append ``objects`` to their chains' cohorts, one batch each."""
        for chain_id, members in _by_chain(objects).items():
            if chain_id not in self._cohorts:
                self._cohorts[chain_id] = Cohort(chain_id, self.n_states)
            self._cohorts[chain_id].add_objects(members)

    def _patch_cohorts(self, changes: List[DatabaseChange]) -> None:
        """Replay journal entries onto the cohorts.

        ``add`` appends a row, ``remove`` tombstones it, ``observe``
        flips ``is_multi`` and moves ``last_time`` in place -- unless
        the sighting was backfilled before the first one, which moves
        the anchoring observation and so replaces the row.  Each touched id is
        reconciled once against the database's *current* record, so
        the order of its journal entries does not matter.
        """
        # id -> every journalled op on it was an "observe"
        touched: Dict[str, bool] = {}
        for change in changes:
            if change.op != "chain":
                touched[change.object_id] = (
                    touched.get(change.object_id, True)
                    and change.op == "observe"
                )
        fresh: List[UncertainObject] = []
        for object_id, observed_only in touched.items():
            obj = self._objects.get(object_id)
            holder = next(
                (
                    cohort
                    for cohort in self._cohorts.values()
                    if object_id in cohort.row_of
                ),
                None,
            )
            if holder is not None:
                row = holder.row_of[object_id]
                if (
                    obj is not None
                    and observed_only
                    and holder.start_time[row] == obj.initial.time
                ):
                    holder.is_multi[row] = True
                    holder.last_time[row] = obj.observations.last.time
                    continue
                holder.discard(object_id)
            if obj is not None:
                fresh.append(obj)
        self._extend_cohorts(fresh)
        for chain_id, cohort in self._cohorts.items():
            if cohort.n_rows - len(cohort) > max(len(cohort), 64):
                self._cohorts[chain_id] = cohort.compacted()

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self._objects.values())

    @property
    def object_ids(self) -> List[str]:
        """All object ids in insertion order."""
        return list(self._objects)

    def objects_by_chain(self) -> Dict[str, List[UncertainObject]]:
        """Group objects by the chain they follow (for QB batching)."""
        return _by_chain(self._objects.values())

    def initial_distributions(
        self, chain_id: Optional[str] = None
    ) -> List[Tuple[str, StateDistribution]]:
        """``(object_id, first-observation distribution)`` pairs."""
        return [
            (obj.object_id, obj.initial.distribution)
            for obj in self._objects.values()
            if chain_id is None or obj.chain_id == chain_id
        ]

    # ------------------------------------------------------------------
    # lazy geometry metadata (filter-refinement pipeline)
    # ------------------------------------------------------------------
    def state_positions(self) -> Optional[np.ndarray]:
        """``(n_states, d)`` coordinates of every state, built lazily.

        ``None`` when the database has no state space or the space
        cannot place its states (e.g. a road graph loaded without node
        positions) -- the geometric pre-filter is then unavailable and
        the pipeline falls back to BFS pruning alone.
        """
        if not self._positions_known:
            self._positions_known = True
            if self.state_space is not None:
                try:
                    rows = [
                        self.state_space.location_of(state)
                        for state in range(self.n_states)
                    ]
                except StateSpaceError:
                    self._positions = None
                else:
                    self._positions = np.asarray(rows, dtype=float)
        return self._positions

    def chain_displacement_bound(
        self, chain_id: str = DEFAULT_CHAIN
    ) -> Optional[float]:
        """Exact per-transition displacement bound of one chain.

        The maximum Euclidean distance between the positions of any
        connected state pair ``(i, j)`` with ``P(i -> j) > 0``: after
        ``dt`` transitions an object provably stays within
        ``bound * dt`` of its observation.  Cached per chain;
        invalidated when the chain is re-registered.  ``None`` without
        state positions.
        """
        chain_id = str(chain_id)
        if chain_id not in self._displacement_bounds:
            positions = self.state_positions()
            if positions is None:
                self._displacement_bounds[chain_id] = None
            else:
                coo = self.chain(chain_id).matrix.tocoo()
                if coo.nnz == 0:
                    self._displacement_bounds[chain_id] = 0.0
                else:
                    deltas = positions[coo.row] - positions[coo.col]
                    self._displacement_bounds[chain_id] = float(
                        np.sqrt((deltas ** 2).sum(axis=1)).max()
                    )
        return self._displacement_bounds[chain_id]

    def geometric_prefilter(
        self, chain_id: str = DEFAULT_CHAIN
    ) -> Optional["GeometricPrefilter"]:
        """The lazy per-chain R-tree pre-filter (None without geometry).

        Built on first use and kept until the object set of the chain
        or the chain itself changes, so a monitoring workload pays STR
        bulk loading once across all its queries.
        """
        from repro.database.pruning import GeometricPrefilter

        chain_id = str(chain_id)
        if chain_id not in self._prefilters:
            bound = self.chain_displacement_bound(chain_id)
            if bound is None:
                self._prefilters[chain_id] = None
            else:
                self._prefilters[chain_id] = GeometricPrefilter(
                    self, bound, chain_id=chain_id
                )
        return self._prefilters[chain_id]

    def __repr__(self) -> str:
        return (
            f"TrajectoryDatabase(n_states={self.n_states}, "
            f"objects={len(self)}, chains={self.chain_ids})"
        )

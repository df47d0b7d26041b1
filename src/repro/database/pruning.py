"""Reachability-based object pruning.

Section V-C of the paper notes that object-based processing can skip
objects that cannot possibly reach the query region within the query
horizon (the ``S_reach`` argument), and sketches cluster-level pruning.
This module provides the corresponding filter step:

* :class:`ReachabilityPruner` -- exact pruning by breadth-first search on
  the chain's transition structure (an object survives the filter iff some
  state of the query region is reachable from its observation support
  within ``t_end - t_obs`` steps);
* a fast *geometric* pre-filter for state spaces with positions: an R-tree
  over observation locations is probed with the query region's MBR
  expanded by ``max_displacement x dt`` -- objects outside cannot reach
  the region, objects inside proceed to the exact BFS check.

Both filters are *safe*: they never discard an object with non-zero
result probability (verified against brute force in the test suite).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.distribution import SupportBlock
from repro.core.errors import ValidationError
from repro.core.query import Region, SpatioTemporalWindow
from repro.database.objects import UncertainObject
from repro.database.rtree import Rect, RTree
from repro.database.uncertain_db import TrajectoryDatabase

__all__ = [
    "ReachabilityPruner",
    "GeometricPrefilter",
    "reachability_levels",
    "reachable_rows",
]

_UNREACHABLE = np.iinfo(np.int64).max


def reachability_levels(
    chain,
    region: Iterable[int],
    depth_needed: int,
    cache: Dict[Tuple[str, bytes], list],
) -> np.ndarray:
    """Database-free resumable reverse-BFS labelling of one chain.

    Labels every state with the minimum number of transitions needed
    to enter ``region``, extended at least to ``depth_needed`` levels.
    ``cache`` is a mutable mapping keyed by ``(chain fingerprint,
    region key)`` holding ``[levels, reached depth, frontier]`` --
    callers that hold a cache across queries (the pruner, shard
    workers) resume the labelling instead of re-running it.
    Unreachable states are labelled ``np.iinfo(np.int64).max``.  Not
    thread-safe by itself; callers serialise access to ``cache`` (the
    pruner holds a lock, shard workers are single-threaded).
    """
    region = Region(region)
    key = (chain.fingerprint(), region.key)
    state = cache.get(key)
    if state is None:
        levels = np.full(chain.n_states, _UNREACHABLE, dtype=np.int64)
        frontier = np.zeros(chain.n_states, dtype=bool)
        frontier[region.array] = True
        levels[frontier] = 0
        state = cache[key] = [levels, 0, frontier]
    levels, depth, frontier = state
    matrix = chain.matrix
    while depth < depth_needed and frontier.any():
        depth += 1
        reached = matrix @ frontier.astype(np.float64)
        frontier = (reached > 0.0) & (levels == _UNREACHABLE)
        levels[frontier] = depth
    state[1], state[2] = depth, frontier
    return levels


def reachable_rows(
    fetch_levels,
    block: SupportBlock,
    start_times: np.ndarray,
    t_end: int,
) -> np.ndarray:
    """The Section V-C filter over a whole block of objects at once.

    Row ``i`` (observed at ``start_times[i]`` over the block's ``i``-th
    support) survives iff some state of its support is labelled
    ``<= t_end - start_times[i]`` -- the same test
    :meth:`ReachabilityPruner.can_satisfy` applies to one object.
    ``fetch_levels(depth)`` supplies the labelling to at least
    ``depth`` levels; it is asked once, for the largest horizon in the
    block.  Returns the boolean keep-mask.
    """
    horizons = int(t_end) - np.asarray(start_times, dtype=np.int64)
    if horizons.size == 0:
        return np.zeros(0, dtype=bool)
    levels = fetch_levels(max(0, int(horizons.max())))
    # a negative horizon never admits (labels are >= 0)
    return block.min_over_support(levels) <= horizons


class ReachabilityPruner:
    """Exact BFS reachability filter over a database.

    Rather than running one forward BFS per object, the pruner runs a
    single *reverse* BFS from the query region per chain: it labels every
    state with the minimum number of transitions needed to enter the
    region.  An object observed at ``t_obs`` survives iff some state of
    its observation support is labelled ``<= t_end - t_obs``.  This makes
    the filter cost one BFS plus ``O(|support|)`` per object.

    Args:
        database: the trajectory database to filter.
    """

    def __init__(self, database: TrajectoryDatabase) -> None:
        self.database = database
        # resumable reverse-BFS state per (chain content, region):
        # [levels, reached depth, current frontier mask].  Extensions
        # happen under the lock; lock-free readers are safe because a
        # label <= d is final once the reached depth is >= d, and
        # deeper labels only ever *replace* the unreachable sentinel
        # (both of which a depth-d reader rejects equally).
        self._bfs_state: Dict[Tuple[str, bytes], list] = {}
        self._lock = threading.Lock()

    def levels(
        self, chain_id: str, region: Iterable[int], depth_needed: int
    ) -> np.ndarray:
        """Per-state minimum steps into the region, labelled at least
        to ``depth_needed`` (reverse BFS, *resumable*).

        The BFS frontier is cached per ``(chain, region)`` and extended
        on demand: a one-shot query pays only its own horizon, while a
        sliding window whose horizon grows each tick extends the same
        labelling by one level per slid timestamp instead of re-running
        the search.  Each level costs one C-speed spmv (a state is a
        predecessor of the frontier iff the chain's sparse product
        against the frontier indicator is positive).  Keyed by chain
        *content* (fingerprint), so a pruner held across queries -- the
        engine keeps one per lifetime -- stays correct even when a
        chain id is re-registered with a new model.
        """
        chain = self.database.chain(chain_id)
        region = Region(region)
        key = (chain.fingerprint(), region.key)
        state = self._bfs_state.get(key)
        if state is not None and (
            state[1] >= depth_needed or not state[2].any()
        ):
            return state[0]  # already labelled far enough (lock-free)
        with self._lock:
            return reachability_levels(
                chain, region, depth_needed, self._bfs_state
            )

    def min_levels(
        self, chain_id: str, region: Iterable[int]
    ) -> np.ndarray:
        """Per-state minimum steps into ``region``, uncapped.

        The fully-extended labelling serves *every* horizon: a state
        can enter the region within ``h`` steps iff
        ``levels[state] <= h``.  Sliding-window monitoring re-issues
        the same region with a growing horizon every tick, so the
        uncapped labelling turns the per-tick reachability filter into
        an O(1) threshold comparison per object
        (see :mod:`repro.core.streaming`).  Unreachable states are
        labelled ``np.iinfo(np.int64).max``.
        """
        chain = self.database.chain(chain_id)
        return self.levels(chain_id, region, chain.n_states)

    def min_steps(
        self, obj: UncertainObject, region: Iterable[int]
    ) -> int:
        """Fewest transitions from ``obj``'s observation support into
        ``region`` (``np.iinfo(np.int64).max`` when unreachable).

        ``obj`` first intersects a window over ``region`` no earlier
        than ``obj.initial.time + min_steps``.  The per-object form of
        the threshold standing queries gather for whole cohorts
        (``block.min_over_support(min_levels(...))``).
        """
        levels = self.min_levels(obj.chain_id, region)
        states, _probs = obj.initial.distribution.sparse()
        return int(levels[states].min()) if len(states) else _UNREACHABLE

    def can_satisfy(
        self, obj: UncertainObject, window: SpatioTemporalWindow
    ) -> bool:
        """Whether ``obj`` has non-zero probability to intersect the window.

        An object observed at time ``t_obs`` can only be inside the region
        at a query time ``t`` if the region is reachable from its
        observation support in exactly ``t - t_obs`` steps; checking
        reachability *within* ``t_end - t_obs`` steps is a safe relaxation
        (it can only keep extra objects, never drop valid ones).
        """
        start = obj.initial
        horizon = window.t_end - start.time
        if horizon < 0:
            return False
        # the resumable labelling is shared per (chain, region): this
        # query only pays BFS levels beyond what previous (possibly
        # shorter-horizon) queries already explored
        levels = self.levels(obj.chain_id, window.region, horizon)
        return any(
            levels[state] <= horizon
            for state in start.distribution.support()
        )

    def candidates(
        self, window: SpatioTemporalWindow
    ) -> List[UncertainObject]:
        """Objects surviving the filter, in database order."""
        return [
            obj
            for obj in self.database
            if self.can_satisfy(obj, window)
        ]

    def pruned_fraction(self, window: SpatioTemporalWindow) -> float:
        """Fraction of database objects eliminated by the filter."""
        total = len(self.database)
        if total == 0:
            return 0.0
        kept = len(self.candidates(window))
        return 1.0 - kept / total


@dataclass
class GeometricPrefilter:
    """R-tree pre-filter using a per-step displacement bound.

    Args:
        database: the database to filter (its state space must provide
            positions).
        max_displacement: an upper bound on the geometric distance an
            object can travel in one transition.  For the paper's
            synthetic generator this is ``max_step / 2`` (an object in
            state ``s_i`` reaches at most ``s_{i +/- max_step/2}``);
            :meth:`~repro.database.uncertain_db.TrajectoryDatabase.chain_displacement_bound`
            derives the exact bound from any chain's transition
            structure.
        chain_id: restrict the index to objects of one chain.  Chains
            have different locality (different ``max_displacement``), so
            the query pipeline keeps one tree per chain group.
    """

    database: TrajectoryDatabase
    max_displacement: float
    chain_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_displacement < 0:
            raise ValidationError(
                f"max_displacement must be non-negative, "
                f"got {self.max_displacement}"
            )
        space = self.database.state_space
        if space is None:
            raise ValidationError(
                "geometric pre-filtering needs a state space with positions"
            )
        self._space = space
        # online mutations land in a linear overflow buffer (inserts)
        # and a tombstone set (deletions); the STR tree is re-packed
        # only when the buffer grows past _rebuild_threshold, so a
        # monitoring stream of appends costs O(buffer) per probe
        # instead of an O(n log n) bulk load per mutation
        self._extras: List[Tuple[Rect, str]] = []
        self._tombstones: Set[str] = set()
        self._tree = self._build_tree()

    def _location(self, state: int) -> Tuple[float, float]:
        location = self._space.location_of(state)
        if len(location) == 1:  # 1-D spaces embed on the x-axis
            return (float(location[0]), 0.0)
        return (float(location[0]), float(location[1]))

    def _build_tree(self) -> RTree:
        entries = []
        for obj in self.database:
            if (
                self.chain_id is not None
                and obj.chain_id != self.chain_id
            ):
                continue
            entries.append((self._object_rect(obj), obj.object_id))
        return RTree(entries)

    def _object_rect(self, obj: UncertainObject) -> Rect:
        states, _probs = obj.initial.distribution.sparse()
        rects = [
            Rect.point(*self._location(int(state))) for state in states
        ]
        return Rect.union_all(rects)

    @property
    def _rebuild_threshold(self) -> int:
        return max(32, len(self._tree) // 4)

    def insert_object(self, obj: UncertainObject) -> None:
        """Index a new (or re-anchored) object incrementally.

        The entry goes into the overflow buffer; the STR tree is only
        re-packed once the buffer exceeds a quarter of the tree (the
        point where linear buffer scans start rivalling tree descent).
        """
        if self.chain_id is not None and obj.chain_id != self.chain_id:
            return
        self._extras.append((self._object_rect(obj), obj.object_id))
        if (
            len(self._extras) + len(self._tombstones)
            > self._rebuild_threshold
        ):
            self.rebuild()

    def remove_object(self, object_id: str) -> None:
        """Drop an object from the index (tombstone until re-pack)."""
        self._extras = [
            entry for entry in self._extras if entry[1] != object_id
        ]
        self._tombstones.add(str(object_id))
        if (
            len(self._extras) + len(self._tombstones)
            > self._rebuild_threshold
        ):
            self.rebuild()  # removal-heavy streams must not accumulate

    def rebuild(self) -> None:
        """Re-pack the STR tree from the database and clear patches."""
        self._extras = []
        self._tombstones = set()
        self._tree = self._build_tree()

    def region_mbr(self, region: Iterable[int]) -> Rect:
        """MBR of the query region's state locations."""
        rects = [Rect.point(*self._location(state)) for state in region]
        if not rects:
            raise ValidationError("query region is empty")
        return Rect.union_all(rects)

    def candidate_ids(
        self, window: SpatioTemporalWindow, start_time: int = 0
    ) -> List[str]:
        """Object ids that *may* reach the window (superset guarantee).

        The query MBR is expanded by ``max_displacement x dt`` with
        ``dt = t_end - start_time``; any object whose observation MBR
        misses the expanded rectangle provably cannot intersect the window.
        """
        return self.probe(window, start_time)[0]

    def probe(
        self, window: SpatioTemporalWindow, start_time: int = 0
    ) -> Tuple[List[str], int]:
        """Like :meth:`candidate_ids`, plus the R-tree nodes visited.

        The visit count goes into the pipeline's EXPLAIN report.
        """
        dt = window.t_end - start_time
        if dt < 0:
            return [], 0
        probe = self.region_mbr(window.region).expand(
            self.max_displacement * dt
        )
        items, visited = self._tree.search_with_stats(probe)
        results = [
            str(item)
            for item in items
            if str(item) not in self._tombstones
        ]
        for rect, object_id in self._extras:
            if rect.intersects(probe):
                results.append(object_id)
        return results, visited

    def candidates(
        self, window: SpatioTemporalWindow, start_time: int = 0
    ) -> List[UncertainObject]:
        """Surviving objects (database order)."""
        surviving = set(self.candidate_ids(window, start_time))
        return [
            obj for obj in self.database if obj.object_id in surviving
        ]

"""Reachability-based object pruning.

Section V-C of the paper notes that object-based processing can skip
objects that cannot possibly reach the query region within the query
horizon (the ``S_reach`` argument), and sketches cluster-level pruning.
This module provides the corresponding filter step:

* :class:`ReachabilityPruner` -- exact pruning by breadth-first search on
  the chain's transition structure (an object survives the filter iff some
  state of the query region is reachable from its observation support
  within ``t_end - t_obs`` steps): one cached C traversal backwards
  from the region per ``(chain, region)``;
* :class:`GeometricPrefilter` -- a closed-form lower bound on the same
  labels for state spaces with positions (distance to the region over
  the chain's per-step displacement bound).  It only ever drops objects
  BFS drops too, so planning runs it only when a caller forces it.

Both labels feed :func:`reachable_rows` through :func:`earliest_times`
(which standing queries gather their thresholds with too), and both
filters are *safe*:
they never discard an object with non-zero result probability
(verified against brute force in the test suite).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import suppress
from typing import Iterable, List, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.core.distribution import SupportBlock
from repro.core.errors import ValidationError
from repro.core.query import Region, SpatioTemporalWindow
from repro.database.objects import UncertainObject
from repro.database.uncertain_db import TrajectoryDatabase

__all__ = [
    "ReachabilityPruner",
    "GeometricPrefilter",
    "earliest_times",
    "reachability_levels",
    "reachable_rows",
]

_UNREACHABLE = np.iinfo(np.int64).max
# labellings a label cache keeps, as many as the plan cache
_LABEL_CACHE_ENTRIES = 256


def reachability_levels(
    chain,
    region: Iterable[int],
    depth_needed: int,
    cache: "OrderedDict[Tuple[str, bytes], list]",
) -> np.ndarray:
    """Database-free resumable reverse-BFS labelling of one chain.

    Labels every state with the minimum number of transitions needed
    to enter ``region``, extended at least to ``depth_needed`` levels;
    unreachable (or not yet reached) states read
    ``np.iinfo(np.int64).max``.  A labelling is one C traversal from
    the region over the chain's
    :meth:`~repro.core.markov.MarkovChain.predecessor_graph`, capped
    at the depth.  A region of more than half the states (for-all's
    complement) is exhausted within a few levels, so it pulls instead:
    one sparse product per level.  Both give identical labels.

    ``cache`` is an LRU ``OrderedDict`` of at most
    ``_LABEL_CACHE_ENTRIES`` entries ``(chain fingerprint, region key)
    -> [levels, reached depth, exhausted]``, held across queries by the
    pruner and by shard workers.  A deeper request relabels to
    ``max(depth_needed, 2 * reached)`` writing only sentinel slots, so
    a label at or below the reached depth never changes.  Not
    thread-safe by itself; callers serialise access to ``cache`` (the
    pruner holds a lock, shard workers are single-threaded).
    """
    region = Region(region)
    key = (chain.fingerprint(), region.key)
    state = cache.get(key)
    if state is None:
        while len(cache) >= _LABEL_CACHE_ENTRIES:
            cache.popitem(last=False)
        levels = np.full(chain.n_states, _UNREACHABLE, dtype=np.int64)
        levels[region.array] = 0
        state = cache[key] = [levels, 0, False]
    else:
        cache.move_to_end(key)
    levels, depth, exhausted = state
    if depth >= depth_needed or exhausted:
        return levels
    target = max(int(depth_needed), 2 * depth)
    if 2 * len(region) <= chain.n_states:
        steps = dijkstra(
            chain.predecessor_graph(),
            indices=region.array,
            min_only=True,
            limit=target,
        )
        fresh = np.isfinite(steps) & (levels == _UNREACHABLE)
        levels[fresh] = steps[fresh]
        exhausted = not (steps == target).any()
    else:
        matrix = chain.matrix
        frontier = levels == depth
        for depth in range(depth + 1, target + 1):
            reached = matrix @ frontier.astype(np.float64)
            frontier = (reached > 0.0) & (levels == _UNREACHABLE)
            if not frontier.any():
                break
            levels[frontier] = depth
        exhausted = not frontier.any()
    # labels first: a lock-free reader trusts them once it sees the depth
    state[1], state[2] = target, exhausted
    return levels


def earliest_times(
    levels: np.ndarray, block: SupportBlock, start_times: np.ndarray
) -> np.ndarray:
    """The earliest time each row of ``block`` can be in the region:
    its start time plus the minimum of ``levels`` (steps into the
    region, per state) over its support.  A row whose support is all
    unreachable -- or not yet labelled -- keeps the sentinel
    ``np.iinfo(np.int64).max``; the start time is never added to it.
    """
    earliest = block.min_over_support(levels)
    return np.add(
        earliest, start_times, out=earliest, where=earliest < _UNREACHABLE
    )


def reachable_rows(
    fetch_levels,
    block: SupportBlock,
    start_times: np.ndarray,
    deadline: int,
) -> np.ndarray:
    """The Section V-C filter over a whole block of objects at once.

    Row ``i`` survives iff it can be in the region by ``deadline``
    (:func:`earliest_times` ``<= deadline``) -- the same test
    :meth:`ReachabilityPruner.can_satisfy` applies to one object with
    the window's ``t_end``.  ``fetch_levels(depth)`` supplies the
    labelling to at least ``depth`` levels; it is asked once, for the
    largest horizon in the block.  Returns the boolean keep-mask.
    """
    start_times = np.asarray(start_times, dtype=np.int64)
    if start_times.size == 0:
        return np.zeros(0, dtype=bool)
    levels = fetch_levels(max(0, int(deadline) - int(start_times.min())))
    return earliest_times(levels, block, start_times) <= deadline


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
        # resumable reverse-BFS state per (chain content, region), see
        # reachability_levels.  Extensions and evictions happen under
        # the lock (evicting pops, never iterates, so a reader's
        # move_to_end cannot break it); lock-free readers are safe
        # because a label <= d is final once the reached depth is >= d,
        # deeper labels only ever *replace* the unreachable sentinel
        # (both of which a depth-d reader rejects equally), and an
        # evicted entry stays a valid labelling.
        self._bfs_state: "OrderedDict[Tuple[str, bytes], list]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def levels(
        self, chain_id: str, region: Iterable[int], depth_needed: int
    ) -> np.ndarray:
        """Per-state minimum steps into the region, labelled at least
        to ``depth_needed`` (reverse BFS, *resumable*).

        The labelling (:func:`reachability_levels`) is cached per
        ``(chain, region)`` and extended on demand: a one-shot query
        pays only its own horizon, and a growing horizon relabels to
        at least twice the reached depth, so one sliding a step per
        tick pays a logarithmic number of traversals.  Keyed by chain
        *content* (fingerprint), so a pruner held across queries -- the
        engine keeps one per lifetime -- stays correct even when a
        chain id is re-registered with a new model.
        """
        chain = self.database.chain(chain_id)
        region = Region(region)
        key = (chain.fingerprint(), region.key)
        state = self._bfs_state.get(key)
        if state is not None and (
            state[1] >= depth_needed or state[2]
        ):
            with suppress(KeyError):  # evicted meanwhile: still valid
                self._bfs_state.move_to_end(key)
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
        (:func:`earliest_times` over ``min_levels(...)``).
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


class GeometricPrefilter:
    """Geometric lower bound on the transitions into a region.

    A chain whose every transition moves an object at most
    ``max_displacement`` (Euclidean) needs at least
    ``dist(state, region) / max_displacement`` steps to carry an object
    from ``state`` into the region; the distance to the region's
    bounding box never exceeds the distance to any region state, so
    :meth:`probe`'s per-state label ``floor(dist(state, bbox) /
    max_displacement)`` is a lower bound on the reverse-BFS label of
    :func:`reachability_levels`.  The ``floor`` keeps it a lower bound
    under rounding.  Filtering with it therefore never drops an object
    the exact BFS keeps -- nor, with BFS on, any object BFS would not
    drop anyway, which is why the planner never picks it on its own.

    Args:
        positions: ``(n_states, d)`` state coordinates
            (:meth:`~repro.database.uncertain_db.TrajectoryDatabase.state_positions`).
        max_displacement: an upper bound on the distance an object
            moves in one transition --
            :meth:`~repro.database.uncertain_db.TrajectoryDatabase.chain_displacement_bound`
            derives the exact one from a chain's transition structure.
    """

    def __init__(self, positions: np.ndarray, max_displacement: float) -> None:
        if positions is None:
            raise ValidationError(
                "geometric pre-filtering needs a state space with positions"
            )
        if max_displacement < 0:
            raise ValidationError(
                f"max_displacement must be non-negative, "
                f"got {max_displacement}"
            )
        self.positions = np.asarray(positions, dtype=float)
        self.max_displacement = float(max_displacement)

    def probe(
        self, region: Iterable[int], depth_needed: int = 0
    ) -> np.ndarray:
        """Per-state lower bound on the transitions into ``region``.

        ``int64`` labels, ``np.iinfo(np.int64).max`` for a state a
        zero-displacement chain cannot move into the region.  The
        label is closed-form and complete at every depth;
        ``depth_needed`` only matches the ``fetch_levels`` signature of
        :func:`reachable_rows`.
        """
        region = Region(region)
        if not len(region):
            raise ValidationError("query region is empty")
        corners = self.positions[region.array]
        gaps = np.maximum(
            np.maximum(corners.min(axis=0) - self.positions, 0.0),
            self.positions - corners.max(axis=0),
        )
        distance = np.sqrt((gaps * gaps).sum(axis=1))
        if self.max_displacement > 0.0:
            return np.floor(distance / self.max_displacement).astype(np.int64)
        return np.where(distance > 0.0, _UNREACHABLE, 0)

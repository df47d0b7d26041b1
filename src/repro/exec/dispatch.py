"""Process-pool dispatch over memory-mapped slab shards.

The batched kernels hold the GIL for every sparse product, so inside
one interpreter a query is capped at one core.  This module lifts that
cap with one worker, :func:`_evaluate_store_shards`: a pool process
memory-maps a worker slot's shards of a store's columnar slabs (shared
through the OS page cache, attached once per process and generation),
prefilters and BFS-prunes shard by shard, and runs the kernels once
over every survivor.  Only small task descriptions and results cross
the process boundary.

There is one scatter, :func:`run_store_shards`, and two ways into it:
a :class:`~repro.store.sharded.ShardedTrajectoryStore` scatters over
its own shards; an in-RAM database goes through
:func:`run_groups_in_processes`, which *spills* it
(:func:`publish_csr`) once per database version as a scratch store in
the same slab format -- in ``/dev/shm`` where that exists, the temp
dir otherwise.

**Fault tolerance.**  Tasks run under :func:`supervise` (cost-priced
deadlines, pool rebuild and resubmission with backoff, bounded
retries); a failed task is retried shard by shard, and a shard that
exhausts its retries is evaluated by the parent from the same slabs,
so the query still returns the exact answer.  Spills
are directories named ``repro-<session>-<pid>-<seq>``: the *janitor*
(:func:`sweep_orphans`, run on every pool build and by ``repro-bench
doctor``) removes those of dead sessions, :func:`memory_stats`
accounts for live bytes and :func:`shutdown` (also at exit) removes
this session's.
"""

from __future__ import annotations

import atexit
import itertools
import os
import shutil
import tempfile
import threading
import time as _time
import weakref
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace as _dc_replace
from multiprocessing import get_context
from typing import Dict, List, Optional, Sequence, Tuple
from uuid import uuid4

import numpy as np

from repro.core.errors import ExecutionError, TaskTimeoutError
from repro.core.errors import WorkerCrashError

__all__ = [
    "run_groups_in_processes",
    "run_store_shards",
    "prewarm",
    "shutdown",
    "publish_csr",
    "SegmentInfo",
    "list_segments",
    "sweep_orphans",
    "memory_stats",
]


# ----------------------------------------------------------------------
# the spill: in-RAM databases as scratch store generations
# ----------------------------------------------------------------------
# Every spill is a directory named ``repro-<session>-<pid>-<seq>``.
# The embedded PID is what makes leaks *attributable*: the janitor can
# tell a dead session's orphan from a live neighbour's working set and
# sweep only the former.
_SESSION_ID = uuid4().hex[:8]
_SPILL_COUNTER = itertools.count()
_SPILL_PREFIX = "repro-"
_SPILL_ROOT = (
    "/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir()
)


def publish_csr(
    database, root: str, generation: int, shards_per_chain: int
) -> Dict:
    """Publish ``database`` as slab generation ``generation`` of the
    scratch store at ``root``; returns the generation's manifest.

    The CSR payloads -- every chain's matrix and, per shard, the
    ``(probs, states, indptr)`` rows of its objects' observations --
    go out as slab files in the store format
    (:func:`~repro.store.sharded.write_generation`), so the pool
    workers memory-map them exactly like a sharded store's.
    """
    from repro.store.sharded import write_generation

    return write_generation(root, database, generation, shards_per_chain)


@dataclass
class _Spill:
    """One in-RAM database's scratch store.

    It is also the handle :func:`run_store_shards` scatters over: a
    worker needs only ``path``, ``generation``, the manifest's shard
    entries and the (always empty) exclusions, never an opened store.
    """

    path: str
    database: weakref.ref
    version: int = -1
    generation: int = 0
    manifest: Optional[Dict] = None
    leases: int = 0

    def store_shards(self, chain_id: str) -> List[Dict]:
        return [
            entry for entry in self.manifest["shards"]
            if entry["chain_id"] == chain_id
        ]

    def shard_exclusions(self) -> Dict[str, Tuple[str, ...]]:
        return {}  # a spill is the whole database: no overlay

    def current(self, database) -> bool:
        """Laid out at ``database``'s version and still on disk (a tmp
        cleaner may have swept it)."""
        return self.version == database.version and os.path.exists(
            os.path.join(self.path, "manifest.json")
        )

    def remove(self, generation: Optional[int] = None) -> None:
        """Delete an old generation (or, by default, the whole spill)
        and drop this process's attachments of it."""
        from repro.store.sharded import forget_generations, snapshot_dir

        if generation is None:
            forget_generations(self.path)
            shutil.rmtree(self.path, ignore_errors=True)
        else:
            forget_generations(self.path, keep=self.generation)
            shutil.rmtree(
                snapshot_dir(self.path, generation), ignore_errors=True
            )


class _SpillCache:
    """One scratch store per in-RAM database, re-laid per version.

    :meth:`lease` returns the database's spill at its current version,
    laying out generation + 1 when ``database.version`` moved or the
    manifest vanished.  A generation is removed only when no in-flight
    scatter holds a lease on it: a re-lay first waits for the current
    generation's leases to drain, so a worker never finds a manifest
    newer than its task.  Spills of collected databases are removed
    by the next lease.
    """

    def __init__(self) -> None:
        self._spills: Dict[int, _Spill] = {}
        self._cond = threading.Condition()

    def lease(self, database, shards_per_chain: int) -> _Spill:
        with self._cond:
            while True:
                self._purge()
                spill = self._spills.get(id(database))
                if spill is None or spill.database() is not database:
                    name = (
                        f"{_SPILL_PREFIX}{_SESSION_ID}-{os.getpid()}-"
                        f"{next(_SPILL_COUNTER)}"
                    )
                    spill = self._spills[id(database)] = _Spill(
                        os.path.join(_SPILL_ROOT, name),
                        weakref.ref(database),
                    )
                if spill.current(database) or not spill.leases:
                    break
                self._cond.wait()
            if not spill.current(database):
                version, previous = database.version, spill.generation
                spill.manifest = publish_csr(
                    database, spill.path, previous + 1, shards_per_chain
                )
                spill.version, spill.generation = version, previous + 1
                if previous:
                    spill.remove(previous)
            spill.leases += 1
            return spill

    def release(self, spill: _Spill) -> None:
        with self._cond:
            spill.leases -= 1
            self._cond.notify_all()

    def _purge(self) -> None:
        """Remove the spills of databases that no longer exist."""
        for key, spill in list(self._spills.items()):
            if spill.database() is None and not spill.leases:
                del self._spills[key]
                spill.remove()

    def live_bytes(self) -> int:
        """Bytes on disk held by this session's spills."""
        from repro.store.sharded import tree_bytes

        with self._cond:
            return sum(
                tree_bytes(spill.path) for spill in self._spills.values()
            )

    def clear(self) -> None:
        """Remove every spill, leased or not (shutdown)."""
        with self._cond:
            spills = list(self._spills.values())
            self._spills.clear()
            self._cond.notify_all()
        for spill in spills:
            spill.remove()


_SPILLS = _SpillCache()


# ----------------------------------------------------------------------
# the worker pool
# ----------------------------------------------------------------------
_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_WORKERS = 0
_EXECUTOR_ACTIVE = 0  # dispatch calls currently using the pool
_EXECUTOR_BROKEN = False  # poisoned by a crash/timeout; rebuild next
_POOL_LOCK = threading.Lock()


def _build_pool(max_workers: int) -> ProcessPoolExecutor:
    try:
        context = get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        context = get_context("spawn")
    # every pool build doubles as janitor duty: spills leaked by a
    # crashed earlier session are swept before this one adds its own
    try:
        sweep_orphans()
    except OSError:  # pragma: no cover - exotic permissions
        pass
    return ProcessPoolExecutor(
        max_workers=max_workers, mp_context=context
    )


def _acquire_executor(
    max_workers: int,
) -> Tuple[ProcessPoolExecutor, bool]:
    """A persistent fork-based pool, grown on demand, refcounted.

    The shared pool is only replaced (to grow, or once
    :func:`_invalidate_executor` marked it broken) while no other
    dispatch call is in flight; a caller that needs a pool while the
    shared one is broken *and* busy gets a private throwaway pool.
    Returns ``(executor, owned)`` for :func:`_release_executor`.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_ACTIVE
    global _EXECUTOR_BROKEN
    with _POOL_LOCK:
        needs_rebuild = (
            _EXECUTOR is None
            or _EXECUTOR_BROKEN
            or _EXECUTOR_WORKERS < max_workers
        )
        if needs_rebuild and _EXECUTOR_ACTIVE == 0:
            if _EXECUTOR is not None:
                # a broken pool may contain hung workers: never block
                # on them, just abandon and let SIGKILL/atexit reap
                _EXECUTOR.shutdown(
                    wait=not _EXECUTOR_BROKEN, cancel_futures=True
                )
            workers = max(max_workers, _EXECUTOR_WORKERS)
            _EXECUTOR = _build_pool(workers)
            _EXECUTOR_WORKERS = workers
            _EXECUTOR_BROKEN = False
        elif _EXECUTOR_BROKEN:
            # shared pool is poisoned but another dispatch call still
            # holds it: serve this caller from a private pool
            return _build_pool(max_workers), True
        _EXECUTOR_ACTIVE += 1
        return _EXECUTOR, False


def _release_executor(
    executor: Optional[ProcessPoolExecutor] = None,
    owned: bool = False,
) -> None:
    global _EXECUTOR_ACTIVE
    if owned:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        return
    with _POOL_LOCK:
        _EXECUTOR_ACTIVE -= 1


def _invalidate_executor(executor: ProcessPoolExecutor) -> None:
    """Mark the shared pool poisoned so the next acquire rebuilds it.

    Called by the supervisor after a crash or timeout.  If the caller
    was using a private (owned) pool this is a no-op for the shared
    state -- comparing identities keeps a stale invalidation from
    condemning a healthy replacement pool.
    """
    global _EXECUTOR_BROKEN
    with _POOL_LOCK:
        if executor is _EXECUTOR:
            _EXECUTOR_BROKEN = True


def prewarm(max_workers: int) -> None:
    """Build the persistent worker pool ahead of the first dispatch,
    so a long-lived caller pays the fork (and the janitor sweep)
    outside any latency-sensitive window.  No-op when a pool with at
    least ``max_workers`` workers is already up."""
    executor, owned = _acquire_executor(max_workers)
    _release_executor(executor, owned)


def shutdown() -> None:
    """Drain the worker pool and remove every spill of this session.

    Idempotent and safe after worker death: a broken pool is
    abandoned without waiting on workers that will never drain.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_BROKEN
    with _POOL_LOCK:
        executor, _EXECUTOR = _EXECUTOR, None
        broken, _EXECUTOR_BROKEN = _EXECUTOR_BROKEN, False
        _EXECUTOR_WORKERS = 0
    if executor is not None:
        try:
            executor.shutdown(wait=not broken, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
    _SPILLS.clear()


atexit.register(shutdown)


# ----------------------------------------------------------------------
# spill janitor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentInfo:
    """One ``repro-*`` spill directory found on this machine."""

    name: str
    pid: int
    size: int
    alive: bool  # does the owning process still exist?


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    return True


def list_segments(shm_dir: str = _SPILL_ROOT) -> List[SegmentInfo]:
    """Every ``repro-*`` spill directory under ``shm_dir``, with its
    size and owner liveness."""
    from repro.store.sharded import tree_bytes

    found: List[SegmentInfo] = []
    try:
        names = sorted(os.listdir(shm_dir))
    except (FileNotFoundError, NotADirectoryError):
        return found
    for name in names:
        path = os.path.join(shm_dir, name)
        if not name.startswith(_SPILL_PREFIX) or not os.path.isdir(path):
            continue
        try:
            pid = int(name.split("-")[2])
        except (IndexError, ValueError):
            continue  # not our naming scheme; leave it alone
        found.append(
            SegmentInfo(name, pid, tree_bytes(path), _pid_alive(pid))
        )
    return found


def sweep_orphans(shm_dir: str = _SPILL_ROOT) -> List[SegmentInfo]:
    """Remove ``repro-*`` spills whose owning process is dead.

    Runs on every pool build and from ``repro-bench doctor``.  Returns
    the spills that were reclaimed.
    """
    swept: List[SegmentInfo] = []
    for info in list_segments(shm_dir):
        if info.alive:
            continue
        try:
            shutil.rmtree(os.path.join(shm_dir, info.name))
        except FileNotFoundError:
            continue  # another janitor got there first
        swept.append(info)
    return swept


def memory_stats() -> Dict[str, int]:
    """Spill accounting for this session and the machine.

    Returns a dict with ``session_bytes`` (bytes of this session's
    live spills), ``machine_bytes`` (all ``repro-*`` spills on the
    host), ``orphan_bytes`` (subset owned by dead processes -- what
    :func:`sweep_orphans` would reclaim) and ``segments``
    (machine-wide spill count).
    """
    infos = list_segments()
    return {
        "session_bytes": _SPILLS.live_bytes(),
        "machine_bytes": sum(info.size for info in infos),
        "orphan_bytes": sum(i.size for i in infos if not i.alive),
        "segments": len(infos),
    }


# ----------------------------------------------------------------------
# the worker: one chain's shards over memory-mapped slabs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StoreTask:
    """One pool task: a query over shards of one chain of a store (or
    of an in-RAM database's spill), ``(shard id, excluded object ids)``
    each, which the worker memory-maps from ``store_dir`` /
    ``generation``.  ``attempt`` counts supervisor resubmissions, so a
    fault spec can fail an attempt and let the retry succeed."""

    store_dir: str
    generation: int
    chain_id: str
    kind: str  # "exists" | "ktimes"
    method: str  # qb | ob | mc (exists), ct | mc (ktimes)
    region: Tuple[int, ...]
    times: Tuple[int, ...]
    shards: Tuple[Tuple[str, Tuple[str, ...]], ...]
    use_prefilter: bool = True
    use_bfs: bool = True
    n_samples: Optional[int] = None
    seed_base: Optional[int] = None
    attempt: int = 0
    faults: Optional[object] = None

    @property
    def label(self) -> str:
        """How supervisor events name this task."""
        ids = [shard_id for shard_id, _exclude in self.shards]
        return f"store shard{'s' * (len(ids) > 1)} {', '.join(ids)}"

    def parts(self) -> List["_StoreTask"]:
        """The task as one task per shard: how it is retried."""
        return [_dc_replace(self, shards=(shard,)) for shard in self.shards]


# worker-local caches, populated lazily after the fork: the plan cache
# the kernels build their matrices through, and the resumable
# reverse-BFS labellings keyed by (chain fingerprint, region) -- the
# shard-local analogue of the parent pruner's cache, bounded the same
# way (see reachability_levels)
_WORKER_CACHE = None
_STORE_BFS: "OrderedDict[tuple, list]" = OrderedDict()


def _worker_cache():
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        from repro.core.plan_cache import PlanCache

        _WORKER_CACHE = PlanCache()
    return _WORKER_CACHE


def _evaluate_store_shards(task: _StoreTask):
    """Prefilter and BFS-prune each shard of ``task`` in place, then
    evaluate every survivor in one kernel call.

    Returns ``(chain_id, values, timings, elapsed, fresh, stats)``:
    exact answers per object id (filtered objects get the zero
    element), how many shards this call had to map (0 on every warm
    call), and the summed filter-stage counts.  The filter stages are
    the parent's own (:data:`~repro.exec.operators.PREFILTER` over the
    store's positions, :data:`~repro.exec.operators.BFS_PRUNE` over
    worker-local labels); the survivors sweep as one stack grouped by
    shard, so each shard densifies on its own fill.
    """
    from functools import partial, reduce

    from repro.core.batch import collapse_posteriors, evaluate_rows
    from repro.core.distribution import SupportBlock
    from repro.core.query import SpatioTemporalWindow
    from repro.database.pruning import (
        GeometricPrefilter,
        reachability_levels,
    )
    from repro.exec.operators import BFS_PRUNE, PREFILTER, ExecutionContext
    from repro.store.sharded import (
        attach_shard,
        open_store_chain,
        store_positions,
    )

    started = _time.perf_counter()
    chain = open_store_chain(task.store_dir, task.chain_id, task.generation)
    window = SpatioTemporalWindow(
        frozenset(task.region), frozenset(task.times)
    )
    cache = _worker_cache()
    context = ExecutionContext(faults=task.faults)
    # exact reverse-BFS reachability, resumable per (chain, region)
    # across queries exactly like the parent pruner
    levels = partial(
        reachability_levels, chain, window.region, cache=_STORE_BFS
    )
    positions = store_positions(task.store_dir) if task.use_prefilter else None
    stats = {"entering": 0, "prefilter_pruned": 0, "bfs_pruned": 0}
    values: Dict[str, object] = {}
    views, survivors, ids, fresh = [], [], [], 0
    for shard_id, exclude in task.shards:
        if task.faults is not None:
            task.faults.fire(
                "worker:store-shard",
                shard_id=shard_id,
                attempt=task.attempt,
                pid=os.getpid(),
            )
        view, attached = attach_shard(
            task.store_dir, task.generation, shard_id
        )
        fresh += bool(attached)
        object_ids = np.asarray(view.object_ids, dtype=object)
        candidates = np.arange(view.n_objects(), dtype=np.int64)
        if exclude:
            candidates = candidates[~np.isin(object_ids, list(exclude))]
        stats["entering"] += len(candidates)
        # the forced geometric prefilter, then the BFS prune: the
        # parent's own stages; a dropped object gets the zero element
        stages = []
        if positions is not None:
            probe = GeometricPrefilter(positions, view.displacement_bound)
            stages.append((
                "prefilter_pruned", PREFILTER,
                partial(probe.probe, window.region),
            ))
        if task.use_bfs:
            stages.append(("bfs_pruned", BFS_PRUNE, levels))
        for key, stage, probe in stages:
            if not candidates.size:
                break
            keep = stage(
                (probe, view.block(candidates), view.start_time[candidates],
                 window.t_end),
                region=window.region,
                context=context,
            )
            dropped = candidates[~keep]
            if task.kind == "ktimes":
                zeros = np.zeros(
                    (len(dropped), window.duration + 1), dtype=float
                )
                zeros[:, 0] = 1.0
            else:
                zeros = itertools.repeat(0.0)
            values.update(zip(object_ids[dropped].tolist(), zeros))
            stats[key] += len(dropped)
            candidates = candidates[keep]
        views.append(view)
        survivors.append(candidates)
        ids.append(object_ids[candidates])

    # the exact same kernels the serial pipeline runs, once over every
    # shard's survivors, end to end and grouped by shard
    group = np.repeat(np.arange(len(views)), [len(c) for c in survivors])
    local = np.concatenate(survivors)

    def column(name: str) -> np.ndarray:
        return np.concatenate([
            getattr(view, name)[candidates]
            for view, candidates in zip(views, survivors)
        ])

    def observation_sets(rows: np.ndarray) -> list:
        return [
            views[group[row]].observation_sets(local[row:row + 1])[0]
            for row in rows
        ]

    if local.size:
        initials = reduce(SupportBlock.concat, (
            view.block(candidates)
            for view, candidates in zip(views, survivors)
        ))
        seeds = None
        if task.method == "mc" and task.seed_base is not None:
            seeds = (int(task.seed_base) + column("obj_dbindex")).tolist()
        answers = evaluate_rows(
            chain,
            window,
            task.kind,
            task.method,
            np.arange(local.size),
            block=initials.take,
            start_time=column("start_time"),
            last_time=column("last_time"),
            is_multi=column("is_multi"),
            observation_sets=observation_sets,
            # slabs are immutable: collapse the few re-sighted rows here
            posteriors=lambda subset, _last: collapse_posteriors(
                chain, observation_sets(subset), context
            ),
            n_samples=task.n_samples,
            seeds=seeds,
            plan_cache=cache,
            context=context,
            levels=levels,
            groups=group,
        )
        values.update(zip(
            np.concatenate(ids).tolist(),
            answers if task.kind == "ktimes" else answers.tolist(),
        ))
    return (
        task.chain_id,
        values,
        context.serializable_timings(),
        _time.perf_counter() - started,
        fresh,
        stats,
    )


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
def supervise(
    tasks: Sequence,
    worker_fn,
    *,
    max_workers: int,
    policy,
    deadline: float,
    context=None,
    faults=None,
    exhausted,
    split=None,
) -> list:
    """Run ``worker_fn(task)`` for every task on the worker pool and
    survive what the pool does meanwhile; results in task order.

    Every attempt has ``deadline`` seconds.  A worker crash
    (``BrokenProcessPool``) or an overrun rebuilds the pool and
    resubmits every unfinished task with exponential backoff; only the
    culprits' attempt counters advance.  An
    :class:`~repro.core.errors.ExecutionError` from a worker on a
    healthy pool retries that task alone; any other exception passes
    through.  A pool that breaks mid-scatter is replaced at most
    ``policy.max_retries + 2`` times per call.  A task that used up
    ``policy.max_retries`` (or every unfinished task, once the
    replacements ran out) gets ``exhausted(index, task, error_type,
    reason)``'s result in the worker's place.  ``faults`` fires
    ``dispatch:submit`` (info ``index``, ``attempt``, ``label``) in
    the parent before each submission.  A task whose ``split(task)``
    has several parts is never retried whole: they replace it, the
    failed attempt counted, their results appended (its own is None).
    """
    tasks = list(tasks)
    attempts = [0] * len(tasks)
    results: Dict[int, object] = {}
    # future -> (task index, submission time)
    inflight: Dict[object, Tuple[int, float]] = {}
    replacements = policy.max_retries + 2
    executor, owned = _acquire_executor(max_workers)

    def _record(message: str) -> None:
        if context is not None:
            context.record_event(message)

    def _unfinished() -> set:
        return {index for index, _since in inflight.values()}

    def _give_up(indices, error_type, reason: str) -> None:
        # `inflight` is left alone while `exhausted` runs: if it
        # raises, the drain below still waits for those futures
        for index in indices:
            task = _dc_replace(tasks[index], attempt=attempts[index])
            results[index] = exhausted(index, task, error_type, reason)

    def _fail(indices, error_type, reason: str) -> List[int]:
        """Count a failed attempt; returns the indices to run again."""
        again = []
        for index in indices:
            attempts[index] += 1
            parts = split(tasks[index]) if split is not None else ()
            if len(parts) < 2:
                again.append(index)
                continue
            results[index] = None
            again.extend(range(len(tasks), len(tasks) + len(parts)))
            tasks.extend(parts)
            attempts.extend([attempts[index]] * len(parts))
        _give_up(
            [i for i in again if attempts[i] > policy.max_retries],
            error_type,
            reason,
        )
        return [i for i in again if i not in results]

    def _abandon_inflight() -> None:
        for future in inflight:
            future.cancel()
        inflight.clear()

    def _replace_pool() -> None:
        nonlocal executor, owned
        _abandon_inflight()  # the caller resubmits their tasks
        _release_executor(executor, owned)
        executor, owned = _acquire_executor(max_workers)

    def _backoff(attempt: int) -> None:
        if policy.backoff_seconds > 0 and attempt > 0:
            _time.sleep(
                policy.backoff_seconds * (2 ** (attempt - 1))
            )

    def _submit(indices) -> None:
        nonlocal replacements
        queue = sorted(indices)
        while queue:
            index = queue[0]
            task = _dc_replace(tasks[index], attempt=attempts[index])
            try:
                if faults is not None:
                    faults.fire(
                        "dispatch:submit",
                        index=index,
                        attempt=task.attempt,
                        label=task.label,
                    )
                future = executor.submit(worker_fn, task)
            except BrokenProcessPool:
                # a worker died while we were still scattering: the
                # pool takes no new submissions and every future
                # already on it is doomed, so they move with the rest
                _invalidate_executor(executor)
                queue = sorted(set(queue) | _unfinished())
                if not replacements:
                    _give_up(
                        queue,
                        WorkerCrashError,
                        f"worker pool broke {policy.max_retries + 2} "
                        f"times during scatter",
                    )
                    _abandon_inflight()
                    return
                replacements -= 1
                _replace_pool()
                _record(
                    "worker pool replaced mid-submit "
                    "(worker crash during scatter)"
                )
                continue
            inflight[future] = (queue.pop(0), _time.monotonic())

    def _rebuild_pool(culprits: List[int], error_type, reason: str) -> None:
        """Replace the poisoned pool; resubmit every unfinished task."""
        # culprits reported through a completed future (worker crash)
        # are already popped from `inflight`; expired ones are still
        # in it -- the difference covers both paths
        pending = _unfinished() - set(culprits)
        _invalidate_executor(executor)
        pending |= set(_fail(culprits, error_type, reason))
        _replace_pool()
        _record(
            f"worker pool rebuilt ({reason}); resubmitted "
            f"{len(pending)} task(s)"
        )
        _backoff(max(attempts[index] for index in culprits))
        _submit(pending)

    try:
        _submit(range(len(tasks)))
        while inflight:
            expiry = deadline + min(
                since for _index, since in inflight.values()
            )
            done, _running = _wait_futures(
                list(inflight),
                timeout=max(0.0, expiry - _time.monotonic()),
                return_when=FIRST_COMPLETED,
            )
            crashed: List[int] = []
            retried: List[List[int]] = []
            for future in done:
                index, _since = inflight.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    crashed.append(index)
                except ExecutionError as error:
                    # injected / transient worker-side failure with a
                    # healthy pool: retry just this task
                    again = _fail([index], WorkerCrashError, str(error))
                    if not again:
                        continue
                    _record(
                        f"{tasks[index].label} retried after worker "
                        f"fault (attempt {attempts[index]}): {error}"
                    )
                    retried.append(again)
            if crashed:
                # the pool is poisoned: every unfinished future is
                # doomed, so rebuild once and resubmit them all; the
                # crashed tasks are the culprits
                _rebuild_pool(crashed, WorkerCrashError, "worker crash")
            for again in retried:
                # after any rebuild, so the retry lands on a live pool
                _backoff(attempts[again[0]])
                _submit(again)
            if crashed:
                continue
            now = _time.monotonic()
            expired = sorted(
                index
                for index, since in inflight.values()
                if now - since >= deadline
            )
            if expired:
                _rebuild_pool(
                    expired,
                    TaskTimeoutError,
                    f"deadline of {deadline:.3g}s exceeded",
                )
        return [results[index] for index in range(len(tasks))]
    finally:
        # on an early exception, queued tasks are cancelled and running
        # ones drained *before* the caller releases what they read (a
        # worker must never observe a spill removed mid-query).  The
        # drain is bounded: a hung worker's future is abandoned rather
        # than stalling the caller forever (its mappings stay valid
        # after the files go; it reports to a dead pipe)
        leftovers = list(inflight)
        for future in leftovers:
            future.cancel()
        _wait_futures(leftovers, timeout=5.0)
        _release_executor(executor, owned)


# ----------------------------------------------------------------------
# parent-side entry points
# ----------------------------------------------------------------------
def run_groups_in_processes(
    database,
    groups: Sequence[Tuple[str, str]],
    window,
    kind: str,
    *,
    max_workers: int,
    **options,
) -> Tuple[Dict[str, object], Dict[str, float], Dict[str, int]]:
    """Scatter a query over an in-RAM database's spill.

    Leases the database's scratch store at its current version -- the
    first lease of a version lays it out with :func:`publish_csr`,
    ``max_workers`` shards per chain -- runs :func:`run_store_shards`
    over it and releases the lease.  Arguments and result are those of
    :func:`run_store_shards`.
    """
    spill = _SPILLS.lease(database, max_workers)
    try:
        return run_store_shards(
            spill, groups, window, kind,
            max_workers=max_workers, **options,
        )
    finally:
        _SPILLS.release(spill)


def run_store_shards(
    store,
    groups: Sequence[Tuple[str, str]],
    window,
    kind: str,
    *,
    max_workers: int,
    use_prefilter: bool = True,
    use_bfs: bool = True,
    n_samples: Optional[int] = None,
    seed_base: Optional[int] = None,
    context=None,
    policy=None,
    predicted_seconds: Optional[float] = None,
    faults=None,
) -> Tuple[Dict[str, object], Dict[str, float], Dict[str, int]]:
    """Scatter a query over the slab shards of a store.

    Each chain's shards are dealt round-robin into at most
    ``max_workers`` tasks, which run :func:`_evaluate_store_shards`
    under :func:`supervise`; a failed task is retried one shard per
    task, and a shard that exhausts its retries *degrades shard ->
    parent*: the parent evaluates it from the same slabs, so the query
    always completes exactly.

    Args:
        store: a :class:`~repro.store.sharded.ShardedTrajectoryStore`,
            or a spill (anything with ``path`` / ``generation`` /
            ``store_shards`` / ``shard_exclusions``).
        groups: ``(chain_id, method)`` per chain group.
        window / kind: the evaluated window; ``"exists"`` or
            ``"ktimes"``.
        max_workers: pool size.
        use_prefilter / use_bfs: mirror the plan's filter toggles.
        n_samples / seed_base: Monte Carlo parameters; per-object
            seeds are ``seed_base`` plus the object's stable store
            index, as in the parent.
        context: parent execution context receiving merged timings
            and recovery events.
        policy / predicted_seconds: the
            :class:`~repro.core.planner.SupervisorPolicy` (defaults
            when ``None``) and the cost-model estimate that prices the
            per-attempt deadline.
        faults: optional :class:`~repro.exec.faults.FaultInjector`
            for ``worker:store-shard`` and ``dispatch:submit``.

    Returns:
        ``(values, chain_seconds, stats)``: exact answers for every
        slab object of the queried chains not excluded by the store's
        overlay, summed worker seconds per chain id, and the counts
        ``pool_tasks`` (tasks scattered, retries aside) and, per
        shard, ``shards``, ``fresh_attaches``, ``entering``,
        ``prefilter_pruned``, ``bfs_pruned``, ``parent_fallbacks``.
    """
    if policy is None:
        from repro.core.planner import SupervisorPolicy

        policy = SupervisorPolicy()
    exclusions = store.shard_exclusions()
    region = tuple(sorted(window.region))
    times = tuple(sorted(window.times))
    tasks: List[_StoreTask] = []
    for chain_id, method in groups:
        shards = []
        for entry in store.store_shards(chain_id):
            shard_id = str(entry["shard_id"])
            excluded = tuple(exclusions.get(shard_id, ()))
            # skip a shard with no object the overlay leaves it
            if len(excluded) < int(entry.get("n_objects") or 0):
                shards.append((shard_id, excluded))
        slots = min(max_workers, len(shards))
        tasks.extend(
            _StoreTask(
                store_dir=str(store.path),
                generation=int(store.generation),
                chain_id=str(chain_id),
                kind=kind,
                method=method,
                region=region,
                times=times,
                shards=tuple(shards[slot::slots]),
                use_prefilter=use_prefilter,
                use_bfs=use_bfs,
                n_samples=n_samples,
                seed_base=seed_base,
                faults=faults,
            )
            for slot in range(slots)
        )

    values: Dict[str, object] = {}
    chain_seconds: Dict[str, float] = {
        chain_id: 0.0 for chain_id, _method in groups
    }
    stats = {
        "pool_tasks": len(tasks),
        "shards": sum(len(task.shards) for task in tasks),
        "fresh_attaches": 0,
        "entering": 0,
        "prefilter_pruned": 0,
        "bfs_pruned": 0,
        "parent_fallbacks": 0,
    }
    if not tasks:
        return values, chain_seconds, stats

    def _exhausted(index, task, error_type, reason):
        """Degrade an exhausted task's shards to in-parent evaluation.

        The parent maps the same slabs the worker would have, so the
        answers are identical -- availability degrades (the shards run
        serially) but exactness never does.
        """
        result = _evaluate_store_shards(_dc_replace(task, faults=None))
        for shard in task.parts():
            stats["parent_fallbacks"] += 1
            if context is not None:
                context.record_event(
                    f"{shard.label} degraded to parent after {reason}"
                )
        return result

    results = supervise(
        tasks,
        _evaluate_store_shards,
        max_workers=max_workers,
        policy=policy,
        deadline=policy.deadline(predicted_seconds or 0.0),
        context=context,
        faults=faults,
        exhausted=_exhausted,
        split=_StoreTask.parts,
    )
    for result in filter(None, results):
        chain_id, task_values, timings, elapsed, fresh, task_stats = result
        values.update(task_values)
        chain_seconds[chain_id] += elapsed
        stats["fresh_attaches"] += fresh
        for key in ("entering", "prefilter_pruned", "bfs_pruned"):
            stats[key] += task_stats[key]
        if context is not None:
            context.merge(timings)
    return values, chain_seconds, stats

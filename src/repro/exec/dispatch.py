"""Process-pool dispatch with shared-memory matrices.

The batched kernels hold the GIL for the duration of every sparse
product, so inside one interpreter a query is capped at one core,
however many chain groups it has.  This module
lifts that cap: chain groups **and within-chain object shards** run
across a pool of worker processes, and the large arrays they need --
the chain CSR, the augmented absorbing matrices (plus their cached
transposes), and the stacked initial state vectors -- are published
*once* into :mod:`multiprocessing.shared_memory` segments.  Workers
rebuild ``scipy.sparse`` matrices as zero-copy views over those
segments (no pickling of matrix payloads ever happens) and adopt them
into a worker-local :class:`~repro.core.plan_cache.PlanCache` keyed by
the chain's *content fingerprint*, so cache hits are
address-space-independent and repeated queries pay publication and
rehydration once per worker, not once per task.

Only small task descriptions (segment names, shapes, row ranges, the
window) and small results (per-shard probability arrays, operator
timings) cross the process boundary.

The public surface is :func:`run_groups_in_processes`, called by
:class:`~repro.core.pipeline.QueryPipeline` when the planner (or
``PlanOptions.dispatch="process"``) selects process dispatch, and
:func:`shutdown`, which drains the pool and unlinks every published
segment (also registered via :mod:`atexit`).

**Fault tolerance.**  Both scatter paths run their tasks under the
one :func:`supervise` loop (cost-priced deadlines, pool rebuild and
resubmission with backoff after a worker crash or a hang, bounded
retries); what a task that exhausts them becomes is the caller's
``exhausted`` hook -- typed errors here, which the pipeline catches to
degrade process -> serial, in-parent evaluation for store
shards.  Either way the query still returns the exact answer.  Every
published segment is named ``repro-<session>-<pid>-<seq>`` so the
startup *janitor* (:func:`sweep_orphans`, run on every pool build and
by ``repro-bench doctor``) can identify and unlink segments leaked by
crashed sessions, and :func:`memory_stats` accounts for this session's
live bytes.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
import time as _time
import zlib
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _wait_futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace as _dc_replace
from multiprocessing import get_context, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple
from uuid import uuid4

import numpy as np

from repro.core.distribution import SupportBlock
from repro.core.errors import (
    BackendError,
    ExecutionError,
    SegmentLostError,
    TaskTimeoutError,
    WorkerCrashError,
)

try:  # process dispatch needs the scipy backend's CSR layout
    import scipy.sparse as _sp
except ImportError:  # pragma: no cover - exercised only without scipy
    _sp = None

__all__ = [
    "process_dispatch_available",
    "run_groups_in_processes",
    "run_store_shards",
    "prewarm",
    "shutdown",
    "publish_csr",
    "attach_csr",
    "SharedCSR",
    "SegmentInfo",
    "list_segments",
    "sweep_orphans",
    "memory_stats",
]


def process_dispatch_available(backend: Optional[str] = None) -> bool:
    """Whether the shared-memory process path can serve an engine on
    ``backend``: it publishes scipy CSR matrices, so it needs scipy and
    a scipy engine."""
    return _sp is not None and backend in (None, "scipy")


# ----------------------------------------------------------------------
# shared-memory publication / attachment
# ----------------------------------------------------------------------
#: (segment name, shape, dtype string) -- everything needed to attach.
ArrayMeta = Tuple[str, Tuple[int, ...], str]

# Every segment this session publishes is named
# ``repro-<session>-<pid>-<seq>`` (short enough for macOS's 31-char
# PSHM limit).  The embedded PID is what makes leaks *attributable*:
# the janitor can tell a dead session's orphan from a live neighbour's
# working set and sweep only the former.
_SESSION_ID = uuid4().hex[:8]
_SEGMENT_COUNTER = itertools.count()
_SEGMENT_PREFIX = "repro-"
_SHM_DIR = "/dev/shm"


def _segment_name() -> str:
    return (
        f"{_SEGMENT_PREFIX}{_SESSION_ID}-{os.getpid()}-"
        f"{next(_SEGMENT_COUNTER)}"
    )


@dataclass(frozen=True)
class SharedCSR:
    """The metadata of one CSR matrix published to shared memory.

    ``checksum`` is the CRC-32 of the three payload buffers at
    publication time; workers re-verify it on attach when the
    supervisor policy asks (``verify_segments``), so a corrupted
    segment fails loudly as
    :class:`~repro.core.errors.SegmentLostError` instead of silently
    producing wrong probabilities.
    """

    data: ArrayMeta
    indices: ArrayMeta
    indptr: ArrayMeta
    shape: Tuple[int, int]
    checksum: Optional[int] = None


def _publish_array(
    array: np.ndarray, segments: List[shared_memory.SharedMemory]
) -> ArrayMeta:
    array = np.ascontiguousarray(array)
    while True:
        try:
            segment = shared_memory.SharedMemory(
                name=_segment_name(),
                create=True,
                size=max(1, array.nbytes),
            )
            break
        except FileExistsError:  # pragma: no cover - counter collision
            continue
    segments.append(segment)
    view = np.ndarray(
        array.shape, dtype=array.dtype, buffer=segment.buf
    )
    view[...] = array
    return (segment.name, array.shape, array.dtype.str)


def _attach_array(meta: ArrayMeta) -> np.ndarray:
    name, shape, dtype = meta
    segment = _attached_segment(name)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)


def _csr_checksum(arrays: Sequence[np.ndarray]) -> int:
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array), crc)
    return crc


def publish_csr(
    matrix, segments: List[shared_memory.SharedMemory]
) -> SharedCSR:
    """Publish one ``scipy.sparse.csr_matrix`` into shared memory.

    The three CSR arrays become one segment each; ``segments``
    collects the handles so the owner can unlink them later.  The
    returned handle carries a payload checksum for optional
    verification on attach.
    """
    if _sp is None or not _sp.issparse(matrix):
        raise BackendError(
            "process dispatch requires the scipy backend"
        )
    csr = matrix.tocsr()
    return SharedCSR(
        data=_publish_array(csr.data, segments),
        indices=_publish_array(csr.indices, segments),
        indptr=_publish_array(csr.indptr, segments),
        shape=tuple(csr.shape),
        checksum=_csr_checksum((csr.data, csr.indices, csr.indptr)),
    )


def attach_csr(handle: SharedCSR, verify: bool = False):
    """Rebuild a CSR matrix as zero-copy views over shared memory.

    The returned matrix shares its buffers with every other process
    attached to the same segments; consumers must treat it as
    immutable (the plan cache's artefacts already are).  With
    ``verify=True`` the payload is re-checksummed against the
    publication checksum and a mismatch raises
    :class:`~repro.core.errors.SegmentLostError`.
    """
    arrays = (
        _attach_array(handle.data),
        _attach_array(handle.indices),
        _attach_array(handle.indptr),
    )
    if verify and handle.checksum is not None:
        observed = _csr_checksum(arrays)
        if observed != handle.checksum:
            raise SegmentLostError(
                f"segment {handle.data[0]} failed checksum "
                f"verification (published {handle.checksum:#010x}, "
                f"observed {observed:#010x}); the publisher's pages "
                f"were corrupted or re-used"
            )
    matrix = _sp.csr_matrix(
        arrays,
        shape=handle.shape,
        copy=False,
    )
    return matrix


# worker-side segment registry for the *cached* artefacts (chains,
# absorbing matrices): attach each segment once per process and keep
# it alive while views point into it.  Per-query segments (the
# stacked initials) must NOT go through here -- they are attached
# transiently by _read_shard_rows and closed immediately, or every
# query would pin pages the parent already unlinked.  The registry is
# bounded: past the cap the oldest segments are closed, except those
# whose pages live views still reference (closing raises BufferError
# -- exactly the ones the worker PlanCache still serves).
_SEGMENTS: "OrderedDict[str, shared_memory.SharedMemory]" = (
    OrderedDict()
)
_SEGMENTS_CAP = 128
_SEGMENTS_LOCK = threading.Lock()


def _attached_segment(name: str) -> shared_memory.SharedMemory:
    with _SEGMENTS_LOCK:
        segment = _SEGMENTS.get(name)
        if segment is not None:
            _SEGMENTS.move_to_end(name)
            return segment
        # Attaching registers the name with the resource tracker a
        # second time; with fork every process shares the parent's
        # tracker, where registration is idempotent and the parent's
        # unlink() unregisters exactly once -- so no extra
        # bookkeeping is needed (or safe) here.
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as exc:
            # the publisher unlinked (or a janitor swept) the segment
            # between task submission and attach; the supervisor
            # republishes and retries on this specific error
            raise SegmentLostError(
                f"shared-memory segment {name!r} vanished before "
                f"attach"
            ) from exc
        _SEGMENTS[name] = segment
        overflow = len(_SEGMENTS) - _SEGMENTS_CAP
        while overflow > 0:
            stale_name, stale = _SEGMENTS.popitem(last=False)
            overflow -= 1
            try:
                stale.close()
            except BufferError:
                # live views (cached matrices) still use it: keep it
                # and treat it as recently used so the next overflow
                # pass tries genuinely stale segments first
                _SEGMENTS[stale_name] = stale
    return segment


# ----------------------------------------------------------------------
# parent-side publication cache + worker pool
# ----------------------------------------------------------------------
#: LRU bound on cached published artefacts (chains; absorbing matrix
#: quadruples).  Beyond it the least recently used entry's segments
#: are unlinked -- but only while no query is in flight, so a task's
#: handles can never name a vanished segment.
_PUBLISH_CACHE_SIZE = 16


def _unlink_segments(
    segments: List[shared_memory.SharedMemory],
) -> None:
    for segment in segments:
        try:
            segment.close()
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass


class _Publisher:
    """Owns every published segment; publishes each artefact once.

    Three caches -- chains by fingerprint, absorbing-matrix quadruples
    by ``(fingerprint, region)``, per-chain Monte-Carlo CDF
    tables -- so a monitoring workload re-issuing windows over the
    same chains publishes once per artefact, not once per query.  The
    caches are LRU-bounded (unlike an address-space cache, stale
    entries hold real ``/dev/shm`` pages): every in-flight dispatch
    call *pins* the entries its task handles name (a lease of keys),
    and :meth:`release` unlinks unpinned LRU overflow -- so eviction
    keeps up even under sustained query overlap, and a worker can
    never be handed a name whose segment vanished.
    """

    def __init__(self, maxsize: int = _PUBLISH_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        # kind -> {key: (handles, segments)}
        self._caches: Dict[str, OrderedDict] = {
            kind: OrderedDict()
            for kind in ("chain", "absorbing", "tables")
        }
        self._pins: Dict[tuple, int] = {}
        self._lock = threading.Lock()

    def acquire(self) -> list:
        """A fresh lease; every key handed out against it is pinned."""
        return []

    def release(self, lease: list) -> None:
        """Unpin a lease's keys and drop unpinned LRU overflow."""
        with self._lock:
            for key in lease:
                count = self._pins.get(key, 0) - 1
                if count > 0:
                    self._pins[key] = count
                else:
                    self._pins.pop(key, None)
            lease.clear()
            for kind, cache in self._caches.items():
                while len(cache) > self.maxsize:
                    victim = next(
                        (
                            key for key in cache
                            if self._pins.get((kind, key), 0) == 0
                        ),
                        None,
                    )
                    if victim is None:  # everything live is in flight
                        break
                    _handles, segments = cache.pop(victim)
                    _unlink_segments(segments)

    def _entry(self, kind: str, key, publish, lease: Optional[list]):
        """The handles cached under ``key``, publishing on a miss:
        ``publish(segments)`` returns them and appends what it
        created.  Pinned against ``lease``."""
        cache = self._caches[kind]
        with self._lock:
            entry = cache.get(key)
            if entry is None:
                segments: list = []
                entry = cache[key] = (publish(segments), segments)
            cache.move_to_end(key)
            if lease is not None:
                self._pins[kind, key] = self._pins.get((kind, key), 0) + 1
                lease.append((kind, key))
        return entry[0]

    def chain(
        self, chain, lease: Optional[list] = None
    ) -> Tuple[str, SharedCSR]:
        fingerprint = chain.fingerprint()
        return fingerprint, self._entry(
            "chain",
            fingerprint,
            lambda segments: publish_csr(chain.matrix, segments),
            lease,
        )

    def absorbing(
        self, chain, matrices, lease: Optional[list] = None,
    ) -> Tuple[SharedCSR, SharedCSR, SharedCSR, SharedCSR]:
        """Publish ``(M_minus, M_plus, M_minus^T, M_plus^T)`` once."""

        def publish(segments: list) -> tuple:
            return tuple(
                publish_csr(matrix, segments)
                for matrix in (
                    matrices.m_minus,
                    matrices.m_plus,
                    *matrices.transposed(),
                )
            )

        return self._entry(
            "absorbing",
            (chain.fingerprint(), matrices.region),
            publish,
            lease,
        )

    def stack(self, csr) -> Tuple[SharedCSR, List[shared_memory.SharedMemory]]:
        """Publish a per-query stacked-vector CSR (caller unlinks)."""
        segments: List[shared_memory.SharedMemory] = []
        return publish_csr(csr, segments), segments

    def mc_tables(
        self, chain, lease: Optional[list] = None
    ) -> Optional[Tuple[ArrayMeta, ArrayMeta]]:
        """Publish the chain's Monte-Carlo CDF tables once.

        Returns the ``(cdf, targets)`` segment metadata, or None for
        chains too dense to tabulate (workers then fall back to their
        per-row CDFs, exactly like the serial sampler).
        """
        from repro.core.montecarlo import MonteCarloSampler

        def publish(segments: list):
            tables = MonteCarloSampler.shared_cdf_tables(chain)
            if tables is None:
                return None
            return tuple(
                _publish_array(table, segments) for table in tables
            )

        return self._entry(
            "tables", chain.fingerprint(), publish, lease
        )

    def live_bytes(self) -> int:
        """Total ``/dev/shm`` bytes held by cached publications."""
        with self._lock:
            return sum(
                segment.size
                for cache in self._caches.values()
                for _handles, segments in cache.values()
                for segment in segments
            )

    def forget(self) -> None:
        """Unlink every cached publication, pinned or not.

        Called when a worker reports a lost/corrupt segment: none of
        the cached handles can be trusted any more (the corruption is
        not attributable to one entry), so the next query republishes
        from the parent's matrices.  Dropping pinned entries is safe:
        any other in-flight dispatch whose worker loses the segment
        mid-attach fails with the same supervised
        :class:`~repro.core.errors.SegmentLostError` and degrades to
        an exact lower tier.  Also how the publisher shuts down.
        """
        with self._lock:
            for cache in self._caches.values():
                for _handles, segments in cache.values():
                    _unlink_segments(segments)
                cache.clear()


_PUBLISHER: Optional[_Publisher] = None
_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_WORKERS = 0
_EXECUTOR_ACTIVE = 0  # dispatch calls currently using the pool
_EXECUTOR_BROKEN = False  # poisoned by a crash/timeout; rebuild next
_POOL_LOCK = threading.Lock()


def _publisher() -> _Publisher:
    global _PUBLISHER
    with _POOL_LOCK:
        if _PUBLISHER is None:
            _PUBLISHER = _Publisher()
        return _PUBLISHER


def _build_pool(max_workers: int) -> ProcessPoolExecutor:
    try:
        context = get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        context = get_context("spawn")
    # every pool build doubles as janitor duty: segments leaked by a
    # crashed earlier session are swept before this one adds its own
    try:
        sweep_orphans()
    except OSError:  # pragma: no cover - exotic /dev/shm perms
        pass
    return ProcessPoolExecutor(
        max_workers=max_workers, mp_context=context
    )


def _acquire_executor(
    max_workers: int,
) -> Tuple[ProcessPoolExecutor, bool]:
    """A persistent fork-based pool, grown on demand, refcounted.

    Fork keeps worker start-up at milliseconds (the parent's imports
    are inherited); platforms without fork fall back to spawn.  The
    shared pool is only replaced (to grow, or after
    :func:`_invalidate_executor` marked it broken) while no other
    dispatch call is in flight -- a concurrent caller would have its
    futures cancelled under it.  A caller that needs a pool while the
    shared one is broken *and* busy gets a private throwaway pool
    instead of the poisoned one.

    Returns ``(executor, owned)``; pass both to
    :func:`_release_executor` (an owned pool is shut down there).
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
    """Build the persistent worker pool ahead of the first dispatch.

    The first ``dispatch="process"`` evaluation of a session pays the
    pool fork (and triggers the janitor sweep); a long-lived caller --
    the :mod:`repro.service` front end at startup, a benchmark
    harness before its measured section -- calls this once so that
    cost lands outside any latency-sensitive window.  No-op when a
    pool with at least ``max_workers`` workers is already up; safe
    without scipy (the pool itself has no backend dependency).
    """
    executor, owned = _acquire_executor(max_workers)
    _release_executor(executor, owned)


def shutdown() -> None:
    """Drain the worker pool and unlink every published segment.

    Idempotent and safe after worker death: a second call (or a call
    racing the :mod:`atexit` hook) finds the globals already cleared
    and returns; a broken pool is abandoned without waiting on
    workers that will never drain.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS, _EXECUTOR_BROKEN, _PUBLISHER
    with _POOL_LOCK:
        executor, _EXECUTOR = _EXECUTOR, None
        broken, _EXECUTOR_BROKEN = _EXECUTOR_BROKEN, False
        _EXECUTOR_WORKERS = 0
        publisher, _PUBLISHER = _PUBLISHER, None
    if executor is not None:
        try:
            executor.shutdown(wait=not broken, cancel_futures=True)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
    if publisher is not None:
        publisher.forget()


atexit.register(shutdown)


# ----------------------------------------------------------------------
# shared-memory janitor
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SegmentInfo:
    """One ``repro-`` shared-memory segment found on this machine."""

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


def list_segments(shm_dir: str = _SHM_DIR) -> List[SegmentInfo]:
    """Every ``repro-*`` segment in ``/dev/shm``, with owner liveness.

    Only meaningful on platforms backing POSIX shared memory with a
    tmpfs directory (Linux); elsewhere the scan finds nothing and the
    janitor is a no-op -- leaked segments there are reclaimed by the
    OS at reboot, which is also the platform's own guarantee.
    """
    found: List[SegmentInfo] = []
    try:
        names = sorted(os.listdir(shm_dir))
    except (FileNotFoundError, NotADirectoryError):
        return found
    for name in names:
        if not name.startswith(_SEGMENT_PREFIX):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue  # not our naming scheme; leave it alone
        try:
            size = os.stat(os.path.join(shm_dir, name)).st_size
        except OSError:
            continue  # vanished between listdir and stat
        found.append(
            SegmentInfo(
                name=name, pid=pid, size=size, alive=_pid_alive(pid)
            )
        )
    return found


def sweep_orphans(shm_dir: str = _SHM_DIR) -> List[SegmentInfo]:
    """Unlink ``repro-*`` segments whose owning process is dead.

    Runs on every pool build and from ``repro-bench doctor``.  Uses
    ``os.unlink`` directly rather than attaching through the stdlib:
    attaching would register the orphan with *this* process's resource
    tracker and emit leak warnings for a segment we are deliberately
    destroying.  Returns the segments that were reclaimed.
    """
    swept: List[SegmentInfo] = []
    for info in list_segments(shm_dir):
        if info.alive:
            continue
        try:
            os.unlink(os.path.join(shm_dir, info.name))
        except FileNotFoundError:
            continue  # another janitor got there first
        swept.append(info)
    return swept


def memory_stats() -> Dict[str, int]:
    """Shared-memory accounting for this session and the machine.

    Returns a dict with ``session_bytes`` (live bytes held by this
    session's publication cache), ``machine_bytes`` (all ``repro-*``
    segments on the host), ``orphan_bytes`` (subset owned by dead
    processes -- what :func:`sweep_orphans` would reclaim) and
    ``segments`` (machine-wide segment count).
    """
    with _POOL_LOCK:
        publisher = _PUBLISHER
    session = publisher.live_bytes() if publisher is not None else 0
    infos = list_segments()
    return {
        "session_bytes": session,
        "machine_bytes": sum(info.size for info in infos),
        "orphan_bytes": sum(
            info.size for info in infos if not info.alive
        ),
        "segments": len(infos),
    }


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ShardTask:
    """One unit of worker work: a row range of one chain group.

    Everything here is cheap to pickle; the heavy payloads travel as
    :class:`SharedCSR` metadata.  The absorbing-matrix handles are
    ``None`` for k-times (``method="ct"``) shards -- the stacked C(t)
    sweep runs on the chain CSR alone, with the visit-count dimension
    living in the worker's stack rather than in an augmented matrix.

    ``attempt`` counts supervisor resubmissions of this shard (0 on
    first submission); fault-injection specs match on it to fail an
    attempt and let the retry succeed.  ``verify`` re-checksums
    attached segments; ``faults`` carries the pickled injector.
    """

    fingerprint: str
    chain: SharedCSR
    initials: SharedCSR
    row_lo: int
    row_hi: int
    starts: Tuple[int, ...]
    region: Tuple[int, ...]
    times: Tuple[int, ...]
    method: str
    m_minus: Optional[SharedCSR] = None
    m_plus: Optional[SharedCSR] = None
    m_minus_t: Optional[SharedCSR] = None
    m_plus_t: Optional[SharedCSR] = None
    # multi-observation ("multi") and Monte-Carlo ("mc") shards: the
    # `initials` stack holds one row per *observation* instead of per
    # object; the small `obs_times`/`obj_indptr` arrays map rows back
    # to objects, MC shards additionally carry per-object seeds and
    # (when the chain tabulates) the published CDF table segments
    obs_times: Optional[np.ndarray] = None
    obj_indptr: Optional[np.ndarray] = None
    n_samples: Optional[int] = None
    seeds: Optional[Tuple[Optional[int], ...]] = None
    mc_cdf: Optional[ArrayMeta] = None
    mc_targets: Optional[ArrayMeta] = None
    attempt: int = 0
    verify: bool = False
    faults: Optional[object] = None

    @property
    def label(self) -> str:
        """How supervisor events and errors name this shard."""
        return (
            f"shard rows [{self.row_lo}, {self.row_hi}) ({self.method})"
        )


# worker-local caches, populated lazily after the fork
_WORKER_CACHE = None


def _worker_cache():
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        from repro.core.plan_cache import PlanCache

        _WORKER_CACHE = PlanCache()
    return _WORKER_CACHE


def _rehydrate(task: _ShardTask):
    """Chain (+ absorbing matrices) from shared memory, cache-adopted.

    The worker cache is keyed by the *fingerprint* shipped with the
    task -- never by object identity -- so the first task of a chain
    rehydrates and every later task (and every later query) hits;
    the kernels then find the adopted matrices through the returned
    cache.  k-times, multi-observation and Monte-Carlo tasks carry no
    absorbing handles.  With ``task.verify`` every fresh attach is
    re-checksummed.
    """
    from repro.core.markov import MarkovChain
    from repro.core.matrices import AbsorbingMatrices
    from repro.linalg.ops import get_backend

    cache = _worker_cache()
    region = frozenset(task.region)
    adopted = cache.lookup_fingerprint(
        "chain", task.fingerprint, frozenset()
    )
    if adopted is None:
        chain = MarkovChain(
            attach_csr(task.chain, verify=task.verify),
            validate=False,
        )
        chain._fingerprint_cache = task.fingerprint
        adopted = cache.adopt(
            "chain", task.fingerprint, frozenset(), None, chain
        )
    chain = adopted
    if task.m_minus is not None and cache.lookup_fingerprint(
        "absorbing", task.fingerprint, region
    ) is None:
        rebuilt = AbsorbingMatrices(
            n_states=chain.n_states,
            region=region,
            m_minus=attach_csr(task.m_minus, verify=task.verify),
            m_plus=attach_csr(task.m_plus, verify=task.verify),
            backend=get_backend(),
        )
        rebuilt._transposed = (
            attach_csr(task.m_minus_t, verify=task.verify),
            attach_csr(task.m_plus_t, verify=task.verify),
        )
        cache.adopt(
            "absorbing", task.fingerprint, region, None, rebuilt
        )
    return chain, cache


def _read_shard_rows(handle: SharedCSR, lo: int, hi: int, verify: bool = False):
    """Copy rows ``[lo, hi)`` of a per-query stacked CSR out as a
    :class:`~repro.core.distribution.SupportBlock`; release.

    Unlike the cached chain/matrix segments, the initials stack is
    published fresh per query and unlinked by the parent as soon as
    the query finishes -- caching its segments in ``_SEGMENTS`` would
    pin one segment's pages per query for the worker's lifetime.  So:
    attach, copy the shard out, close.
    """
    segments: List[shared_memory.SharedMemory] = []
    try:
        arrays = []
        for meta in (handle.data, handle.indices, handle.indptr):
            name, shape, dtype = meta
            try:
                segment = shared_memory.SharedMemory(name=name)
            except FileNotFoundError as exc:
                raise SegmentLostError(
                    f"stacked-initials segment {name!r} vanished "
                    f"before attach"
                ) from exc
            segments.append(segment)
            arrays.append(
                np.ndarray(
                    shape, dtype=np.dtype(dtype), buffer=segment.buf
                )
            )
        if verify and handle.checksum is not None:
            observed = _csr_checksum(arrays)
            if observed != handle.checksum:
                raise SegmentLostError(
                    f"stacked-initials segment {handle.data[0]} "
                    f"failed checksum verification"
                )
        data, indices, indptr = arrays
        bounds = indptr[lo:hi + 1].astype(np.int64)
        block = SupportBlock(
            handle.shape[1],
            bounds - bounds[0],
            indices[bounds[0]:bounds[-1]].astype(np.int64),
            np.array(data[bounds[0]:bounds[-1]], dtype=float),
        )
        del data, indices, indptr, arrays  # drop views before unmapping
        return block
    finally:
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - error paths only
                pass  # views still alive (exception mid-attach)


def _shard_observation_sets(task: _ShardTask):
    """``rows -> [ObservationSet]`` over a multi-observation or
    Monte-Carlo shard.

    The stacked segment holds one row per *observation*;
    ``obj_indptr`` maps the shard's object rows ``[row_lo, row_hi)``
    to their observation rows, which are copied out once.
    """
    from repro.core.observation import ObservationSet

    spans = task.obj_indptr[task.row_lo:task.row_hi + 1]
    obs_lo, obs_hi = int(spans[0]), int(spans[-1])
    obs_times = task.obs_times[obs_lo:obs_hi]
    stack = _read_shard_rows(
        task.initials, obs_lo, obs_hi, verify=task.verify
    )
    spans = spans - obs_lo

    def observation_sets(rows: np.ndarray) -> list:
        return [
            ObservationSet.from_columns(
                stack.n_states,
                obs_times[lo:hi],
                stack.indptr[lo:hi + 1],
                stack.states,
                stack.probs,
            )
            for lo, hi in zip(spans[rows], spans[rows + 1])
        ]

    return observation_sets


def _evaluate_shard(task: _ShardTask):
    """Run one shard through the shared kernels; return its slice.

    Single-observation shards (``qb``/``ob``/``ct``) stage their rows
    of the stacked initials; ``multi`` shards run the exact Section VI
    fusion sweep (doubled matrices built once per worker via the
    fingerprint-keyed cache) and ``mc`` shards adopt the published CDF
    tables -- zero-copy views, no per-worker re-tabulation -- and
    sample with the per-object seeds the parent priced, so estimates
    match the serial path bit-for-bit.
    """
    from repro.core.batch import evaluate_rows
    from repro.core.query import SpatioTemporalWindow
    from repro.exec.operators import ExecutionContext

    shard_started = _time.perf_counter()
    if task.faults is not None:
        task.faults.fire(
            "worker:shard",
            row_lo=task.row_lo,
            fingerprint=task.fingerprint,
            attempt=task.attempt,
            pid=os.getpid(),
        )
    chain, cache = _rehydrate(task)
    window = SpatioTemporalWindow(
        frozenset(task.region), frozenset(task.times)
    )
    context = ExecutionContext(cache, faults=task.faults)
    block = observation_sets = None
    if task.method in ("multi", "mc"):
        observation_sets = _shard_observation_sets(task)
        if task.mc_cdf is not None:
            from repro.core.montecarlo import MonteCarloSampler

            MonteCarloSampler.adopt_cdf_tables(
                task.fingerprint,
                _attach_array(task.mc_cdf),
                _attach_array(task.mc_targets),
            )
    else:
        block = _read_shard_rows(
            task.initials, task.row_lo, task.row_hi, verify=task.verify
        ).take
    n_rows = task.row_hi - task.row_lo
    values = evaluate_rows(
        chain,
        window,
        "ktimes" if task.method == "ct" else "exists",
        task.method,
        np.arange(n_rows),
        block=block,
        start_time=np.asarray(
            task.starts[task.row_lo:task.row_hi], dtype=np.int64
        ),
        is_multi=np.full(n_rows, task.method == "multi"),
        observation_sets=observation_sets,
        n_samples=task.n_samples,
        seeds=(
            task.seeds[task.row_lo:task.row_hi]
            if task.seeds is not None
            else None
        ),
        plan_cache=cache,
        context=context,
    )
    return (
        task.row_lo,
        task.row_hi,
        values,
        context.serializable_timings(),
        _time.perf_counter() - shard_started,
    )


# ----------------------------------------------------------------------
# store-shard tasks: persistent workers over memory-mapped slabs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _StoreShardTask:
    """One shard of a :class:`~repro.store.sharded.ShardedTrajectoryStore`.

    Nothing heavy crosses the process boundary -- not even segment
    names: the task carries only the store path, slab generation and
    shard id, and the worker memory-maps the shard's columnar slabs
    directly (cached per process, shared with every other worker and
    the parent through the OS page cache).  The full prefilter ->
    BFS-prune -> kernel pipeline runs shard-local.
    """

    store_dir: str
    generation: int
    shard_id: str
    chain_id: str
    kind: str  # "exists" | "ktimes"
    method: str  # qb | ob | mc (exists), ct | mc (ktimes)
    region: Tuple[int, ...]
    times: Tuple[int, ...]
    exclude: Tuple[str, ...] = ()
    use_prefilter: bool = True
    use_bfs: bool = True
    n_samples: Optional[int] = None
    seed_base: Optional[int] = None
    attempt: int = 0
    faults: Optional[object] = None

    @property
    def label(self) -> str:
        """How supervisor events name this shard."""
        return f"store shard {self.shard_id}"


# worker-local resumable reverse-BFS labellings, keyed by
# (chain fingerprint, region) -- the shard-local analogue of the
# parent pruner's cache
_STORE_BFS: Dict[tuple, list] = {}


def _evaluate_store_shard(task: _StoreShardTask):
    """Prefilter, BFS-prune and evaluate one store shard in place.

    Returns ``(shard_id, values, timings, elapsed, fresh, stats)``
    where ``values`` maps object ids to their exact answers (filtered
    objects get the query's exact zero element), ``fresh`` reports
    whether this call had to map the slabs (False on every warm call
    -- the zero-copy assertion the dispatch tests check), and
    ``stats`` carries the shard-local filter-stage counts.

    Candidates are an index array over the shard's objects from start
    to end: the filters are the array implementations the in-process
    pipeline runs over a cohort (slab MBR columns instead of the
    R-tree for stage 1, the shared
    :data:`~repro.exec.operators.BFS_PRUNE` for stage 2), and the
    single-observation kernels take their initials gathered straight
    from the slabs -- object records are rebuilt only for Section VI
    and Monte-Carlo survivors.
    """
    from functools import partial

    from repro.core.batch import evaluate_rows
    from repro.core.query import SpatioTemporalWindow
    from repro.database.pruning import reachability_levels
    from repro.exec.operators import BFS_PRUNE, ExecutionContext
    from repro.store.sharded import (
        attach_shard,
        open_store_chain,
        store_positions,
    )

    shard_started = _time.perf_counter()
    if task.faults is not None:
        task.faults.fire(
            "worker:store-shard",
            shard_id=task.shard_id,
            attempt=task.attempt,
            pid=os.getpid(),
        )
    view, fresh = attach_shard(
        task.store_dir, task.generation, task.shard_id
    )
    chain = open_store_chain(task.store_dir, task.chain_id)
    window = SpatioTemporalWindow(
        frozenset(task.region), frozenset(task.times)
    )
    cache = _worker_cache()
    context = ExecutionContext(cache, faults=task.faults)

    object_ids = np.asarray(view.object_ids, dtype=object)
    candidates = np.arange(view.n_objects(), dtype=np.int64)
    if task.exclude:
        candidates = candidates[
            ~np.isin(object_ids, list(task.exclude))
        ]
    stats = {
        "entering": len(candidates),
        "prefilter_pruned": 0,
        "bfs_pruned": 0,
    }
    start_time = view.start_time
    values: Dict[str, object] = {}

    def drop(keep: np.ndarray) -> int:
        """Answer the candidates a filter rejects with the zero
        element; returns how many."""
        nonlocal candidates
        dropped = candidates[~keep]
        if task.kind == "ktimes":
            zeros = np.zeros(
                (len(dropped), window.duration + 1), dtype=float
            )
            zeros[:, 0] = 1.0
        else:
            zeros = itertools.repeat(0.0)
        values.update(zip(object_ids[dropped].tolist(), zeros))
        candidates = candidates[keep]
        return len(dropped)

    # stage 1: geometric prefilter against the per-object slab MBRs
    # (same safety argument as the parent R-tree: an object whose
    # first-observation MBR, expanded by bound x horizon, misses the
    # region MBR provably never intersects the window)
    if (
        task.use_prefilter
        and candidates.size
        and view.has_mbr
        and view.displacement_bound is not None
    ):
        positions = store_positions(task.store_dir)
        if positions is not None:
            region_states = window.region.array
            rx = np.asarray(positions[region_states, 0], dtype=float)
            ry = (
                np.asarray(positions[region_states, 1], dtype=float)
                if positions.shape[1] > 1
                else np.zeros_like(rx)
            )
            rect = (
                float(rx.min()), float(ry.min()),
                float(rx.max()), float(ry.max()),
            )
            mbrs = view.mbrs()[candidates]
            horizons = np.maximum(
                window.t_end - start_time[candidates], 0
            ).astype(float)
            margin = horizons * float(view.displacement_bound)
            stats["prefilter_pruned"] = drop(~(
                (mbrs[:, 2] + margin < rect[0])
                | (mbrs[:, 0] - margin > rect[2])
                | (mbrs[:, 3] + margin < rect[1])
                | (mbrs[:, 1] - margin > rect[3])
            ))

    # stage 2: exact reverse-BFS reachability, resumable per
    # (chain, region) across queries exactly like the parent pruner
    if task.use_bfs and candidates.size:
        stats["bfs_pruned"] = drop(BFS_PRUNE(
            (
                partial(
                    reachability_levels, chain, window.region,
                    cache=_STORE_BFS,
                ),
                view.block(candidates),
                start_time[candidates],
                window.t_end,
            ),
            region=window.region,
            context=context,
        ))

    # stage 3: the exact same kernels the serial pipeline runs
    if candidates.size:
        seeds = None
        if task.method == "mc" and task.seed_base is not None:
            seeds = (
                int(task.seed_base) + view.obj_dbindex[candidates]
            ).tolist()
        answers = evaluate_rows(
            chain,
            window,
            task.kind,
            task.method,
            candidates,
            block=view.block,
            start_time=start_time,
            is_multi=view.is_multi,
            observation_sets=view.observation_sets,
            n_samples=task.n_samples,
            seeds=seeds,
            plan_cache=cache,
            context=context,
        )
        values.update(zip(
            object_ids[candidates].tolist(),
            answers if task.kind == "ktimes" else answers.tolist(),
        ))
    return (
        task.shard_id,
        values,
        context.serializable_timings(),
        _time.perf_counter() - shard_started,
        bool(fresh),
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
) -> list:
    """Run ``worker_fn(task)`` for every task on the worker pool and
    survive what the pool does meanwhile; results in task order.

    The one recovery loop of process dispatch -- both scatter paths
    run under it.  Every attempt has ``deadline`` seconds.  A worker
    crash (``BrokenProcessPool``) or an overrun tears the poisoned
    pool down, rebuilds it and resubmits every unfinished task with
    exponential backoff; only the culprits' attempt counters advance,
    so a fault rule matching ``attempt`` stays deterministic per task.
    An :class:`~repro.core.errors.ExecutionError` from a worker on a
    healthy pool retries that task alone; any other exception, and
    :class:`~repro.core.errors.SegmentLostError` (a retry would name
    the same vanished segment), passes through.  A pool that breaks
    while the parent is still scattering is replaced, with the tasks
    already on it, at most ``policy.max_retries + 2`` times per call.

    ``exhausted(index, task, error_type, reason)`` is the one thing
    callers differ in: what becomes of a task that used up
    ``policy.max_retries`` (or of every unfinished task, once the
    scatter used up its pool replacements).  It raises -- typically
    ``error_type`` -- or returns the result to use in the worker's
    place.

    Tasks are frozen dataclasses with ``attempt`` and ``label``;
    ``faults`` fires ``dispatch:submit`` (info ``index``, ``attempt``,
    ``label``) in the parent before each submission.
    """
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
        # in it -- the union covers both paths
        pending = _unfinished() | set(culprits)
        _invalidate_executor(executor)
        for index in culprits:
            attempts[index] += 1
        _give_up(
            [i for i in culprits if attempts[i] > policy.max_retries],
            error_type,
            reason,
        )
        pending -= set(results)
        _replace_pool()
        _record(
            f"worker pool rebuilt ({reason}); resubmitted "
            f"{len(pending)} shard(s)"
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
            retried: List[int] = []
            for future in done:
                index, _since = inflight.pop(future)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    crashed.append(index)
                except SegmentLostError:
                    raise
                except ExecutionError as error:
                    # injected / transient worker-side failure with a
                    # healthy pool: retry just this task
                    attempts[index] += 1
                    if attempts[index] > policy.max_retries:
                        _give_up([index], WorkerCrashError, str(error))
                        continue
                    _record(
                        f"{tasks[index].label} retried after worker "
                        f"fault (attempt {attempts[index]}): {error}"
                    )
                    retried.append(index)
            if crashed:
                # the pool is poisoned: every unfinished future is
                # doomed, so rebuild once and resubmit them all; the
                # crashed tasks are the culprits
                _rebuild_pool(crashed, WorkerCrashError, "worker crash")
            for index in retried:
                # after any rebuild, so the retry lands on a live pool
                _backoff(attempts[index])
                _submit([index])
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
        # worker must never observe a mid-query unlink).  The drain is
        # bounded: a hung worker's future is abandoned rather than
        # stalling the caller forever (unlink-while-mapped is safe;
        # the straggler fails on attach and reports to a dead pipe)
        leftovers = list(inflight)
        for future in leftovers:
            future.cancel()
        _wait_futures(leftovers, timeout=5.0)
        _release_executor(executor, owned)


# ----------------------------------------------------------------------
# parent-side entry points
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupTask:
    """One chain group's pool-bound rows, as
    :func:`run_groups_in_processes` takes them.

    ``qb`` / ``ob`` / ``ct`` groups ship first observations:
    ``members`` is the ``(object ids, start times, SupportBlock)``
    triple of their cohort rows, and ``qb`` / ``ob`` carry the
    ``matrices`` the parent resolved (so the publication is the same
    artefact the serial path would use; the C(t) sweep needs only the
    chain CSR).  ``multi`` / ``mc`` groups ship every observation:
    ``members`` is a list of
    :class:`~repro.database.objects.UncertainObject`, ``mc`` with
    ``n_samples`` and one seed per member.  Workers run the scipy
    backend, the only one whose matrices publish.
    """

    chain: object
    method: str
    members: object
    matrices: Optional[object] = None
    n_samples: Optional[int] = None
    seeds: Optional[Sequence[Optional[int]]] = None


def run_groups_in_processes(
    tasks: Sequence[GroupTask],
    window,
    *,
    max_workers: int,
    shard_min_objects: int,
    context=None,
    policy=None,
    predicted_seconds: Optional[float] = None,
    faults=None,
) -> Tuple[Dict[str, object], List[float]]:
    """Evaluate chain groups across worker processes.

    Every group's arrays are published to shared memory, its rows cut
    into shards, and the shards run under :func:`supervise` with the
    deadline ``policy`` prices from ``predicted_seconds`` (the cost
    model's estimate for the whole dispatch call).  A shard that
    exhausts its retries raises
    :class:`~repro.core.errors.WorkerCrashError` /
    :class:`~repro.core.errors.TaskTimeoutError`.  A lost or corrupt
    segment raises :class:`~repro.core.errors.SegmentLostError`
    immediately after dropping the publication cache, so the caller
    can degrade tiers and the *next* dispatch republishes cleanly.

    Args:
        tasks: one :class:`GroupTask` per chain group.
        window: the evaluated window.
        max_workers: pool size.
        shard_min_objects: smallest within-chain shard; every method
            but ``qb`` (whose one backward pass serves the group) is
            split into up to ``max_workers`` shards of at least this
            many rows.
        context: parent :class:`~repro.exec.operators.ExecutionContext`
            receiving the merged worker timings and the supervisor's
            recovery events.
        policy: :class:`~repro.core.planner.SupervisorPolicy`
            (defaults are used when ``None``).
        predicted_seconds: cost-model runtime estimate used to price
            the per-attempt deadline.
        faults: optional
            :class:`~repro.exec.faults.FaultInjector`, threaded into
            worker tasks and fired at ``dispatch:published`` and
            ``dispatch:submit``.

    Returns:
        ``(values, group_seconds)``: per-object answers across all
        groups -- scalar probabilities for exists shards, ``(|T_q|+1,)``
        count-distribution arrays for k-times shards -- identical (to
        the bit) to the serial kernels, asserted at 1e-12 in the
        dispatch parity tests -- plus, per input task, the summed
        worker-side wall seconds of its shards (the per-group EXPLAIN
        ANALYZE timing).
    """
    if policy is None:
        from repro.core.planner import SupervisorPolicy

        policy = SupervisorPolicy()
    publisher = _publisher()
    stack_segments: List[shared_memory.SharedMemory] = []
    group_seconds = [0.0] * len(tasks)
    lease = publisher.acquire()
    shards: List[_ShardTask] = []
    shard_meta: List[Tuple[List[str], int]] = []  # (ids, task_index)

    def _fire_published(handle: Optional[SharedCSR], kind: str) -> None:
        if faults is not None and handle is not None:
            faults.fire(
                "dispatch:published", name=handle.data[0], kind=kind
            )

    def _exhausted(index, task, error_type, reason):
        raise error_type(
            f"{task.label} failed after {task.attempt} retr"
            f"{'y' if task.attempt == 1 else 'ies'}: {reason}"
        )

    try:
        for task_index, group in enumerate(tasks):
            chain, method, members = (
                group.chain, group.method, group.members
            )
            by_observation = method in ("multi", "mc")
            if not len(members if by_observation else members[0]):
                continue
            fingerprint, chain_handle = publisher.chain(chain, lease)
            _fire_published(chain_handle, "chain")
            if group.matrices is not None:
                minus_h, plus_h, minus_t_h, plus_t_h = (
                    publisher.absorbing(chain, group.matrices, lease)
                )
                _fire_published(minus_h, "absorbing")
            else:  # the chain CSR is the whole matrix payload
                minus_h = plus_h = minus_t_h = plus_t_h = None
            obs_times = obj_indptr = None
            mc_cdf_meta = mc_targets_meta = None
            if by_observation:
                # one stacked row per *observation*, plus the small
                # times/indptr maps that slice them back per object
                distributions = []
                times_flat: List[int] = []
                indptr = [0]
                for obj in members:
                    for observation in obj.observations:
                        distributions.append(observation.distribution)
                        times_flat.append(int(observation.time))
                    indptr.append(len(times_flat))
                block = SupportBlock.from_distributions(
                    distributions, chain.n_states
                )
                starts = tuple(obj.initial.time for obj in members)
                ids = [obj.object_id for obj in members]
                obs_times = np.asarray(times_flat, dtype=np.int64)
                obj_indptr = np.asarray(indptr, dtype=np.int64)
                if method == "mc":
                    tables = publisher.mc_tables(chain, lease)
                    if tables is not None:
                        mc_cdf_meta, mc_targets_meta = tables
            else:
                ids, start_times, block = members
                starts = tuple(int(t) for t in start_times)
            stack_handle, segments = publisher.stack(
                _sp.csr_matrix(
                    (block.probs, block.states, block.indptr),
                    shape=(len(block), chain.n_states),
                )
            )
            stack_segments.extend(segments)
            _fire_published(stack_handle, "stack")

            n_rows = len(ids)
            if method == "qb":
                n_shards = 1  # one backward pass serves the group
            else:
                n_shards = max(
                    1,
                    min(
                        max_workers,
                        n_rows // max(1, shard_min_objects) or 1,
                    ),
                )
            bounds = np.linspace(
                0, n_rows, n_shards + 1, dtype=int
            )
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if lo == hi:
                    continue
                shards.append(
                    _ShardTask(
                        fingerprint=fingerprint,
                        chain=chain_handle,
                        m_minus=minus_h,
                        m_plus=plus_h,
                        m_minus_t=minus_t_h,
                        m_plus_t=plus_t_h,
                        initials=stack_handle,
                        row_lo=int(lo),
                        row_hi=int(hi),
                        starts=starts,
                        region=tuple(sorted(window.region)),
                        times=tuple(sorted(window.times)),
                        method=method,
                        obs_times=obs_times,
                        obj_indptr=obj_indptr,
                        n_samples=group.n_samples,
                        seeds=(
                            None if group.seeds is None
                            else tuple(group.seeds)
                        ),
                        mc_cdf=mc_cdf_meta,
                        mc_targets=mc_targets_meta,
                        verify=policy.verify_segments,
                        faults=faults,
                    )
                )
                shard_meta.append((ids, task_index))

        try:
            results = supervise(
                shards,
                _evaluate_shard,
                max_workers=max_workers,
                policy=policy,
                deadline=policy.deadline(predicted_seconds or 0.0),
                context=context,
                faults=faults,
                exhausted=_exhausted,
            )
        except SegmentLostError:
            # drop the publication cache so the next dispatch
            # republishes, and let the caller degrade tiers
            publisher.forget()
            raise

        values: Dict[str, object] = {}
        for (ids, task_index), result in zip(shard_meta, results):
            row_lo, row_hi, shard_values, timings, elapsed = result
            values.update(zip(
                ids[row_lo:row_hi],
                # ct shards return one count distribution per row
                shard_values
                if shard_values.ndim == 2
                else shard_values.tolist(),
            ))
            group_seconds[task_index] += elapsed
            if context is not None:
                context.merge(timings)
        return values, group_seconds
    finally:
        # supervise() has drained its futures by now: no worker
        # observes these unlinks mid-shard
        _unlink_segments(stack_segments)
        publisher.release(lease)


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
    """Scatter a query over the shards of a sharded trajectory store.

    Unlike :func:`run_groups_in_processes`, nothing is published:
    workers memory-map the store's columnar slabs directly (shared
    through the OS page cache, attached once per process and reused
    across queries) and run prefilter -> BFS-prune -> kernel entirely
    shard-local.  The shards run under the same :func:`supervise`
    loop, but a shard that exhausts its retries *degrades shard ->
    parent* instead of raising: the parent evaluates it in-process
    from the same slabs, so the query always completes exactly.

    Args:
        store: a :class:`~repro.store.sharded.ShardedTrajectoryStore`
            (anything with ``path`` / ``generation`` /
            ``store_shards`` / ``shard_exclusions``).
        groups: ``(chain_id, method)`` per chain group.
        window: the evaluated window.
        kind: ``"exists"`` or ``"ktimes"``.
        max_workers: pool size.
        use_prefilter / use_bfs: mirror the plan's filter toggles.
        n_samples / seed_base: Monte Carlo parameters; per-object
            seeds derive from ``seed_base`` plus the object's stable
            store index, matching the parent's seed book-keeping.
        context: parent execution context receiving merged timings
            and recovery events.
        policy / predicted_seconds / faults: as in
            :func:`run_groups_in_processes`.

    Returns:
        ``(values, chain_seconds, stats)``: per-object answers for
        every snapshot object of the queried chains (excluded /
        overlaid objects are skipped per the store's exclusion map),
        summed worker wall seconds per chain id, and aggregate
        filter/recovery statistics (``shards``, ``fresh_attaches``,
        ``entering``, ``prefilter_pruned``, ``bfs_pruned``,
        ``parent_fallbacks``).
    """
    if policy is None:
        from repro.core.planner import SupervisorPolicy

        policy = SupervisorPolicy()
    exclusions = store.shard_exclusions()
    region = tuple(sorted(window.region))
    times = tuple(sorted(window.times))
    shards: List[_StoreShardTask] = []
    for chain_id, method in groups:
        for entry in store.store_shards(chain_id):
            if not entry.get("n_objects"):
                continue
            shard_id = str(entry["shard_id"])
            excluded = tuple(exclusions.get(shard_id, ()))
            if len(excluded) >= int(entry["n_objects"]):
                continue  # every object superseded by the overlay
            shards.append(
                _StoreShardTask(
                    store_dir=str(store.path),
                    generation=int(store.generation),
                    shard_id=shard_id,
                    chain_id=str(chain_id),
                    kind=kind,
                    method=method,
                    region=region,
                    times=times,
                    exclude=excluded,
                    use_prefilter=use_prefilter,
                    use_bfs=use_bfs,
                    n_samples=n_samples,
                    seed_base=seed_base,
                    faults=faults,
                )
            )

    values: Dict[str, object] = {}
    chain_seconds: Dict[str, float] = {
        chain_id: 0.0 for chain_id, _method in groups
    }
    stats = {
        "shards": len(shards),
        "fresh_attaches": 0,
        "entering": 0,
        "prefilter_pruned": 0,
        "bfs_pruned": 0,
        "parent_fallbacks": 0,
    }
    if not shards:
        return values, chain_seconds, stats

    def _exhausted(index, task, error_type, reason):
        """Degrade an exhausted shard to in-parent evaluation.

        The parent maps the same slabs the worker would have, so the
        answers are identical -- availability degrades (one shard runs
        serially) but exactness never does.
        """
        result = _evaluate_store_shard(_dc_replace(task, faults=None))
        stats["parent_fallbacks"] += 1
        if context is not None:
            context.record_event(
                f"{task.label} degraded to parent after {reason}"
            )
        return result

    results = supervise(
        shards,
        _evaluate_store_shard,
        max_workers=max_workers,
        policy=policy,
        deadline=policy.deadline(predicted_seconds or 0.0),
        context=context,
        faults=faults,
        exhausted=_exhausted,
    )
    for task, result in zip(shards, results):
        _shard_id, shard_values, timings, elapsed, fresh, shard_stats = (
            result
        )
        values.update(shard_values)
        chain_seconds[task.chain_id] += elapsed
        stats["fresh_attaches"] += 1 if fresh else 0
        for key in ("entering", "prefilter_pruned", "bfs_pruned"):
            stats[key] += int(shard_stats.get(key, 0))
        if context is not None:
            context.merge(timings)
    return values, chain_seconds, stats

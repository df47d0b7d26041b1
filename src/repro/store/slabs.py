"""Memory-mapped numpy slabs with a bounded resident pool.

The sharded store keeps its heavy payloads -- observation supports,
weights, timestamps, object boundaries -- as raw ``.npy`` files
("slabs").  Readers attach them through :class:`SlabPool`, which maps
each file at most once per process (``numpy.load(mmap_mode="r")``) and
keeps the set of live mappings LRU-bounded by ``REPRO_STORE_RAM_CAP``
bytes: past the cap the least recently used slab is *unmapped*, which
releases its resident pages back to the OS.  Because every page a query
touches comes from a mapping the pool accounts for, peak RSS
contributed by slab data is bounded by the cap, not by the dataset --
the property the out-of-core benchmark asserts with an address-space
rlimit.

Two properties the process dispatch of :mod:`repro.exec.dispatch`
relies on:

* slabs are backed by *files*, so "publishing" is free -- every worker
  process (and the parent) maps the same pages through the OS page
  cache with zero copies and zero pickling;
* eviction is safe at any time for pool consumers because they copy
  what they need out of a mapping before returning (the facade's lazy
  distributions densify per access; shard workers slice survivors
  into fresh arrays) -- nothing long-lived points into pooled pages.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

__all__ = ["SlabPool", "write_slab", "ram_cap_bytes"]

#: environment knob bounding resident slab bytes per process; unset or
#: empty means unbounded (everything stays mapped -- fastest, in-RAM)
RAM_CAP_ENV = "REPRO_STORE_RAM_CAP"


def ram_cap_bytes() -> Optional[int]:
    """The configured resident-slab budget in bytes (None = unbounded).

    Accepts plain byte counts and ``k``/``m``/``g`` suffixes
    (``REPRO_STORE_RAM_CAP=64m``).
    """
    raw = os.environ.get(RAM_CAP_ENV, "").strip().lower()
    if not raw:
        return None
    scale = 1
    if raw[-1] in "kmg":
        scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * scale)
    except ValueError:
        return None
    return max(0, value)


def write_slab(path: Union[str, Path], array: np.ndarray) -> int:
    """Write one raw ``.npy`` slab atomically; returns its byte size.

    The write goes to a ``.tmp`` sibling first and is renamed into
    place, so a crash mid-snapshot never leaves a half-written slab
    where a reader would map it.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path.stat().st_size


class SlabPool:
    """Process-wide LRU of memory-mapped slab files.

    Args:
        cap_bytes: resident budget; ``None`` reads
            ``REPRO_STORE_RAM_CAP`` at each eviction check, so tests
            and operators can retune a live process.

    A mapping's "cost" is its file size -- an upper bound on the
    resident pages it can pin, which is the right ledger for a hard
    cap.  Eviction drops the pool's reference; the OS reclaims the
    pages once no caller-side view remains (callers copy out, so that
    is immediate in practice).
    """

    def __init__(self, cap_bytes: Optional[int] = None) -> None:
        self._cap = cap_bytes
        self._maps: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._lock = threading.Lock()
        self.attaches = 0  # total map() calls
        self.fresh_maps = 0  # calls that had to open the file
        self.evictions = 0
        self.high_water_bytes = 0

    def _cap_bytes(self) -> Optional[int]:
        return self._cap if self._cap is not None else ram_cap_bytes()

    def map(self, path: Union[str, Path]) -> np.ndarray:
        """The mmapped array for ``path`` (shared, read-only)."""
        key = str(path)
        with self._lock:
            self.attaches += 1
            array = self._maps.get(key)
            if array is not None:
                self._maps.move_to_end(key)
                return array
            size = os.path.getsize(key)
            # make room first: resident bytes never exceed the cap, not
            # even transiently while the new slab is being mapped
            self._evict(incoming=size)
            array = np.load(key, mmap_mode="r")
            self.fresh_maps += 1
            self._maps[key] = array
            self._sizes[key] = size
            self.high_water_bytes = max(
                self.high_water_bytes, self._total()
            )
            return array

    def _total(self) -> int:
        return sum(self._sizes[name] for name in self._maps)

    def _evict(self, incoming: int = 0) -> None:
        """Drop LRU mappings until ``incoming`` more bytes fit (lock held).

        The incoming slab is always admitted even when it alone exceeds
        the cap -- a query must be able to read its own shard.
        """
        cap = self._cap_bytes()
        if cap is None:
            return
        while self._maps and self._total() + incoming > cap:
            name, _array = self._maps.popitem(last=False)
            self._sizes.pop(name, None)
            self.evictions += 1

    def forget(self, prefix: Union[str, Path]) -> None:
        """Unmap every slab under ``prefix`` (a store or snapshot dir).

        Called when a snapshot generation is swept so stale mappings
        never pin deleted files' pages.
        """
        prefix = str(prefix)
        with self._lock:
            stale = [
                name for name in self._maps if name.startswith(prefix)
            ]
            for name in stale:
                self._maps.pop(name, None)
                self._sizes.pop(name, None)

    def clear(self) -> None:
        """Unmap everything (tests, interpreter shutdown)."""
        with self._lock:
            self._maps.clear()
            self._sizes.clear()

    def mapped_bytes(self) -> int:
        """Bytes of slab files currently mapped by this pool."""
        with self._lock:
            return self._total()

    def mapped_count(self) -> int:
        """Number of live slab mappings."""
        with self._lock:
            return len(self._maps)

    def stats(self) -> Dict[str, int]:
        """Counters for doctor/benchmark reporting."""
        with self._lock:
            return {
                "mapped_bytes": self._total(),
                "mapped_slabs": len(self._maps),
                "attaches": self.attaches,
                "fresh_maps": self.fresh_maps,
                "evictions": self.evictions,
                "high_water_bytes": self.high_water_bytes,
            }


#: the per-process pool every store reader shares (parent and each
#: shard worker get their own copy after fork; the fork inherits the
#: parent's mappings, which is exactly the zero-copy sharing we want)
_POOL: Optional[SlabPool] = None
_POOL_LOCK = threading.Lock()


def global_pool() -> SlabPool:
    """The process-wide slab pool (created on first use)."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = SlabPool()
        return _POOL

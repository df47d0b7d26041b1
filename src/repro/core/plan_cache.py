"""Cross-query caching of augmented matrices and backward vectors.

Every query against a ``(chain, region)`` pair pays a construction cost
before the first vector--matrix product can run: the Section VI doubled
matrices are assembled from COO triples, and the Section V-B backward
vectors take one pass over the horizon.  That pass steps the chain's
own matrix -- with ``v[TOP] = 1``, ``M_plus . v = M . (v with its S_q
entries set to 1)`` -- so query-based evaluation caches only
``"backward"`` entries and never an augmented matrix.  The object-based
sweep steps the chain's own matrix too, so its ``"absorbing"`` entry
is a descriptor whose Section V-A matrices are built only when read
(the first-passage analysis).  Monitoring workloads --
the paper's motivating iceberg/traffic scenarios -- re-issue windows
over the same chains continuously, so that construction cost dominates
once the products themselves are batched (see :mod:`repro.core.batch`).

:class:`PlanCache` is a bounded LRU cache over those artefacts, keyed by

    ``(construction kind, chain fingerprint, region key, extras)``

where the chain fingerprint is a content hash
(:meth:`repro.core.markov.MarkovChain.fingerprint`), so equal-by-value
chains -- e.g. a database reloaded from disk -- hit the same entries,
and the region key is the digest a canonical
:class:`~repro.core.query.Region` computed once when its window was
built -- probing with a window's own region never re-freezes or
re-compares the state set.
Cached values are treated as immutable by all consumers.

The cache records hit/miss/construction counters
(:attr:`PlanCache.stats`) which the test suite asserts on: a repeated
query must not construct a second time.

The cache is thread-safe: the query pipeline dispatches chain groups
across a worker pool that shares one instance.  Bookkeeping (LRU order,
counters) happens under an internal lock while construction itself runs
outside it, so two threads racing on the *same* cold key may both build
-- the first store wins and both get the same object back; entries are
immutable so either build is equally valid.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Tuple

import numpy as np

from repro.core.errors import ValidationError
from repro.core.markov import MarkovChain
from repro.core.matrices import AbsorbingMatrices, DoubledMatrices
from repro.core.query import Region, SpatioTemporalWindow

__all__ = [
    "PlanCache",
    "PlanCacheStats",
]


@dataclass
class PlanCacheStats:
    """Counters describing one cache's effectiveness.

    Attributes:
        hits: lookups answered from the cache.
        misses: lookups that had to construct.
        constructions: artefacts built, per construction kind.
        evictions: entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    constructions: Dict[str, int] = field(default_factory=dict)
    evictions: int = 0

    @property
    def total_constructions(self) -> int:
        """Artefacts built across all kinds."""
        return sum(self.constructions.values())

    def _count(self, kind: str) -> None:
        self.constructions[kind] = self.constructions.get(kind, 0) + 1


class PlanCache:
    """A bounded LRU cache of query-evaluation artefacts.

    Query-based evaluation stores only ``"backward"`` vectors (its pass
    steps the chain's own matrix); the augmented matrices are built for
    object-based sweeps, Section VI and first-passage analyses.

    One instance per :class:`~repro.core.engine.QueryEngine` by default;
    share an instance across engines to amortise construction across
    sessions querying the same chains.

    Args:
        maxsize: maximum number of cached artefacts; the least recently
            used entry is evicted beyond it.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValidationError(
                f"maxsize must be positive, got {maxsize}"
            )
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Tuple[Hashable, ...], Any]" = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self.stats = PlanCacheStats()

    # ------------------------------------------------------------------
    # generic LRU plumbing (callers hold self._lock)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def _lookup(self, key: Tuple[Hashable, ...]) -> Any:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return entry

    def _store(self, key: Tuple[Hashable, ...], value: Any) -> Any:
        existing = self._entries.get(key)
        if existing is not None:  # a racing thread stored first
            return existing
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return value

    def contains(
        self,
        kind: str,
        chain: MarkovChain,
        region: Iterable[int],
        extra: Hashable = None,
    ) -> bool:
        """Non-mutating probe used by the query planner's cost model.

        Neither the LRU order nor the hit/miss counters change, so
        planning a query does not perturb the statistics the executed
        plan is judged by.
        """
        key = self._key(kind, chain.fingerprint(), region, extra)
        with self._lock:
            return key in self._entries

    @staticmethod
    def _key(
        kind: str,
        fingerprint: str,
        region: Iterable[int],
        extra: Hashable = None,
    ) -> Tuple[Hashable, ...]:
        return (kind, fingerprint, Region(region).key, extra)

    # ------------------------------------------------------------------
    # cached constructions
    # ------------------------------------------------------------------
    def absorbing(
        self,
        chain: MarkovChain,
        region: Iterable[int],
        context=None,
    ) -> AbsorbingMatrices:
        """The Section V-A matrices for ``(chain, region)``, cached; a
        miss runs :data:`~repro.exec.operators.BUILD_ABSORBING`."""
        return self._matrices("absorbing", chain, region, context)

    def doubled(
        self,
        chain: MarkovChain,
        region: Iterable[int],
        context=None,
    ) -> DoubledMatrices:
        """The Section VI doubled matrices, cached; a miss runs
        :data:`~repro.exec.operators.BUILD_DOUBLED`."""
        return self._matrices("doubled", chain, region, context)

    def _matrices(self, kind, chain, region, context):
        from repro.exec.operators import BUILD_ABSORBING, BUILD_DOUBLED

        region = Region(region)
        key = self._key(kind, chain.fingerprint(), region)
        with self._lock:
            cached = self._lookup(key)
            if cached is not None:
                return cached
            self.stats.misses += 1
            self.stats._count(kind)
        operator = BUILD_ABSORBING if kind == "absorbing" else BUILD_DOUBLED
        value = operator.build(chain, region, context)
        with self._lock:
            return self._store(key, value)

    def backward_vectors(
        self,
        chain: MarkovChain,
        window: SpatioTemporalWindow,
        start_times: Iterable[int],
        context=None,
    ) -> Dict[int, np.ndarray]:
        """Section V-B backward vectors for several start times, cached.

        Missing start times are filled in by *one* shared
        :data:`~repro.exec.operators.BACKWARD_SWEEP` pass over the
        chain's own matrix from ``t_end`` down to the earliest missing
        start (the pass yields every intermediate ``v(t)`` for free), so
        asking for the vectors of ``k`` start times costs at most one
        pass -- not ``k`` -- and builds no augmented matrix.
        """
        from repro.exec.operators import BACKWARD_SWEEP

        wanted = sorted({int(t) for t in start_times})
        fingerprint = chain.fingerprint()
        result: Dict[int, np.ndarray] = {}
        missing = []
        with self._lock:
            for start in wanted:
                key = self._key(
                    "backward", fingerprint, window.region,
                    (window.times, start),
                )
                cached = self._lookup(key)
                if cached is not None:
                    result[start] = cached
                else:
                    missing.append(start)
            if missing:
                self.stats.misses += len(missing)
                self.stats._count("backward")
        if missing:
            computed = BACKWARD_SWEEP(
                (window, missing), chain, window.region, context=context
            )
            with self._lock:
                for start, vector in computed.items():
                    vector.setflags(write=False)
                    key = self._key(
                        "backward", fingerprint, window.region,
                        (window.times, start),
                    )
                    result[start] = self._store(key, vector)
        return result

    def ktimes_blocks(
        self,
        chain: MarkovChain,
        window: SpatioTemporalWindow,
        start_times: Iterable[int],
        context=None,
    ) -> Dict[int, np.ndarray]:
        """Section VII suffix-count blocks for several start times, cached.

        The k-times analogue of :meth:`backward_vectors`:
        ``D(start)[s, k]`` answers any object observed at ``start``
        with pdf ``pi`` as ``pi . D(start)``.  Missing starts are
        filled by *one* shared :data:`~repro.exec.operators.KTIMES_CORE`
        recursion from ``t_end`` down to the earliest missing start,
        so asking for ``k`` start times costs at most one pass.
        """
        from repro.exec.operators import KTIMES_CORE

        wanted = sorted({int(t) for t in start_times})
        fingerprint = chain.fingerprint()
        result: Dict[int, np.ndarray] = {}
        missing = []
        with self._lock:
            for start in wanted:
                key = self._key(
                    "ktimes_core", fingerprint, window.region,
                    (window.times, start),
                )
                cached = self._lookup(key)
                if cached is not None:
                    result[start] = cached
                else:
                    missing.append(start)
            if missing:
                self.stats.misses += len(missing)
                self.stats._count("ktimes_core")
        if missing:
            computed = KTIMES_CORE(
                (window, missing), chain, window.region, context=context
            )
            with self._lock:
                for start, block in computed.items():
                    block.setflags(write=False)
                    key = self._key(
                        "ktimes_core", fingerprint, window.region,
                        (window.times, start),
                    )
                    result[start] = self._store(key, block)
        return result

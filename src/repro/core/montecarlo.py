"""Monte-Carlo baseline -- Section VIII-A.

The paper's competitor "samples paths of each object and outputs the
fraction of the sampled paths which fulfill the query predicate".  Since
path sampling is a Bernoulli sequence, the standard deviation of the
estimate is ``sqrt(p (1 - p) / n)`` -- the accuracy bound the paper quotes
for 100 samples.

The sampler here is vectorised over paths: a precomputed row-CDF table
advances *all* samples one timestep with a single inverse-CDF lookup.
It is nonetheless still *orders of magnitude* slower than the exact
matrix approaches, which is precisely the headline result of
Figure 8(a).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.distribution import StateDistribution
from repro.core.errors import (
    InfeasibleEvidenceError,
    QueryError,
    ValidationError,
)
from repro.core.markov import MarkovChain
from repro.core.observation import ObservationSet
from repro.core.query import SpatioTemporalWindow

__all__ = [
    "MonteCarloResult",
    "MonteCarloSampler",
    "mc_exists_probability",
    "mc_forall_probability",
    "mc_ktimes_distribution",
]


@dataclass(frozen=True)
class MonteCarloResult:
    """An MC estimate with its Bernoulli error bound.

    Attributes:
        estimate: the sampled fraction ``p_hat``.
        n_samples: number of sampled paths.
    """

    estimate: float
    n_samples: int

    @property
    def standard_error(self) -> float:
        """``sqrt(p_hat (1 - p_hat) / n)`` -- the paper's accuracy bound."""
        p = self.estimate
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.n_samples)

    def confidence_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Normal-approximation CI, clipped to ``[0, 1]``."""
        margin = z * self.standard_error
        return (
            max(0.0, self.estimate - margin),
            min(1.0, self.estimate + margin),
        )


class MonteCarloSampler:
    """Vectorised possible-world sampler for one chain.

    The full row-CDF table -- one padded cumulative row per state -- is
    precomputed lazily on the first sampling call and cached, so every
    step advances *all* samples with a single vectorised inverse-CDF
    lookup instead of a per-unique-state mask loop.  Repeated queries
    against the same sampler reuse the table.

    Args:
        chain: the Markov model.
        seed: RNG seed (an explicit ``numpy.random.Generator`` may be
            passed instead via ``rng``).
        rng: optional generator overriding ``seed``.
    """

    # resident-memory budget for the padded CDF table (float64 cdf +
    # int32 targets = 12 bytes per states-x-widest-row entry); chains
    # too dense to fit fall back to grouped stepping
    _CDF_TABLE_MAX_BYTES = 128 * 1024 * 1024

    # process-wide CDF tables keyed by chain *fingerprint*: every
    # sampler instance over the same chain content shares one table
    # (each keeps its own RNG, so sharing never couples seeded streams)
    _TABLE_CACHE: "OrderedDict[str, Tuple[np.ndarray, np.ndarray]]" = (
        OrderedDict()
    )
    _TABLE_CACHE_SIZE = 8
    _TABLE_LOCK = threading.Lock()

    def __init__(
        self,
        chain: MarkovChain,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.chain = chain
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self._cdf_table: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._cdf_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def reseed(self, seed: Optional[int]) -> "MonteCarloSampler":
        """Replace the RNG, keeping the (expensive) cached CDF tables.

        The batched MC kernel gives every object its own stream seeded
        from a stable per-object offset, so an estimate does not depend
        on which *other* objects a filter stage removed; reseeding one
        shared sampler avoids re-tabulating the chain per object.
        """
        self.rng = np.random.default_rng(seed)
        return self

    def _full_cdf(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(cdf, targets)`` padded ``(n_states, max_row_nnz)`` tables.

        Row ``s`` holds the cumulative transition probabilities of state
        ``s`` followed by ``1.0`` padding, so for a uniform draw ``r``
        the sampled column is ``count(cdf[s] < r)`` -- padding is never
        selected because the last real entry is exactly one.  Returns
        None when the table would exceed the memory limit.
        """
        if self._cdf_table is None:
            matrix = self.chain.matrix
            n = self.chain.n_states
            counts = np.diff(matrix.indptr)
            width = int(counts.max())
            # the size gate comes before the shared cache so an
            # instance with a tightened limit still takes the grouped
            # fallback even when another sampler tabulated this chain
            if n * width * 12 > self._CDF_TABLE_MAX_BYTES:
                return None
            fingerprint = self.chain.fingerprint()
            with self._TABLE_LOCK:
                cached = self._TABLE_CACHE.get(fingerprint)
                if cached is not None:
                    self._TABLE_CACHE.move_to_end(fingerprint)
            if cached is not None:
                self._cdf_table = cached
                return self._cdf_table
            rows = np.repeat(np.arange(n), counts)
            columns = np.arange(matrix.nnz) - np.repeat(
                matrix.indptr[:-1], counts
            )
            weights = np.zeros((n, width), dtype=float)
            weights[rows, columns] = matrix.data
            cdf = np.cumsum(weights, axis=1)
            cdf /= cdf[:, -1:]  # guard against float drift
            targets = np.zeros((n, width), dtype=np.int32)
            targets[rows, columns] = matrix.indices
            self._cdf_table = (cdf, targets)
            with self._TABLE_LOCK:
                self._TABLE_CACHE.setdefault(fingerprint, self._cdf_table)
                self._TABLE_CACHE.move_to_end(fingerprint)
                while len(self._TABLE_CACHE) > self._TABLE_CACHE_SIZE:
                    self._TABLE_CACHE.popitem(last=False)
        return self._cdf_table

    def _row_cdf(self, state: int) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._cdf_cache.get(state)
        if cached is not None:
            return cached
        matrix = self.chain.matrix
        lo, hi = matrix.indptr[state], matrix.indptr[state + 1]
        targets = matrix.indices[lo:hi].copy()
        weights = matrix.data[lo:hi]
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]  # guard against float drift
        entry = (targets, cdf)
        self._cdf_cache[state] = entry
        return entry

    def _advance(self, current: np.ndarray) -> np.ndarray:
        """One transition for all samples at once."""
        table = self._full_cdf()
        draws = self.rng.random(current.shape[0])
        if table is not None:
            cdf, targets = table
            picks = (cdf[current] < draws[:, None]).sum(axis=1)
            return targets[current, picks]
        # grouped fallback for chains too dense to tabulate
        nxt = np.empty(current.shape[0], dtype=np.int64)
        for state in np.unique(current):
            mask = current == state
            targets, cdf = self._row_cdf(int(state))
            nxt[mask] = targets[np.searchsorted(cdf, draws[mask])]
        return nxt

    def sample_paths(
        self, initial: StateDistribution, horizon: int, n_samples: int
    ) -> np.ndarray:
        """Sample ``n_samples`` paths of length ``horizon + 1``.

        Returns:
            An integer array of shape ``(n_samples, horizon + 1)``; row
            ``i`` is one possible world.
        """
        if n_samples <= 0:
            raise ValidationError(
                f"n_samples must be positive, got {n_samples}"
            )
        if horizon < 0:
            raise ValidationError(
                f"horizon must be non-negative, got {horizon}"
            )
        if initial.n_states != self.chain.n_states:
            raise ValidationError(
                f"initial distribution over {initial.n_states} states, "
                f"chain over {self.chain.n_states}"
            )
        paths = np.empty((n_samples, horizon + 1), dtype=np.int64)
        paths[:, 0] = self.rng.choice(
            initial.n_states, size=n_samples, p=initial.vector
        )
        for step in range(1, horizon + 1):
            paths[:, step] = self._advance(paths[:, step - 1])
        return paths

    # ------------------------------------------------------------------
    # query estimators
    # ------------------------------------------------------------------
    def _hit_counts(
        self,
        paths: np.ndarray,
        window: SpatioTemporalWindow,
        start_time: int,
    ) -> np.ndarray:
        region = np.zeros(self.chain.n_states, dtype=bool)
        region[list(window.region)] = True
        counts = np.zeros(paths.shape[0], dtype=np.int64)
        for time in window.times:
            counts += region[paths[:, time - start_time]]
        return counts

    def exists_probability(
        self,
        initial: StateDistribution,
        window: SpatioTemporalWindow,
        n_samples: int,
        start_time: int = 0,
    ) -> MonteCarloResult:
        """Estimate the PST-exists probability from sampled paths."""
        self._check_window(window, start_time)
        paths = self.sample_paths(
            initial, window.t_end - start_time, n_samples
        )
        counts = self._hit_counts(paths, window, start_time)
        return MonteCarloResult(float((counts > 0).mean()), n_samples)

    def forall_probability(
        self,
        initial: StateDistribution,
        window: SpatioTemporalWindow,
        n_samples: int,
        start_time: int = 0,
    ) -> MonteCarloResult:
        """Estimate the PST-for-all probability from sampled paths."""
        self._check_window(window, start_time)
        paths = self.sample_paths(
            initial, window.t_end - start_time, n_samples
        )
        counts = self._hit_counts(paths, window, start_time)
        return MonteCarloResult(
            float((counts == window.duration).mean()), n_samples
        )

    def ktimes_distribution(
        self,
        initial: StateDistribution,
        window: SpatioTemporalWindow,
        n_samples: int,
        start_time: int = 0,
    ) -> np.ndarray:
        """Estimate the full visit-count distribution from sampled paths."""
        self._check_window(window, start_time)
        paths = self.sample_paths(
            initial, window.t_end - start_time, n_samples
        )
        counts = self._hit_counts(paths, window, start_time)
        return (
            np.bincount(counts, minlength=window.duration + 1).astype(float)
            / n_samples
        )

    def exists_probability_multi(
        self,
        observations: ObservationSet,
        window: SpatioTemporalWindow,
        n_samples: int,
    ) -> MonteCarloResult:
        """Importance-weighted estimate under multiple observations.

        Paths are sampled from the first observation; each path is
        weighted by the likelihood of the later observations at the path's
        states (self-normalised importance sampling of Equation 1).
        """
        first = observations.first
        self._check_window(window, first.time)
        final_time = max(window.t_end, observations.last.time)
        paths = self.sample_paths(
            first.distribution, final_time - first.time, n_samples
        )
        weights = np.ones(n_samples, dtype=float)
        for observation in observations.after(first.time):
            column = paths[:, observation.time - first.time]
            weights *= observation.distribution.vector[column]
        total = float(weights.sum())
        if total <= 0.0:
            raise InfeasibleEvidenceError(
                "all sampled paths are inconsistent with the observations; "
                "increase n_samples or check the observations"
            )
        region = np.zeros(self.chain.n_states, dtype=bool)
        region[list(window.region)] = True
        hit = np.zeros(n_samples, dtype=bool)
        for time in window.times:
            hit |= region[paths[:, time - first.time]]
        # with self-normalised importance weights the Bernoulli error
        # bound applies to Kish's effective sample size, not n_samples
        effective = int(max(1, round(total**2 / float((weights**2).sum()))))
        return MonteCarloResult(
            float((weights * hit).sum() / total), effective
        )

    def _check_window(
        self, window: SpatioTemporalWindow, start_time: int
    ) -> None:
        window.validate_for(self.chain.n_states)
        if window.t_start < start_time:
            raise QueryError(
                f"query time {window.t_start} precedes the observation "
                f"at t={start_time}"
            )


def mc_exists_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    n_samples: int = 100,
    seed: Optional[int] = None,
    start_time: int = 0,
) -> MonteCarloResult:
    """One-shot MC PST-exists estimate (paper default: 100 samples)."""
    sampler = MonteCarloSampler(chain, seed=seed)
    return sampler.exists_probability(
        initial, window, n_samples, start_time
    )


def mc_forall_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    n_samples: int = 100,
    seed: Optional[int] = None,
    start_time: int = 0,
) -> MonteCarloResult:
    """One-shot MC PST-for-all estimate."""
    sampler = MonteCarloSampler(chain, seed=seed)
    return sampler.forall_probability(
        initial, window, n_samples, start_time
    )


def mc_ktimes_distribution(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    n_samples: int = 100,
    seed: Optional[int] = None,
    start_time: int = 0,
) -> np.ndarray:
    """One-shot MC visit-count distribution estimate."""
    sampler = MonteCarloSampler(chain, seed=seed)
    return sampler.ktimes_distribution(
        initial, window, n_samples, start_time
    )

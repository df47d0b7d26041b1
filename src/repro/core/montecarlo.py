"""Monte-Carlo baseline -- Section VIII-A.

The paper's competitor "samples paths of each object and outputs the
fraction of the sampled paths which fulfill the query predicate".  Since
path sampling is a Bernoulli sequence, the standard deviation of the
estimate is ``sqrt(p (1 - p) / n)`` -- the accuracy bound the paper quotes
for 100 samples.

The sampler here is columnar: every object pre-draws its uniforms from
its own generator, then one ``(objects x samples)`` state array steps
through a precomputed row-CDF table once per timestep.  At Figure
8(a)'s sizes it runs below the object-based sweep and 3--12x above the
query-based pass (README.md), not orders of magnitude above both as in
the paper.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.distribution import StateDistribution, SupportBlock
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
    """Columnar possible-world sampler for one chain.

    The full row-CDF table -- one padded cumulative row per state -- is
    precomputed lazily on the first sampling call and cached, so every
    step advances *all* samples of *all* objects with one vectorised
    inverse-CDF lookup instead of a per-unique-state mask loop.
    Repeated queries against the same sampler reuse the table.

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
    # budget for one chunk's pre-drawn float64 uniforms (rows x time
    # span x n_samples x 8 bytes): a long row list samples in chunks
    _DRAW_BLOCK_MAX_BYTES = 4 * 1024 * 1024

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

    def _full_cdf(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(cdf, targets)`` padded ``(n_states, max_row_nnz)`` tables.

        Row ``s`` holds the cumulative transition probabilities of state
        ``s`` followed by ``1.0`` padding, so for a uniform draw ``r``
        the sampled column is ``count(cdf[s] < r)`` -- padding is never
        selected because the last real entry is exactly one.  ``cdf``
        is column-major, for :meth:`_advance`'s column gathers.  Returns
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
            cdf = np.asfortranarray(cdf)
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

    def _advance(self, current: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """One transition for every sample in ``current`` (any shape),
        each driven by its uniform in the same-shaped ``draws``."""
        table = self._full_cdf()
        if table is not None:
            cdf, targets = table
            # the pick counts the row's entries below the draw, one
            # contiguous column gather at a time; the last column is
            # 1.0, never below a draw
            picks = np.zeros(current.shape, dtype=np.intp)
            for column in range(cdf.shape[1] - 1):
                picks += cdf[:, column][current] < draws
            return targets[current, picks].astype(np.intp)
        # grouped fallback for chains too dense to tabulate: the same
        # inverse-CDF pick per unique current state, hence the same paths
        nxt = np.empty(current.shape, dtype=np.int64)
        for state in np.unique(current):
            mask = current == state
            targets, cdf = self._row_cdf(int(state))
            nxt[mask] = targets[np.searchsorted(cdf, draws[mask])]
        return nxt

    def _check(self, n_states: int, n_samples: int) -> None:
        if n_samples <= 0:
            raise ValidationError(
                f"n_samples must be positive, got {n_samples}"
            )
        if n_states != self.chain.n_states:
            raise ValidationError(
                f"initial distribution over {n_states} states, "
                f"chain over {self.chain.n_states}"
            )

    def sample_paths(
        self, initial: StateDistribution, horizon: int, n_samples: int
    ) -> np.ndarray:
        """Sample ``n_samples`` paths of length ``horizon + 1``.

        Returns:
            An integer array of shape ``(n_samples, horizon + 1)``; row
            ``i`` is one possible world.
        """
        self._check(initial.n_states, n_samples)
        if horizon < 0:
            raise ValidationError(
                f"horizon must be non-negative, got {horizon}"
            )
        draws = self.rng.random((horizon + 1, n_samples))
        paths = np.empty((n_samples, horizon + 1), dtype=np.int64)
        paths[:, 0] = _initial_states(*initial.sparse(), draws[0])
        for step in range(1, horizon + 1):
            paths[:, step] = self._advance(paths[:, step - 1], draws[step])
        return paths

    # ------------------------------------------------------------------
    # the columnar sampler
    # ------------------------------------------------------------------
    def estimate(
        self,
        initials: SupportBlock,
        start_times: Sequence[int],
        window: SpatioTemporalWindow,
        n_samples: int,
        seeds: Optional[Sequence[Optional[int]]] = None,
        kind: str = "exists",
        evidence: Optional[Mapping[int, ObservationSet]] = None,
    ) -> np.ndarray:
        """MC answers for many objects, sampled in one stepping loop.

        Row ``i`` draws from ``default_rng(seeds[i])`` (this sampler's
        generator where the seed is ``None``) exactly the uniforms, in
        the order, that sampling the object alone takes, so its answer
        does not depend on which rows share the call.

        Args:
            initials / start_times: each object's first observation.
            seeds: one per object; omitted = all ``None``.
            kind: ``"exists"`` or ``"ktimes"``.
            evidence: ``{row: observation set}`` of the rows sighted
                again, whose later sightings weight the row's paths
                (self-normalised importance sampling of Equation 1).
                K-times samples from the first observation only, as the
                exact k-times kernel does.

        Returns:
            ``(rows,)`` exists probabilities, or the
            ``(rows, |T_q| + 1)`` visit-count distributions.

        Raises:
            InfeasibleEvidenceError: when every path of some row
                contradicts its later observations.
        """
        width = window.duration + 1
        ktimes = kind == "ktimes"
        answers = np.zeros((len(initials), width) if ktimes else len(initials))
        for lo, counts, weights in self._sample(
            initials, start_times, window, n_samples, seeds,
            None if ktimes else evidence,
        ):
            rows = slice(lo, lo + len(counts))
            if ktimes:
                cells = counts + width * np.arange(len(counts))[:, None]
                answers[rows] = np.bincount(
                    cells.ravel(), minlength=len(counts) * width
                ).reshape(-1, width) / n_samples
            else:
                answers[rows] = _weighted(counts > 0, weights)[0]
        return answers

    def _sample(
        self, initials, start_times, window, n_samples, seeds, evidence
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(lo, counts, weights)`` per chunk of rows whose
        pre-drawn uniforms fit ``_DRAW_BLOCK_MAX_BYTES``: ``counts[i, j]``
        is the number of window times path ``j`` of row ``lo + i``
        spends in the region, ``weights[i, j]`` that path's likelihood
        of the row's later observations (one without ``evidence``).  A
        row joins the state array at its first observation and leaves
        after its last."""
        self._check(initials.n_states, n_samples)
        window.validate_for(self.chain.n_states)
        n_rows, evidence = len(initials), evidence or {}
        seeds = [None] * n_rows if seeds is None else seeds
        if len(seeds) != n_rows:
            raise ValidationError(f"{len(seeds)} seeds for {n_rows} objects")
        starts = np.asarray(start_times, dtype=np.int64).reshape(-1)
        if n_rows and starts.max() > window.t_start:
            raise QueryError(
                f"query time {window.t_start} precedes the observation "
                f"at t={starts.max()}"
            )
        finals = np.full(n_rows, window.t_end, dtype=np.int64)
        for row, observations in evidence.items():
            finals[row] = max(finals[row], observations.last.time)
        region = np.zeros(self.chain.n_states, dtype=bool)
        region[window.region.array] = True
        span = int(finals.max() - starts.min()) + 1 if n_rows else 1
        step = max(1, self._DRAW_BLOCK_MAX_BYTES // (8 * span * n_samples))
        for lo in range(0, n_rows, step):
            hi = min(lo + step, n_rows)
            first, last = int(starts[lo:hi].min()), int(finals[lo:hi].max())
            draws = np.empty((last - first + 1, hi - lo, n_samples))
            initial = np.empty((hi - lo, n_samples), dtype=np.intp)
            for row in range(lo, hi):
                seed = seeds[row]
                rng = self.rng if seed is None else np.random.default_rng(seed)
                begin = starts[row] - first
                own = rng.random((finals[row] - starts[row] + 1, n_samples))
                draws[begin:begin + len(own), row - lo] = own
                support = slice(initials.indptr[row], initials.indptr[row + 1])
                initial[row - lo] = _initial_states(
                    initials.states[support], initials.probs[support], own[0]
                )
            fusions: Dict[int, list] = {}
            for row in (row for row in evidence if lo <= row < hi):
                for observation in evidence[row].after(int(starts[row])):
                    fusions.setdefault(observation.time, []).append(
                        (row - lo, observation.distribution.vector)
                    )
            weights = np.ones((hi - lo, n_samples))
            counts = np.zeros((hi - lo, n_samples), dtype=np.int64)
            current = np.zeros((hi - lo, n_samples), dtype=np.intp)
            joins, leaves = starts[lo:hi], finals[lo:hi]
            for time in range(first, last + 1):
                stepping = (joins < time) & (leaves >= time)
                if stepping.all():
                    current = self._advance(current, draws[time - first])
                elif stepping.any():
                    current[stepping] = self._advance(
                        current[stepping], draws[time - first][stepping]
                    )
                joining = joins == time
                current[joining] = initial[joining]
                for row, vector in fusions.get(time, ()):
                    weights[row] *= vector[current[row]]
                if time in window.times:
                    counts += region[current]
            yield lo, counts, weights

    # ------------------------------------------------------------------
    # one-object estimators: one-row calls of the columnar sampler
    # ------------------------------------------------------------------
    def exists_probability(
        self,
        initial: StateDistribution,
        window: SpatioTemporalWindow,
        n_samples: int,
        start_time: int = 0,
    ) -> MonteCarloResult:
        """Estimate the PST-exists probability from sampled paths."""
        estimate = self.estimate(
            _one_row(initial), [start_time], window, n_samples
        )[0]
        return MonteCarloResult(float(estimate), n_samples)

    def forall_probability(
        self,
        initial: StateDistribution,
        window: SpatioTemporalWindow,
        n_samples: int,
        start_time: int = 0,
    ) -> MonteCarloResult:
        """Estimate the PST-for-all probability from sampled paths: the
        share of paths in the region at all ``|T_q|`` times."""
        distribution = self.ktimes_distribution(
            initial, window, n_samples, start_time
        )
        return MonteCarloResult(float(distribution[-1]), n_samples)

    def ktimes_distribution(
        self,
        initial: StateDistribution,
        window: SpatioTemporalWindow,
        n_samples: int,
        start_time: int = 0,
    ) -> np.ndarray:
        """Estimate the full visit-count distribution from sampled paths."""
        return self.estimate(
            _one_row(initial), [start_time], window, n_samples,
            kind="ktimes",
        )[0]

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
        ((_, counts, weights),) = self._sample(
            _one_row(first.distribution), [first.time], window, n_samples,
            None, {0: observations},
        )
        estimate, totals = _weighted(counts > 0, weights)
        # with self-normalised importance weights the Bernoulli error
        # bound applies to Kish's effective sample size, not n_samples
        effective = int(
            max(1, round(totals[0] ** 2 / float((weights**2).sum())))
        )
        return MonteCarloResult(float(estimate[0]), effective)


def _one_row(distribution: StateDistribution) -> SupportBlock:
    return SupportBlock.from_distributions(
        [distribution], distribution.n_states
    )


def _initial_states(
    states: np.ndarray, probabilities: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """``Generator.choice(n, p=vector)`` on ``uniforms``, from the
    vector's support: its cumulative sums are the dense vector's (a
    zero entry never moves a sum)."""
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    return states[np.searchsorted(cdf, uniforms, side="right")]


def _weighted(
    hit: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Self-normalised importance estimates and weight totals, one per
    row (unit weights give the plain fraction ``k / n`` exactly)."""
    totals = weights.sum(axis=1)
    if (totals <= 0.0).any():
        raise InfeasibleEvidenceError(
            "all sampled paths are inconsistent with the observations; "
            "increase n_samples or check the observations"
        )
    return (weights * hit).sum(axis=1) / totals, totals


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

"""PST-k-times query processing -- Section VII.

Definition 4 asks, for every ``k``, for the probability that the object is
inside the query region at *exactly* ``k`` of the query timestamps.  The
paper proposes two object-based evaluations:

* a blocked-matrix construction over the product space
  ``S x {0 .. |T_q|}`` (memory-hungry; see
  :func:`repro.core.matrices.build_ktimes_block_matrices`), and
* the memory-efficient **C(t) algorithm**: a ``(|T_q|+1) x |S|`` matrix
  ``C`` whose entry ``C[i, j]`` is the probability that the object sits at
  state ``s_j`` having visited the window exactly ``i`` times.  Each step
  multiplies every row by ``M``; at query timestamps the columns of the
  query region are shifted down one row (the visit count increments).

Both are implemented here; the test suite checks them against each other,
against the brute-force enumerator, and against the paper's worked example
``(0.136, 0.672, 0.192)``.

These per-object forms are the *reference* implementations.  Database
execution runs the stacked cohort form instead --
:func:`repro.core.batch.batch_ktimes_distribution` over the shared
:data:`~repro.exec.operators.KTIMES_SWEEP` operator (one sparse product
and one cohort-wide column shift per timestep for all objects of a
chain, scattered over slab shards by the process pool of
:mod:`repro.exec.dispatch`) -- and standing sliding-window queries use
the incremental C-block ladder of :mod:`repro.core.streaming` built on
the shift-invariant :data:`~repro.exec.operators.KTIMES_CORE` backward
core.  All of them agree with the functions here to 1e-12 (asserted in
the cross-tier parity suite).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.distribution import StateDistribution
from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.matrices import build_ktimes_block_matrices
from repro.core.query import SpatioTemporalWindow
from repro.linalg.ops import vecmat

__all__ = [
    "ktimes_distribution",
    "ktimes_distribution_blocked",
    "ktimes_probability",
]


def _check(chain: MarkovChain, initial: StateDistribution,
           window: SpatioTemporalWindow, start_time: int) -> None:
    if initial.n_states != chain.n_states:
        raise ValidationError(
            f"initial distribution over {initial.n_states} states, "
            f"chain over {chain.n_states}"
        )
    window.validate_for(chain.n_states)
    if start_time < 0:
        raise QueryError(f"start_time must be non-negative, got {start_time}")
    if window.t_start < start_time:
        raise QueryError(
            f"query time {window.t_start} precedes the observation at "
            f"t={start_time}"
        )


def ktimes_distribution(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
) -> np.ndarray:
    """Distribution over visit counts via the C(t) algorithm (Section VII).

    Args:
        chain: the object's Markov model.
        initial: the object's distribution at ``start_time``.
        window: the query window ``S_q x T_q``.
        start_time: timestamp of the observation.

    Returns:
        A vector ``p`` of length ``|T_q| + 1`` with
        ``p[k] = P(o visits S_q at exactly k times of T_q)``;
        sums to one.
    """
    _check(chain, initial, window, start_time)
    n = chain.n_states
    n_rows = window.duration + 1
    region_columns = np.fromiter(
        window.region, dtype=int, count=len(window.region)
    )
    region_columns.sort()

    c = np.zeros((n_rows, n), dtype=float)
    c[0, :] = initial.vector
    if start_time in window.times:
        # footnote 3: probability mass already inside the window starts
        # with one visit
        _shift_down(c, region_columns)

    matrix = chain.matrix
    for time in range(start_time + 1, window.t_end + 1):
        c = np.asarray(c @ matrix, dtype=float)
        if time in window.times:
            _shift_down(c, region_columns)
    return c.sum(axis=1)


def _shift_down(c: np.ndarray, region_columns: np.ndarray) -> None:
    """Increment the visit count for mass inside the region (in place).

    ``c[i, j] <- c[i-1, j]`` for region columns, and the top row becomes
    zero -- the paper's column shift.
    """
    c[1:, region_columns] = c[:-1, region_columns]
    c[0, region_columns] = 0.0


def ktimes_distribution_blocked(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    start_time: int = 0,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Distribution over visit counts via the blocked matrices.

    The reference implementation the paper describes first: a vector over
    the product space ``S x {0 .. |T_q|}`` pushed through the blocked
    ``M_minus`` / ``M_plus``.  Memory is ``|T_q| + 1`` times the plain
    chain's, which is exactly why the C(t) algorithm exists; this variant
    is kept for cross-validation and the memory ablation benchmark.
    """
    _check(chain, initial, window, start_time)
    n = chain.n_states
    blocks = window.duration + 1
    m_minus, m_plus = build_ktimes_block_matrices(
        chain, window.region, window.duration, backend
    )

    vector = np.zeros(blocks * n, dtype=float)
    vector[:n] = initial.vector
    if start_time in window.times:
        for state in window.region:
            vector[n + state] = vector[state]
            vector[state] = 0.0

    for time in range(start_time + 1, window.t_end + 1):
        matrix = m_plus if time in window.times else m_minus
        vector = np.asarray(vecmat(vector, matrix), dtype=float)
    return vector.reshape(blocks, n).sum(axis=1)


def ktimes_probability(
    chain: MarkovChain,
    initial: StateDistribution,
    window: SpatioTemporalWindow,
    k: int,
    start_time: int = 0,
) -> float:
    """``P(o visits S_q at exactly k times of T_q)`` for a single ``k``."""
    if not (0 <= k <= window.duration):
        raise QueryError(f"k={k} outside [0, |T_q|={window.duration}]")
    return float(
        ktimes_distribution(chain, initial, window, start_time)[k]
    )

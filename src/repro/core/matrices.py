"""The paper's augmented state spaces, stepped on the chain's own matrix.

The central trick of the paper (Sections V-A and VI) folds the pruning
of possible worlds into augmented transition matrices, so that plain
vector--matrix products evaluate queries under possible-worlds
semantics.  The engine keeps the semantics and builds none of them.

Single observation (Section V-A) -- the absorbing construction
---------------------------------------------------------------
A virtual absorbing state ``TOP`` (the paper's black square) is appended
after the ``n`` real states::

    M_minus = [ M            0 ]        M_plus = [ M_out   row_sums_in ]
              [ 0            1 ]                 [ 0            1      ]

where ``M_out`` is ``M`` with every column in ``S_q`` zeroed and
``row_sums_in[i] = sum_{j in S_q} M[i, j]`` is the mass redirected to
``TOP``.  A transition into timestamp ``t`` uses ``M_plus`` when
``t in T_q`` and ``M_minus`` otherwise; worlds entering the query window
are thereby absorbed exactly once.  Both directions step ``M`` itself:
with ``v[TOP] = 1``, ``M_plus . v = M . (v with its S_q entries set to
1)`` (the Section V-B backward pass,
:class:`~repro.exec.operators.BackwardSweep`), and ``x . M_plus`` is
``x_real . M`` with the ``S_q`` mass then moved onto TOP (the forward
sweep, :class:`~repro.exec.operators.ForwardSweep`).  :func:`extend_block`
lays out initial distributions over the augmented states from the
region alone, for both directions.

Multiple observations (Section VI) -- the doubled construction
--------------------------------------------------------------
Worlds that have already hit the window can no longer be collapsed into a
single state, because later observations condition on the current state.
The state space is doubled to ``{s} union {s_top}``::

    M_minus = [ M    0 ]        M_plus = [ M_out   M_in ]
              [ 0    M ]                 [ 0        M   ]

with ``M_in`` keeping only the columns in ``S_q``.  Block one holds worlds
that have not yet intersected the window, block two those that have.
The forward sweep stacks each object as two rows over the real states
and steps both on ``M``; after a step into ``T_q`` it moves the first
row's ``S_q`` entries into the second, which is ``M_plus``.

Section VII's blocked k-times matrices (:func:`build_ktimes_block_matrices`)
remain as the reference construction of the C(t) algorithm.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, List, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.errors import QueryError
from repro.core.markov import MarkovChain
from repro.core.query import Region

__all__ = [
    "build_ktimes_block_matrices",
    "extend_block",
]


def _coo_arrays(
    chain: MarkovChain, region: Region
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The chain's transitions as ``(rows, cols, values, target_inside)``.

    ``target_inside`` is the boolean mask of entries whose target column
    lies in ``region`` -- the partition every augmented construction
    needs, computed without a Python-level triple loop.
    """
    coo = chain.matrix.tocoo()
    rows = np.asarray(coo.row, dtype=np.int64)
    cols = np.asarray(coo.col, dtype=np.int64)
    values = np.asarray(coo.data, dtype=float)
    inside = _region_mask(region, chain.n_states)[cols]
    return rows, cols, values, inside


def _csr(size: int, rows, cols, values) -> sp.csr_matrix:
    """A ``size x size`` CSR matrix from parallel COO arrays
    (duplicate coordinates sum)."""
    return sp.csr_matrix(
        (
            np.asarray(values, dtype=float),
            (
                np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
            ),
        ),
        shape=(size, size),
        dtype=float,
    )


def _check_region(chain: MarkovChain, region: Iterable[int]) -> Region:
    frozen = Region(region)
    if not frozen:
        raise QueryError("query region is empty")
    if frozen.array[0] < 0 or frozen.array[-1] >= chain.n_states:
        raise QueryError(
            f"region state outside [0, {chain.n_states}): "
            f"{frozen.array[:4].tolist()}..."
        )
    return frozen


def _region_mask(region: Iterable[int], n_states: int) -> np.ndarray:
    """Boolean membership mask of ``region`` over the real states."""
    mask = np.zeros(n_states, dtype=bool)
    mask[Region(region).array] = True
    return mask


def extend_block(
    block, region: Region, start_time: int, times: FrozenSet[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Section V-A initial vectors of a whole
    :class:`~repro.core.distribution.SupportBlock` at once.

    When the start time itself belongs to ``T_q`` (the paper's special
    case), the mass already inside the region counts as a true hit and
    sits on TOP.  Returns the extended initial vectors of the block's
    rows as COO triples ``(row, augmented state, mass)`` -- at
    most one entry per ``(row, state)``, TOP at index
    ``block.n_states`` -- ready to be scattered into a sweep stack or
    reduced against a backward vector.
    """
    rows = block.entry_rows()
    if start_time not in times:
        return rows, block.states, block.probs
    inside = _region_mask(region, block.n_states)[block.states]
    hit = block.row_sums(np.where(inside, block.probs, 0.0))
    outside = ~inside
    return (
        np.concatenate([rows[outside], np.arange(len(block))]),
        np.concatenate([
            block.states[outside],
            np.full(len(block), block.n_states, dtype=np.int64),
        ]),
        np.concatenate([block.probs[outside], hit]),
    )


def build_ktimes_block_matrices(
    chain: MarkovChain,
    region: Iterable[int],
    n_query_times: int,
) -> Tuple[Any, Any]:
    """The memory-*inefficient* blocked matrices for PSTkQ (Section VII).

    Builds the ``(|T_q|+1) * n`` square matrices whose block ``b`` tracks
    worlds that have visited the window exactly ``b`` times::

        M_minus = diag(M, ..., M)
        M_plus  = block-bidiagonal with M_out on the diagonal and M_in on
                  the superdiagonal (the last block keeps full M, as the
                  count saturates at |T_q|).

    The paper recommends the :mod:`repro.core.ktimes` C(t) algorithm
    instead; this construction exists as its reference implementation and
    for the memory-ablation benchmark.

    Returns:
        ``(m_minus, m_plus)`` of dimension ``(n_query_times + 1) * n``.
    """
    frozen = _check_region(chain, region)
    if n_query_times < 1:
        raise QueryError(
            f"need at least one query time, got {n_query_times}"
        )
    n = chain.n_states
    blocks = n_query_times + 1
    rows, cols, values, inside = _coo_arrays(chain, frozen)

    minus_rows: List[np.ndarray] = []
    minus_cols: List[np.ndarray] = []
    minus_vals: List[np.ndarray] = []
    plus_rows: List[np.ndarray] = []
    plus_cols: List[np.ndarray] = []
    plus_vals: List[np.ndarray] = []
    for b in range(blocks):
        offset = b * n
        minus_rows.append(rows + offset)
        minus_cols.append(cols + offset)
        minus_vals.append(values)
        if b < blocks - 1:
            plus_rows.append(rows[~inside] + offset)
            plus_cols.append(cols[~inside] + offset)
            plus_vals.append(values[~inside])
            plus_rows.append(rows[inside] + offset)
            plus_cols.append(cols[inside] + offset + n)
            plus_vals.append(values[inside])
        else:
            # the count saturates: the final block keeps the full chain
            plus_rows.append(rows + offset)
            plus_cols.append(cols + offset)
            plus_vals.append(values)

    size = blocks * n
    return (
        _csr(
            size,
            np.concatenate(minus_rows),
            np.concatenate(minus_cols),
            np.concatenate(minus_vals),
        ),
        _csr(
            size,
            np.concatenate(plus_rows),
            np.concatenate(plus_cols),
            np.concatenate(plus_vals),
        ),
    )

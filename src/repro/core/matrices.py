"""The paper's augmented transition matrices.

This module implements the central trick of the paper (Sections V-A and
VI): pruning of possible worlds is *folded into the transition matrices*
so that plain vector--matrix products evaluate queries under possible-
worlds semantics.

Single observation (Section V-A) -- the absorbing construction
---------------------------------------------------------------
A virtual absorbing state ``TOP`` (the paper's black square) is appended
after the ``n`` real states.  Two matrices of size ``(n+1) x (n+1)`` are
derived from the chain ``M`` and the query region ``S_q``::

    M_minus = [ M            0 ]        M_plus = [ M_out   row_sums_in ]
              [ 0            1 ]                 [ 0            1      ]

where ``M_out`` is ``M`` with every column in ``S_q`` zeroed and
``row_sums_in[i] = sum_{j in S_q} M[i, j]`` is the mass redirected to
``TOP``.  A transition into timestamp ``t`` uses ``M_plus`` when
``t in T_q`` and ``M_minus`` otherwise; worlds entering the query window
are thereby absorbed exactly once.

Multiple observations (Section VI) -- the doubled construction
--------------------------------------------------------------
Worlds that have already hit the window can no longer be collapsed into a
single state, because later observations condition on the current state.
The state space is doubled to ``{s} union {s_top}``::

    M_minus = [ M    0 ]        M_plus = [ M_out   M_in ]
              [ 0    M ]                 [ 0        M   ]

with ``M_in`` keeping only the columns in ``S_q``.  Block one holds worlds
that have not yet intersected the window, block two those that have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.query import Region
from repro.linalg.ops import Backend, get_backend

__all__ = [
    "AbsorbingMatrices",
    "DoubledMatrices",
    "build_absorbing_matrices",
    "build_doubled_matrices",
    "build_ktimes_block_matrices",
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


@dataclass
class AbsorbingMatrices:
    """The Section V-A pair ``(M_minus, M_plus)`` with the TOP state.

    Attributes:
        n_states: number of *real* states; TOP has index ``n_states``.
        region: the query region baked into ``m_plus``.
        m_minus: transition matrix used when the target time is outside
            ``T_q``.
        m_plus: transition matrix used when the target time is inside
            ``T_q``.
        backend: the linear-algebra backend that built the matrices.
    """

    n_states: int
    region: FrozenSet[int]
    m_minus: Any
    m_plus: Any
    backend: Backend
    _transposed: Optional[Tuple[Any, Any]] = field(default=None, repr=False)

    @property
    def top_index(self) -> int:
        """Index of the absorbing TOP state."""
        return self.n_states

    @property
    def size(self) -> int:
        """Dimension of the augmented matrices (``n_states + 1``)."""
        return self.n_states + 1

    def matrix_for_target_time(self, time: int, times: FrozenSet[int]) -> Any:
        """``m_plus`` when ``time`` is a query time, else ``m_minus``."""
        return self.m_plus if time in times else self.m_minus

    def transposed(self) -> Tuple[Any, Any]:
        """``(M_minus^T, M_plus^T)`` for the query-based backward pass."""
        if self._transposed is None:
            self._transposed = (
                self.backend.transpose(self.m_minus),
                self.backend.transpose(self.m_plus),
            )
        return self._transposed

    def extend_initial(
        self, initial: np.ndarray, start_time: int, times: FrozenSet[int]
    ) -> np.ndarray:
        """Append the TOP entry to an initial distribution vector.

        Implements the paper's special case: when the start time itself
        belongs to ``T_q``, the mass already inside the region counts as a
        true hit and moves to TOP immediately.
        """
        if initial.shape != (self.n_states,):
            raise ValidationError(
                f"initial vector has shape {initial.shape}, "
                f"expected ({self.n_states},)"
            )
        extended = np.zeros(self.size, dtype=float)
        extended[: self.n_states] = initial
        if start_time in times:
            region_indices = np.fromiter(
                self.region, dtype=int, count=len(self.region)
            )
            extended[self.top_index] = float(initial[region_indices].sum())
            extended[region_indices] = 0.0
        return extended

    def extend_block(
        self, block, start_time: int, times: FrozenSet[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`extend_initial` for a whole
        :class:`~repro.core.distribution.SupportBlock` at once.

        Returns the extended initial vectors of the block's rows as
        COO triples ``(row, augmented state, mass)`` -- at most one
        entry per ``(row, state)`` -- ready to be scattered into a
        sweep stack or reduced against a backward vector.
        """
        rows = block.entry_rows()
        if start_time not in times:
            return rows, block.states, block.probs
        inside = _region_mask(self.region, self.n_states)[block.states]
        hit = block.row_sums(np.where(inside, block.probs, 0.0))
        outside = ~inside
        return (
            np.concatenate([rows[outside], np.arange(len(block))]),
            np.concatenate([
                block.states[outside],
                np.full(len(block), self.top_index, dtype=np.int64),
            ]),
            np.concatenate([block.probs[outside], hit]),
        )


@dataclass
class DoubledMatrices:
    """The Section VI pair over the doubled state space ``{s} u {s_top}``.

    States ``0 .. n-1`` are "window not yet hit"; states ``n .. 2n-1`` are
    their "window already hit" shadows.
    """

    n_states: int
    region: FrozenSet[int]
    m_minus: Any
    m_plus: Any
    backend: Backend
    _transposed: Optional[Tuple[Any, Any]] = field(default=None, repr=False)

    @property
    def size(self) -> int:
        """Dimension of the doubled matrices (``2 * n_states``)."""
        return 2 * self.n_states

    def matrix_for_target_time(self, time: int, times: FrozenSet[int]) -> Any:
        """``m_plus`` when ``time`` is a query time, else ``m_minus``."""
        return self.m_plus if time in times else self.m_minus

    def transposed(self) -> Tuple[Any, Any]:
        """``(M_minus^T, M_plus^T)``."""
        if self._transposed is None:
            self._transposed = (
                self.backend.transpose(self.m_minus),
                self.backend.transpose(self.m_plus),
            )
        return self._transposed

    def extend_initial(
        self, initial: np.ndarray, start_time: int, times: FrozenSet[int]
    ) -> np.ndarray:
        """Lay out an initial distribution over the doubled space."""
        if initial.shape != (self.n_states,):
            raise ValidationError(
                f"initial vector has shape {initial.shape}, "
                f"expected ({self.n_states},)"
            )
        extended = np.zeros(self.size, dtype=float)
        extended[: self.n_states] = initial
        if start_time in times:
            for state in self.region:
                extended[self.n_states + state] = extended[state]
                extended[state] = 0.0
        return extended

    def extend_block(
        self, block, start_time: int, times: FrozenSet[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`extend_initial` for a whole
        :class:`~repro.core.distribution.SupportBlock`, as COO triples
        ``(row, doubled state, mass)``."""
        states = block.states
        if start_time in times:
            inside = _region_mask(self.region, self.n_states)[states]
            states = np.where(inside, states + self.n_states, states)
        return block.entry_rows(), states, block.probs

    def tile_observation(self, observation: np.ndarray) -> np.ndarray:
        """Replicate an observation pdf over both blocks.

        Observations carry no information about whether the window was hit
        (the paper's ``obs = (0, 0.5, 0, 0, 0.5, 0)`` example), so the same
        pdf applies to both the plain and the shadow block.
        """
        if observation.shape != (self.n_states,):
            raise ValidationError(
                f"observation vector has shape {observation.shape}, "
                f"expected ({self.n_states},)"
            )
        return np.concatenate([observation, observation])

    def hit_probability(self, vector: np.ndarray) -> float:
        """Total mass in the shadow ("window hit") block."""
        return float(np.asarray(vector)[self.n_states:].sum())


def build_absorbing_matrices(
    chain: MarkovChain,
    region: Iterable[int],
    backend: Optional[str] = None,
) -> AbsorbingMatrices:
    """Construct the Section V-A matrices for ``chain`` and ``region``.

    Args:
        chain: the object's Markov model.
        region: the spatial query region ``S_q``.
        backend: linear-algebra backend name (default scipy).
    """
    frozen = _check_region(chain, region)
    linalg = get_backend(backend)
    n = chain.n_states
    top = n
    rows, cols, values, inside = _coo_arrays(chain, frozen)

    minus_rows = np.append(rows, top)
    minus_cols = np.append(cols, top)
    minus_vals = np.append(values, 1.0)

    redirected = np.bincount(
        rows[inside], weights=values[inside], minlength=n
    )
    sources = np.nonzero(redirected)[0]
    plus_rows = np.concatenate([rows[~inside], sources, [top]])
    plus_cols = np.concatenate([
        cols[~inside], np.full(sources.size, top, dtype=np.int64), [top]
    ])
    plus_vals = np.concatenate([
        values[~inside], redirected[sources], [1.0]
    ])

    return AbsorbingMatrices(
        n_states=n,
        region=frozen,
        m_minus=linalg.build_coo(
            n + 1, n + 1, minus_rows, minus_cols, minus_vals
        ),
        m_plus=linalg.build_coo(
            n + 1, n + 1, plus_rows, plus_cols, plus_vals
        ),
        backend=linalg,
    )


def build_doubled_matrices(
    chain: MarkovChain,
    region: Iterable[int],
    backend: Optional[str] = None,
) -> DoubledMatrices:
    """Construct the Section VI doubled matrices for ``chain``/``region``."""
    frozen = _check_region(chain, region)
    linalg = get_backend(backend)
    n = chain.n_states
    rows, cols, values, inside = _coo_arrays(chain, frozen)

    # minus: blocks (1,1) and (2,2) both hold M
    minus_rows = np.concatenate([rows, rows + n])
    minus_cols = np.concatenate([cols, cols + n])
    minus_vals = np.concatenate([values, values])
    # plus: block (2,2) holds M, (1,1) holds M - M_in, (1,2) holds M_in
    plus_rows = np.concatenate([
        rows + n, rows[~inside], rows[inside]
    ])
    plus_cols = np.concatenate([
        cols + n, cols[~inside], cols[inside] + n
    ])
    plus_vals = np.concatenate([
        values, values[~inside], values[inside]
    ])

    return DoubledMatrices(
        n_states=n,
        region=frozen,
        m_minus=linalg.build_coo(
            2 * n, 2 * n, minus_rows, minus_cols, minus_vals
        ),
        m_plus=linalg.build_coo(
            2 * n, 2 * n, plus_rows, plus_cols, plus_vals
        ),
        backend=linalg,
    )


def build_ktimes_block_matrices(
    chain: MarkovChain,
    region: Iterable[int],
    n_query_times: int,
    backend: Optional[str] = None,
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
    linalg = get_backend(backend)
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
        linalg.build_coo(
            size,
            size,
            np.concatenate(minus_rows),
            np.concatenate(minus_cols),
            np.concatenate(minus_vals),
        ),
        linalg.build_coo(
            size,
            size,
            np.concatenate(plus_rows),
            np.concatenate(plus_cols),
            np.concatenate(plus_vals),
        ),
    )

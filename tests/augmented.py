"""The paper's augmented matrices, built out as oracles.

Section V-A appends an absorbing TOP state to the chain, Section VI
doubles the state space into "window not yet hit" / "window hit"
blocks.  The engine steps the chain's own matrix instead (see
:mod:`repro.core.matrices`); the tests step these constructions row by
row and compare.  ``tests/test_matrices.py`` checks them against the
paper's example matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Iterable

import numpy as np
import scipy.sparse as sp

from repro.core.errors import QueryError, ValidationError
from repro.core.markov import MarkovChain
from repro.core.query import Region


def _check_region(chain: MarkovChain, region: Iterable[int]) -> Region:
    frozen = Region(region)
    if not frozen:
        raise QueryError("query region is empty")
    if frozen.array[0] < 0 or frozen.array[-1] >= chain.n_states:
        raise QueryError(f"region state outside [0, {chain.n_states})")
    return frozen


def _coo(chain: MarkovChain, region: Region):
    """``(rows, cols, values, target inside the region)`` of ``M``."""
    coo = chain.matrix.tocoo()
    rows = np.asarray(coo.row, dtype=np.int64)
    cols = np.asarray(coo.col, dtype=np.int64)
    inside = np.zeros(chain.n_states, dtype=bool)
    inside[region.array] = True
    return rows, cols, np.asarray(coo.data, dtype=float), inside[cols]


def _csr(size, rows, cols, values) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.asarray(values, dtype=float), (rows, cols)), shape=(size, size)
    )


def _check_shape(vector: np.ndarray, n_states: int, what: str) -> None:
    if vector.shape != (n_states,):
        raise ValidationError(
            f"{what} vector has shape {vector.shape}, "
            f"expected ({n_states},)"
        )


@dataclass
class AbsorbingMatrices:
    """The Section V-A pair ``(M_minus, M_plus)``; TOP is state ``n``."""

    n_states: int
    region: FrozenSet[int]
    m_minus: Any
    m_plus: Any

    @property
    def top_index(self) -> int:
        return self.n_states

    @property
    def size(self) -> int:
        return self.n_states + 1

    def matrix_for_target_time(self, time: int, times) -> Any:
        return self.m_plus if time in times else self.m_minus

    def transposed(self):
        return self.m_minus.T.tocsr(), self.m_plus.T.tocsr()

    def extend_initial(
        self, initial: np.ndarray, start_time: int, times
    ) -> np.ndarray:
        """Append TOP; a start at a query time moves the region's mass
        onto it (the paper's special case)."""
        _check_shape(initial, self.n_states, "initial")
        extended = np.append(np.asarray(initial, dtype=float), 0.0)
        if start_time in times:
            inside = sorted(self.region)
            extended[self.top_index] = extended[inside].sum()
            extended[inside] = 0.0
        return extended


@dataclass
class DoubledMatrices:
    """The Section VI pair over ``{s} u {s_top}``: states ``n .. 2n-1``
    are the "window already hit" shadows of ``0 .. n-1``."""

    n_states: int
    region: FrozenSet[int]
    m_minus: Any
    m_plus: Any

    @property
    def size(self) -> int:
        return 2 * self.n_states

    def matrix_for_target_time(self, time: int, times) -> Any:
        return self.m_plus if time in times else self.m_minus

    def transposed(self):
        return self.m_minus.T.tocsr(), self.m_plus.T.tocsr()

    def extend_initial(
        self, initial: np.ndarray, start_time: int, times
    ) -> np.ndarray:
        """Lay out an initial distribution over the doubled space."""
        _check_shape(initial, self.n_states, "initial")
        extended = np.zeros(self.size, dtype=float)
        extended[: self.n_states] = initial
        if start_time in times:
            for state in self.region:
                extended[self.n_states + state] = extended[state]
                extended[state] = 0.0
        return extended

    def tile_observation(self, observation: np.ndarray) -> np.ndarray:
        """The observation pdf over both blocks (an observation says
        nothing about whether the window was hit)."""
        _check_shape(observation, self.n_states, "observation")
        return np.concatenate([observation, observation])

    def hit_probability(self, vector: np.ndarray) -> float:
        """Total mass in the shadow block."""
        return float(np.asarray(vector)[self.n_states:].sum())


def build_absorbing_matrices(chain, region) -> AbsorbingMatrices:
    """``M_minus`` is ``M`` plus an absorbing TOP; ``M_plus`` moves
    every transition into the region onto TOP."""
    frozen = _check_region(chain, region)
    n = chain.n_states
    rows, cols, values, inside = _coo(chain, frozen)
    redirected = np.bincount(rows[inside], weights=values[inside], minlength=n)
    sources = np.flatnonzero(redirected)
    top = np.array([n])
    return AbsorbingMatrices(
        n_states=n,
        region=frozen,
        m_minus=_csr(
            n + 1, np.r_[rows, top], np.r_[cols, top], np.r_[values, 1.0]
        ),
        m_plus=_csr(
            n + 1,
            np.r_[rows[~inside], sources, top],
            np.r_[cols[~inside], np.full(sources.size, n), top],
            np.r_[values[~inside], redirected[sources], 1.0],
        ),
    )


def build_doubled_matrices(chain, region) -> DoubledMatrices:
    """``M_minus = diag(M, M)``; ``M_plus`` sends block one's
    transitions into the region to the shadow block."""
    frozen = _check_region(chain, region)
    n = chain.n_states
    rows, cols, values, inside = _coo(chain, frozen)
    return DoubledMatrices(
        n_states=n,
        region=frozen,
        m_minus=_csr(
            2 * n, np.r_[rows, rows + n], np.r_[cols, cols + n],
            np.r_[values, values],
        ),
        m_plus=_csr(
            2 * n,
            np.r_[rows + n, rows],
            np.r_[cols + n, np.where(inside, cols + n, cols)],
            np.r_[values, values],
        ),
    )

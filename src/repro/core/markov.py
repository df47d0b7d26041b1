"""Validated Markov chains over discrete state spaces.

The paper models every uncertain trajectory as a first-order, homogeneous
Markov chain (Definitions 5 and 6): a row-stochastic transition matrix
``M`` with ``M[i, j] = P(o(t+1) = s_j | o(t) = s_i)``.  All query
processing then reduces to vector--matrix products:

* Corollary 1: ``P(o, t+1) = P(o, t) . M``
* Corollary 2: ``P(o, t+m) = P(o, t) . M^m``

:class:`MarkovChain` wraps a sparse CSR transition matrix (scipy by
default, the pure-Python backend on request), validates stochasticity at
construction, and provides transition, reachability and stationary-
distribution utilities used by the query processors and the pruning layer.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.distribution import StateDistribution
from repro.core.errors import (
    DimensionMismatchError,
    NotStochasticError,
    ValidationError,
)
from repro.linalg.sparse import CSRMatrix

__all__ = ["MarkovChain"]

_ROW_SUM_TOLERANCE = 1e-8


class MarkovChain:
    """A homogeneous first-order Markov chain.

    Args:
        matrix: the row-stochastic single-step transition matrix.  Accepts a
            scipy sparse matrix, a dense array-like, or a
            :class:`repro.linalg.sparse.CSRMatrix`.
        validate: verify row-stochasticity (non-negative entries, each row
            summing to one).  Disable only for matrices produced by code
            that already guarantees the invariant.

    Raises:
        NotStochasticError: when validation fails.
    """

    __slots__ = (
        "_matrix",
        "_transpose_cache",
        "_predecessor_cache",
        "_band_cache",
        "_successors_cache",
        "_fingerprint_cache",
    )

    def __init__(self, matrix, validate: bool = True) -> None:
        self._matrix = self._coerce(matrix)
        self._transpose_cache: Optional[sp.csr_matrix] = None
        self._predecessor_cache: Optional[sp.csr_matrix] = None
        self._band_cache: Optional[Tuple[int, int]] = None
        self._successors_cache: Optional[List[np.ndarray]] = None
        self._fingerprint_cache: Optional[str] = None
        if validate:
            self.validate()

    @staticmethod
    def _coerce(matrix) -> sp.csr_matrix:
        if isinstance(matrix, CSRMatrix):
            coerced = sp.csr_matrix(
                (matrix.data, matrix.indices, matrix.indptr),
                shape=matrix.shape,
                dtype=float,
            )
        elif sp.issparse(matrix):
            coerced = matrix.tocsr().astype(float)
        else:
            dense = np.asarray(matrix, dtype=float)
            if dense.ndim != 2:
                raise ValidationError(
                    f"transition matrix must be 2-D, got shape {dense.shape}"
                )
            coerced = sp.csr_matrix(dense)
        if coerced.shape[0] != coerced.shape[1]:
            raise DimensionMismatchError(
                f"transition matrix must be square, got {coerced.shape}"
            )
        if coerced.shape[0] == 0:
            raise ValidationError("transition matrix over zero states")
        coerced.sort_indices()
        return coerced

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls, n_states: int, transitions: Mapping[int, Mapping[int, float]]
    ) -> "MarkovChain":
        """Build from nested ``{source: {target: probability}}`` mappings."""
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for source, targets in transitions.items():
            for target, probability in targets.items():
                rows.append(int(source))
                cols.append(int(target))
                vals.append(float(probability))
        matrix = sp.csr_matrix(
            (vals, (rows, cols)), shape=(n_states, n_states), dtype=float
        )
        return cls(matrix)

    @classmethod
    def identity(cls, n_states: int) -> "MarkovChain":
        """The chain in which every state is absorbing."""
        return cls(sp.identity(n_states, format="csr", dtype=float),
                   validate=False)

    # ------------------------------------------------------------------
    # validation / inspection
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Verify the matrix is row-stochastic; raise otherwise."""
        if self._matrix.nnz and float(self._matrix.data.min()) < 0.0:
            raise NotStochasticError(
                f"negative transition probability "
                f"{float(self._matrix.data.min())}"
            )
        row_sums = np.asarray(self._matrix.sum(axis=1)).ravel()
        bad = np.nonzero(np.abs(row_sums - 1.0) > _ROW_SUM_TOLERANCE)[0]
        if bad.size:
            first = int(bad[0])
            raise NotStochasticError(
                f"{bad.size} row(s) do not sum to 1; first offender: "
                f"row {first} sums to {row_sums[first]!r}"
            )

    @property
    def matrix(self) -> sp.csr_matrix:
        """The single-step transition matrix (scipy CSR)."""
        return self._matrix

    @property
    def n_states(self) -> int:
        """Number of states ``|S|``."""
        return int(self._matrix.shape[0])

    @property
    def nnz(self) -> int:
        """Number of stored transitions."""
        return int(self._matrix.nnz)

    def transition_probability(self, source: int, target: int) -> float:
        """Single-step probability ``P[source, target]``."""
        self._check_state(source)
        self._check_state(target)
        return float(self._matrix[source, target])

    def successors(self, state: int) -> List[int]:
        """States reachable from ``state`` in one step (sorted)."""
        self._check_state(state)
        if self._successors_cache is None:
            matrix = self._matrix
            self._successors_cache = [
                matrix.indices[matrix.indptr[i]:matrix.indptr[i + 1]]
                for i in range(self.n_states)
            ]
        return [int(j) for j in self._successors_cache[state]]

    def successor_distribution(self, state: int) -> StateDistribution:
        """Distribution over next states given the current state."""
        self._check_state(state)
        row = np.zeros(self.n_states, dtype=float)
        matrix = self._matrix
        lo, hi = matrix.indptr[state], matrix.indptr[state + 1]
        row[matrix.indices[lo:hi]] = matrix.data[lo:hi]
        return StateDistribution(row, normalize=True)

    def is_absorbing_state(self, state: int) -> bool:
        """Whether ``state`` transitions only to itself."""
        return self.successors(state) == [state]

    def _check_state(self, state: int) -> None:
        if not (0 <= state < self.n_states):
            raise ValidationError(
                f"state {state} out of range [0, {self.n_states})"
            )

    # ------------------------------------------------------------------
    # dynamics (Corollaries 1 and 2)
    # ------------------------------------------------------------------
    def step(self, distribution: StateDistribution) -> StateDistribution:
        """One transition: ``P(o, t+1) = P(o, t) . M`` (Corollary 1)."""
        if distribution.n_states != self.n_states:
            raise DimensionMismatchError(
                f"distribution over {distribution.n_states} states, "
                f"chain over {self.n_states}"
            )
        return StateDistribution(distribution.vector @ self._matrix,
                                 normalize=True)

    def propagate(
        self, distribution: StateDistribution, steps: int
    ) -> StateDistribution:
        """``m`` transitions: ``P(o, t+m) = P(o, t) . M^m`` (Corollary 2).

        Implemented as ``m`` successive vector--matrix products, which is
        the paper's evaluation strategy (and asymptotically cheaper than
        forming ``M^m`` explicitly for sparse ``M``).
        """
        if steps < 0:
            raise ValidationError(f"steps must be non-negative, got {steps}")
        vector = distribution.vector
        for _ in range(steps):
            vector = vector @ self._matrix
        return StateDistribution(vector, normalize=True)

    def marginals(
        self, initial: StateDistribution, horizon: int
    ) -> List[StateDistribution]:
        """``[P(o, 0), P(o, 1), ..., P(o, horizon)]`` in one forward sweep."""
        if horizon < 0:
            raise ValidationError(
                f"horizon must be non-negative, got {horizon}"
            )
        result = [initial]
        vector = initial.vector
        for _ in range(horizon):
            vector = vector @ self._matrix
            result.append(StateDistribution(vector, normalize=True))
        return result

    def power(self, exponent: int) -> sp.csr_matrix:
        """The ``m``-step transition matrix ``M^m`` (Chapman-Kolmogorov)."""
        if exponent < 0:
            raise ValidationError(
                f"exponent must be non-negative, got {exponent}"
            )
        result = sp.identity(self.n_states, format="csr", dtype=float)
        base = self._matrix
        remaining = exponent
        while remaining:
            if remaining & 1:
                result = (result @ base).tocsr()
            remaining >>= 1
            if remaining:
                base = (base @ base).tocsr()
        return result

    def transpose_matrix(self) -> sp.csr_matrix:
        """``M^T`` (cached) -- the query-based approach's workhorse."""
        if self._transpose_cache is None:
            self._transpose_cache = self._matrix.transpose().tocsr()
        return self._transpose_cache

    def predecessor_graph(self) -> sp.csr_matrix:
        """``M^T`` as a unit-weight graph (cached): an edge ``t -> s``
        for every *positive* ``M[s, t]``.  Graph routines count a stored
        zero as an edge, so those are dropped here."""
        if self._predecessor_cache is None:
            self._predecessor_cache = (
                (self._matrix > 0.0).transpose().astype(np.float64).tocsr()
            )
        return self._predecessor_cache

    def band(self) -> Tuple[int, int]:
        """``(down, up)`` (cached, exact): no transition leaves ``s``
        for a state below ``s - down`` or above ``s + up``."""
        if self._band_cache is None:
            coo = self._matrix.tocoo()
            offsets = np.append((coo.col - coo.row)[coo.data != 0.0], 0)
            self._band_cache = (-int(offsets.min()), int(offsets.max()))
        return self._band_cache

    def fingerprint(self) -> str:
        """A content hash of the transition matrix (cached).

        Two chains with identical sparsity structure and values share the
        fingerprint, so cross-query caches keyed on it (see
        :mod:`repro.core.plan_cache`) survive database reloads and
        equal-by-value chain copies.
        """
        if self._fingerprint_cache is None:
            import hashlib

            matrix = self._matrix
            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(matrix.shape).encode())
            digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
            digest.update(np.ascontiguousarray(matrix.indices).tobytes())
            digest.update(np.ascontiguousarray(matrix.data).tobytes())
            self._fingerprint_cache = digest.hexdigest()
        return self._fingerprint_cache

    # ------------------------------------------------------------------
    # reachability (used for pruning, Section V-C discussion)
    # ------------------------------------------------------------------
    def reachable_in(
        self, sources: Iterable[int], steps: int
    ) -> FrozenSet[int]:
        """States reachable in *exactly* ``steps`` transitions."""
        current: Set[int] = {self._checked(s) for s in sources}
        for _ in range(steps):
            nxt: Set[int] = set()
            for state in current:
                nxt.update(self.successors(state))
            current = nxt
            if not current:
                break
        return frozenset(current)

    def can_reach(
        self, sources: Iterable[int], region: Iterable[int], steps: int
    ) -> bool:
        """Whether any state of ``region`` is reachable within ``steps``.

        BFS with early exit; the pruning layer uses this to discard objects
        that cannot possibly satisfy a query.
        """
        target = frozenset(region)
        seen: Set[int] = {self._checked(s) for s in sources}
        if seen & target:
            return True
        frontier = set(seen)
        for _ in range(steps):
            nxt: Set[int] = set()
            for state in frontier:
                for successor in self.successors(state):
                    if successor in target:
                        return True
                    if successor not in seen:
                        seen.add(successor)
                        nxt.add(successor)
            if not nxt:
                return False
            frontier = nxt
        return False

    def _checked(self, state: int) -> int:
        self._check_state(state)
        return int(state)

    # ------------------------------------------------------------------
    # long-run behaviour
    # ------------------------------------------------------------------
    def stationary_distribution(
        self, tolerance: float = 1e-12, max_iterations: int = 100_000
    ) -> StateDistribution:
        """A stationary distribution found by power iteration.

        Converges for ergodic chains; for periodic chains the iteration
        averages successive iterates (Cesaro), which converges to a
        stationary distribution as well.

        Raises:
            ValidationError: when the iteration fails to converge.
        """
        vector = np.full(self.n_states, 1.0 / self.n_states)
        for _ in range(max_iterations):
            nxt = vector @ self._matrix
            averaged = 0.5 * (nxt + vector)  # damping handles periodicity
            averaged = averaged / averaged.sum()
            if float(np.abs(averaged - vector).max()) < tolerance:
                return StateDistribution(averaged, normalize=True)
            vector = averaged
        raise ValidationError(
            f"power iteration did not converge in {max_iterations} steps"
        )

    # ------------------------------------------------------------------
    # conversions / views
    # ------------------------------------------------------------------
    def to_pure(self) -> CSRMatrix:
        """The transition matrix as a pure-Python CSR matrix."""
        matrix = self._matrix
        return CSRMatrix(
            matrix.shape[0],
            matrix.shape[1],
            matrix.indptr.tolist(),
            matrix.indices.tolist(),
            matrix.data.tolist(),
            validate=False,
        )

    def to_dense(self) -> np.ndarray:
        """Dense copy of the transition matrix (small chains only)."""
        return self._matrix.toarray()

    def triples(self) -> Iterable[Tuple[int, int, float]]:
        """Yield ``(source, target, probability)`` for stored transitions."""
        coo = self._matrix.tocoo()
        for i, j, v in zip(coo.row, coo.col, coo.data):
            yield int(i), int(j), float(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarkovChain):
            return NotImplemented
        if self.n_states != other.n_states:
            return False
        difference = (self._matrix - other._matrix).tocoo()
        return difference.nnz == 0 or bool(
            np.all(np.abs(difference.data) == 0.0)
        )

    def __repr__(self) -> str:
        return f"MarkovChain(n_states={self.n_states}, nnz={self.nnz})"

"""Probability distributions over discrete states.

A :class:`StateDistribution` is the paper's ``P(o, t)`` -- a row vector with
one probability per state (Section IV).  The class wraps a dense numpy
vector (distributions become dense after a few Markov transitions anyway)
and provides the operations the query processors need:

* construction from points, dicts, or arrays;
* one-step transition (Corollary 1) lives in :class:`repro.core.markov.MarkovChain`;
* Bayesian fusion of independent observations (Lemma 1):
  elementwise product followed by normalisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from repro.core.errors import (
    DimensionMismatchError,
    InfeasibleEvidenceError,
    ValidationError,
)

__all__ = ["StateDistribution", "SupportBlock"]

_TOLERANCE = 1e-9


class StateDistribution:
    """A probability distribution over ``n`` states.

    Instances are immutable by convention: all operations return new
    distributions.  The underlying vector is available as the read-only
    :attr:`vector` numpy array.

    Args:
        vector: non-negative weights, one per state.
        normalize: when True, rescale to sum one; when False the input must
            already sum to one within tolerance.
    """

    __slots__ = ("_vector",)

    def __init__(
        self, vector: Sequence[float], normalize: bool = False
    ) -> None:
        array = np.asarray(vector, dtype=float)
        if array.ndim != 1:
            raise ValidationError(
                f"distribution must be one-dimensional, got shape {array.shape}"
            )
        if array.size == 0:
            raise ValidationError("distribution over zero states")
        if np.any(array < -_TOLERANCE):
            worst = float(array.min())
            raise ValidationError(
                f"distribution has negative mass (min entry {worst})"
            )
        array = np.clip(array, 0.0, None)
        total = float(array.sum())
        if normalize:
            if total <= 0.0:
                raise InfeasibleEvidenceError(
                    "cannot normalize a zero-mass vector"
                )
            array = array / total
        elif abs(total - 1.0) > 1e-6:
            raise ValidationError(
                f"distribution mass is {total}, expected 1 "
                f"(pass normalize=True to rescale)"
            )
        array.setflags(write=False)
        self._vector = array

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def point(cls, n_states: int, state: int) -> "StateDistribution":
        """The degenerate distribution: all mass on one state."""
        if not (0 <= state < n_states):
            raise ValidationError(
                f"state {state} out of range [0, {n_states})"
            )
        vector = np.zeros(n_states, dtype=float)
        vector[state] = 1.0
        return cls(vector)

    @classmethod
    def uniform(
        cls, n_states: int, support: Iterable[int] = ()
    ) -> "StateDistribution":
        """Uniform over ``support`` (or over all states when empty)."""
        vector = np.zeros(n_states, dtype=float)
        states = list(support)
        if not states:
            states = list(range(n_states))
        for state in states:
            if not (0 <= state < n_states):
                raise ValidationError(
                    f"state {state} out of range [0, {n_states})"
                )
            vector[state] = 1.0
        return cls(vector, normalize=True)

    @classmethod
    def from_dict(
        cls, n_states: int, weights: Mapping[int, float], normalize: bool = False
    ) -> "StateDistribution":
        """Build from a sparse ``{state: probability}`` mapping."""
        vector = np.zeros(n_states, dtype=float)
        for state, weight in weights.items():
            if not (0 <= state < n_states):
                raise ValidationError(
                    f"state {state} out of range [0, {n_states})"
                )
            vector[state] += float(weight)
        return cls(vector, normalize=normalize)

    @classmethod
    def from_support(
        cls,
        n_states: int,
        states: Sequence[int],
        weights: Sequence[float],
        normalize: bool = False,
    ) -> "StateDistribution":
        """Build from parallel support/weight arrays (columnar storage).

        The vectorised sibling of :meth:`from_dict`: shard workers and
        the slab store hold distributions as ``(states, weights)``
        column pairs and rebuild dense vectors from whole array slices
        without a per-entry Python loop.
        """
        states = np.asarray(states, dtype=np.intp)
        weights = np.asarray(weights, dtype=float)
        if states.shape != weights.shape:
            raise ValidationError(
                f"{states.size} support states but {weights.size} weights"
            )
        if states.size and (
            states.min() < 0 or states.max() >= int(n_states)
        ):
            raise ValidationError(
                f"support states outside [0, {n_states})"
            )
        vector = np.zeros(int(n_states), dtype=float)
        vector[states] = weights
        return cls(vector, normalize=normalize)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def vector(self) -> np.ndarray:
        """The underlying (read-only) probability vector."""
        return self._vector

    @property
    def n_states(self) -> int:
        """Number of states the distribution ranges over."""
        return int(self._vector.size)

    def probability(self, state: int) -> float:
        """Probability of a single state."""
        if not (0 <= state < self.n_states):
            raise ValidationError(
                f"state {state} out of range [0, {self.n_states})"
            )
        return float(self._vector[state])

    def probability_of(self, region: Iterable[int]) -> float:
        """Total probability of a set of states."""
        states = list(region)
        if not states:
            return 0.0
        return float(self._vector[np.asarray(states, dtype=int)].sum())

    def support(self) -> Tuple[int, ...]:
        """States with non-zero probability, ascending."""
        return tuple(int(i) for i in np.nonzero(self._vector > 0.0)[0])

    def support_size(self) -> int:
        """Number of states with non-zero probability."""
        return int(np.count_nonzero(self._vector > 0.0))

    def sparse(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(states, probabilities)`` of the support as arrays -- one
        row of a :class:`SupportBlock`."""
        vector = self.vector
        states = np.flatnonzero(vector > 0.0)
        return states, vector[states]

    def mode(self) -> int:
        """The most probable state (lowest index on ties)."""
        return int(np.argmax(self._vector))

    def entropy(self) -> float:
        """Shannon entropy in bits (0 for a point distribution)."""
        positive = self._vector[self._vector > 0.0]
        return float(-(positive * np.log2(positive)).sum())

    def items(self) -> Iterator[Tuple[int, float]]:
        """Yield ``(state, probability)`` for the support."""
        for state in self.support():
            yield state, float(self._vector[state])

    def to_dict(self) -> Dict[int, float]:
        """Sparse ``{state: probability}`` view of the support."""
        return dict(self.items())

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def fuse(self, *others: "StateDistribution") -> "StateDistribution":
        """Combine with independent observations per Lemma 1 of the paper.

        The joint distribution of independent observations of the same
        object at the same time is the normalised elementwise product.

        Raises:
            InfeasibleEvidenceError: when the product has zero mass, i.e.
                the observations are contradictory under the model.
            DimensionMismatchError: when state counts differ.
        """
        product = self._vector.copy()
        for other in others:
            if other.n_states != self.n_states:
                raise DimensionMismatchError(
                    f"cannot fuse distributions over {self.n_states} "
                    f"and {other.n_states} states"
                )
            product *= other._vector
        total = float(product.sum())
        if total <= 0.0:
            raise InfeasibleEvidenceError(
                "observations are contradictory: fused mass is zero"
            )
        return StateDistribution(product / total)

    def restrict(self, region: Iterable[int]) -> "StateDistribution":
        """Condition on the object being inside ``region``.

        Zeroes mass outside the region and renormalises.
        """
        mask = np.zeros(self.n_states, dtype=float)
        for state in region:
            if not (0 <= state < self.n_states):
                raise ValidationError(
                    f"state {state} out of range [0, {self.n_states})"
                )
            mask[state] = 1.0
        product = self._vector * mask
        total = float(product.sum())
        if total <= 0.0:
            raise InfeasibleEvidenceError(
                "restriction removed all probability mass"
            )
        return StateDistribution(product / total)

    def total_variation_distance(self, other: "StateDistribution") -> float:
        """Total-variation distance ``0.5 * sum |p - q|``."""
        if other.n_states != self.n_states:
            raise DimensionMismatchError(
                f"cannot compare distributions over {self.n_states} "
                f"and {other.n_states} states"
            )
        return float(0.5 * np.abs(self._vector - other._vector).sum())

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one state from the distribution."""
        return int(rng.choice(self.n_states, p=self._vector))

    def allclose(self, other: "StateDistribution", tol: float = 1e-9) -> bool:
        """Entrywise comparison within ``tol``."""
        return (
            self.n_states == other.n_states
            and bool(np.allclose(self._vector, other._vector, atol=tol))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateDistribution):
            return NotImplemented
        return self.n_states == other.n_states and bool(
            np.array_equal(self._vector, other._vector)
        )

    def __hash__(self) -> int:
        return hash((self.n_states, self._vector.tobytes()))

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{state}: {probability:.4f}"
            for state, probability in list(self.items())[:6]
        )
        suffix = ", ..." if self.support_size() > 6 else ""
        return (
            f"StateDistribution(n={self.n_states}, {{{entries}{suffix}}})"
        )


@dataclass(frozen=True, eq=False)
class SupportBlock:
    """Many distributions over the same states as one CSR.

    Row ``i`` has support ``states[indptr[i]:indptr[i + 1]]`` with
    weights ``probs[...]`` -- the columnar form of a stack of
    :class:`StateDistribution` vectors, so the batched kernels and the
    filter stages touch every object's observation through a handful
    of array operations.  Every reduction is per row and independent
    of which other rows share the block: an object's answer does not
    depend on what a filter stage pruned around it.

    Attributes:
        n_states: length of the dense vectors the rows stand for.
        indptr: ``(n_rows + 1,)`` row boundaries, ``indptr[0] == 0``.
        states: concatenated support states.
        probs: concatenated support probabilities.
    """

    n_states: int
    indptr: np.ndarray
    states: np.ndarray
    probs: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def from_distributions(
        cls, distributions: Sequence[StateDistribution], n_states: int
    ) -> "SupportBlock":
        """Stack per-object distributions (bulk callers
        :meth:`gather` from columnar storage instead)."""
        return cls.from_sparse([d.sparse() for d in distributions], n_states)

    @classmethod
    def from_sparse(cls, parts, n_states: int) -> "SupportBlock":
        """Stack ``(states, probs)`` rows, one per object."""
        indptr = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(states) for states, _ in parts], out=indptr[1:])
        return cls(
            n_states,
            indptr,
            np.concatenate(
                [np.zeros(0, np.int64)] + [states for states, _ in parts]
            ),
            np.concatenate([np.zeros(0)] + [probs for _, probs in parts]),
        )

    @classmethod
    def gather(
        cls,
        n_states: int,
        states: np.ndarray,
        probs: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> "SupportBlock":
        """Copy the slices ``[lo[i], hi[i])`` of two parallel backing
        columns (a cohort, a memory-mapped slab) into one block."""
        lengths = hi - lo
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # entry j of row i sits at lo[i] + j in the backing columns
        index = np.arange(indptr[-1], dtype=np.int64) + np.repeat(
            lo - indptr[:-1], lengths
        )
        return cls(
            n_states,
            indptr,
            np.asarray(states[index], dtype=np.int64),
            np.asarray(probs[index], dtype=float),
        )

    def take(self, rows: np.ndarray) -> "SupportBlock":
        """The sub-block of ``rows`` (in that order)."""
        return SupportBlock.gather(
            self.n_states,
            self.states,
            self.probs,
            self.indptr[:-1][rows],
            self.indptr[1:][rows],
        )

    def concat(self, other: "SupportBlock") -> "SupportBlock":
        """The rows of ``self`` followed by those of ``other``."""
        return SupportBlock(
            self.n_states,
            np.concatenate([self.indptr, other.indptr[1:] + self.indptr[-1]]),
            np.concatenate([self.states, other.states]),
            np.concatenate([self.probs, other.probs]),
        )

    def entry_rows(self) -> np.ndarray:
        """The row index of every stored entry."""
        return np.repeat(
            np.arange(len(self), dtype=np.int64), np.diff(self.indptr)
        )

    def _reduce(self, ufunc, values: np.ndarray, empty) -> np.ndarray:
        """``ufunc``-reduce per-entry ``values`` within each row; rows
        without entries get ``empty`` (``reduceat`` cannot express an
        empty segment)."""
        starts = self.indptr[:-1]
        filled = np.diff(self.indptr) > 0
        if filled.all():
            return ufunc.reduceat(values, starts, axis=0)
        out = np.full(
            (len(self),) + values.shape[1:], empty, dtype=values.dtype
        )
        if filled.any():
            out[filled] = ufunc.reduceat(values, starts[filled], axis=0)
        return out

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-row sums of per-entry ``values``."""
        return self._reduce(np.add, values, 0)

    def dot(self, dense: np.ndarray) -> np.ndarray:
        """Every row times ``dense`` -- an ``(n_states,)`` vector or an
        ``(n_states, k)`` matrix -- touching only the supports."""
        weights = self.probs if dense.ndim == 1 else self.probs[:, None]
        return self.row_sums(weights * dense[self.states])

    def min_over_support(self, per_state: np.ndarray) -> np.ndarray:
        """Per-row minimum of an integer per-state labelling over the
        row's support (the dtype's maximum for an empty row)."""
        return self._reduce(
            np.minimum,
            per_state[self.states],
            np.iinfo(per_state.dtype).max,
        )

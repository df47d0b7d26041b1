"""A dense distribution, kept as the oracle for the support format.

:class:`repro.core.distribution.StateDistribution` keeps only an
observation's support.  :class:`DenseDistribution` keeps the whole
``n``-vector and answers every question from it, with the same
construction arithmetic (validate, clip, normalise over the dense
vector), so the support-keeping class must reproduce its ``sparse()``
and ``vector`` bit for bit and everything else to rounding.
``tests/test_distribution.py`` compares the two over random supports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.errors import (
    DimensionMismatchError,
    InfeasibleEvidenceError,
    ValidationError,
)


class DenseDistribution:
    """A probability distribution over ``n`` states as a dense vector."""

    def __init__(self, vector: Sequence[float], normalize: bool = False):
        array = np.clip(np.asarray(vector, dtype=float), 0.0, None)
        total = float(array.sum())
        if normalize:
            if total <= 0.0:
                raise InfeasibleEvidenceError("zero-mass vector")
            array = array / total
        elif abs(total - 1.0) > 1e-6:
            raise ValidationError(f"distribution mass is {total}")
        self.vector = array

    @classmethod
    def from_support(
        cls, n_states: int, states, weights, normalize: bool = False
    ) -> "DenseDistribution":
        vector = np.zeros(n_states, dtype=float)
        vector[np.asarray(states, dtype=np.intp)] = weights
        return cls(vector, normalize=normalize)

    @classmethod
    def from_dict(
        cls, n_states: int, weights: Dict[int, float], normalize: bool = False
    ) -> "DenseDistribution":
        vector = np.zeros(n_states, dtype=float)
        for state, weight in weights.items():
            vector[state] += float(weight)
        return cls(vector, normalize=normalize)

    @classmethod
    def uniform(cls, n_states: int, states: Iterable[int]) -> "DenseDistribution":
        vector = np.zeros(n_states, dtype=float)
        vector[list(states) or list(range(n_states))] = 1.0
        return cls(vector, normalize=True)

    @property
    def n_states(self) -> int:
        return int(self.vector.size)

    def _region(self, region: Iterable[int]) -> List[int]:
        states = sorted(set(int(state) for state in region))
        for state in states:
            if not 0 <= state < self.n_states:
                raise ValidationError(f"state {state} out of range")
        return states

    def probability(self, state: int) -> float:
        (state,) = self._region([state])
        return float(self.vector[state])

    def probability_of(self, region: Iterable[int]) -> float:
        states = self._region(region)
        return float(self.vector[states].sum()) if states else 0.0

    def support(self) -> Tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.vector > 0.0))

    def support_size(self) -> int:
        return len(self.support())

    def sparse(self) -> Tuple[np.ndarray, np.ndarray]:
        states = np.flatnonzero(self.vector > 0.0)
        return states, self.vector[states]

    def mode(self) -> int:
        return int(np.argmax(self.vector))

    def entropy(self) -> float:
        positive = self.vector[self.vector > 0.0]
        return float(-(positive * np.log2(positive)).sum())

    def to_dict(self) -> Dict[int, float]:
        return {state: float(self.vector[state]) for state in self.support()}

    def fuse(self, other: "DenseDistribution") -> "DenseDistribution":
        if other.n_states != self.n_states:
            raise DimensionMismatchError("state counts differ")
        product = self.vector * other.vector
        total = float(product.sum())
        if total <= 0.0:
            raise InfeasibleEvidenceError("fused mass is zero")
        return DenseDistribution(product / total)

    def restrict(self, region: Iterable[int]) -> "DenseDistribution":
        mask = np.zeros(self.n_states)
        mask[self._region(region)] = 1.0
        product = self.vector * mask
        total = float(product.sum())
        if total <= 0.0:
            raise InfeasibleEvidenceError("restriction removed all mass")
        return DenseDistribution(product / total)

    def total_variation_distance(self, other: "DenseDistribution") -> float:
        if other.n_states != self.n_states:
            raise DimensionMismatchError("state counts differ")
        return float(0.5 * np.abs(self.vector - other.vector).sum())

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.n_states, p=self.vector))

    def allclose(self, other: "DenseDistribution", tol: float = 1e-9) -> bool:
        return self.n_states == other.n_states and bool(
            np.allclose(self.vector, other.vector, atol=tol)
        )

    def __repr__(self) -> str:
        support = self.support()
        entries = ", ".join(
            f"{state}: {self.vector[state]:.4f}" for state in support[:6]
        )
        suffix = ", ..." if len(support) > 6 else ""
        return f"StateDistribution(n={self.n_states}, {{{entries}{suffix}}})"

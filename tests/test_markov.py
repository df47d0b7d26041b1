"""Tests for the MarkovChain substrate."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import MarkovChain, StateDistribution
from repro.core.errors import (
    DimensionMismatchError,
    NotStochasticError,
    ValidationError,
)
from repro.linalg.sparse import CSRMatrix

from conftest import random_chain


class TestConstruction:
    def test_from_dense_list(self, paper_chain):
        assert paper_chain.n_states == 3
        assert paper_chain.nnz == 5

    def test_from_scipy(self):
        chain = MarkovChain(sp.identity(4, format="csc"))
        assert chain.n_states == 4

    def test_from_pure_csr(self):
        pure = CSRMatrix.from_dense([[0.5, 0.5], [1.0, 0.0]])
        chain = MarkovChain(pure)
        assert chain.transition_probability(0, 1) == 0.5

    def test_from_dict(self):
        chain = MarkovChain.from_dict(
            2, {0: {0: 0.5, 1: 0.5}, 1: {0: 1.0}}
        )
        assert chain.transition_probability(1, 0) == 1.0

    def test_identity(self):
        chain = MarkovChain.identity(3)
        assert all(chain.is_absorbing_state(s) for s in range(3))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MarkovChain(np.ones((2, 3)) / 3)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValidationError):
            MarkovChain([0.5, 0.5])

    def test_row_not_summing_to_one(self):
        with pytest.raises(NotStochasticError):
            MarkovChain([[0.5, 0.4], [0.5, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(NotStochasticError):
            MarkovChain([[1.5, -0.5], [0.5, 0.5]])

    def test_error_names_offending_row(self):
        with pytest.raises(NotStochasticError, match="row 1"):
            MarkovChain([[1.0, 0.0], [0.9, 0.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            MarkovChain(np.zeros((0, 0)))


class TestInspection:
    def test_transition_probability(self, paper_chain):
        assert paper_chain.transition_probability(1, 0) == 0.6
        assert paper_chain.transition_probability(0, 0) == 0.0

    def test_transition_probability_range_check(self, paper_chain):
        with pytest.raises(ValidationError):
            paper_chain.transition_probability(5, 0)

    def test_successors(self, paper_chain):
        assert paper_chain.successors(0) == [2]
        assert paper_chain.successors(1) == [0, 2]
        assert paper_chain.successors(2) == [1, 2]

    def test_successor_distribution(self, paper_chain):
        dist = paper_chain.successor_distribution(2)
        assert dist.probability(1) == pytest.approx(0.8)
        assert dist.probability(2) == pytest.approx(0.2)

    def test_is_absorbing(self):
        chain = MarkovChain([[1.0, 0.0], [0.5, 0.5]])
        assert chain.is_absorbing_state(0)
        assert not chain.is_absorbing_state(1)

    def test_repr(self, paper_chain):
        assert "n_states=3" in repr(paper_chain)


class TestDynamics:
    def test_step_corollary1(self, paper_chain):
        dist = StateDistribution.point(3, 1)
        stepped = paper_chain.step(dist)
        assert stepped.vector == pytest.approx([0.6, 0.0, 0.4])

    def test_step_dimension_check(self, paper_chain):
        with pytest.raises(DimensionMismatchError):
            paper_chain.step(StateDistribution.point(2, 0))

    def test_propagate_corollary2(self, paper_chain):
        # the paper's P(o, 2) = (0, 0.32, 0.68) for start s2
        dist = paper_chain.propagate(StateDistribution.point(3, 1), 2)
        assert dist.vector == pytest.approx([0.0, 0.32, 0.68])

    def test_propagate_zero_steps_is_identity(self, paper_chain):
        start = StateDistribution.point(3, 0)
        assert paper_chain.propagate(start, 0).allclose(start)

    def test_propagate_negative_rejected(self, paper_chain):
        with pytest.raises(ValidationError):
            paper_chain.propagate(StateDistribution.point(3, 0), -1)

    def test_marginals_match_propagate(self, paper_chain):
        start = StateDistribution.point(3, 1)
        marginals = paper_chain.marginals(start, 4)
        assert len(marginals) == 5
        for steps, marginal in enumerate(marginals):
            assert marginal.allclose(paper_chain.propagate(start, steps))

    def test_power_matches_repeated_multiplication(self, paper_chain):
        squared = paper_chain.power(2).toarray()
        dense = paper_chain.to_dense()
        assert np.allclose(squared, dense @ dense)

    def test_power_zero_is_identity(self, paper_chain):
        assert np.allclose(paper_chain.power(0).toarray(), np.eye(3))

    def test_power_negative_rejected(self, paper_chain):
        with pytest.raises(ValidationError):
            paper_chain.power(-2)

    def test_transpose_cached(self, paper_chain):
        first = paper_chain.transpose_matrix()
        second = paper_chain.transpose_matrix()
        assert first is second
        assert np.allclose(first.toarray(), paper_chain.to_dense().T)


class TestReachability:
    def test_reachable_in_exact_steps(self, paper_chain):
        assert paper_chain.reachable_in([1], 1) == frozenset({0, 2})
        assert paper_chain.reachable_in([0], 2) == frozenset({1, 2})

    def test_can_reach_immediate(self, paper_chain):
        assert paper_chain.can_reach([0], [0], 0)

    def test_can_reach_with_steps(self, paper_chain):
        assert paper_chain.can_reach([0], [1], 2)
        assert not paper_chain.can_reach([0], [1], 1)

    def test_can_reach_never(self):
        chain = MarkovChain([[1.0, 0.0], [0.0, 1.0]])
        assert not chain.can_reach([0], [1], 100)

    def test_reachability_range_check(self, paper_chain):
        with pytest.raises(ValidationError):
            paper_chain.reachable_in([9], 1)


class TestStationary:
    def test_stationary_fixed_point(self, paper_chain):
        stationary = paper_chain.stationary_distribution()
        stepped = paper_chain.step(stationary)
        assert stationary.allclose(stepped, tol=1e-8)

    def test_stationary_two_state(self):
        chain = MarkovChain([[0.9, 0.1], [0.5, 0.5]])
        stationary = chain.stationary_distribution()
        # solve pi = pi P analytically: pi = (5/6, 1/6)
        assert stationary.vector == pytest.approx(
            [5 / 6, 1 / 6], abs=1e-8
        )

    def test_stationary_periodic_chain(self):
        # a 2-cycle has period 2; Cesaro damping must still converge
        chain = MarkovChain([[0.0, 1.0], [1.0, 0.0]])
        stationary = chain.stationary_distribution()
        assert stationary.vector == pytest.approx([0.5, 0.5], abs=1e-8)


class TestConversions:
    def test_to_pure_round_trip(self, paper_chain):
        pure = paper_chain.to_pure()
        back = MarkovChain(pure)
        assert back == paper_chain

    def test_triples(self, paper_chain):
        triples = set(paper_chain.triples())
        assert (1, 0, 0.6) in triples
        assert len(triples) == paper_chain.nnz

    def test_equality_different_chain(self, paper_chain):
        other = MarkovChain.identity(3)
        assert paper_chain != other
        assert paper_chain != "chain"


class TestRandomChains:
    def test_random_chains_validate(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            chain = random_chain(6, rng)
            chain.validate()  # must not raise

    def test_propagation_preserves_mass(self):
        rng = np.random.default_rng(6)
        chain = random_chain(8, rng)
        dist = StateDistribution.uniform(8)
        for steps in (1, 3, 7):
            assert chain.propagate(dist, steps).vector.sum() == (
                pytest.approx(1.0)
            )


class TestBand:
    @staticmethod
    def offsets(chain):
        coo = chain.matrix.tocoo()
        return (coo.col - coo.row)[coo.data != 0.0]

    def test_bounds_every_transition_and_are_attained(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n_states = int(rng.integers(2, 40))
            # sparse inside a band of random width: the bounds vary
            low, high = rng.integers(0, n_states, size=2)
            rows, cols = np.indices((n_states, n_states))
            keep = (rng.random((n_states, n_states)) < 0.2) & (
                (cols - rows >= -low) & (cols - rows <= high)
            )
            dense = rng.random((n_states, n_states)) * keep + np.eye(n_states)
            chain = MarkovChain(dense / dense.sum(axis=1, keepdims=True))
            down, up = chain.band()
            offsets = self.offsets(chain)
            assert ((offsets >= -down) & (offsets <= up)).all()
            assert down == max(0, -offsets.min())
            assert up == max(0, offsets.max())

    def test_cached_and_computed_for_unvalidated_chains(self):
        rng = np.random.default_rng(14)
        chain = random_chain(9, rng, density=0.3)
        assert chain.band() is chain.band()
        raw = MarkovChain(chain.matrix, validate=False)
        assert raw.band() == chain.band()

    def test_identity_and_stored_zeros(self):
        assert MarkovChain.identity(5).band() == (0, 0)
        # an explicitly stored zero is no transition
        matrix = sp.csr_matrix(
            ([1.0, 0.0, 0.5, 0.5, 1.0], ([0, 0, 1, 1, 2], [1, 2, 0, 1, 2])),
            shape=(3, 3),
        )
        chain = MarkovChain(matrix)
        assert chain.matrix.nnz == 5
        assert chain.band() == (1, 1)

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

from conftest import random_chain


class TestConstruction:
    def test_from_dense_list(self, paper_chain):
        assert paper_chain.n_states == 3
        assert paper_chain.nnz == 5

    def test_from_scipy(self):
        chain = MarkovChain(sp.identity(4, format="csc"))
        assert chain.n_states == 4

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


def with_index_dtype(chain, dtype):
    """``chain`` with the index arrays of ``M`` and ``M^T`` recast."""
    for matrix in (chain.matrix, chain.transpose_matrix()):
        matrix.indices = matrix.indices.astype(dtype)
        matrix.indptr = matrix.indptr.astype(dtype)
    assert chain.matrix.indices.dtype == dtype
    assert chain.transpose_matrix().indptr.dtype == dtype
    return chain


class TestWindowProduct:
    """``window_product`` is the rows of ``M @ x`` (``M^T @ x``) it
    covers, bit for bit, and exact zeros everywhere else."""

    @staticmethod
    def chains():
        from repro.workloads.synthetic import make_line_chain

        rng = np.random.default_rng(44)
        yield make_line_chain(50, max_step=6, seed=44), rng  # band (3, 3)
        yield random_chain(23, rng, density=0.4), rng  # unbanded
        # stored zeros outside the band still run through the kernel
        matrix = sp.csr_matrix(
            ([1.0, 0.0, 0.5, 0.5, 1.0], ([0, 0, 1, 1, 2], [1, 2, 0, 1, 2])),
            shape=(3, 3),
        )
        yield MarkovChain(matrix), rng

    def check(self, chain, rng):
        n = chain.n_states
        # a strided view must read the same as a contiguous vector
        vector = (rng.random(2 * n) * (rng.random(2 * n) < 0.5))[::2]
        windows = [(0, 0), (0, n), (0, 1), (n - 1, n), (n, n)] + [
            tuple(sorted(rng.integers(0, n + 1, 2))) for _ in range(20)
        ]
        for transpose in (False, True):
            matrix = chain.transpose_matrix() if transpose else chain.matrix
            whole = matrix @ vector
            for lo, hi in windows:
                out = chain.window_product(vector, lo, hi, transpose)
                assert out.dtype == np.float64 and out.shape == (n,)
                assert np.array_equal(out[lo:hi], whole[lo:hi])
                assert not out[:lo].any() and not out[hi:].any()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_rows_equal_the_whole_product(self, dtype):
        for chain, rng in self.chains():
            self.check(with_index_dtype(chain, dtype), rng)

    def test_whole_window_is_the_product_itself(self):
        for chain, rng in self.chains():
            vector = rng.random(chain.n_states)
            out = chain.window_product(vector, 0, chain.n_states)
            assert np.array_equal(out, chain.matrix @ vector)

    def test_bad_arguments_raise_before_the_native_call(self, monkeypatch):
        import repro.core.markov as markov

        calls = []
        monkeypatch.setattr(
            markov, "_csr_matvec", lambda *args: calls.append(args)
        )
        chain = MarkovChain.identity(6)
        good = np.ones(6)
        for lo, hi in ((-1, 3), (0, 7), (4, 3), (7, 7)):
            with pytest.raises(ValueError, match="row window"):
                chain.window_product(good, lo, hi)
        for vector in (np.ones(6, dtype=np.float32), np.ones(5),
                       np.ones((6, 1)), [1.0] * 6):
            with pytest.raises(ValueError, match="float64 vector"):
                chain.window_product(vector, 0, 6)
        assert calls == []
        chain.window_product(good, 2, 4)
        assert len(calls) == 1 and len(calls[0][-1]) == 2


SEEDS = range(4)


def _dense_case(seed: int):
    """A random chain, its dense matrix and a random start distribution."""
    rng = np.random.default_rng(200 + seed)
    n_states = int(rng.integers(3, 12))
    chain = random_chain(n_states, rng, density=0.4)
    weights = rng.random(n_states)
    start = StateDistribution(weights / weights.sum())
    return rng, chain, chain.to_dense(), start


class TestAgainstNumpy:
    """The chain's sparse operations equal the same algebra written
    densely with numpy."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_step(self, seed):
        _, chain, m, start = _dense_case(seed)
        expected = start.vector @ m
        assert np.allclose(chain.step(start).vector, expected / expected.sum())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_propagate(self, seed):
        _, chain, m, start = _dense_case(seed)
        for steps in (0, 1, 4, 9):
            expected = start.vector @ np.linalg.matrix_power(m, steps)
            assert np.allclose(
                chain.propagate(start, steps).vector, expected, atol=1e-14
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_marginals(self, seed):
        _, chain, m, start = _dense_case(seed)
        vector = start.vector
        for marginal in chain.marginals(start, 6):
            assert np.allclose(marginal.vector, vector, atol=1e-14)
            vector = vector @ m

    @pytest.mark.parametrize("seed", SEEDS)
    def test_power(self, seed):
        _, chain, m, _ = _dense_case(seed)
        for exponent in range(7):
            assert np.allclose(
                chain.power(exponent).toarray(),
                np.linalg.matrix_power(m, exponent),
                atol=1e-14,
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transpose_matrix(self, seed):
        _, chain, m, _ = _dense_case(seed)
        transposed = chain.transpose_matrix()
        assert sp.isspmatrix_csr(transposed)
        assert np.array_equal(transposed.toarray(), m.T)
        v = np.arange(chain.n_states, dtype=float)
        assert np.allclose(transposed @ v, v @ m)
        assert np.allclose(chain.matrix @ v, m @ v)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_predecessor_graph(self, seed):
        _, chain, m, _ = _dense_case(seed)
        # a stored zero is no edge
        coo = chain.matrix.tocoo()
        stored_zero = sp.csr_matrix(
            (
                np.append(coo.data, 0.0),
                (np.append(coo.row, 0), np.append(coo.col, 0)),
            ),
            shape=m.shape,
        )
        for candidate in (chain, MarkovChain(stored_zero)):
            graph = candidate.predecessor_graph()
            assert np.array_equal(graph.toarray(), (m.T > 0).astype(float))
            assert np.array_equal(np.unique(graph.data), [1.0])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_from_dict_round_trip(self, seed):
        _, chain, m, _ = _dense_case(seed)
        transitions = {}
        for source, target, probability in chain.triples():
            transitions.setdefault(source, {})[target] = probability
        rebuilt = MarkovChain.from_dict(chain.n_states, transitions)
        assert rebuilt == chain
        assert np.array_equal(rebuilt.to_dense(), m)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sparse_inputs_coerced_to_sorted_csr(self, seed):
        # duplicate COO coordinates sum; CSC and unsorted CSR inputs are
        # normalised to one sorted CSR matrix of floats
        rng, chain, m, _ = _dense_case(seed)
        coo = chain.matrix.tocoo()
        split = rng.random(coo.nnz)
        duplicated = sp.coo_matrix(
            (
                np.concatenate([coo.data * split, coo.data * (1 - split)]),
                (np.tile(coo.row, 2), np.tile(coo.col, 2)),
            ),
            shape=m.shape,
        )
        csr = chain.matrix
        order = np.concatenate([
            np.arange(csr.indptr[i], csr.indptr[i + 1])[::-1]
            for i in range(m.shape[0])
        ])
        unsorted = sp.csr_matrix(
            (csr.data[order], csr.indices[order], csr.indptr), shape=m.shape
        )
        for matrix in (duplicated, chain.matrix.tocsc(), unsorted):
            coerced = MarkovChain(matrix)
            assert sp.isspmatrix_csr(coerced.matrix)
            assert coerced.matrix.dtype == np.float64
            assert coerced.matrix.has_sorted_indices
            assert np.allclose(coerced.to_dense(), m, atol=1e-15)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_triples_list_every_stored_transition(self, seed):
        _, chain, m, _ = _dense_case(seed)
        triples = list(chain.triples())
        assert len(triples) == chain.nnz == np.count_nonzero(m)
        for source, target, probability in triples:
            assert m[source, target] == probability


class TestDenseInputs:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            MarkovChain([[1.0], [0.5, 0.5]])

    def test_integer_matrix_coerced_to_float(self):
        chain = MarkovChain(np.eye(3, dtype=np.int64))
        assert chain.matrix.dtype == np.float64
        assert chain == MarkovChain.identity(3)

"""Tests for the augmented-matrix constructions (Sections V-A, VI, VII).

The Section V-A and VI pairs are oracles kept in ``tests/augmented.py``
(the engine steps the chain's own matrix); Section VII's blocked
matrices are the library's reference construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_ktimes_block_matrices
from repro.core.errors import QueryError, ValidationError

from augmented import build_absorbing_matrices, build_doubled_matrices
from conftest import random_chain


def to_array(matrix) -> np.ndarray:
    return matrix.toarray()


class TestAbsorbingMatrices:
    """The Section V-A construction, checked against Example 1 verbatim."""

    def test_paper_example_m_minus(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0, 1})
        expected = [
            [0.0, 0.0, 1.0, 0.0],
            [0.6, 0.0, 0.4, 0.0],
            [0.0, 0.8, 0.2, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
        assert np.allclose(to_array(matrices.m_minus), expected)

    def test_paper_example_m_plus(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0, 1})
        expected = [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.4, 0.6],
            [0.0, 0.0, 0.2, 0.8],
            [0.0, 0.0, 0.0, 1.0],
        ]
        assert np.allclose(to_array(matrices.m_plus), expected)

    def test_both_matrices_stochastic(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            chain = random_chain(6, rng)
            region = {0, 3}
            matrices = build_absorbing_matrices(chain, region)
            for matrix in (matrices.m_minus, matrices.m_plus):
                sums = to_array(matrix).sum(axis=1)
                assert np.allclose(sums, 1.0)

    def test_random_chains_match_the_definition(self):
        # M_minus = M plus an absorbing TOP; M_plus moves every
        # transition into the region onto TOP
        rng = np.random.default_rng(1)
        for _ in range(5):
            chain = random_chain(6, rng)
            region = sorted({int(s) for s in rng.choice(6, 2)})
            matrices = build_absorbing_matrices(chain, region)
            minus = np.eye(7)
            minus[:6, :6] = np.asarray(chain.to_dense())
            plus = minus.copy()
            plus[:6, 6] = minus[:6, region].sum(axis=1)
            plus[:6, region] = 0.0
            assert np.array_equal(to_array(matrices.m_minus), minus)
            assert np.allclose(to_array(matrices.m_plus), plus, atol=1e-15)

    def test_top_is_absorbing(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0})
        for matrix in (matrices.m_minus, matrices.m_plus):
            row = to_array(matrix)[matrices.top_index]
            expected = np.zeros(matrices.size)
            expected[matrices.top_index] = 1.0
            assert np.allclose(row, expected)

    def test_m_plus_region_columns_are_zero(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0, 1})
        dense = to_array(matrices.m_plus)
        assert np.allclose(dense[:, 0], 0.0)
        assert np.allclose(dense[:, 1], 0.0)

    def test_matrix_for_target_time(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0})
        times = frozenset({2, 3})
        assert matrices.matrix_for_target_time(2, times) is (
            matrices.m_plus
        )
        assert matrices.matrix_for_target_time(1, times) is (
            matrices.m_minus
        )

    def test_transposed(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0})
        minus_t, plus_t = matrices.transposed()
        assert np.allclose(to_array(minus_t), to_array(matrices.m_minus).T)
        assert np.allclose(to_array(plus_t), to_array(matrices.m_plus).T)

    def test_extend_initial_plain(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0, 1})
        extended = matrices.extend_initial(
            np.array([0.0, 1.0, 0.0]), 0, frozenset({2, 3})
        )
        assert np.allclose(extended, [0.0, 1.0, 0.0, 0.0])

    def test_extend_initial_start_inside_window(self, paper_chain):
        # the special case: t=0 in T moves region mass to TOP
        matrices = build_absorbing_matrices(paper_chain, {0, 1})
        extended = matrices.extend_initial(
            np.array([0.3, 0.2, 0.5]), 0, frozenset({0, 2})
        )
        assert np.allclose(extended, [0.0, 0.0, 0.5, 0.5])

    def test_extend_initial_shape_check(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0})
        with pytest.raises(ValidationError):
            matrices.extend_initial(np.zeros(5), 0, frozenset({1}))

    def test_empty_region_rejected(self, paper_chain):
        with pytest.raises(QueryError):
            build_absorbing_matrices(paper_chain, set())

    def test_region_out_of_range_rejected(self, paper_chain):
        with pytest.raises(QueryError):
            build_absorbing_matrices(paper_chain, {7})


class TestDoubledMatrices:
    """The Section VI construction, checked against the paper's matrices."""

    def test_paper_m_minus(self, paper_chain_section6):
        matrices = build_doubled_matrices(paper_chain_section6, {0})
        m = paper_chain_section6.to_dense()
        dense = to_array(matrices.m_minus)
        assert np.allclose(dense[:3, :3], m)
        assert np.allclose(dense[3:, 3:], m)
        assert np.allclose(dense[:3, 3:], 0.0)
        assert np.allclose(dense[3:, :3], 0.0)

    def test_paper_m_plus(self, paper_chain_section6):
        """The Section VI example's M+ verbatim.

        The example's query region is {s1, s2} (indices {0, 1}): the
        printed M+ redirects transitions into s1 *and* s2 to the shadow
        block (e.g. row s3 sends 0.8 to the shadow copy of s2).
        """
        matrices = build_doubled_matrices(paper_chain_section6, {0, 1})
        expected = [
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.2, 0.0, 0.8, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.8, 0.2],
        ]
        assert np.allclose(to_array(matrices.m_plus), expected)

    def test_doubled_matrices_stochastic(self):
        rng = np.random.default_rng(1)
        chain = random_chain(5, rng)
        matrices = build_doubled_matrices(chain, {1, 2})
        for matrix in (matrices.m_minus, matrices.m_plus):
            assert np.allclose(to_array(matrix).sum(axis=1), 1.0)

    def test_extend_initial(self, paper_chain_section6):
        matrices = build_doubled_matrices(paper_chain_section6, {0})
        extended = matrices.extend_initial(
            np.array([1.0, 0.0, 0.0]), 0, frozenset({1, 2})
        )
        assert np.allclose(extended, [1, 0, 0, 0, 0, 0])

    def test_extend_initial_start_in_window(self, paper_chain_section6):
        matrices = build_doubled_matrices(paper_chain_section6, {0})
        extended = matrices.extend_initial(
            np.array([1.0, 0.0, 0.0]), 0, frozenset({0, 1})
        )
        # mass inside the region moves to the shadow block
        assert np.allclose(extended, [0, 0, 0, 1, 0, 0])

    def test_tile_observation(self, paper_chain_section6):
        matrices = build_doubled_matrices(paper_chain_section6, {0})
        tiled = matrices.tile_observation(np.array([0.0, 0.5, 0.5]))
        assert np.allclose(tiled, [0.0, 0.5, 0.5, 0.0, 0.5, 0.5])

    def test_tile_observation_shape_check(self, paper_chain_section6):
        matrices = build_doubled_matrices(paper_chain_section6, {0})
        with pytest.raises(ValidationError):
            matrices.tile_observation(np.zeros(6))

    def test_hit_probability(self, paper_chain_section6):
        matrices = build_doubled_matrices(paper_chain_section6, {0})
        vector = np.array([0.1, 0.2, 0.0, 0.3, 0.0, 0.4])
        assert matrices.hit_probability(vector) == pytest.approx(0.7)


class TestKTimesBlockMatrices:
    def test_shapes(self, paper_chain):
        m_minus, m_plus = build_ktimes_block_matrices(
            paper_chain, {0, 1}, 2
        )
        assert to_array(m_minus).shape == (9, 9)
        assert to_array(m_plus).shape == (9, 9)

    def test_stochastic(self, paper_chain):
        m_minus, m_plus = build_ktimes_block_matrices(
            paper_chain, {0, 1}, 3
        )
        assert np.allclose(to_array(m_minus).sum(axis=1), 1.0)
        assert np.allclose(to_array(m_plus).sum(axis=1), 1.0)

    def test_m_minus_is_block_diagonal(self, paper_chain):
        m_minus, _ = build_ktimes_block_matrices(paper_chain, {0}, 2)
        dense = to_array(m_minus)
        m = paper_chain.to_dense()
        for block in range(3):
            sl = slice(3 * block, 3 * block + 3)
            assert np.allclose(dense[sl, sl], m)
        assert np.allclose(dense[0:3, 3:6], 0.0)

    def test_m_plus_shifts_region_mass_up_one_block(self, paper_chain):
        _, m_plus = build_ktimes_block_matrices(paper_chain, {0}, 2)
        dense = to_array(m_plus)
        # block (0, 1) holds exactly the transitions into state 0
        assert dense[3 * 0 + 1, 3 * 1 + 0] == pytest.approx(0.6)
        # the diagonal of block 0 has the region column zeroed
        assert dense[3 * 0 + 1, 0] == 0.0

    def test_last_block_saturates(self, paper_chain):
        _, m_plus = build_ktimes_block_matrices(paper_chain, {0}, 1)
        dense = to_array(m_plus)
        # the final block keeps the full chain (count cannot grow past |T|)
        assert np.allclose(dense[3:, 3:], paper_chain.to_dense())

    def test_zero_query_times_rejected(self, paper_chain):
        with pytest.raises(QueryError):
            build_ktimes_block_matrices(paper_chain, {0}, 0)


def _dense_case(seed: int):
    """A random chain, its dense matrix and a random region."""
    rng = np.random.default_rng(100 + seed)
    n_states = int(rng.integers(3, 9))
    chain = random_chain(n_states, rng, density=0.5)
    size = int(rng.integers(1, n_states))
    region = sorted(int(s) for s in rng.choice(n_states, size, replace=False))
    return rng, chain, chain.to_dense(), region


SEEDS = range(6)


class TestAgainstDenseDefinition:
    """Every sparse construction equals its block formula written out
    densely with numpy, and the identities the sweeps rely on hold."""

    @staticmethod
    def absorbing(m, region):
        n = m.shape[0]
        minus = np.eye(n + 1)
        minus[:n, :n] = m
        plus = minus.copy()
        plus[:n, n] = m[:, region].sum(axis=1)
        plus[:n, region] = 0.0
        return minus, plus

    @staticmethod
    def doubled(m, region):
        n = m.shape[0]
        inside = np.zeros_like(m)
        inside[:, region] = m[:, region]
        minus = np.zeros((2 * n, 2 * n))
        minus[:n, :n] = m
        minus[n:, n:] = m
        plus = np.zeros((2 * n, 2 * n))
        plus[:n, :n] = m - inside
        plus[:n, n:] = inside
        plus[n:, n:] = m
        return minus, plus

    @pytest.mark.parametrize("seed", SEEDS)
    def test_absorbing_m_minus(self, seed):
        _, chain, m, region = _dense_case(seed)
        minus, _ = self.absorbing(m, region)
        matrices = build_absorbing_matrices(chain, region)
        assert np.array_equal(to_array(matrices.m_minus), minus)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_absorbing_m_plus(self, seed):
        _, chain, m, region = _dense_case(seed)
        _, plus = self.absorbing(m, region)
        matrices = build_absorbing_matrices(chain, region)
        assert np.allclose(to_array(matrices.m_plus), plus, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_absorbing_transposed(self, seed):
        _, chain, m, region = _dense_case(seed)
        minus, plus = self.absorbing(m, region)
        minus_t, plus_t = build_absorbing_matrices(chain, region).transposed()
        assert np.array_equal(to_array(minus_t), minus.T)
        assert np.allclose(to_array(plus_t), plus.T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_forward_step_on_the_chain_matches_the_pair(self, seed):
        # x . M_minus keeps TOP's mass beside x_real . M; x . M_plus then
        # moves the S_q mass onto TOP
        rng, chain, m, region = _dense_case(seed)
        n = chain.n_states
        minus, plus = self.absorbing(m, region)
        x = rng.random(n + 1)
        stepped = x[:n] @ chain.matrix
        assert np.allclose(x @ minus, np.append(stepped, x[n]), atol=1e-15)
        top = x[n] + stepped[region].sum()
        stepped[region] = 0.0
        assert np.allclose(x @ plus, np.append(stepped, top), atol=1e-15)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_backward_step_on_the_chain_matches_the_pair(self, seed):
        # with v[TOP] = 1: M_plus . v = M . (v with S_q set to 1) and
        # M_minus . v = M . v on the real states
        rng, chain, m, region = _dense_case(seed)
        n = chain.n_states
        minus, plus = self.absorbing(m, region)
        v = np.append(rng.random(n), 1.0)
        assert np.allclose((minus @ v)[:n], chain.matrix @ v[:n], atol=1e-15)
        hit = v[:n].copy()
        hit[region] = 1.0
        assert np.allclose((plus @ v)[:n], chain.matrix @ hit, atol=1e-15)
        assert (minus @ v)[n] == (plus @ v)[n] == 1.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_doubled_m_minus(self, seed):
        _, chain, m, region = _dense_case(seed)
        minus, _ = self.doubled(m, region)
        matrices = build_doubled_matrices(chain, region)
        assert np.array_equal(to_array(matrices.m_minus), minus)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_doubled_m_plus(self, seed):
        _, chain, m, region = _dense_case(seed)
        _, plus = self.doubled(m, region)
        matrices = build_doubled_matrices(chain, region)
        assert np.array_equal(to_array(matrices.m_plus), plus)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_doubled_transposed(self, seed):
        _, chain, m, region = _dense_case(seed)
        minus, plus = self.doubled(m, region)
        minus_t, plus_t = build_doubled_matrices(chain, region).transposed()
        assert np.array_equal(to_array(minus_t), minus.T)
        assert np.array_equal(to_array(plus_t), plus.T)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_row_step_on_the_chain_matches_the_doubled_pair(self, seed):
        # (x | shadow) . M_plus is both rows stepped on M, then x's S_q
        # entries moved into the shadow row
        rng, chain, m, region = _dense_case(seed)
        n = chain.n_states
        minus, plus = self.doubled(m, region)
        x, shadow = rng.random(n), rng.random(n)
        assert np.allclose(
            np.r_[x, shadow] @ minus,
            np.r_[x @ chain.matrix, shadow @ chain.matrix], atol=1e-15,
        )
        stepped, shadowed = x @ chain.matrix, shadow @ chain.matrix
        shadowed[region] += stepped[region]
        stepped[region] = 0.0
        assert np.allclose(
            np.r_[x, shadow] @ plus, np.r_[stepped, shadowed], atol=1e-15
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ktimes_blocks(self, seed):
        _, chain, m, region = _dense_case(seed)
        n = chain.n_states
        inside = np.zeros_like(m)
        inside[:, region] = m[:, region]
        for n_times in (1, 2, 3):
            blocks = n_times + 1
            minus = np.kron(np.eye(blocks), m)
            plus = np.zeros_like(minus)
            for b in range(blocks - 1):
                rows = slice(b * n, (b + 1) * n)
                plus[rows, rows] = m - inside
                plus[rows, (b + 1) * n:(b + 2) * n] = inside
            plus[-n:, -n:] = m
            m_minus, m_plus = build_ktimes_block_matrices(
                chain, region, n_times
            )
            assert np.array_equal(to_array(m_minus), minus)
            assert np.array_equal(to_array(m_plus), plus)

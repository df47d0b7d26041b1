"""Tests for the augmented-matrix constructions (Sections V-A, VI, VII)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    build_absorbing_matrices,
    build_doubled_matrices,
    build_ktimes_block_matrices,
)
from repro.core.errors import QueryError, ValidationError

from conftest import random_chain


def to_array(matrix) -> np.ndarray:
    if hasattr(matrix, "toarray"):
        return matrix.toarray()
    return np.asarray(matrix.to_dense())


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

    def test_transposed_cached(self, paper_chain):
        matrices = build_absorbing_matrices(paper_chain, {0})
        first = matrices.transposed()
        second = matrices.transposed()
        assert first is second
        assert np.allclose(
            to_array(first[0]), to_array(matrices.m_minus).T
        )

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

    def test_pure_backend_matches_scipy(self, paper_chain):
        scipy_m = build_absorbing_matrices(
            paper_chain, {0, 1}, backend="scipy"
        )
        pure_m = build_absorbing_matrices(
            paper_chain, {0, 1}, backend="pure"
        )
        assert np.allclose(
            to_array(scipy_m.m_plus), to_array(pure_m.m_plus)
        )
        assert np.allclose(
            to_array(scipy_m.m_minus), to_array(pure_m.m_minus)
        )


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

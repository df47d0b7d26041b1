"""Tests for the linear-algebra backend dispatch layer."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.errors import BackendError
from repro.linalg.ops import (
    available_backends,
    get_backend,
    matmat,
    matvec,
    vecmat,
)
from repro.linalg.sparse import CSRMatrix

DENSE = [
    [0.0, 0.0, 1.0],
    [0.6, 0.0, 0.4],
    [0.0, 0.8, 0.2],
]
TRIPLES = [
    (i, j, value)
    for i, row in enumerate(DENSE)
    for j, value in enumerate(row)
    if value
]


class TestRegistry:
    def test_both_backends_available(self):
        assert available_backends() == ["pure", "scipy"]

    def test_default_is_scipy(self):
        assert get_backend().name == "scipy"

    def test_unknown_backend(self):
        with pytest.raises(BackendError):
            get_backend("matlab")


class TestBackendEquivalence:
    """Both backends must produce identical numerics."""

    @pytest.fixture(params=["pure", "scipy"])
    def backend(self, request):
        return get_backend(request.param)

    def test_from_coo_shape(self, backend):
        matrix = backend.from_coo(3, 3, TRIPLES)
        assert matrix.shape == (3, 3)

    def test_from_dense(self, backend):
        matrix = backend.from_dense(DENSE)
        x = [1.0, 2.0, 3.0]
        assert np.allclose(
            np.asarray(backend.vecmat(x, matrix)),
            np.array(x) @ np.array(DENSE),
        )

    def test_identity(self, backend):
        eye = backend.identity(3)
        x = [1.0, 2.0, 3.0]
        assert np.allclose(np.asarray(backend.matvec(eye, x)), x)

    def test_transpose(self, backend):
        matrix = backend.from_coo(3, 3, TRIPLES)
        transposed = backend.transpose(matrix)
        x = [1.0, 2.0, 3.0]
        assert np.allclose(
            np.asarray(backend.matvec(transposed, x)),
            np.array(x) @ np.array(DENSE),
        )

    def test_zeros_vector(self, backend):
        zeros = backend.zeros_vector(4)
        assert np.allclose(np.asarray(zeros), np.zeros(4))

    def test_vecmat_matches_matvec_transpose(self, backend):
        matrix = backend.from_coo(3, 3, TRIPLES)
        x = [0.5, 0.25, 0.25]
        via_vecmat = np.asarray(backend.vecmat(x, matrix))
        via_matvec = np.asarray(
            backend.matvec(backend.transpose(matrix), x)
        )
        assert np.allclose(via_vecmat, via_matvec)


class TestModuleLevelDispatch:
    def test_vecmat_pure(self):
        matrix = CSRMatrix.from_dense(DENSE)
        assert np.allclose(
            vecmat([1.0, 0.0, 0.0], matrix), DENSE[0]
        )

    def test_vecmat_scipy(self):
        matrix = sp.csr_matrix(np.array(DENSE))
        assert np.allclose(
            np.asarray(vecmat([1.0, 0.0, 0.0], matrix)), DENSE[0]
        )

    def test_matvec_pure(self):
        matrix = CSRMatrix.from_dense(DENSE)
        expected = np.array(DENSE) @ np.array([1.0, 2.0, 3.0])
        assert np.allclose(matvec(matrix, [1.0, 2.0, 3.0]), expected)

    def test_matvec_scipy(self):
        matrix = sp.csr_matrix(np.array(DENSE))
        expected = np.array(DENSE) @ np.array([1.0, 2.0, 3.0])
        assert np.allclose(
            np.asarray(matvec(matrix, [1.0, 2.0, 3.0])), expected
        )

    def test_cross_backend_results_identical(self):
        pure = CSRMatrix.from_dense(DENSE)
        scipy_matrix = sp.csr_matrix(np.array(DENSE))
        x = [0.1, 0.7, 0.2]
        assert np.allclose(
            vecmat(x, pure), np.asarray(vecmat(x, scipy_matrix))
        )


class TestMatmat:
    """The batched row-stack product, both per-backend and dispatched."""

    @pytest.fixture(params=["pure", "scipy"])
    def backend(self, request):
        return get_backend(request.param)

    def test_backend_matmat_matches_rowwise_vecmat(self, backend):
        matrix = backend.from_coo(3, 3, TRIPLES)
        stack = [[0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]
        product = np.asarray(backend.matmat(stack, matrix))
        for row, expected in zip(stack, product):
            assert np.allclose(
                np.asarray(backend.vecmat(row, matrix)), expected
            )

    def test_module_dispatch_matches_backends(self):
        stack = np.array([[0.2, 0.3, 0.5], [0.0, 1.0, 0.0]])
        scipy_matrix = get_backend("scipy").from_coo(3, 3, TRIPLES)
        pure_matrix = get_backend("pure").from_coo(3, 3, TRIPLES)
        assert np.allclose(
            matmat(stack, scipy_matrix),
            np.asarray(matmat(stack.tolist(), pure_matrix)),
        )

    def test_build_coo_matches_from_coo(self, backend):
        rows = np.array([t[0] for t in TRIPLES])
        cols = np.array([t[1] for t in TRIPLES])
        vals = np.array([t[2] for t in TRIPLES])
        built = backend.build_coo(3, 3, rows, cols, vals)
        reference = backend.from_coo(3, 3, TRIPLES)
        x = [0.1, 0.2, 0.7]
        assert np.allclose(
            np.asarray(backend.vecmat(x, built)),
            np.asarray(backend.vecmat(x, reference)),
        )

    def test_scipy_has_array_fast_path(self):
        assert get_backend("scipy").from_coo_arrays is not None
        assert get_backend("pure").from_coo_arrays is None

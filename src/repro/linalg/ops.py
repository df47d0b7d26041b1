"""Backend dispatch for sparse linear algebra.

The query processors in :mod:`repro.core` never touch scipy directly; they
call the functions in this module, which route to one of two backends:

* ``"scipy"`` -- :class:`scipy.sparse.csr_matrix` with numpy vectors.  This
  is the production backend and mirrors the paper's use of MATLAB's
  sparse engine.
* ``"pure"``  -- :class:`repro.linalg.sparse.CSRMatrix` with Python lists.
  Dependency-free and independently implemented; used where scipy is
  missing and as the test suite's cross-check.

The backend is a property of the engine
(``QueryEngine(database, backend=...)``), resolved through
:func:`get_backend`; the default is scipy when importable, otherwise
pure.  The module-level products below dispatch on the matrix's storage
type, so they serve either backend's matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import BackendError
from repro.linalg.sparse import CSRMatrix

try:  # scipy is a hard dependency of the distribution but keep it optional
    import numpy as _np
    import scipy.sparse as _sp

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised only without scipy
    _np = None
    _sp = None
    _HAVE_SCIPY = False

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "matmat",
    "matvec",
    "spmm",
    "vecmat",
]


@dataclass(frozen=True)
class Backend:
    """A sparse linear-algebra backend.

    Attributes:
        name: ``"scipy"`` or ``"pure"``.
        from_coo: build a CSR matrix from ``(nrows, ncols, triples)``.
        from_dense: build a CSR matrix from a nested-list dense matrix.
        identity: build an identity matrix of size ``n``.
        transpose: return the transposed matrix (CSR again).
        vecmat: row-vector times matrix.
        matvec: matrix times column-vector.
        matmat: dense row-stack times sparse matrix (batched vecmat).
        zeros_vector: an all-zero vector of length ``n``.
        from_coo_arrays: build a CSR matrix from parallel numpy
            ``(rows, cols, values)`` arrays without a Python-level
            triple loop; None when the backend has no fast path.
    """

    name: str
    from_coo: Callable[[int, int, Iterable[Tuple[int, int, float]]], Any]
    from_dense: Callable[[Sequence[Sequence[float]]], Any]
    identity: Callable[[int], Any]
    transpose: Callable[[Any], Any]
    vecmat: Callable[[Any, Any], Any]
    matvec: Callable[[Any, Any], Any]
    matmat: Callable[[Any, Any], Any]
    zeros_vector: Callable[[int], Any]
    from_coo_arrays: Optional[Callable[[int, int, Any, Any, Any], Any]] = (
        None
    )

    def build_coo(self, nrows: int, ncols: int, rows, cols, values) -> Any:
        """CSR matrix from parallel coordinate arrays.

        Routes to the backend's vectorised constructor when available,
        else falls back to the generic triple path.
        """
        if self.from_coo_arrays is not None:
            return self.from_coo_arrays(nrows, ncols, rows, cols, values)
        return self.from_coo(
            nrows, ncols, zip(
                (int(i) for i in rows),
                (int(j) for j in cols),
                (float(v) for v in values),
            )
        )


def _pure_backend() -> Backend:
    return Backend(
        name="pure",
        from_coo=lambda nrows, ncols, triples: CSRMatrix.from_coo(
            nrows, ncols, triples
        ),
        from_dense=CSRMatrix.from_dense,
        identity=CSRMatrix.identity,
        transpose=lambda m: m.transpose(),
        vecmat=lambda x, m: m.vecmat(list(x)),
        matvec=lambda m, x: m.matvec(list(x)),
        matmat=lambda rows, m: [m.vecmat(list(row)) for row in rows],
        zeros_vector=lambda n: [0.0] * n,
    )


def _scipy_backend() -> Backend:
    if not _HAVE_SCIPY:  # pragma: no cover
        raise BackendError("scipy is not installed")

    def from_coo(nrows, ncols, triples):
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        for i, j, v in triples:
            rows.append(i)
            cols.append(j)
            vals.append(v)
        return _sp.csr_matrix(
            (vals, (rows, cols)), shape=(nrows, ncols), dtype=float
        )

    return Backend(
        name="scipy",
        from_coo=from_coo,
        from_dense=lambda rows: _sp.csr_matrix(
            _np.asarray(rows, dtype=float)
        ),
        identity=lambda n: _sp.identity(n, dtype=float, format="csr"),
        transpose=lambda m: m.transpose().tocsr(),
        vecmat=lambda x, m: _np.asarray(x, dtype=float) @ m,
        matvec=lambda m, x: m @ _np.asarray(x, dtype=float),
        matmat=lambda rows, m: _np.asarray(rows, dtype=float) @ m,
        zeros_vector=lambda n: _np.zeros(n, dtype=float),
        from_coo_arrays=lambda nrows, ncols, rows, cols, vals: (
            _sp.csr_matrix(
                (
                    _np.asarray(vals, dtype=float),
                    (
                        _np.asarray(rows, dtype=_np.int64),
                        _np.asarray(cols, dtype=_np.int64),
                    ),
                ),
                shape=(nrows, ncols),
                dtype=float,
            )
        ),
    )


_BACKENDS: Dict[str, Callable[[], Backend]] = {
    "pure": _pure_backend,
}
if _HAVE_SCIPY:
    _BACKENDS["scipy"] = _scipy_backend

_DEFAULT = "scipy" if _HAVE_SCIPY else "pure"


def available_backends() -> List[str]:
    """Names of the backends importable in this environment."""
    return sorted(_BACKENDS)


def get_backend(name: Optional[str] = None) -> Backend:
    """Return the backend called ``name`` (default: scipy, else pure).

    Raises:
        BackendError: when ``name`` is not one of :func:`available_backends`.
    """
    key = name or _DEFAULT
    try:
        factory = _BACKENDS[key]
    except KeyError:
        raise BackendError(
            f"unknown backend {key!r}; available: {available_backends()}"
        ) from None
    return factory()


def vecmat(x: Any, matrix: Any) -> Any:
    """Row-vector times matrix for either backend's matrix type."""
    if isinstance(matrix, CSRMatrix):
        return matrix.vecmat(list(x))
    if _HAVE_SCIPY:
        return _np.asarray(x, dtype=float) @ matrix
    raise BackendError(f"unsupported matrix type {type(matrix)!r}")


def matvec(matrix: Any, x: Any) -> Any:
    """Matrix times column-vector for either backend's matrix type."""
    if isinstance(matrix, CSRMatrix):
        return matrix.matvec(list(x))
    if _HAVE_SCIPY:
        return matrix @ _np.asarray(x, dtype=float)
    raise BackendError(f"unsupported matrix type {type(matrix)!r}")


def spmm(matrix: Any, block: Any, backend: Optional[str] = None) -> Any:
    """Sparse matrix times dense block (``matrix @ block``).

    The column-block form of :func:`matvec`: one product advances every
    column at once (backward suffix blocks, transposed forward stacks).
    Like :func:`matvec` it dispatches on the storage type of ``matrix``;
    ``backend`` names the caller's backend and does not change the
    product.
    """
    if isinstance(matrix, CSRMatrix):
        cols = [
            matrix.matvec([row[k] for row in block])
            for k in range(len(block[0]))
        ]
        return [list(out_row) for out_row in zip(*cols)]
    if _HAVE_SCIPY:
        return matrix @ _np.asarray(block, dtype=float)
    raise BackendError(f"unsupported matrix type {type(matrix)!r}")


def matmat(rows: Any, matrix: Any) -> Any:
    """Row-stack times matrix: one product advancing many objects at once.

    ``rows`` is an ``(n_objects, size)`` stack of distribution vectors;
    the result is the same stack after one transition.  This is the
    batched form of :func:`vecmat` -- per row the two agree exactly, but
    a single product amortises the sparse traversal over all objects.
    """
    if isinstance(matrix, CSRMatrix):
        return [matrix.vecmat(list(row)) for row in rows]
    if _HAVE_SCIPY:
        return _np.asarray(rows, dtype=float) @ matrix
    raise BackendError(f"unsupported matrix type {type(matrix)!r}")

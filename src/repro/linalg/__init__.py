"""The sparse product the library runs on, as a probe surface.

The paper performs every query through sparse matrix--vector
multiplications on MATLAB's sparse engine; this library runs them on
:mod:`scipy.sparse` CSR matrices with numpy arrays, written directly as
``matrix @ block`` where they are needed.  This module exists only for
the end-to-end benchmark's linear-algebra probe (``benchmarks/e2e``),
which times :func:`spmm` per name :func:`available_backends` lists.
"""

from typing import List, Optional


def available_backends() -> List[str]:
    """The one sparse engine: ``["scipy"]``."""
    return ["scipy"]


def spmm(matrix, block, backend: Optional[str] = None):
    """Sparse matrix times dense block, ``matrix @ block``; ``backend``
    is accepted and ignored."""
    return matrix @ block

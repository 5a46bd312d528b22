"""Small dense complex-matrix kernel for two qutrits.

Everything in this package acts on the nine-dimensional space of two
qutrits, so the kernel favours transparency over asymptotic speed: the
eigensolver is LAPACK's ``eigvalsh`` wrapped in input checks and
trace-moment posts, partial transposition is a pure index reshuffle of a
9x9 matrix, and the JSON export stores entries verbatim.

Conventions
-----------
* Matrices are ``numpy`` arrays of ``complex128``.
* ``hs_inner(a, b)`` is the Hilbert-Schmidt inner product ``Tr(a^H b)``,
  conjugate-linear in the first argument.
* ``partial_transpose`` transposes the *second* qutrit factor.
* JSON format: ``{"dim": n, "entries": [[re, im], ...]}`` with ``entries``
  in row-major order, ``dim * dim`` of them.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "HERMITICITY_TOL",
    "hermitian_eigenvalues",
    "hs_inner",
    "matrix_to_json",
    "partial_transpose",
]

#: Max tolerated entry-wise asymmetry ``|M - M^H|`` for eigensolver input.
HERMITICITY_TOL = 1e-10


def _as_matrix(m: Any) -> Array:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hs_inner(a: Array, b: Array) -> complex:
    """Hilbert-Schmidt inner product ``Tr(a^H b)``."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


def partial_transpose(m: Array) -> Array:
    """Transpose the second tensor factor of an operator on C^3 (x) C^3.

    Entry-exact: the output is a pure reindexing of the input, no arithmetic
    is performed, so applying it twice returns the original bit for bit.
    """
    a = _as_matrix(m)
    if a.shape != (9, 9):
        raise ValueError(f"expected a 9x9 two-qutrit matrix, got shape {a.shape}")
    return a.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9)


def hermitian_eigenvalues(m: Array) -> Array:
    """All eigenvalues of a Hermitian matrix, ascending, via LAPACK.

    The input is checked, symmetrised and handed to ``np.linalg.eigvalsh``;
    the returned spectrum must then reproduce the trace moments ``Tr M``
    and ``Tr M^2`` of the input.

    Raises ``ValueError`` for non-Hermitian input (with the max asymmetry in
    the message) or non-finite entries, and ``ArithmeticError`` if the
    eigenvalue sums fail to reproduce the trace moments of the input.
    """
    a = _as_matrix(m)
    n = a.shape[0]
    defect = float(np.max(np.abs(a - a.conj().T))) if n else 0.0
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: max asymmetry {defect:.3e}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")

    tr_in = float(np.trace(a).real)
    tr2_in = float(np.sum(np.abs(a) ** 2))  # Tr M^2 for Hermitian M
    scale = math.sqrt(tr2_in) if tr2_in > 0 else 1.0

    eigs = np.linalg.eigvalsh(0.5 * (a + a.conj().T))

    # Consistency posts: eigenvalues must reproduce Tr M and Tr M^2.
    tol = 1e-9 * max(1.0, scale)
    if abs(float(np.sum(eigs)) - tr_in) > tol:
        raise ArithmeticError("eigenvalue sum does not match the input trace")
    if abs(float(np.sum(eigs**2)) - tr2_in) > tol:
        raise ArithmeticError("eigenvalue square-sum does not match Tr M^2")
    return eigs


def matrix_to_json(m: Array) -> dict:
    """Serialize to ``{"dim": n, "entries": [[re, im], ...]}`` (row-major)."""
    a = _as_matrix(m)
    n = a.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"dim": n, "entries": entries}


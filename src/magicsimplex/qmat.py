"""Small dense complex-matrix kernel for two qutrits.

Everything in this package acts on the nine-dimensional space of two
qutrits, so the kernel favours transparency over asymptotic speed: the
eigensolver is LAPACK's ``eigvalsh`` wrapped in input checks and
trace-moment posts, partial transposition is a pure index reshuffle of a
9x9 matrix, and the JSON export stores entries verbatim.

The eigensolver and the partial transpose also take a stack ``(..., n, n)``
of matrices, so an oracle sweep makes one call per chunk instead of one
per matrix.  A stack is not a looser contract: the Hermiticity and
finiteness checks and the trace-moment posts are applied to every matrix
in it, each with its own tolerance, and a single matrix is just the
one-member case with bit-identical results.  Input that equals its
conjugate transpose entry for entry, as every family state, its partial
transpose and every line operator do, has no asymmetry to measure: the
eigensolver hands it to LAPACK as it is, where symmetrising it would
give the same values.

Conventions
-----------
* Matrices are ``numpy`` arrays of ``complex128``; a stack of them has the
  matrix axes last.
* ``hs_inner(a, b)`` is the Hilbert-Schmidt inner product ``Tr(a^H b)``,
  conjugate-linear in the first argument.
* ``partial_transpose`` transposes the *second* qutrit factor.
* JSON format: ``{"dim": n, "entries": [[re, im], ...]}`` with ``entries``
  in row-major order, ``dim * dim`` of them.
"""

from __future__ import annotations

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
    """``m`` as a complex square matrix or a stack ``(..., n, n)`` of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _member(a: Array, flat_index: int) -> str:
    """Where a failing matrix sits, for error messages: empty for one matrix."""
    if a.ndim == 2:
        return ""
    index = tuple(int(k) for k in np.unravel_index(flat_index, a.shape[:-2]))
    return f" at stack index {index}"


def hs_inner(a: Array, b: Array) -> complex:
    """Hilbert-Schmidt inner product ``Tr(a^H b)``."""
    return complex(np.vdot(np.asarray(a), np.asarray(b)))


def partial_transpose(m: Array) -> Array:
    """Transpose the second tensor factor of an operator on C^3 (x) C^3.

    Takes a 9x9 matrix or a ``(..., 9, 9)`` stack.  Entry-exact: the output
    is a pure reindexing of the input, no arithmetic is performed, so
    applying it twice returns the original bit for bit.
    """
    a = _as_matrix(m)
    if a.shape[-2:] != (9, 9):
        raise ValueError(f"expected a 9x9 two-qutrit matrix, got shape {a.shape}")
    lead = a.shape[:-2]
    return a.reshape(lead + (3, 3, 3, 3)).swapaxes(-3, -1).reshape(a.shape)


def hermitian_eigenvalues(m: Array) -> Array:
    """All eigenvalues of a Hermitian matrix, ascending, via LAPACK.

    The input is checked, symmetrised and handed to ``np.linalg.eigvalsh``;
    the returned spectrum must then reproduce the trace moments ``Tr M``
    and ``Tr M^2`` of the input.  Input that equals its conjugate
    transpose entry for entry goes to ``eigvalsh`` as it is, with no
    asymmetry measured.  A stack ``(..., n, n)`` gives the spectra
    ``(..., n)`` from one LAPACK call, with every check and post applied
    to each matrix on its own.

    Raises ``ValueError`` for non-Hermitian input (with the max asymmetry in
    the message) or non-finite entries, and ``ArithmeticError`` if the
    eigenvalue sums fail to reproduce the trace moments of the input.
    """
    # ndarray methods rather than np.* functions: on 9x9 inputs the call
    # overhead is most of the cost.
    a = _as_matrix(m)
    # Finiteness first: the asymmetry of an infinite entry is inf - inf.
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        raise ValueError(f"matrix{_member(a, int(finite.argmin()))} has non-finite entries")
    a_h = a.conj().swapaxes(-1, -2)
    if (a == a_h).all():
        # No defect to measure, and ``0.5 * (a + a_h)`` would equal ``a``.
        sym = a
    else:
        defect = np.abs(a - a_h).max(axis=(-2, -1), initial=0.0)
        asymmetric = defect > HERMITICITY_TOL
        if asymmetric.any():
            k = int(asymmetric.argmax())
            raise ValueError(
                f"matrix{_member(a, k)} is not Hermitian: "
                f"max asymmetry {defect.flat[k]:.3e}"
            )
        sym = 0.5 * (a + a_h)

    tr_in = a.diagonal(0, -2, -1).real.sum(-1)
    tr2_in = (np.abs(a) ** 2).sum(axis=(-2, -1))  # Tr M^2 for Hermitian M

    eigs = np.linalg.eigvalsh(sym)

    # Consistency posts, per matrix: eigenvalues must reproduce Tr M and Tr M^2.
    tol = 1e-9 * np.maximum(1.0, np.sqrt(tr2_in))
    if (abs(eigs.sum(-1) - tr_in) > tol).any():
        raise ArithmeticError("eigenvalue sum does not match the input trace")
    if (abs((eigs**2).sum(-1) - tr2_in) > tol).any():
        raise ArithmeticError("eigenvalue square-sum does not match Tr M^2")
    return eigs


def matrix_to_json(m: Array) -> dict:
    """Serialize to ``{"dim": n, "entries": [[re, im], ...]}`` (row-major)."""
    a = _as_matrix(m)
    if a.ndim != 2:
        raise ValueError(f"expected one square matrix, got shape {a.shape}")
    n = a.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in a.reshape(-1)]
    return {"dim": n, "entries": entries}


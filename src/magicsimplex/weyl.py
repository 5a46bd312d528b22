"""Shift-and-phase unitaries on a qutrit and the two-qutrit Bell basis.

The kernel is for two qutrits only.  The operators
``W(n, m) = sum_k w^(kn) |k><k+m|`` (with ``w = exp(2 pi i / 3)`` and the
ket index mod 3) form a unitary operator basis of one qutrit: they are
pairwise orthogonal in the Hilbert-Schmidt inner product with norm
``sqrt(3)``.  Applying ``W(n, m) (x) 1`` to the maximally entangled state
yields nine orthonormal entangled vectors; their projectors
(:func:`bell_projector`, the maximally entangled one at ``(0, 0)``) span
the simplex of states this package studies.

The two-sided basis used for decompositions is ``W(n, m) (x) W(-n, m)``,
which is closed under Hermitian conjugation: an operator is Hermitian iff
its coefficient table satisfies ``t[-n, -m] == conj(t[n, m])``.
:func:`weyl_tensor_decompose` also takes an ``(N, 9, 9)`` stack and
returns its ``N`` tables, each the one-matrix call's bit for bit, so an
oracle sweep decomposes a chunk of operators with one projection.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qmat import Array

__all__ = [
    "WeylCoefficients",
    "bell_projector",
    "minus_index",
    "tensor_basis_element",
    "weyl_operator",
    "weyl_tensor_decompose",
]


def _check_indices(n: int, m: int) -> None:
    if not (0 <= n < 3 and 0 <= m < 3):
        raise ValueError(f"indices ({n}, {m}) outside range [0, 3)")


def minus_index(n: int) -> int:
    """Additive inverse mod 3 mapped back into ``[0, 3)``."""
    return (3 - n) % 3


@lru_cache(maxsize=None)
def _weyl_cached(n: int, m: int) -> Array:
    w = np.exp(2j * np.pi / 3)
    op = np.zeros((3, 3), dtype=complex)
    for k in range(3):
        op[k, (k + m) % 3] = w ** (k * n)
    op.setflags(write=False)
    return op


def weyl_operator(n: int, m: int) -> Array:
    """The unitary ``sum_k w^(kn) |k><(k+m) mod 3|``."""
    _check_indices(n, m)
    return _weyl_cached(n, m).copy()


@lru_cache(maxsize=None)
def _bell_cached(n: int, m: int) -> Array:
    v = np.zeros(9, dtype=complex)
    for j in range(3):
        v[j * 3 + j] = 1.0 / np.sqrt(3)
    u = np.kron(_weyl_cached(n, m), np.eye(3, dtype=complex))
    proj = u @ np.outer(v, v.conj()) @ u.conj().T
    proj = 0.5 * (proj + proj.conj().T)
    proj.setflags(write=False)
    return proj


def bell_projector(n: int, m: int) -> Array:
    """Projector onto ``(W(n, m) (x) 1)`` applied to ``(1/sqrt 3) sum_j |jj>``."""
    _check_indices(n, m)
    return _bell_cached(n, m).copy()


def tensor_basis_element(n: int, m: int) -> Array:
    """``W(n, m) (x) W(-n, m)`` -- one element of the two-sided basis."""
    _check_indices(n, m)
    return np.kron(_weyl_cached(n, m), _weyl_cached(minus_index(n), m))


@lru_cache(maxsize=1)
def _stacked_basis() -> tuple[Array, Array, tuple[tuple[int, int], ...]]:
    """The nine two-sided basis elements as a (9, 81) stack, and its conjugate."""
    index = tuple((n, m) for n in range(3) for m in range(3))
    rows = np.stack([tensor_basis_element(n, m).reshape(81) for n, m in index])
    rows_conj = rows.conj()
    for stack in (rows, rows_conj):
        stack.setflags(write=False)
    return rows, rows_conj, index


class WeylCoefficients(NamedTuple):
    """Coefficient table of an operator over the two-sided basis.

    ``coeffs[(n, m)]`` multiplies ``W(n, m) (x) W(-n, m)``; ``residual`` is
    the Frobenius norm of whatever part of the operator lies outside the
    basis span (zero, up to rounding, for every operator this package
    constructs internally).
    """

    coeffs: dict[tuple[int, int], complex]
    residual: float

    def identity_coefficient(self) -> complex:
        return self.coeffs[(0, 0)]

    def max_off_identity(self) -> float:
        return max(
            abs(v) for k, v in self.coeffs.items() if k != (0, 0)
        )


def weyl_tensor_decompose(
    c: Array,
) -> WeylCoefficients | list[WeylCoefficients]:
    """Expand a two-qutrit operator over ``W(n, m) (x) W(-n, m)``.

    Coefficients are Hilbert-Schmidt projections ``<B_nm, C> / 9``; the
    reported residual measures the component of ``C`` outside the span (the
    span is 9-dimensional inside an 81-dimensional space, so a generic
    two-qutrit operator has a large residual).

    An ``(N, 9, 9)`` stack gives the list of its ``N`` tables from one
    stacked projection and one stacked reconstruction; each residual is
    the norm of one member, so every table is the one-matrix call's bit
    for bit.  Any other shape raises ``ValueError``.
    """
    a = np.asarray(c, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (9, 9):
        raise ValueError(f"expected shape (9, 9) or (N, 9, 9), got {a.shape}")
    if a.ndim == 2:
        return weyl_tensor_decompose(a[None])[0]
    rows, rows_conj, index = _stacked_basis()
    flat = a.reshape(len(a), 81)
    t = (rows_conj @ flat[..., None])[..., 0] / 9
    outside = flat - (rows.T @ t[..., None])[..., 0]
    # ``np.linalg.norm`` per member: an axis-wise norm adds in another order.
    return [
        WeylCoefficients(
            coeffs=dict(zip(index, row)), residual=float(np.linalg.norm(r))
        )
        for row, r in zip(t.tolist(), outside)
    ]

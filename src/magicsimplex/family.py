"""The three-parameter simplex family of two-qutrit Bell-diagonal states.

A point ``(alpha, beta, gamma)`` labels the mixture

    rho = w * 1/9 * 9 + alpha * P[0,0]
        + (beta / 2) * (P[1,0] + P[2,0])
        + (gamma / 3) * (P[0,1] + P[1,1] + P[2,1])

with ``w = (1 - alpha - beta - gamma) / 9`` so the trace is one.  The
``P[n, m]`` are the nine entangled-basis projectors from :mod:`.weyl`, so
every family member is Bell-diagonal and its spectrum is available in
closed form (:func:`bell_spectrum`).  Positivity of that spectrum carves a
four-facet region out of parameter space; :func:`pyramid_margin` returns
the signed distance-like slack to the nearest facet.

Closed-form partial-transpose data is available too: the partial transpose
splits into three 3x3 blocks with a shared spectrum, giving three
eigenvalues each of multiplicity three (:func:`pt_block_eigenvalues`).
Every PPT decision in this package is taken on that closed form; the
numeric eigensolver on the full partial transpose
(:func:`pt_min_eigenvalue`) is kept as the oracle it is checked against.
The affine involution :func:`mirror` preserves both spectra.

The module imports only the standard library.  The matrix oracle --
:func:`family_state` and :func:`pt_min_eigenvalue` -- loads numpy,
:mod:`.qmat` and :mod:`.weyl` on its first call.  The closed forms
:func:`bell_spectrum`, :func:`pyramid_slacks` and
:func:`pt_block_eigenvalues` also take an ``(N, 3)`` numpy array of
``(alpha, beta, gamma)`` rows, and load numpy only when given one; each
row then gets exactly the floats of the one-point call.

The module also carries two distinguished one- and two-parameter slices:
the classic Horodecki line of states (:func:`horodecki_point`, parameter
``b`` in ``[0, 5]``) and the boundary-plane patch through it
(:func:`plane_point`), both of which sit exactly on the positivity facet
``alpha = 7 beta / 2 + 1 - gamma``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .verdicts import Verdict

if TYPE_CHECKING:
    from .qmat import Array

__all__ = [
    "PPT_TOL",
    "STATE_TOL",
    "FamilyPoint",
    "PptResult",
    "bell_spectrum",
    "family_state",
    "horodecki_b_from_gamma",
    "horodecki_classification",
    "horodecki_point",
    "is_ppt",
    "mirror",
    "plane_point",
    "pt_block_eigenvalues",
    "pt_min_eigenvalue",
    "pyramid_margin",
    "pyramid_slacks",
]

#: A point is accepted as a state when the positivity margin clears this.
STATE_TOL = -1e-12

#: A state is PPT when the smallest partial-transpose eigenvalue clears this.
PPT_TOL = -1e-10

#: The two :mod:`logging` levels the package logs at.
_DEBUG, _INFO = 10, 20


def _log(name: str, level: int, msg: str, *args: object) -> None:
    """Log ``msg % args`` to the logger ``name`` once :mod:`logging` is loaded.

    No handler can exist before some code imports :mod:`logging`, so until
    then the record would go nowhere; checking ``sys.modules`` keeps the
    import off the production path.  ``MAGIC_SIMPLEX_LOG`` (see
    :mod:`.cli`) or the host application loads it.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).log(level, msg, *args)


class _Coordinates(NamedTuple):
    alpha: float
    beta: float
    gamma: float


class FamilyPoint(_Coordinates):
    """Coordinates of one member of the three-parameter family.

    An immutable tuple ``(alpha, beta, gamma)``: it unpacks, iterates and
    compares like one.  Every coordinate must be finite.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, gamma: float) -> FamilyPoint:
        coords = (alpha, beta, gamma)
        if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(gamma)):
            for name, v in zip(cls._fields, coords):
                if not math.isfinite(v):
                    raise ValueError(f"{name} must be finite, got {v!r}")
        return tuple.__new__(cls, coords)

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> FamilyPoint:
        # ``_replace`` builds through ``_make``: keep the finiteness check.
        return cls(*iterable)

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(self)


def _point(p: FamilyPoint | tuple[float, float, float]) -> FamilyPoint:
    if isinstance(p, FamilyPoint):
        return p
    return FamilyPoint(*p)


def _coordinates(
    p: FamilyPoint | tuple[float, float, float] | Array,
) -> FamilyPoint | tuple[Array, Array, Array]:
    """The point ``p``, or the three coordinate columns of an ``(N, 3)`` array.

    Only the array branch loads numpy; an array with another row length
    or a non-finite entry raises ``ValueError``.
    """
    if getattr(p, "ndim", None) != 2:
        return _point(p)
    import numpy as np

    if p.shape[1] != 3 or not np.all(np.isfinite(p)):
        raise ValueError(f"expected finite (N, 3) coordinates, got shape {p.shape}")
    return p[:, 0], p[:, 1], p[:, 2]


@lru_cache(maxsize=1)
def _building_blocks() -> tuple[Array, Array, Array, Array]:
    import numpy as np

    from .weyl import bell_projector

    ident = np.eye(9, dtype=complex)
    block_a = bell_projector(0, 0)
    block_b = 0.5 * (bell_projector(1, 0) + bell_projector(2, 0))
    block_c = (
        bell_projector(0, 1) + bell_projector(1, 1) + bell_projector(2, 1)
    ) / 3.0
    for m in (ident, block_a, block_b, block_c):
        m.setflags(write=False)
    return ident, block_a, block_b, block_c


def family_state(p: FamilyPoint | tuple[float, float, float] | Array) -> Array:
    """Density-like matrix of the family member at ``p``.

    The matrix always has unit trace; it is a physical state only when
    :func:`pyramid_margin` is non-negative.  Callers probing outside the
    positivity region (witness scans do) still get the matrix.

    An ``(N, 3)`` float array of ``(alpha, beta, gamma)`` rows gives the
    ``(N, 9, 9)`` stack of their matrices.  Each member is formed by the
    same operations in the same order as the single-point call, so it is
    bit-identical to ``family_state(row)``.
    """
    coords = _coordinates(p)
    if isinstance(coords, FamilyPoint):
        alpha, beta, gamma = coords
    else:
        alpha, beta, gamma = (c[:, None, None] for c in coords)
    ident, block_a, block_b, block_c = _building_blocks()
    w = (1.0 - alpha - beta - gamma) / 9.0
    return w * ident + alpha * block_a + beta * block_b + gamma * block_c


class BellSpectrum(NamedTuple):
    """Eigenvalues of a family member, keyed by entangled-basis index.

    For an ``(N, 3)`` input each weight is the ``(N,)`` array of the rows'
    weights.
    """

    weights: dict[tuple[int, int], float | Array]

    def sorted_values(self) -> list[float] | Array:
        """The nine weights in ascending order; ``(N, 9)`` rows for arrays."""
        values = list(self.weights.values())
        if not getattr(values[0], "ndim", 0):
            return sorted(values)
        import numpy as np

        return np.sort(np.stack(values, axis=-1), axis=-1)


def bell_spectrum(p: FamilyPoint | tuple[float, float, float] | Array) -> BellSpectrum:
    """Closed-form spectrum: the mixture is diagonal in the entangled basis.

    Index ``(0, 0)`` carries ``w + alpha``; ``(1, 0)`` and ``(2, 0)`` carry
    ``w + beta/2``; the three ``(n, 1)`` carry ``w + gamma/3``; the three
    ``(n, 2)`` carry the bare ``w``.  An ``(N, 3)`` coordinate array gives
    each weight as an ``(N,)`` array, row for row the floats of the
    one-point call.
    """
    a, b, g = _coordinates(p)
    w = (1.0 - a - b - g) / 9.0
    wb = w + b / 2.0
    wg = w + g / 3.0
    weights = {
        (0, 0): w + a, (0, 1): wg, (0, 2): w,
        (1, 0): wb, (1, 1): wg, (1, 2): w,
        (2, 0): wb, (2, 1): wg, (2, 2): w,
    }
    return BellSpectrum(weights)


def pyramid_slacks(
    p: FamilyPoint | tuple[float, float, float] | Array,
) -> tuple[float, float, float, float] | tuple[Array, Array, Array, Array]:
    """Slack of the four positivity facets, each vanishing on its facet.

    The four values are positive rescalings of the distinct entangled-basis
    weights (by 9, 9, 9 and 9/8 respectively), so their joint sign pattern
    matches the spectrum's exactly.  Given ``Fraction`` coordinates, the
    slacks are exact.  An ``(N, 3)`` coordinate array gives four ``(N,)``
    arrays, row for row the floats of the one-point call.
    ``regions._classify_rows`` computes the same values inline in floats.
    """
    a, b, g = _coordinates(p)
    s1 = 7 * b / 2 + 1 - g - a
    s2 = -b + 1 - g - a
    s3 = -b + 1 + 2 * g - a
    s4 = a - (b - 1 + g) / 8
    return (s1, s2, s3, s4)


def pyramid_margin(p: FamilyPoint | tuple[float, float, float]) -> float:
    """Smallest facet slack; non-negative iff ``p`` labels a state.

    Zero on the boundary of the positivity region, ``1/8`` at the origin
    (the maximally mixed state).
    """
    return min(pyramid_slacks(p))


def pt_min_eigenvalue(
    p: FamilyPoint | tuple[float, float, float] | Array,
) -> float | Array:
    """Numeric oracle: smallest eigenvalue of the partial transpose.

    An ``(N, 3)`` coordinate array gives the ``N`` minima from one stacked
    eigensolve (see :func:`family_state`).
    """
    from .qmat import hermitian_eigenvalues, partial_transpose

    smallest = hermitian_eigenvalues(partial_transpose(family_state(p)))[..., 0]
    return smallest if smallest.ndim else float(smallest)


def pt_block_eigenvalues(
    p: FamilyPoint | tuple[float, float, float] | Array,
) -> tuple[float, float, float] | tuple[Array, Array, Array]:
    """Closed-form partial-transpose spectrum ``(e0, e_minus, e_plus)``.

    The partial transpose is block-diagonal in the three index sectors
    ``(j + k) mod 3`` and every sector carries the same 3x3 spectrum, so
    each returned value has multiplicity three.  With ``y = alpha - beta/2``
    and ``w`` the uniform weight:

        e0      = w + (alpha + beta) / 3
        e_pm    = w + gamma/6 +- sqrt(gamma^2/36 + y^2/9)

    The smallest of the three decides PPT in :func:`is_ppt` and in the
    classifier; :func:`pt_min_eigenvalue` is the numeric oracle it is
    tested against.  An ``(N, 3)`` coordinate array gives three ``(N,)``
    arrays, row for row the floats of the one-point call (``np.sqrt`` and
    ``math.sqrt`` are both correctly rounded).  ``regions._classify_rows``
    evaluates ``min(e0, e_minus)`` inline: ``e_plus`` is never smaller.
    """
    coords = _coordinates(p)
    a, b, g = coords
    w = (1.0 - a - b - g) / 9.0
    y = a - b / 2.0
    e0 = w + (a + b) / 3.0
    half = g / 6.0
    radicand = g * g / 36.0 + y * y / 9.0
    if isinstance(coords, FamilyPoint):
        root = math.sqrt(radicand)
    else:
        import numpy as np

        root = np.sqrt(radicand)
    return (e0, w + half - root, w + half + root)


class PptResult(NamedTuple):
    """Outcome of the PPT test with its numeric evidence."""

    is_ppt: bool
    pt_min_eigenvalue: float


def is_ppt(p: FamilyPoint | tuple[float, float, float]) -> PptResult:
    """PPT decision for a family *state* (raises if ``p`` is not a state).

    Decided on the smallest closed-form partial-transpose eigenvalue
    (:func:`pt_block_eigenvalues`) against :data:`PPT_TOL`; the value is
    logged with the full block spectrum at DEBUG level.
    """
    pt = _point(p)
    margin = pyramid_margin(pt)
    if margin < STATE_TOL:
        raise ValueError(
            f"point {pt.as_tuple()} is not a state (positivity margin "
            f"{margin:.3e})"
        )
    spectrum = pt_block_eigenvalues(pt)
    smallest = float(min(spectrum))
    _log(
        __name__,
        _DEBUG,
        "is_ppt%s: smallest %.3e, block spectrum %s",
        pt.as_tuple(),
        smallest,
        spectrum,
    )
    return PptResult(smallest >= PPT_TOL, smallest)


def mirror(p: FamilyPoint | tuple[float, float, float]) -> FamilyPoint:
    """The mirror symmetry ``(alpha - gamma/3, beta - 2 gamma/3, -gamma)``.

    An affine involution that swaps the Bell weights of the classes
    ``(n, 1)`` and ``(n, 2)`` and keeps the other three, so it preserves
    the Bell spectrum and the closed-form partial-transpose spectrum.  It is
    the local unitary ``Pi (x) Pi`` with ``Pi |j> = |-j>``, so it also
    preserves separability.  On the positivity facet it maps
    ``plane_point(epsilon, gamma)`` to ``plane_point(epsilon, -gamma)``.
    """
    pt = _point(p)
    g = pt.gamma
    return FamilyPoint(pt.alpha - g / 3.0, pt.beta - 2.0 * g / 3.0, -g)


# ---------------------------------------------------------------------------
# Distinguished slices
# ---------------------------------------------------------------------------


def horodecki_b_from_gamma(gamma: float) -> float:
    return (5.0 - 7.0 * gamma) / 2.0


def horodecki_point(b: float) -> FamilyPoint:
    """Family coordinates of the Horodecki one-parameter state.

    The image lies exactly on the positivity facet
    ``alpha = 7 beta / 2 + 1 - gamma`` for every ``b`` in ``[0, 5]``.
    """
    if not 0.0 <= b <= 5.0:
        raise ValueError(f"line parameter must lie in [0, 5], got {b}")
    return FamilyPoint((6.0 - b) / 21.0, -2.0 * b / 21.0, (5.0 - 2.0 * b) / 7.0)


def horodecki_classification(b: float) -> Verdict:
    """Published separability classification along the Horodecki line."""
    if not 0.0 <= b <= 5.0:
        raise ValueError(f"line parameter must lie in [0, 5], got {b}")
    if b < 1.0:
        return Verdict.NPT_ENTANGLED
    if b < 2.0:
        return Verdict.BOUND_ENTANGLED
    if b <= 3.0:
        return Verdict.SEPARABLE
    if b <= 4.0:
        return Verdict.BOUND_ENTANGLED
    return Verdict.NPT_ENTANGLED


def plane_point(epsilon: float, gamma: float) -> FamilyPoint:
    """Two-parameter patch of the positivity facet through the line above.

    ``plane_point(0, gamma)`` reproduces the Horodecki line; the extra
    coordinate ``epsilon`` moves along the facet transversally to it.
    Both inputs must be finite; ``ValueError`` names the first that is not.
    """
    for name, v in (("epsilon", epsilon), ("gamma", gamma)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    alpha = (1.0 + gamma + epsilon) / 6.0
    beta = (-5.0 + 7.0 * gamma + epsilon) / 21.0
    return FamilyPoint(alpha, beta, gamma)

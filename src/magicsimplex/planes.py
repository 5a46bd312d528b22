"""The six witness planes the classifier reads, in closed form.

Each deployed witness is the line operator of :mod:`.witness` from a
distinguished PPT start at its onset, and ``Tr(W rho_p)`` is affine in the
family coordinates, so each is a plane ``alpha = b * beta + g * gamma + c``.
That plane is a rational function of the start and the onset
(:func:`_line_plane`), and the starts and onsets are closed forms, so
:func:`witness_planes` builds no matrix.  It gives each plane as one plain
row ``(name, beta_coeff, gamma_coeff, offset, trace_scale)``, a sign test
read like the polytope's facet rows; :class:`PlaneCoefficients` is the
record of the oracle (:func:`~.witness.witness_plane`) and of
:func:`_line_plane`.  The battery holds three
constructed witnesses -- ``Pl1`` (tangent at the flat face), ``Pl2`` (from
the deepest detectable start), ``Pl3`` (from where ``Pl1`` meets the PPT
cone edge) -- each followed by the same construction from the
:func:`~.family.mirror` image of its start, which covers the mirrored
region.  :func:`~.witness.deployed_witnesses` is the matrix oracle that
checks every plane.

The onset of any line is a closed form too: :func:`lambda_min` reads it
off the Weyl character table of the Bell-diagonal simplex, and
:func:`~.witness.lambda_min` is its matrix oracle.

This module imports only the standard library, like the rest of the
production path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, NamedTuple

from .family import _INFO, FamilyPoint, _log, _point, bell_spectrum, is_ppt, mirror, plane_point

__all__ = [
    "CONE_EDGE_LAMBDA",
    "DEFAULT_SEED",
    "FEASIBLE_SLACK",
    "OPTIMAL_EPSILON",
    "OPTIMAL_GAMMA",
    "OPTIMAL_LAMBDA",
    "PlaneCoefficients",
    "lambda_min",
    "optimal_plane_start",
    "pl1_cone_start",
    "plane_tip_start",
    "witness_planes",
]

#: Default RNG seed for anything sampled in this package.
DEFAULT_SEED = 20101

#: Relative slack in the coefficient comparison of the product-safety test.
FEASIBLE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Distinguished starts
# ---------------------------------------------------------------------------

#: Transversal coordinate of the start whose line detects entanglement the
#: earliest (smallest lambda_min over the whole plane patch): the unique
#: positive root of  e^2 + 25 e - 3 = 0.
OPTIMAL_EPSILON = (-25.0 + 7.0 * math.sqrt(13.0)) / 2.0

#: Third family coordinate of that start.  Two independent tangency
#: conditions pin it: all eight off-identity coefficient magnitudes of the
#: start coincide there, and the start sits on the PPT cone boundary.  Both
#: reduce to the same quadratic in OPTIMAL_EPSILON, whose root satisfies
#: gamma = sqrt(epsilon).
OPTIMAL_GAMMA = math.sqrt(OPTIMAL_EPSILON)

#: lambda_min at the optimal start, in closed form.
OPTIMAL_LAMBDA = (3.0 + math.sqrt(13.0)) / 8.0

#: lambda_min at the cone-edge start :func:`pl1_cone_start`, in closed form.
CONE_EDGE_LAMBDA = 7.0 * (2328.0 + 331.0 * math.sqrt(39.0)) / 32763.0


def optimal_plane_start() -> FamilyPoint:
    """The plane-patch start minimizing ``lambda_min``."""
    return plane_point(OPTIMAL_EPSILON, OPTIMAL_GAMMA)


def plane_tip_start() -> FamilyPoint:
    """Corner of the plane patch where the line barely succeeds.

    At this start the endpoint witness is exactly marginal
    (``lambda_min == 1``): all eight off-identity coefficient magnitudes
    equal half the identity coefficient.
    """
    return plane_point(-0.25, 0.25)


def pl1_cone_start() -> FamilyPoint:
    """Where the ``Pl1`` witness plane meets the PPT cone at ``gamma = 2/7``.

    On the plane ``alpha = (4 beta + 2 (1 - gamma)) / 5`` the smallest
    partial-transpose eigenvalue ``e_minus`` (see
    :func:`~magicsimplex.family.pt_block_eigenvalues`, with its ``w`` and
    ``y = alpha - beta/2``) vanishes where ``9 w (w + gamma/3) = y^2``.
    At ``gamma = 2/7`` that reads ``1323 beta^2 - 2520 beta - 100 = 0``,
    whose root in ``(-0.3, 0.1)`` is ``beta = 10 (6 - sqrt 39) / 63``.
    """
    gamma = 2.0 / 7.0
    beta = 10.0 * (6.0 - math.sqrt(39.0)) / 63.0
    return FamilyPoint((4.0 * beta + 2.0 * (1.0 - gamma)) / 5.0, beta, gamma)


# ---------------------------------------------------------------------------
# The onset of a line
# ---------------------------------------------------------------------------


def _require_ppt(start: FamilyPoint | tuple[float, float, float]) -> None:
    """Raise ``ValueError`` unless ``start`` is a PPT state.

    The line construction hunts entanglement the partial transpose cannot
    see, so every entry point that takes a start checks it here.
    """
    point = _point(start)
    result = is_ppt(point)  # raises for a point that is not a state
    if not result.is_ppt:
        raise ValueError(
            f"start {point.as_tuple()} is NPT (smallest partial-transpose "
            f"eigenvalue {result.pt_min_eigenvalue:.3e}); use a PPT start"
        )


#: The cube roots of unity ``omega ** j``.
_OMEGA = (1.0, complex(-0.5, math.sqrt(3.0) / 2.0), complex(-0.5, -math.sqrt(3.0) / 2.0))


def _character_table(
    start: FamilyPoint | tuple[float, float, float],
) -> tuple[float, dict[tuple[int, int], complex]]:
    """``sum (p - 1/9)^2`` and the table ``t[n,m]`` of the start's Bell weights.

    The first value is ``purity - 1/9`` with nothing cancelled; the table
    is summed term by term from the nine weights.
    """
    weights = bell_spectrum(start).weights
    excess = sum((p - 1.0 / 9.0) ** 2 for p in weights.values())
    table = {
        (n, m): sum(p * _OMEGA[(n * l - m * k) % 3] for (k, l), p in weights.items()) / 9.0
        for n in range(3)
        for m in range(3)
    }
    return excess, table


def lambda_min(start: FamilyPoint | tuple[float, float, float]) -> float | None:
    """Smallest ``l`` in ``[0, 1]`` whose line operator is product-safe.

    The start is Bell-diagonal with weights ``p_kl`` on the projectors
    ``P[k,l]``, and its two-sided Weyl coefficients are the character table

        t[n,m] = (1/9) * sum_kl p_kl * omega^(n l - m k),   omega = e^(2 pi i/3).

    The family's weights are ``w + alpha`` at ``(0,0)``, ``w + beta/2`` at
    ``(1,0)`` and ``(2,0)``, ``w + gamma/3`` at ``(k,1)`` and ``w`` at
    ``(k,2)``.  Summing over ``k`` first, a column ``l`` with equal weights
    drops out of every ``m != 0`` entry, so each of the six ``m != 0``
    entries is ``y/9`` with ``y = alpha - beta/2``.  Summing over ``k``
    first for ``m = 0`` leaves the column sums ``3w + alpha + beta``,
    ``3w + gamma`` and ``3w``, so ``t[n,0] = (alpha + beta + gamma
    omega^n)/9`` for ``n != 0``, of modulus ``r/9`` with

        r = sqrt((alpha + beta - gamma/2)^2 + 3 gamma^2 / 4).

    Along the line ``C_l / (1 - l)`` (see :mod:`.witness`) has identity
    coefficient ``l * (purity - 1/9)`` while its other coefficients are the
    negated table, and ``purity - 1/9 = 9 * sum |t|^2 = (6 y^2 + 2 r^2)/9``
    over the eight off-identity entries (Parseval).  The safety threshold
    ``t00 = 2 * max|t|`` is therefore crossed at

        l = max(|y|, r) / (3 y^2 + r^2).

    Returns ``None`` when the denominator vanishes (the maximally mixed
    state, where every line operator vanishes, or a start so near it that
    the denominator underflows while ``l`` is far beyond 1) or when ``l``
    exceeds ``1 + FEASIBLE_SLACK``, which is exactly where the endpoint
    operator ``purity * 1 - rho`` fails the criterion; ``l`` is clamped to
    1.  As a post, the operator at the returned ``l`` must pass the
    criterion on the table summed term by term, else ``ArithmeticError``.
    Raises ``ValueError`` for a start that is not a PPT state.
    """
    _require_ppt(start)
    a, b, g = start
    y = a - b / 2.0
    u = a + b - g / 2.0
    r_sq = u * u + 0.75 * g * g
    denom = 3.0 * y * y + r_sq
    if denom <= 0.0:
        return None
    lam = max(abs(y), math.sqrt(r_sq)) / denom
    if lam > 1.0 + FEASIBLE_SLACK:
        return None
    lam = min(lam, 1.0)
    excess, table = _character_table(start)
    t_max = max(abs(v) for key, v in table.items() if key != (0, 0))
    if t_max > (lam * excess / 2.0) * (1.0 + FEASIBLE_SLACK):
        raise ArithmeticError(
            f"the line operator at the closed-form onset {lam!r} is not product-safe"
        )
    return lam


# ---------------------------------------------------------------------------
# Witness planes
# ---------------------------------------------------------------------------


class PlaneCoefficients(NamedTuple):
    """Normalized plane ``alpha = b * beta + g * gamma + c`` of a witness.

    The fields are ``b, g, c, k`` of ``Tr(W rho_p) = k * (alpha - (b beta +
    g gamma + c))``, ``k`` negative for the deployed witnesses, so detected
    points lie above the plane in ``alpha``.
    """

    beta_coeff: float
    gamma_coeff: float
    offset: float
    trace_scale: float


def _line_plane(start: FamilyPoint, lam: float) -> PlaneCoefficients:
    """The plane of the line operator from ``start`` at ``lam``, in closed form.

    ``Tr(rho_s rho_p)`` is affine in ``p``; its ``alpha``, ``beta`` and
    ``gamma`` slopes are the deviations ``a'``, ``b'``, ``g'`` of the start's
    Bell weights ``p_00``, ``p_10`` and ``p_01`` from 1/9.  The operator
    ``kappa * ((l * purity + (1 - l) / 9) * 1 - rho_s)`` of
    :func:`~.witness.c_lambda` -- ``kappa = 1 - l`` below the endpoint and
    ``1`` at ``l = 1`` -- therefore has ``beta_coeff = -b'/a'``, ``gamma_coeff = -g'/a'``,
    ``offset = l * e / a'`` and ``trace_scale = -kappa * a'``, where
    ``e = purity - 1/9`` is the sum of the nine squared weight deviations.
    """
    a, b, g = start.as_tuple()
    da = (8.0 * a - b - g) / 9.0
    db = (-2.0 * a + 7.0 * b - 2.0 * g) / 18.0
    dg = (-a - b + 2.0 * g) / 9.0
    dw = (a + b + g) / 9.0  # minus the deviation of the three (n, 2) weights
    excess = da * da + 2.0 * db * db + 3.0 * dg * dg + 3.0 * dw * dw
    kappa = 1.0 if lam == 1.0 else 1.0 - lam
    return PlaneCoefficients(
        beta_coeff=-db / da,
        gamma_coeff=-dg / da,
        offset=lam * excess / da,
        trace_scale=-kappa * da,
    )


# ---------------------------------------------------------------------------
# The deployed battery
# ---------------------------------------------------------------------------


def _battery_lines() -> Iterator[tuple[str, FamilyPoint, float]]:
    """Name, start and onset of every battery member, in battery order.

    An onset of 1 stands for the rescaled endpoint operator that
    :func:`~.witness.c_lambda` returns at ``l = 1``.
    """
    for name, start, onset in (
        ("Pl1", plane_tip_start(), 1.0),
        ("Pl2", optimal_plane_start(), OPTIMAL_LAMBDA),
        ("Pl3", pl1_cone_start(), CONE_EDGE_LAMBDA),
    ):
        yield name, start, onset
        yield name + "m", mirror(start), onset


@lru_cache(maxsize=1)
def witness_planes() -> tuple[tuple[str, float, float, float, float], ...]:
    """The six witness planes the classifier reads, in closed form, built once.

    Each plane is one plain row ``(name, beta_coeff, gamma_coeff, offset,
    trace_scale)``: the name, then the fields of the member's
    :class:`PlaneCoefficients`.  In battery order ``Pl1, Pl1m, Pl2, Pl2m,
    Pl3, Pl3m``; no matrix is built.  :func:`~.witness.deployed_witnesses`
    is the oracle that checks them.
    """
    battery = tuple(
        (name, *_line_plane(start, onset)) for name, start, onset in _battery_lines()
    )
    for row in battery[::2]:  # the three unmirrored members
        _log(
            __name__,
            _INFO,
            "witness %s: alpha = %.9f beta + %.9f gamma + %.9f (k=%.6f)",
            *row,
        )
    return battery

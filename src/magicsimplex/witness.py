"""Entanglement witnesses from lines between a PPT state and the center.

Given a PPT entangled family member ``rho``, the segment

    rho_l = l * rho + (1 - l) * 1/9,   l in [0, 1]

runs from the maximally mixed state to ``rho``.  For each ``l`` the
operator

    C_l = rho_l - rho - <rho_l, rho_l - rho> * 1

is orthogonal to ``rho_l`` and strictly negative on ``rho`` whenever
``rho_l != rho``, so it separates the two ends of the segment.  It becomes
an entanglement witness once it is provably non-negative on every product
state; the sufficient criterion used here works coefficient-wise in the
two-sided operator basis of :mod:`.weyl`:

    C is product-safe if  t[0,0] > 0  and  max |t[n,m]| <= t[0,0] / 2
                          over (n, m) != (0, 0).

(Equivalently: C rescales to ``a * (2 * 1 + sum c[n,m] B[n,m])`` with every
``|c[n,m]| <= 1`` and an identity surplus ``c[0,0]`` in ``[0, 1]``; on a
product state the identity term dominates the other eight coefficients by
the Cauchy-Schwarz bound.  The criterion is sufficient, not necessary --
e.g. an entangled-basis projector is positive yet fails it.)

Along a fixed line, feasibility of ``C_l`` is monotone in ``l`` (the
identity coefficient grows affinely while the off-identity table is
``l``-independent up to a common positive factor), so the smallest
witness-yielding parameter ``lambda_min`` is where the identity
coefficient reaches twice the largest off-identity one; it is computed in
closed form from the start's coefficient table
(:func:`~.planes.lambda_min`); :func:`lambda_min` here is its matrix
oracle.  The ``l -> 1`` limit of ``C_l / (l (1 - l))`` is the tangent-plane
witness ``purity * 1 - rho``, which :func:`c_lambda` returns at ``l = 1``.

Geometrically each witness is an affine functional of the family
coordinates, i.e. a plane ``alpha = b * beta + g * gamma + c``.  The six
planes the classifier reads are closed forms in :mod:`.planes`, which
builds no matrix.  This module is their matrix oracle:
:func:`deployed_witnesses` runs the same six lines through
:func:`c_lambda` and probes each plane with :func:`witness_plane`; it
raises unless every onset matches its closed form, every operator passes
the safety criterion and every plane matches its closed form.  Product
states are sampled only by check 9 of :mod:`.checks`, through
:func:`min_product_expectation`.  Like :mod:`.qmat`, :mod:`.weyl` and
:mod:`.checks` it imports numpy, so the command line loads it only for
``witness --name`` and ``verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import planes
from .family import FamilyPoint, family_state
from .planes import (
    DEFAULT_SEED,
    FEASIBLE_SLACK,
    PlaneCoefficients,
    _battery_lines,
    _require_ppt,
    witness_planes,
)
from .qmat import Array, hs_inner
from .weyl import WeylCoefficients, weyl_tensor_decompose

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "NOT_IN_SPAN",
    "DeployedWitness",
    "WitnessCandidate",
    "c_lambda",
    "deployed_witness",
    "deployed_witnesses",
    "lambda_min",
    "min_product_expectation",
    "product_state_vectors",
    "witness_candidate",
    "witness_plane",
]

#: Operators further than this (Frobenius) from the basis span are rejected.
SPAN_TOL = 1e-10

#: Largest gap between an oracle onset or plane field and its closed form.
_ORACLE_TOL = 1e-12

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
NOT_IN_SPAN = "not-in-span"


@dataclass(frozen=True)
class WitnessCandidate:
    """An operator submitted to the product-safety criterion.

    ``status`` is one of :data:`FEASIBLE`, :data:`INFEASIBLE`,
    :data:`NOT_IN_SPAN`; ``a_interval`` is the (closed) range of admissible
    normalization constants when feasible, else ``None``.
    """

    matrix: Array
    coeffs: WeylCoefficients
    status: str
    a_interval: tuple[float, float] | None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _analyze_coefficients(
    coeffs: WeylCoefficients,
) -> tuple[str, tuple[float, float] | None]:
    t00 = coeffs.identity_coefficient()
    if abs(t00.imag) > 1e-9 * max(1.0, abs(t00)):
        raise ValueError(
            f"identity coefficient is not real ({t00!r}); "
            "the product-safety test needs a Hermitian operator"
        )
    t00_re = t00.real
    t_max = coeffs.max_off_identity()
    if t00_re <= 0.0:
        return INFEASIBLE, None
    if t_max > (t00_re / 2.0) * (1.0 + FEASIBLE_SLACK):
        return INFEASIBLE, None
    return FEASIBLE, (max(t_max, t00_re / 3.0), t00_re / 2.0)


def witness_candidate(matrix: Array) -> WitnessCandidate:
    """Decompose ``matrix`` and run the product-safety criterion on it.

    Scaling the input by any positive factor scales the coefficient table
    and the ``a_interval`` by the same factor and leaves the verdict
    unchanged.
    """
    mat = np.asarray(matrix, dtype=complex)
    coeffs = weyl_tensor_decompose(mat)
    if coeffs.residual > SPAN_TOL * max(1.0, float(np.linalg.norm(mat))):
        status, interval = NOT_IN_SPAN, None
    else:
        status, interval = _analyze_coefficients(coeffs)
    return WitnessCandidate(
        matrix=mat, coeffs=coeffs, status=status, a_interval=interval
    )


# ---------------------------------------------------------------------------
# The line construction
# ---------------------------------------------------------------------------


def _scaled_line_operator(rho: Array, lam: float) -> Array:
    """``C_l / (1 - l) = (l * purity + (1 - l) / 9) * 1 - rho``.

    A positive multiple of ``C_l``, hence the same safety verdict, without
    the cancellation in ``rho_l - rho`` as ``l -> 1``; at ``l = 1`` it is
    the endpoint limit ``purity * 1 - rho``.
    """
    purity = hs_inner(rho, rho).real
    return (lam * purity + (1.0 - lam) / 9.0) * np.eye(9, dtype=complex) - rho


def c_lambda(start: FamilyPoint, lam: float) -> WitnessCandidate:
    """The line operator from ``start`` at ``lam``, with its safety verdict.

    Below the endpoint this is the separating operator ``C_l``: by
    construction ``Tr(C_l rho_l) = 0`` and ``Tr(C_l rho)`` equals minus the
    squared distance between the line point and the start.  The matrix is
    formed as ``(1 - l)`` times the rescaled operator, which keeps its
    safety verdict clear of the cancellation in ``rho_l - rho`` as
    ``l -> 1``.  At ``lam == 1``, where ``C_l`` vanishes identically, it is
    the rescaled endpoint limit ``purity * 1 - rho``, tangent to the line at
    its far end (``Tr(C rho) = 0`` exactly); :func:`~.planes._line_plane`
    uses the same convention.  Raises ``ValueError`` for ``lam`` outside
    ``[0, 1]`` (NaN included), then for a start that is not a PPT state.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"line parameter must lie in [0, 1], got {lam}")
    _require_ppt(start)
    op = _scaled_line_operator(family_state(start), lam)
    return witness_candidate(op if lam == 1.0 else (1.0 - lam) * op)


def lambda_min(start: FamilyPoint) -> float | None:
    """Matrix oracle of :func:`~.planes.lambda_min`, from the Weyl decomposition.

    Along the line ``C_l / (1 - l)`` has identity coefficient
    ``l * (purity - 1/9)`` while its off-identity coefficients are the
    negated table ``t`` of ``rho``, so the safety threshold is crossed at

        l = 2 * max|t| / (purity - 1/9),

    with ``purity - 1/9 = 9 * sum |t|^2`` over the off-identity entries
    (Parseval), summed rather than subtracted so that starts near the
    maximally mixed state cannot cancel it to rounding noise.  Returns
    ``None`` when this exceeds ``1 + FEASIBLE_SLACK``, which is exactly
    where the endpoint operator ``purity * 1 - rho`` fails the criterion.
    As posts, the operator at the returned ``l`` must pass
    :func:`witness_candidate`, and the onset must match the closed form of
    :func:`~.planes.lambda_min` to 1e-12 (``None`` for ``None``), else
    ``ArithmeticError``.  Raises ``ValueError`` for a start that is not a
    PPT state.
    """
    _require_ppt(start)
    rho = family_state(start)
    coeffs = weyl_tensor_decompose(rho)
    slope = 9.0 * sum(
        abs(v) ** 2 for key, v in coeffs.coeffs.items() if key != (0, 0)
    )
    # At the maximally mixed state every line operator vanishes: never safe.
    lam = 2.0 * coeffs.max_off_identity() / slope if slope > 0.0 else math.inf
    if lam > 1.0 + FEASIBLE_SLACK:
        lam = None
    else:
        lam = min(lam, 1.0)
        if not witness_candidate(_scaled_line_operator(rho, lam)).feasible:
            raise ArithmeticError(
                f"the line operator at the closed-form onset {lam!r} is not product-safe"
            )
    closed = planes.lambda_min(start)
    if (lam is None) != (closed is None) or (
        lam is not None and abs(lam - closed) > _ORACLE_TOL
    ):
        raise ArithmeticError(f"onset {lam!r} is not its closed form {closed!r}")
    return lam


# ---------------------------------------------------------------------------
# Witness planes
# ---------------------------------------------------------------------------


def witness_plane(w: WitnessCandidate) -> PlaneCoefficients:
    """Extract the plane a witness cuts through the family coordinates.

    ``Tr(W rho_p)`` is affine in ``(alpha, beta, gamma)``, so four probe
    evaluations determine it; the result is normalized to unit ``alpha``
    coefficient.  Raises if the functional does not depend on ``alpha`` or
    if the origin does not lie below the plane (``offset <= 0``).
    """
    mat = w.matrix

    def f(alpha: float, beta: float, gamma: float) -> float:
        return hs_inner(mat, family_state((alpha, beta, gamma))).real

    f0 = f(0.0, 0.0, 0.0)
    fa = f(1.0, 0.0, 0.0) - f0
    fb = f(0.0, 1.0, 0.0) - f0
    fg = f(0.0, 0.0, 1.0) - f0
    if abs(fa) < 1e-13 * max(1.0, float(np.linalg.norm(mat))):
        raise ValueError("witness functional does not depend on alpha")
    plane = PlaneCoefficients(
        beta_coeff=-fb / fa,
        gamma_coeff=-fg / fa,
        offset=-f0 / fa,
        trace_scale=fa,
    )
    if plane.offset <= 0.0:
        raise ValueError(
            "witness plane violates the orientation convention "
            "(the origin must lie below the plane: offset > 0)"
        )
    return plane


# ---------------------------------------------------------------------------
# The matrix battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeployedWitness:
    name: str
    candidate: WitnessCandidate
    plane: PlaneCoefficients


@lru_cache(maxsize=1)
def deployed_witnesses() -> tuple[DeployedWitness, ...]:
    """The matrix oracle of :func:`witness_planes`, built once.

    Each member runs its line through the matrix pipeline from the same
    start: the onset by :func:`lambda_min`, the operator by :func:`c_lambda`
    at that onset (the endpoint limit when the onset is 1), the plane by
    :func:`witness_plane`.  In battery order, each member's onset must match
    its closed form to 1e-12, its operator must pass the safety criterion,
    and all four plane fields must match their closed forms to 1e-12;
    otherwise ``ArithmeticError`` for the first failing member.  The
    criterion certifies product safety, so no product state is sampled
    here: check 9 of :mod:`.checks` (``product-state-safety``) is the one
    product-state sweep.
    """
    battery: list[DeployedWitness] = []
    for (name, start, onset), (_, closed) in zip(_battery_lines(), witness_planes()):
        lam = lambda_min(start)
        if lam is None or abs(lam - onset) > _ORACLE_TOL:
            raise ArithmeticError(
                f"witness {name}: onset {lam!r} is not its closed form {onset!r}"
            )
        cand = c_lambda(start, lam)
        if not cand.feasible:
            raise ArithmeticError(f"witness {name} failed the safety criterion")
        plane = witness_plane(cand)
        drift = max(abs(x - y) for x, y in zip(plane, closed))
        if drift > _ORACLE_TOL:
            raise ArithmeticError(
                f"witness {name}: probed plane is {drift:.2e} from its closed form"
            )
        battery.append(DeployedWitness(name=name, candidate=cand, plane=plane))
    return tuple(battery)


def deployed_witness(name: str) -> DeployedWitness:
    """The oracle member called ``name``; ``ValueError`` for an unknown name."""
    battery = deployed_witnesses()
    for w in battery:
        if w.name == name:
            return w
    known = ", ".join(w.name for w in battery)
    raise ValueError(f"unknown witness name {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# Product-state sampling
# ---------------------------------------------------------------------------


def product_state_vectors(
    count: int, seed: int | np.random.Generator = DEFAULT_SEED
) -> Array:
    """``count`` Haar-random product vectors on C^3 (x) C^3, one per row."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2, 3)) + 1j * rng.standard_normal((count, 2, 3))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    return np.einsum("ni,nj->nij", raw[:, 0, :], raw[:, 1, :]).reshape(count, 9)


def min_product_expectation(w: Array, count: int = 100_000) -> float | Array:
    """Smallest ``<v| W |v>`` over ``count`` product vectors.

    The vectors are seeded with :data:`DEFAULT_SEED`, so the result is
    reproducible.  They are drawn in chunks of 20,000; the chunk size is
    fixed because it decides which normals become real and which imaginary
    parts, so another size would sweep other vectors.

    For each chunk ``v`` and operator ``W`` the kernel forms ``Wv`` as one
    BLAS product ``v @ W.T`` and reads ``<v|W|v>`` as the real part of
    ``conj(v) . Wv``, i.e. ``Re v . Re Wv + Im v . Im Wv``, through views of
    ``v`` rather than a conjugate copy.

    A ``(k, 9, 9)`` stack of operators gives their ``k`` minima from one
    sweep: each chunk of vectors is drawn once and the operators take it in
    turn, so each minimum equals the single-operator call bit for bit and
    peak memory does not grow with ``k``.
    """
    mats = np.asarray(w, dtype=complex)
    stack = mats.reshape((-1,) + mats.shape[-2:])
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = np.full(len(stack), math.inf)
    chunk = 20_000
    remaining = count
    while remaining > 0:
        take = min(chunk, remaining)
        v = product_state_vectors(take, rng)
        for k, mat in enumerate(stack):
            wv = v @ mat.T
            vals = np.einsum("ni,ni->n", v.real, wv.real)
            vals += np.einsum("ni,ni->n", v.imag, wv.imag)
            worst[k] = min(worst[k], vals.min())
        remaining -= take
    return worst if mats.ndim > 2 else float(worst[0])

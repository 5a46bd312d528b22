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

:func:`line_operator` forms the matrix alone, by one code path: an
``(N, 3)`` array of starts and an ``(N,)`` array of parameters give the
``(N, 9, 9)`` stack, and one start with one ``l`` is the one-member stack,
reshaped to its ``9x9`` matrix.  Its starts are validated by one array test
of the closed forms, and only a member that fails it is checked again on
its own, which raises that member's own message.  :func:`c_lambda` is its
:func:`witness_candidate`, the matrix with its Weyl table and safety
verdict.

Geometrically each witness is an affine functional of the family
coordinates, i.e. a plane ``alpha = b * beta + g * gamma + c``.  The six
planes the classifier reads are closed forms in :mod:`.planes`, which
builds no matrix.  This module is their matrix oracle:
:func:`deployed_witnesses` runs the same six lines through
:func:`c_lambda` and probes each plane with :func:`witness_plane`; it
raises unless every onset matches its closed form, every operator passes
the safety criterion and every plane matches its closed form.
:func:`product_minima` takes an operator in the family's span to its
exact minimum over product states: there it is a ``3x3`` eigenvalue
problem in one factor, minimised over the other, and only check 9 of
:mod:`.checks` calls it.  Like :mod:`.qmat`, :mod:`.weyl` and
:mod:`.checks` it imports numpy, so the command line loads it only for
``witness --name`` and ``verify``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import planes
from .family import (
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    _building_blocks,
    family_state,
    pt_block_eigenvalues,
    pyramid_slacks,
)
from .planes import (
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
    "line_operator",
    "product_minima",
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


class WitnessCandidate(NamedTuple):
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


def _scaled_line_operator(rho: Array, lam: float | Array) -> Array:
    """``C_l / (1 - l) = (l * purity + (1 - l) / 9) * 1 - rho`` for each state.

    A positive multiple of ``C_l``, hence the same safety verdict, without
    the cancellation in ``rho_l - rho`` as ``l -> 1``; at ``l = 1`` it is
    the endpoint limit ``purity * 1 - rho``.  ``rho`` is an ``(N, 9, 9)``
    stack of states and ``lam`` a float or an ``(N, 1, 1)`` array of
    parameters.  Each purity is :func:`~.qmat.hs_inner` of one member
    (``np.vdot``); a stacked sum would add in another order and change the
    bits, so no member's bits depend on the rest of the stack.
    """
    purity = np.array([hs_inner(r, r).real for r in rho])[:, None, None]
    return (lam * purity + (1.0 - lam) / 9.0) * np.eye(9, dtype=complex) - rho


def _ppt_rows(rows: Array) -> Array:
    """Which rows of a finite ``(N, 3)`` array are PPT states.

    A row passes when the closed forms :func:`~.family.pyramid_slacks` and
    :func:`~.family.pt_block_eigenvalues` clear :data:`~.family.STATE_TOL`
    and :data:`~.family.PPT_TOL`: the floats of
    :func:`~.planes._require_ppt`.  The spectrum is formed for the states
    only.
    """
    ok = np.minimum.reduce(pyramid_slacks(rows)) >= STATE_TOL
    ok[ok] = np.minimum.reduce(pt_block_eigenvalues(rows[ok])) >= PPT_TOL
    return ok


def _require_line_starts(starts: Array, lams: Array) -> None:
    """:func:`c_lambda`'s checks on every row, in one pass over the arrays.

    A row passes when its ``lam`` lies in ``[0, 1]``, its coordinates are
    finite and it is one of :func:`_ppt_rows`; a non-finite row is read as
    the origin for that test, so that the array closed forms take the
    others.  The rows that fail are checked again in order, each ``lam``
    (not NaN) and then :func:`~.planes._require_ppt`, so the first of them
    raises its own message.
    """
    finite = np.isfinite(starts).all(axis=1)
    ppt = _ppt_rows(np.where(finite[:, None], starts, 0.0))
    for k in np.flatnonzero(~((lams >= 0.0) & (lams <= 1.0) & finite & ppt)).tolist():
        lam = float(lams[k])
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"line parameter must lie in [0, 1], got {lam}")
        _require_ppt(starts[k].tolist())


def line_operator(
    start: FamilyPoint | tuple[float, float, float] | Array, lam: float | Array
) -> Array:
    """The matrix of :func:`c_lambda` at one start or at a stack of them.

    Each member is ``(1 - lam)`` times the rescaled operator, or the
    rescaled operator itself at ``lam == 1``.  An ``(N, 3)`` array-like of
    starts and an ``(N,)`` array of parameters give the ``(N, 9, 9)``
    stack; one ``(3,)`` start and a float are the one-member stack and give
    its ``9x9`` matrix, so a member is the same bits whichever way it comes.

    Before any matrix forms, each member in turn gets :func:`c_lambda`'s
    checks and messages: ``ValueError`` for its ``lam`` outside ``[0, 1]``
    (NaN included), then for its start unless it is a PPT state.  They run
    as one array test of the closed forms (:func:`_require_line_starts`),
    so a member that passes logs no DEBUG line of :func:`~.family.is_ppt`.
    Starts and parameters of any other shapes raise ``ValueError`` naming
    both shapes.
    """
    starts = np.asarray(start, dtype=float)
    lams = np.asarray(lam, dtype=float)
    if starts.ndim > 2 or starts.shape[-1:] != (3,) or lams.shape != starts.shape[:-1]:
        raise ValueError(
            "expected a (3,) start with one line parameter or (N, 3) starts "
            f"with (N,) line parameters, got shapes {starts.shape} and {lams.shape}"
        )
    shape = lams.shape + (9, 9)
    starts, lams = starts.reshape(-1, 3), lams.reshape(-1)
    _require_line_starts(starts, lams)
    lams = lams[:, None, None]
    op = _scaled_line_operator(family_state(starts), lams)
    return np.where(lams == 1.0, op, (1.0 - lams) * op).reshape(shape)


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
    ``[0, 1]`` (NaN included), then for a start that is not a PPT state,
    and a start that passes logs no DEBUG line of :func:`~.family.is_ppt`.
    The matrix is :func:`line_operator`'s, the one-member stack reshaped to
    ``9x9``; this adds its candidate.
    """
    return witness_candidate(line_operator(start, lam))


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
    closed = planes.lambda_min(start)  # raises for a start that is not PPT
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
        op = _scaled_line_operator(rho[None], lam)[0]
        if not witness_candidate(op).feasible:
            raise ArithmeticError(
                f"the line operator at the closed-form onset {lam!r} is not product-safe"
            )
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


class DeployedWitness(NamedTuple):
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
    criterion certifies product safety, so no product state is looked at
    here: check 9 of :mod:`.checks` (``product-state-safety``) is the one
    minimisation over product states (:func:`product_minima`).
    """
    battery: list[DeployedWitness] = []
    for (name, start, onset), (_, *closed) in zip(_battery_lines(), witness_planes()):
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
# The minimum over product states
# ---------------------------------------------------------------------------


#: Largest distance from the family span, relative to the Frobenius norm, at
#: which :func:`product_minima` accepts an operator's reduction.
_REDUCTION_TOL = 1e-12

#: The search grid holds each ``u`` along integer weights ``(i, j, k)`` with
#: ``i + j + k = _GRID``, a multiple of 3, so ``|+>`` and the corners are on
#: it.  The pattern search refines the ``_STARTS`` best cells of each
#: operator; its step halves, from one grid step, until it is below
#: ``_STEP_FLOOR``, and it takes at most ``_ROUNDS`` rounds.
_GRID = 24
_STARTS = 2
_STEP_FLOOR = 1e-9
_ROUNDS = 200


def _family_coefficients(ops: Array) -> Array:
    """``(c_I, c_A, c_B, c_C)`` of each operator of an ``(N, 9, 9)`` stack.

    Each row is the Hilbert-Schmidt least-squares projection, operator by
    operator, onto the span of :func:`~.family._building_blocks`
    ``(1, A, B, C)``; on ``|u>|v>`` it reads
    ``c_I + c_A p00 + c_B (Q_0 - p00) / 2 + c_C Q_1 / 3``, with
    ``p00 = |u . v|^2 / 3`` and ``Q_m = sum_k |u_k|^2 |v_(k+m)|^2``.
    Raises ``ValueError`` naming the first operator for which that reading
    does not prove its minimum: a non-finite entry, a norm or coefficients
    that overflow, a residual above :data:`_REDUCTION_TOL` times the norm,
    or a positive ``u u^T`` coefficient ``(c_A - c_B / 2) / 3``.
    """
    blocks = _building_blocks()
    gram = [[hs_inner(x, y).real for y in blocks] for x in blocks]
    rows = []
    for k, op in enumerate(ops):
        if not np.isfinite(op).all():
            raise ValueError(f"operator {k} has a non-finite entry")
        with np.errstate(over="ignore", invalid="ignore"):
            row = np.linalg.solve(gram, [hs_inner(x, op).real for x in blocks])
            norm = float(np.linalg.norm(op))
            residual = float(np.linalg.norm(op - sum(c * x for c, x in zip(row, blocks))))
        if not (math.isfinite(norm) and np.isfinite(row).all()):
            raise ValueError(f"operator {k} is too large: its reduction overflows")
        if not residual <= _REDUCTION_TOL * norm:
            raise ValueError(
                f"operator {k} is outside the family span "
                f"(residual {residual:.2e}, norm {norm:.2e})"
            )
        outer = (row[1] - row[2] / 2.0) / 3.0
        if outer > 0.0:
            raise ValueError(
                f"operator {k} has a positive u u^T coefficient {outer:.2e}, "
                "so real product vectors need not reach its minimum"
            )
        rows.append(row)
    return np.array(rows).reshape(-1, 4)


def _reduced_matrices(coeffs: Array, u: Array) -> Array:
    """The ``(N, K, 3, 3)`` matrices ``M(u)`` with ``<u v|W|u v> = v . M(u) v``,

        M(u) = c_I 1 + ((c_A - c_B / 2) / 3) u u^T
               + diag_j(c_B / 2 u_j^2 + c_C / 3 u_(j - 1)^2),

    for ``(N, 4)`` coefficients and ``(N, K, 3)`` real unit vectors ``u``.
    """
    c_i, c_a, c_b, c_c = (c[:, None, None] for c in coeffs.T)
    sq = u * u
    diag = c_i + c_b / 2.0 * sq + c_c / 3.0 * np.roll(sq, 1, axis=-1)
    mats = ((c_a - c_b / 2.0) / 3.0)[..., None] * u[..., :, None] * u[..., None, :]
    mats[..., [0, 1, 2], [0, 1, 2]] += diag
    return mats


def product_minima(ops: Array) -> tuple[Array, Array, Array]:
    """The minimum of ``<u v|W|u v>`` over product states, for each operator.

    ``ops`` is an ``(N, 9, 9)`` stack, or one ``9x9`` operator as its
    one-member stack.  Returns ``(values, u, v)``: each ``<u v|W|u v>``,
    evaluated through the ``9x9`` matrix, at the minimiser ``|u>|v>``, with
    ``u`` and ``v`` as ``(N, 3)`` real unit vectors.  The premises of
    :func:`_family_coefficients` raise ``ValueError``.  Given them, the
    moduli of ``u`` and ``v`` never raise the value, and ``M(u)`` has no
    positive off-diagonal entry, so its lowest eigenvector can be taken
    non-negative: the minimum over ``v`` is its lowest eigenvalue, exactly.
    That is minimised over ``u``, first on the grid as one stacked
    ``eigvalsh`` (only cells whose first weight is largest: a cyclic shift
    of both factors changes no value), then by a pattern search from the
    best cells, which tries the six moves of one step that keep the
    weights' sum and halves the step when none lowers the value.  Unlike
    alternating between the factors, it cannot stop at a pair where each is
    merely the best for the other, such as two basis vectors.  Each member
    is the one-operator call bit for bit, and an empty stack gives empty
    arrays.
    """
    stack = np.asarray(ops, dtype=complex).reshape((-1, 9, 9))
    if not len(stack):
        return np.empty(0), np.empty((0, 3)), np.empty((0, 3))
    coeffs = _family_coefficients(stack)

    def lowest(weights: Array) -> Array:  # (N, ..., 3) weights, operator first
        u = weights / np.linalg.norm(weights, axis=-1, keepdims=True)
        mats = _reduced_matrices(coeffs, u.reshape(len(u), -1, 3))
        return np.linalg.eigvalsh(mats)[..., 0].reshape(u.shape[:-1])

    i, j = np.triu_indices(_GRID + 1)
    grid = np.stack([i, j - i, _GRID - j], axis=1) / _GRID
    grid = grid[grid.argmax(axis=1) == 0]
    cells = lowest(np.broadcast_to(grid, (len(stack),) + grid.shape))
    order = np.argsort(cells, axis=1, kind="stable")[:, :_STARTS]
    weights, value = grid[order], np.take_along_axis(cells, order, axis=1)
    step = np.full(value.shape, 1.0 / _GRID)
    moves = np.array([[1, -1, 0], [-1, 1, 0], [0, 1, -1], [0, -1, 1], [-1, 0, 1], [1, 0, -1]])
    for _ in range(_ROUNDS):
        live = step >= _STEP_FLOOR
        if not live.any():
            break
        trials = np.maximum(weights[..., None, :] + step[..., None, None] * moves, 0.0)
        trial_values = lowest(trials)
        k = trial_values.argmin(axis=-1)[..., None]
        low = np.take_along_axis(trial_values, k, axis=-1)[..., 0]
        moved = live & (low < value)
        chosen = np.take_along_axis(trials, k[..., None], axis=-2)[..., 0, :]
        weights = np.where(moved[..., None], chosen, weights)
        value = np.where(moved, low, value)
        step = np.where(live & ~moved, step / 2.0, step)
    best = np.take_along_axis(weights, value.argmin(axis=1)[:, None, None], axis=1)[:, 0]
    u = best / np.linalg.norm(best, axis=1, keepdims=True)
    _, vectors = np.linalg.eigh(_reduced_matrices(coeffs, u[:, None]))
    v = np.abs(vectors[:, 0, :, 0])
    x = np.einsum("ni,nj->nij", u, v).reshape(-1, 9)
    values = np.array([hs_inner(y, op @ y).real for y, op in zip(x, stack)])
    return values, u, v

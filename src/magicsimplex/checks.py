"""End-to-end verification battery.

Twelve numbered checks tie the package's outputs to independently stated
targets: closed-form surd values for the two line crossings, the published
Horodecki-line segmentation, exact facet-curve crossings, and a set of
property sweeps (operator identities, spectrum agreement, product-state
safety, mirror symmetry, region layout).  ``run_all`` executes them and
returns structured :class:`CheckResult` records, each with its wall time;
the CLI ``verify`` subcommand renders those one line per check, or as
JSON.

The matrix sweeps hand the oracle kernels stacks of at most
:data:`_STACK` matrices (one LAPACK call per chunk, not per point) and
draw the product states once for all six witnesses.  Stacked kernels give
each member bit-identical results to the one-matrix call, so every check
reads the same numbers as a point-by-point loop would.

Every tolerance below is part of the advertised contract, not a tuning
knob; loosening one to make a red check green defeats the purpose of the
battery.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from dataclasses import dataclass, replace

import numpy as np

from .family import (
    FamilyPoint,
    PPT_TOL,
    STATE_TOL,
    bell_spectrum,
    family_state,
    horodecki_b_from_gamma,
    horodecki_point,
    mirror,
    plane_point,
    pt_min_eigenvalue,
    pyramid_margin,
)
from .planes import (
    CONE_EDGE_LAMBDA,
    DEFAULT_SEED,
    OPTIMAL_EPSILON,
    OPTIMAL_GAMMA,
    OPTIMAL_LAMBDA,
    optimal_plane_start,
    pl1_cone_start,
)
from .qmat import hermitian_eigenvalues, hs_inner
from .regions import l_a, l_b, parse_grid, plane_grid_points, scan
from .verdicts import Verdict
from .witness import (
    LineSpec,
    c_lambda,
    c_limit,
    deployed_witness,
    deployed_witnesses,
    lambda_min,
    min_product_expectation,
)

__all__ = ["CheckResult", "CHECK_NAMES", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome; ``seconds`` is its wall time, set by :func:`run_all`."""

    index: int
    name: str
    expected: float
    computed: float
    tolerance: float
    passed: bool
    detail: str = ""
    seconds: float = 0.0


_BOX_LOW = (-0.5, -1.0, -1.0)
_BOX_HIGH = (1.5, 1.0, 1.2)

#: Most matrices handed to a stacked kernel at once, which keeps peak memory
#: flat however many points a sweep covers.
_STACK = 256


def _box_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform ``(alpha, beta, gamma)`` rows from the standard box."""
    return rng.uniform(_BOX_LOW, _BOX_HIGH, size=(count, 3))


def _family_points(rows: np.ndarray) -> list[FamilyPoint]:
    return [FamilyPoint(*row) for row in rows.tolist()]


def _ppt_starts(rng: np.random.Generator, count: int) -> list[FamilyPoint]:
    """Rejection-sample PPT states from the standard box, in draw order.

    Each round draws :data:`_STACK` points, keeps those whose pyramid
    margin clears :data:`STATE_TOL` and then those whose partial transpose
    clears :data:`PPT_TOL`, the latter from one stacked eigensolve.  The
    slacks repeat :func:`pyramid_slacks` operation for operation, so the
    accepted points are exactly those of a point-by-point loop.
    """
    out: list[FamilyPoint] = []
    while len(out) < count:
        draws = _box_points(rng, _STACK)
        a, b, g = draws.T
        margin = np.minimum.reduce(
            [
                7 * b / 2 + 1 - g - a,
                -b + 1 - g - a,
                -b + 1 + 2 * g - a,
                a - (b - 1 + g) / 8,
            ]
        )
        states = draws[margin >= STATE_TOL]
        accepted = states[pt_min_eigenvalue(states) >= PPT_TOL]
        out += _family_points(accepted[: count - len(out)])
    return out


# ---------------------------------------------------------------------------
# The twelve checks
# ---------------------------------------------------------------------------


def _check_deepest_line(seed: int) -> CheckResult:
    expected = OPTIMAL_LAMBDA
    computed = lambda_min(optimal_plane_start())
    if computed is None:
        computed = math.inf
    return CheckResult(
        index=1,
        name="deepest-line-crossing",
        expected=expected,
        computed=computed,
        tolerance=1e-6,
        passed=abs(computed - expected) <= 1e-6,
        detail=(
            f"start epsilon={OPTIMAL_EPSILON:.9f}, gamma={OPTIMAL_GAMMA:.9f} "
            "(gamma = sqrt(epsilon), the value consistent with the target)"
        ),
    )


def _check_cone_edge_line(seed: int) -> CheckResult:
    expected = CONE_EDGE_LAMBDA
    start = pl1_cone_start()
    computed = lambda_min(start)
    if computed is None:
        computed = math.inf
    return CheckResult(
        index=2,
        name="cone-edge-line-crossing",
        expected=expected,
        computed=computed,
        tolerance=1e-5,
        passed=abs(computed - expected) <= 1e-5,
        detail=f"start beta={start.beta:.12f} (flat face meets PPT cone, gamma=2/7)",
    )


def _check_horodecki_boundaries(seed: int) -> CheckResult:
    # Bisect the PPT/NPT transition in the gamma parametrization.
    def npt_at(gamma: float) -> bool:
        p = horodecki_point(horodecki_b_from_gamma(gamma))
        return pt_min_eigenvalue(p) < PPT_TOL

    lo, hi = 0.30, 0.60  # PPT at lo, NPT at hi
    if npt_at(lo) or not npt_at(hi):
        raise ArithmeticError("Horodecki bisection bracket does not straddle")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if npt_at(mid):
            hi = mid
        else:
            lo = mid
    transition = 0.5 * (lo + hi)
    expected = 3.0 / 7.0

    sep_band = np.linspace(0.0, 1.0 / 7.0 - 1e-3, 20)
    bound_band = np.linspace(1.0 / 7.0 + 1e-3, 3.0 / 7.0 - 1e-6, 20)
    mislabels = 0
    rows = scan(
        [horodecki_point(horodecki_b_from_gamma(g)) for g in sep_band]
        + [horodecki_point(horodecki_b_from_gamma(g)) for g in bound_band]
    ).rows
    for row in rows[:20]:
        if row.verdict is not Verdict.SEPARABLE:
            mislabels += 1
    for row in rows[20:]:
        if row.verdict is not Verdict.BOUND_ENTANGLED:
            mislabels += 1
    passed = abs(transition - expected) <= 1e-6 and mislabels == 0
    return CheckResult(
        index=3,
        name="horodecki-line-boundaries",
        expected=expected,
        computed=transition,
        tolerance=1e-6,
        passed=passed,
        detail=f"transition gamma by PT bisection; band mislabels: {mislabels}/40",
    )


def _check_facet_crossings(seed: int) -> CheckResult:
    computed = max(abs(l_a(0.0) - l_b(0.0)), abs(l_a(1.0) - l_b(1.0)))
    return CheckResult(
        index=4,
        name="facet-curve-crossings",
        expected=0.0,
        computed=computed,
        tolerance=1e-12,
        passed=computed <= 1e-12,
        detail="|l_a - l_b| at gamma = 0 and gamma = 1",
    )


def _check_flat_face_functional(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 5)
    witness = deployed_witness("Pl1")
    pts = _family_points(_box_points(rng, 100))
    values = np.array(
        [hs_inner(witness.candidate.matrix, family_state(p)).real for p in pts]
    )
    target = np.array(
        [p.alpha - 2.0 * (1.0 + 2.0 * p.beta - p.gamma) / 5.0 for p in pts]
    )
    k = float(np.dot(values, target) / np.dot(target, target))
    rel_dev = float(
        np.max(np.abs(values - k * target) / np.maximum(1.0, np.abs(values)))
    )
    return CheckResult(
        index=5,
        name="flat-face-functional",
        expected=0.0,
        computed=rel_dev,
        tolerance=1e-9,
        passed=rel_dev <= 1e-9,
        detail=f"proportionality constant {k:.9f} over 100 points",
    )


def _check_line_identities(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 6)
    starts = _ppt_starts(rng, 1000)
    worst = 0.0
    for start in starts:
        lam = float(rng.uniform(0.0, 1.0 - 1e-12))
        spec = LineSpec(start, lam)
        cand = c_lambda(spec)
        rho = family_state(start)
        rho_l = lam * rho + (1.0 - lam) * np.eye(9, dtype=complex) / 9.0
        on_line = abs(hs_inner(cand.matrix, rho_l).real)
        dist_sq = float(np.linalg.norm(rho_l - rho)) ** 2
        at_start = abs(hs_inner(cand.matrix, rho).real + dist_sq)
        worst = max(worst, on_line, at_start)
    return CheckResult(
        index=6,
        name="line-operator-identities",
        expected=0.0,
        computed=worst,
        tolerance=1e-12,
        passed=worst <= 1e-12,
        detail="max |Tr(C rho_line)| and |Tr(C rho) + dist^2| over 1000 draws",
    )


def _check_spectrum_pyramid(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 7)
    draws = _box_points(rng, 10_000)
    worst = 0.0
    sign_mismatch = 0
    for lo in range(0, len(draws), _STACK):
        chunk = draws[lo : lo + _STACK]
        numeric = hermitian_eigenvalues(family_state(chunk))
        # The closed forms under test stay the production ones, point by point.
        pts = _family_points(chunk)
        closed = np.array([bell_spectrum(p).sorted_values() for p in pts])
        margin = np.array([pyramid_margin(p) for p in pts])
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
        decided = np.abs(margin) > 1e-12
        sign_mismatch += int(
            np.count_nonzero(decided & ((margin > 0.0) != (closed[:, 0] > 0.0)))
        )
    passed = worst <= 1e-9 and sign_mismatch == 0
    return CheckResult(
        index=7,
        name="spectrum-pyramid-agreement",
        expected=0.0,
        computed=worst,
        tolerance=1e-9,
        passed=passed,
        detail=f"10^4 points; sign mismatches outside dead zone: {sign_mismatch}",
    )


def _check_limit_law(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 8)
    starts = _ppt_starts(rng, 10)
    worst_ratio = 0.0
    for start in starts:
        rho = family_state(start)
        limit = c_limit(start).matrix
        for k in range(3, 7):
            lam = 1.0 - 10.0**-k
            cand = c_lambda(LineSpec(start, lam))
            gap = float(np.linalg.norm(cand.matrix / (lam * (1.0 - lam)) - limit))
            worst_ratio = max(worst_ratio, gap / (10.0 * (1.0 - lam)))
    return CheckResult(
        index=8,
        name="endpoint-limit-law",
        expected=1.0,
        computed=worst_ratio,
        tolerance=1.0,
        passed=worst_ratio <= 1.0,
        detail="max ||C/(l(1-l)) - C_limit|| / (10(1-l)), l = 1-10^-k, k=3..6",
    )


def _check_product_safety(seed: int) -> CheckResult:
    battery = deployed_witnesses()
    minima = min_product_expectation(
        np.stack([w.candidate.matrix for w in battery]), count=100_000
    ).tolist()
    worst = min(minima)
    details = [f"{w.name}:{value:.2e}" for w, value in zip(battery, minima)]
    return CheckResult(
        index=9,
        name="product-state-safety",
        expected=0.0,
        computed=worst,
        tolerance=1e-10,
        passed=worst >= -1e-10,
        detail="min over 10^5 product states: " + " ".join(details),
    )


def _check_mirror_conjugation(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 10)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        eps = float(rng.uniform(-0.3, 0.15))
        gamma = float(rng.uniform(0.02, 0.45))
        plus = plane_point(eps, gamma)
        minus = mirror(plus)  # equals plane_point(eps, -gamma)
        if pyramid_margin(plus) < STATE_TOL or pyramid_margin(minus) < STATE_TOL:
            continue
        if pt_min_eigenvalue(plus) < PPT_TOL or pt_min_eigenvalue(minus) < PPT_TOL:
            continue
        lam = float(rng.uniform(0.05, 0.999))
        table_plus = c_lambda(LineSpec(plus, lam)).coeffs
        table_minus = c_lambda(LineSpec(minus, lam)).coeffs
        for key, value in table_plus.coeffs.items():
            gap = abs(value - np.conj(table_minus.coeffs[key]))
            worst = max(worst, float(gap))
        accepted += 1
    return CheckResult(
        index=10,
        name="mirror-coefficient-conjugation",
        expected=0.0,
        computed=worst,
        tolerance=1e-12,
        passed=worst <= 1e-12,
        detail="coefficients at (eps, +g) vs conjugate at (eps, -g), 100 samples",
    )


def _check_region_layout(seed: int) -> CheckResult:
    gamma_spec, beta_spec = "0:1:0.01", f"{-1.0 / 3.0}:0.1:0.01"
    n_g, n_b = len(parse_grid(gamma_spec)), len(parse_grid(beta_spec))
    pts = plane_grid_points(gamma_spec, beta_spec)
    if len(pts) != n_g * n_b:
        raise ArithmeticError(
            f"facet grid has {len(pts)} points, not {n_g} x {n_b}"
        )
    result = scan(pts)
    counts = result.counts()

    violations = 0
    for name in ("Separable", "BoundEntangled", "NptEntangled"):
        if counts.get(name, 0) == 0:
            violations += 1

    # Layout of the separable cells.  The separable patch on the facet is a
    # triangle whose width shrinks as (1 - gamma)/9, so columns beyond
    # gamma = 1 - 9*step may legitimately miss it or render it as isolated
    # cells; connectivity and non-emptiness are only demanded where the
    # width is at least one grid step.  Everywhere we demand one
    # contiguous beta-run per column, the l_a upper bound, and no cell
    # strictly between the two facet curves.  Cell (i, j) is the scanned
    # point i * n_b + j: gamma outermost, beta innermost.
    cells = {
        divmod(k, n_b)
        for k, row in enumerate(result.rows)
        if row.verdict is Verdict.SEPARABLE
    }
    columns: dict[int, list[int]] = defaultdict(list)
    for i, j in cells:
        columns[i].append(j)
    resolved = {i for i in range(n_g) if pts[i * n_b].gamma <= 1.0 - 9.0 * 0.01}
    violations += len(resolved - columns.keys())
    for run in columns.values():
        if max(run) - min(run) + 1 != len(run):
            violations += 1
    core = {(i, j) for (i, j) in cells if i in resolved}
    if core:
        seen = {next(iter(core))}
        queue = deque(seen)
        while queue:
            ci, cj = queue.popleft()
            for ni, nj in ((ci + 1, cj), (ci - 1, cj), (ci, cj + 1), (ci, cj - 1)):
                if (ni, nj) in core and (ni, nj) not in seen:
                    seen.add((ni, nj))
                    queue.append((ni, nj))
        if len(seen) != len(core):
            violations += 1
    for i, j in cells:
        p = pts[i * n_b + j]
        g, b = p.gamma, p.beta
        if b > l_a(g) + 1e-9:
            violations += 1
        if l_a(g) + 1e-9 < b < l_b(g) - 1e-9:
            violations += 1
    return CheckResult(
        index=11,
        name="facet-region-layout",
        expected=0.0,
        computed=float(violations),
        tolerance=0.0,
        passed=violations == 0,
        detail=f"counts: {counts}",
    )


def _check_gamma_zero_slice(seed: int) -> CheckResult:
    # Python floats: numpy scalars give the same IEEE results, several times slower.
    alphas = np.linspace(-0.5, 1.5, 200).tolist()
    betas = np.linspace(-1.0, 1.0, 200).tolist()
    pts = [FamilyPoint(a, b, 0.0) for a in alphas for b in betas]
    counts = scan(pts).counts()
    bound = counts.get("BoundEntangled", 0)
    return CheckResult(
        index=12,
        name="gamma-zero-no-bound",
        expected=0.0,
        computed=float(bound),
        tolerance=0.0,
        passed=bound == 0,
        detail=f"200x200 grid at gamma = 0; counts: {counts}",
    )


_CHECKS = (
    _check_deepest_line,
    _check_cone_edge_line,
    _check_horodecki_boundaries,
    _check_facet_crossings,
    _check_flat_face_functional,
    _check_line_identities,
    _check_spectrum_pyramid,
    _check_limit_law,
    _check_product_safety,
    _check_mirror_conjugation,
    _check_region_layout,
    _check_gamma_zero_slice,
)

CHECK_NAMES = (
    "deepest-line-crossing",
    "cone-edge-line-crossing",
    "horodecki-line-boundaries",
    "facet-curve-crossings",
    "flat-face-functional",
    "line-operator-identities",
    "spectrum-pyramid-agreement",
    "endpoint-limit-law",
    "product-state-safety",
    "mirror-coefficient-conjugation",
    "facet-region-layout",
    "gamma-zero-no-bound",
)


def run_all(
    *, seed: int = DEFAULT_SEED, only: list[int] | None = None
) -> list[CheckResult]:
    """Run the verification battery (or the subset in ``only``, 1-based).

    ``only=None`` runs all twelve checks; an empty selection is an error.
    Each result carries the wall time of its check in ``seconds``.
    """
    if only is not None and not only:
        raise ValueError("empty check selection (indices must be in 1..12)")
    indices = list(range(1, 13)) if only is None else sorted(set(only))
    for i in indices:
        if not 1 <= i <= 12:
            raise ValueError(f"check index must be in 1..12, got {i}")
    results = []
    for i in indices:
        start = time.perf_counter()
        result = _CHECKS[i - 1](seed)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results

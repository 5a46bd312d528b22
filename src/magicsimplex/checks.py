"""End-to-end verification battery.

Twelve numbered checks tie the package's outputs to independently stated
targets: closed-form surd values for the two line crossings, the published
Horodecki-line segmentation, exact facet-curve crossings, and a set of
property sweeps (operator identities, spectrum agreement, mirror
symmetry, region layout) and the exact minimum of each witness over
product states.  ``run_all`` executes them and returns structured
:class:`CheckResult` records, each with its wall time; the CLI ``verify``
subcommand renders those one line per check, or as JSON.

Every sweep runs in bounded memory, in fixed blocks, whatever its size.
The matrix sweeps form their states and hand the oracle kernels stacks of
at most :data:`_STACK` matrices (one LAPACK call per chunk, not per
point), and the production closed forms of :mod:`.family` take the same
chunks as ``(N, 3)`` arrays.  Check 7 hands the eigensolver each chunk's
states with rows and columns in :data:`_SECTORS` order, where every
family state is block diagonal: a permutation keeps the spectrum, and
LAPACK's tridiagonalisation runs faster on the blocks.  The PPT samplers
accept a point by those closed forms, the test
:func:`~.witness.line_operator` applies to its starts, and run no
eigensolver.  The box sampler takes that very mask on :data:`_BLOCK`
rounds at once, and leaves the generator where a round-by-round loop
would.
The product-state check samples no product state: it takes the six
witnesses' exact minima from one :func:`~.witness.product_minima` call on
their stack, which solves ``3x3`` eigenproblems, and fails, with the
reason in its detail, when a witness's minimum is not proven.
The gamma = 0 slice scans one alpha row of 200 points at a time and
keeps only the verdict tally.
Stacked kernels, array closed forms and blocks give each member
bit-identical results to the one-point, whole-sweep call, so every check
reads the same numbers as a point-by-point loop would (check 7's loop
taking its states in the same order).

Checks 6, 8 and 10 form their line operators as stacks of
:func:`~.witness.line_operator`: check 6 its 1,000 one :data:`_STACK`
chunk at a time, check 8 its 50 and check 10 its 200 in one call each.
Check 6 forms each chunk's line points and their gaps to the starts as
two elementwise stack operations, then replays the two identities member
by member; checks 6 and 8 read only the matrices, so neither runs a Weyl
decomposition.  Check 10 draws its 100 accepted samples first, point by
point in the order a sample loop draws them, and reads their tables from
one stacked :func:`~.weyl.weyl_tensor_decompose`.  None of the three
runs a safety verdict.  Every family matrix these
sweeps hand to :func:`~.qmat.hermitian_eigenvalues` is exactly
Hermitian, so the eigensolver takes it without a symmetrised copy.

A check passes by the rule its record prints: ``abs(computed - expected)
<= tolerance``.  Checks 3 and 7 also need the count their detail reports
(band mislabels, sign mismatches) to be zero.  Two checks are one-sided
bounds: check 8 (``endpoint-limit-law``) passes when ``computed <=
expected``, and check 9 (``product-state-safety``) when ``computed >=
-tolerance``, since a witness may be as positive as it likes on product
states.

Every tolerance below is part of the advertised contract, not a tuning
knob; loosening one to make a red check green defeats the purpose of the
battery.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict, deque
from typing import Iterator, NamedTuple

import numpy as np

from .family import (
    FamilyPoint,
    PPT_TOL,
    STATE_TOL,
    bell_spectrum,
    family_state,
    horodecki_b_from_gamma,
    horodecki_point,
    is_ppt,
    mirror,
    plane_point,
    pt_min_eigenvalue,
    pyramid_margin,
    pyramid_slacks,
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
from .weyl import weyl_tensor_decompose
from .witness import (
    _ppt_rows,
    deployed_witness,
    deployed_witnesses,
    lambda_min,
    line_operator,
    product_minima,
)

__all__ = ["CheckResult", "CHECK_NAMES", "run_all"]


class CheckResult(NamedTuple):
    """One check's outcome; ``seconds`` is its wall time.

    Each check returns the fields from ``expected`` to ``detail`` as a
    dict; :func:`run_all` adds ``index``, ``name`` and ``seconds``.
    """

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

#: Rounds of :data:`_STACK` box points :func:`_ppt_starts` draws at once.
_BLOCK = 16

#: The basis indices ``3i + j`` of ``|i j>`` grouped by the sector
#: ``(j - i) mod 3``.  A family state mixes Bell projectors onto
#: ``(W(n, m) (x) 1) sum_j |j j>``, which stay inside one sector, so in this
#: order it is block diagonal: three ``3x3`` blocks and exact zeros between.
_SECTORS = (0, 4, 8, 1, 5, 6, 2, 3, 7)

#: The flat indices that reorder the 81 entries of a ``9x9`` matrix by
#: :data:`_SECTORS`, rows and columns alike.
_SECTOR_ENTRIES = (9 * np.array(_SECTORS)[:, None] + _SECTORS).ravel()


def _fields(
    expected: float,
    computed: float,
    tolerance: float,
    detail: str,
    *,
    mismatches: int = 0,
    passed: bool | None = None,
) -> dict:
    """A check's fields, from ``expected`` to ``detail``.

    Unless a one-sided check states its own ``passed``, the check passes by
    the rule its record prints, ``abs(computed - expected) <= tolerance``,
    with no ``mismatches`` (a count its detail reports).
    """
    if passed is None:
        passed = abs(computed - expected) <= tolerance and mismatches == 0
    return dict(
        expected=expected,
        computed=computed,
        tolerance=tolerance,
        passed=passed,
        detail=detail,
    )


def _box_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform ``(alpha, beta, gamma)`` rows from the standard box."""
    return rng.uniform(_BOX_LOW, _BOX_HIGH, size=(count, 3))


def _states(rows: np.ndarray) -> Iterator[np.ndarray]:
    """:func:`family_state` of each row, formed :data:`_STACK` rows at a time."""
    for lo in range(0, len(rows), _STACK):
        yield from family_state(rows[lo : lo + _STACK])


def _ppt_starts(rng: np.random.Generator, count: int) -> np.ndarray:
    """Rejection-sample ``count`` PPT states from the standard box, in draw order.

    Rounds of :data:`_STACK` points are drawn :data:`_BLOCK` at a time, the
    same numbers as one by one, and the rows of :func:`~.witness._ppt_rows`
    (the test :func:`~.witness.line_operator` applies to its starts) are
    kept.  The block that completes ``count`` resets the generator and
    draws again only up to the round holding the last row kept.  So the
    ``(count, 3)`` array returned holds exactly the rows a point-by-point
    loop over rounds would accept, the generator is left where that loop
    leaves it, and ``count`` 0 draws nothing.
    """
    kept = [np.empty((0, 3))]
    found = 0
    while found < count:
        state = rng.bit_generator.state
        draws = _box_points(rng, _BLOCK * _STACK)
        accepted = np.flatnonzero(_ppt_rows(draws))[: count - found]
        if found + len(accepted) == count:
            rng.bit_generator.state = state
            _box_points(rng, (int(accepted[-1]) // _STACK + 1) * _STACK)
        kept.append(draws[accepted])
        found += len(accepted)
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# The twelve checks
# ---------------------------------------------------------------------------


def _check_line_onset(
    start: FamilyPoint, expected: float, tolerance: float, detail: str
) -> dict:
    """``lambda_min`` of ``start`` against its surd; no onset reads ``inf``."""
    computed = lambda_min(start)
    if computed is None:
        computed = math.inf
    return _fields(expected, computed, tolerance, detail)


def _check_deepest_line(seed: int) -> dict:
    detail = (
        f"start epsilon={OPTIMAL_EPSILON:.9f}, gamma={OPTIMAL_GAMMA:.9f} "
        "(gamma = sqrt(epsilon), the value consistent with the target)"
    )
    return _check_line_onset(optimal_plane_start(), OPTIMAL_LAMBDA, 1e-6, detail)


def _check_cone_edge_line(seed: int) -> dict:
    start = pl1_cone_start()
    detail = f"start beta={start.beta:.12f} (flat face meets PPT cone, gamma=2/7)"
    return _check_line_onset(start, CONE_EDGE_LAMBDA, 1e-5, detail)


def _check_horodecki_boundaries(seed: int) -> dict:
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
    detail = f"transition gamma by PT bisection; band mislabels: {mislabels}/40"
    return _fields(3.0 / 7.0, transition, 1e-6, detail, mismatches=mislabels)


def _check_facet_crossings(seed: int) -> dict:
    computed = max(abs(l_a(0.0) - l_b(0.0)), abs(l_a(1.0) - l_b(1.0)))
    return _fields(0.0, computed, 1e-12, "|l_a - l_b| at gamma = 0 and gamma = 1")


def _check_flat_face_functional(seed: int) -> dict:
    rng = np.random.default_rng(seed + 5)
    witness = deployed_witness("Pl1")
    rows = _box_points(rng, 100)
    values = np.array(
        [hs_inner(witness.candidate.matrix, rho).real for rho in _states(rows)]
    )
    a, b, g = rows.T
    target = a - 2.0 * (1.0 + 2.0 * b - g) / 5.0
    k = float(np.dot(values, target) / np.dot(target, target))
    rel_dev = float(
        np.max(np.abs(values - k * target) / np.maximum(1.0, np.abs(values)))
    )
    detail = f"proportionality constant {k:.9f} over 100 points"
    return _fields(0.0, rel_dev, 1e-9, detail)


def _check_line_identities(seed: int) -> dict:
    rng = np.random.default_rng(seed + 6)
    starts = _ppt_starts(rng, 1000)
    lams = rng.uniform(0.0, 1.0 - 1e-12, len(starts))
    mixed = np.eye(9, dtype=complex) / 9.0
    worst = 0.0
    for lo in range(0, len(starts), _STACK):
        chunk, chunk_lams = starts[lo : lo + _STACK], lams[lo : lo + _STACK]
        ops = line_operator(chunk, chunk_lams)
        rhos = family_state(chunk)
        lam = chunk_lams[:, None, None]
        rho_ls = lam * rhos + (1.0 - lam) * mixed
        for rho, op, rho_l, gap in zip(rhos, ops, rho_ls, rho_ls - rhos):
            on_line = abs(hs_inner(op, rho_l).real)
            dist_sq = float(np.linalg.norm(gap)) ** 2
            at_start = abs(hs_inner(op, rho).real + dist_sq)
            worst = max(worst, on_line, at_start)
    detail = "max |Tr(C rho_line)| and |Tr(C rho) + dist^2| over 1000 draws"
    return _fields(0.0, worst, 1e-12, detail)


def _check_spectrum_pyramid(seed: int) -> dict:
    rng = np.random.default_rng(seed + 7)
    draws = _box_points(rng, 10_000)
    worst = 0.0
    sign_mismatch = 0
    for lo in range(0, len(draws), _STACK):
        chunk = draws[lo : lo + _STACK]
        # The same states under one symmetric permutation: the same spectra,
        # but LAPACK's tridiagonalisation sees their blocks.
        states = family_state(chunk).reshape(-1, 81).take(_SECTOR_ENTRIES, axis=1)
        numeric = hermitian_eigenvalues(states.reshape(-1, 9, 9))
        # The closed forms under test are the production ones, on the chunk.
        closed = bell_spectrum(chunk).sorted_values()
        margin = np.minimum.reduce(pyramid_slacks(chunk))
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
        decided = np.abs(margin) > 1e-12
        sign_mismatch += int(
            np.count_nonzero(decided & ((margin > 0.0) != (closed[:, 0] > 0.0)))
        )
    detail = f"10^4 points; sign mismatches outside dead zone: {sign_mismatch}"
    return _fields(0.0, worst, 1e-9, detail, mismatches=sign_mismatch)


def _check_limit_law(seed: int) -> dict:
    rng = np.random.default_rng(seed + 8)
    starts = _ppt_starts(rng, 10)
    lams = [1.0 - 10.0**-k for k in range(3, 7)]
    # Each start's endpoint limit, then its four operators near it.
    ops = line_operator(
        np.repeat(starts, 5, axis=0), np.tile([1.0] + lams, len(starts))
    ).reshape(len(starts), 5, 9, 9)
    worst_ratio = 0.0
    for limit, *near in ops:
        for op, lam in zip(near, lams):
            gap = float(np.linalg.norm(op / (lam * (1.0 - lam)) - limit))
            worst_ratio = max(worst_ratio, gap / (10.0 * (1.0 - lam)))
    expected = 1.0
    detail = "max ||C/(l(1-l)) - C_limit|| / (10(1-l)), l = 1-10^-k, k=3..6"
    # One-sided: the expected ratio is a bound, met anywhere at or below it.
    return _fields(expected, worst_ratio, 1.0, detail, passed=worst_ratio <= expected)


def _check_product_safety(seed: int) -> dict:
    battery = deployed_witnesses()
    tolerance = 1e-12
    try:
        values, us, vs = product_minima(np.stack([w.candidate.matrix for w in battery]))
    except ValueError as exc:
        # An unproven reduction proves no minimum, so the check fails on it.
        detail = f"no exact minimum over product states: {exc}"
        return _fields(0.0, math.nan, tolerance, detail, passed=False)
    worst = float(values.min())

    def ket(x: np.ndarray) -> str:
        return "(" + ",".join(f"{c:.3f}" for c in x.tolist()) + ")"

    details = [
        f"{w.name}:{value + 0.0:.2e} at {ket(u)}{ket(v)}"
        for w, value, u, v in zip(battery, values.tolist(), us, vs)
    ]
    detail = "min of <uv|W|uv> over product states, at |u>|v>: " + " ".join(details)
    # One-sided: a witness may be as positive as it likes on product states.
    return _fields(0.0, worst, tolerance, detail, passed=worst >= -tolerance)


def _check_mirror_conjugation(seed: int) -> dict:
    rng = np.random.default_rng(seed + 10)
    pluses, minuses, lams = [], [], []
    while len(lams) < 100:
        eps = float(rng.uniform(-0.3, 0.15))
        gamma = float(rng.uniform(0.02, 0.45))
        plus = plane_point(eps, gamma)
        minus = mirror(plus)  # equals plane_point(eps, -gamma)
        if pyramid_margin(plus) < STATE_TOL or pyramid_margin(minus) < STATE_TOL:
            continue
        if not (is_ppt(plus).is_ppt and is_ppt(minus).is_ppt):
            continue
        pluses.append(plus)
        minuses.append(minus)
        lams.append(float(rng.uniform(0.05, 0.999)))
    tables = weyl_tensor_decompose(line_operator(pluses + minuses, lams + lams))
    worst = 0.0
    for table_plus, table_minus in zip(tables[: len(lams)], tables[len(lams) :]):
        for key, value in table_plus.coeffs.items():
            gap = abs(value - np.conj(table_minus.coeffs[key]))
            worst = max(worst, float(gap))
    detail = "coefficients at (eps, +g) vs conjugate at (eps, -g), 100 samples"
    return _fields(0.0, worst, 1e-12, detail)


def _check_region_layout(seed: int) -> dict:
    step = 0.01
    gamma_spec, beta_spec = f"0:1:{step}", f"{-1.0 / 3.0}:0.1:{step}"
    n_g, n_b = len(parse_grid(gamma_spec)), len(parse_grid(beta_spec))
    pts = plane_grid_points(gamma_spec, beta_spec)
    if len(pts) != n_g * n_b:
        raise ArithmeticError(
            f"facet grid has {len(pts)} points, not {n_g} x {n_b}"
        )
    result = scan(pts)
    rows, counts = result.rows, result.counts()

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
        for k, row in enumerate(rows)
        if row.verdict is Verdict.SEPARABLE
    }
    columns: dict[int, list[int]] = defaultdict(list)
    for i, j in cells:
        columns[i].append(j)
    resolved = {i for i in range(n_g) if rows[i * n_b].gamma <= 1.0 - 9.0 * step}
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
        row = rows[i * n_b + j]
        g, b = row.gamma, row.beta
        if b > l_a(g) + 1e-9:
            violations += 1
        if l_a(g) + 1e-9 < b < l_b(g) - 1e-9:
            violations += 1
    return _fields(0.0, float(violations), 0.0, f"counts: {counts}")


def _check_gamma_zero_slice(seed: int) -> dict:
    # Python floats: numpy scalars give the same IEEE results, several times slower.
    alphas = np.linspace(-0.5, 1.5, 200).tolist()
    betas = np.linspace(-1.0, 1.0, 200).tolist()
    # One alpha row at a time: only its 200 rows are ever held.
    counts: Counter[str] = Counter()
    for a in alphas:
        counts.update(scan([(a, b, 0.0) for b in betas]).counts())
    bound = float(counts["BoundEntangled"])
    return _fields(0.0, bound, 0.0, f"200x200 grid at gamma = 0; counts: {dict(counts)}")


#: The battery in order, one ``(name, check)`` row per check.
_CHECKS = (
    ("deepest-line-crossing", _check_deepest_line),
    ("cone-edge-line-crossing", _check_cone_edge_line),
    ("horodecki-line-boundaries", _check_horodecki_boundaries),
    ("facet-curve-crossings", _check_facet_crossings),
    ("flat-face-functional", _check_flat_face_functional),
    ("line-operator-identities", _check_line_identities),
    ("spectrum-pyramid-agreement", _check_spectrum_pyramid),
    ("endpoint-limit-law", _check_limit_law),
    ("product-state-safety", _check_product_safety),
    ("mirror-coefficient-conjugation", _check_mirror_conjugation),
    ("facet-region-layout", _check_region_layout),
    ("gamma-zero-no-bound", _check_gamma_zero_slice),
)

#: The name of each check, in battery order.
CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_all(
    *, seed: int = DEFAULT_SEED, only: list[int] | None = None
) -> list[CheckResult]:
    """Run the verification battery (or the subset in ``only``, 1-based).

    ``only=None`` runs every check of :data:`_CHECKS`; an empty selection
    is an error, and so is a negative ``seed``, before any check runs (numpy
    seeds are non-negative).  Each result carries the wall time of its
    check in ``seconds``.

    ``seed`` drives checks 5-8 and 10 only; checks 1-4, 9, 11 and 12 take
    no random input.
    """
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")
    count = len(_CHECKS)
    if only is not None and not only:
        raise ValueError(f"empty check selection (indices must be in 1..{count})")
    indices = list(range(1, count + 1)) if only is None else sorted(set(only))
    for i in indices:
        if not 1 <= i <= count:
            raise ValueError(f"check index must be in 1..{count}, got {i}")
    results = []
    for i in indices:
        name, check = _CHECKS[i - 1]
        start = time.perf_counter()
        fields = check(seed)
        results.append(
            CheckResult(index=i, name=name, **fields, seconds=time.perf_counter() - start)
        )
    return results

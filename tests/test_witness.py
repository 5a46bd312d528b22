"""Witness construction tests: feasibility criterion, line operators,
closed-form crossings against in-test bisection oracles, plane extraction,
and the closed-form battery against its matrix oracle."""

import logging
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import PYTHONPATH, witness_values
from hypothesis import strategies as st

from magicsimplex import checks, planes, witness
from magicsimplex.checks import run_all
from magicsimplex.family import (
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    family_state,
    horodecki_point,
    is_ppt,
    mirror,
    plane_point,
    pt_block_eigenvalues,
    pt_min_eigenvalue,
    pyramid_margin,
)
from magicsimplex.planes import (
    CONE_EDGE_LAMBDA,
    DEFAULT_SEED,
    OPTIMAL_EPSILON,
    OPTIMAL_GAMMA,
    OPTIMAL_LAMBDA,
    optimal_plane_start,
    pl1_cone_start,
    plane_tip_start,
    witness_planes,
)
from magicsimplex.qmat import hs_inner
from magicsimplex.regions import format_number
from magicsimplex.weyl import bell_projector
from magicsimplex.witness import (
    FEASIBLE,
    INFEASIBLE,
    NOT_IN_SPAN,
    _scaled_line_operator,
    c_lambda,
    deployed_witness,
    deployed_witnesses,
    lambda_min,
    min_product_expectation,
    product_state_vectors,
    witness_candidate,
    witness_plane,
)

ORIGIN = FamilyPoint(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Feasibility criterion
# ---------------------------------------------------------------------------


def test_identity_is_feasible():
    cand = witness_candidate(np.eye(9, dtype=complex))
    assert cand.status == FEASIBLE
    lo, hi = cand.a_interval
    assert lo == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(1.0 / 2.0, abs=1e-12)


def test_negative_identity_is_infeasible():
    cand = witness_candidate(-np.eye(9, dtype=complex))
    assert not cand.feasible and cand.a_interval is None


def test_bell_projector_is_infeasible():
    # all nine coefficients equal 1/9, so the off-identity maximum ties
    # the identity coefficient and violates the d-1 margin
    cand = witness_candidate(bell_projector(0, 0))
    assert cand.status == INFEASIBLE


def test_local_projector_is_out_of_span():
    m = np.zeros((9, 9), dtype=complex)
    m[1, 1] = 1.0
    cand = witness_candidate(m)
    assert cand.status == NOT_IN_SPAN
    assert cand.a_interval is None


@given(st.floats(0.01, 100.0))
@settings(max_examples=40, deadline=None)
def test_feasibility_scale_invariance(scale):
    base = witness_candidate(np.eye(9, dtype=complex) * 2.0)
    scaled = witness_candidate(np.eye(9, dtype=complex) * 2.0 * scale)
    assert scaled.status == base.status
    lo, hi = base.a_interval
    slo, shi = scaled.a_interval
    assert slo == pytest.approx(lo * scale, rel=1e-12)
    assert shi == pytest.approx(hi * scale, rel=1e-12)


# ---------------------------------------------------------------------------
# Line construction
# ---------------------------------------------------------------------------


def test_c_lambda_validation():
    for lam in (-0.01, 1.01, math.nan):
        with pytest.raises(
            ValueError, match=rf"^line parameter must lie in \[0, 1\], got {lam}$"
        ):
            c_lambda(ORIGIN, lam)
    # the parameter is checked before the start
    with pytest.raises(ValueError, match="line parameter"):
        c_lambda(FamilyPoint(1.0, 0.0, 0.0), 1.01)
    with pytest.raises(
        ValueError,
        match=r"^start \(1\.0, 0\.0, 0\.0\) is NPT \(smallest partial-transpose "
        r"eigenvalue -3\.333e-01\); use a PPT start$",
    ):
        c_lambda(FamilyPoint(1.0, 0.0, 0.0), 0.5)
    with pytest.raises(
        ValueError,
        match=r"^point \(3\.0, 0\.0, 0\.0\) is not a state \(positivity margin -2\.000e\+00\)$",
    ):
        c_lambda((3.0, 0.0, 0.0), 0.5)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.7, 1.0 - 1e-9, 1.0])
def test_c_lambda_is_the_line_formula_bit_for_bit(lam):
    # (1 - l) times the rescaled operator below the endpoint, the rescaled
    # operator itself at l = 1: the same operations, so the same bits.
    for start in seeded_ppt_starts(8, seed=23) + [plane_tip_start()]:
        scaled = _scaled_line_operator(family_state(start), lam)
        ref = scaled if lam == 1.0 else (1.0 - lam) * scaled
        assert np.array_equal(c_lambda(start, lam).matrix, ref)


def _line_state(start: FamilyPoint, lam: float) -> np.ndarray:
    """The interpolated state ``l * rho + (1 - l) * 1/9``."""
    return lam * family_state(start) + (1.0 - lam) * np.eye(9, dtype=complex) / 9.0


def test_line_state_endpoints():
    start = horodecki_point(1.5)
    assert np.allclose(_line_state(start, 0.0), np.eye(9) / 9.0, atol=1e-15)
    assert np.allclose(_line_state(start, 1.0), family_state(start), atol=1e-15)


def test_c_lambda_identities():
    start = horodecki_point(1.5)
    lam = 0.7
    cand = c_lambda(start, lam)
    rho = family_state(start)
    rho_l = _line_state(start, lam)
    assert abs(hs_inner(cand.matrix, rho_l).real) <= 1e-13
    gap = np.linalg.norm(rho_l - rho) ** 2
    assert hs_inner(cand.matrix, rho).real == pytest.approx(-gap, abs=1e-13)


def test_c_lambda_stays_safe_near_the_endpoint():
    # Starts within 4e-9 of the plane tip have their onset within 1e-8 of
    # 1; safety is monotone in l, so every parameter strictly between the
    # onset and 1 must keep the verdict despite rho_l - rho cancelling.
    unsafe = []
    for k in range(1, 21):
        start = plane_point(-0.25 + k * 2e-10, 0.25)
        onset = lambda_min(start)
        assert onset is not None and onset < 1.0
        for j in range(1, 10):
            lam = onset + (1.0 - onset) * j / 10.0
            assert onset < lam < 1.0
            if not c_lambda(start, lam).feasible:
                unsafe.append((k, j))
    assert unsafe == []


def test_c_lambda_degenerate_start_is_zero():
    cand = c_lambda(ORIGIN, 0.4)
    assert np.max(np.abs(cand.matrix)) <= 1e-15
    assert cand.status == INFEASIBLE  # zero identity coefficient


def test_c_lambda_endpoint_is_the_tangent_limit():
    start = horodecki_point(1.2)
    rho = family_state(start)
    purity = hs_inner(rho, rho).real
    cand = c_lambda(start, 1.0)
    assert np.allclose(cand.matrix, purity * np.eye(9) - rho, atol=1e-14)
    # tangency: expectation on the start itself vanishes exactly
    assert abs(hs_inner(cand.matrix, rho).real) <= 1e-14
    with pytest.raises(ValueError, match="NPT"):
        c_lambda(FamilyPoint(1.0, 0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Closed-form crossings against bisection oracles
# ---------------------------------------------------------------------------


def bisected_lambda_min(start, tol=1e-10):
    """Oracle: bisect the (monotone) safety verdict of the line operator."""
    if not c_lambda(start, 1.0).feasible:
        return None
    lo, hi = 0.0, 1.0  # lo is always infeasible: C_0 has zero identity part
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if c_lambda(start, mid).feasible:
            hi = mid
        else:
            lo = mid
    return hi


def seeded_ppt_starts(count, seed=17):
    """PPT states, half from the standard box and half near the facet patch."""
    rng = np.random.default_rng(seed)
    starts = []
    while len(starts) < count:
        if len(starts) % 2:
            p = FamilyPoint(*rng.uniform((-0.5, -1.0, -1.0), (1.5, 1.0, 1.2)))
        else:
            # facet points near the optimal start, pulled slightly inward
            p = plane_point(*rng.uniform((-0.05, -0.6), (0.3, 0.6)))
            shrink = rng.uniform(0.97, 1.0)
            p = FamilyPoint(shrink * p.alpha, shrink * p.beta, shrink * p.gamma)
        if pyramid_margin(p) >= 0.0 and is_ppt(p).is_ppt:
            starts.append(p)
    return starts


def test_lambda_min_argument_errors():
    for onset in (lambda_min, planes.lambda_min):
        with pytest.raises(ValueError, match="NPT"):
            onset(FamilyPoint(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="NPT"):
            onset((1.0, 0.0, 0.0))  # plain tuples are accepted as points
        with pytest.raises(ValueError, match="not a state"):
            onset((3.0, 0.0, 0.0))


def test_lambda_min_degenerate_line():
    for onset in (lambda_min, planes.lambda_min):
        assert onset(ORIGIN) is None


def test_lambda_min_at_facet_tip_is_one():
    assert lambda_min(plane_tip_start()) == pytest.approx(1.0, abs=1e-12)


def test_lambda_min_deepest_start():
    value = lambda_min(optimal_plane_start())
    assert value == pytest.approx(OPTIMAL_LAMBDA, abs=1e-12)


def test_lambda_min_two_routes_agree():
    # the closed form against bisection on the operator it predicts
    starts = [ORIGIN, plane_tip_start(), optimal_plane_start()] + seeded_ppt_starts(300)
    found = 0
    for p in starts:
        closed = lambda_min(p)
        bisected = bisected_lambda_min(p)
        assert (closed is None) == (bisected is None), p
        if closed is not None:
            assert closed == pytest.approx(bisected, abs=1e-8), p
            found += 1
    assert 40 <= found <= len(starts) - 40  # both outcomes well represented


def test_mirror_starts_share_the_onset():
    for start, onset in (
        (plane_tip_start(), 1.0),
        (optimal_plane_start(), OPTIMAL_LAMBDA),
        (pl1_cone_start(), CONE_EDGE_LAMBDA),
    ):
        assert lambda_min(mirror(start)) == lambda_min(start)
        assert lambda_min(start) == pytest.approx(onset, abs=1e-12)
        for p in (start, mirror(start)):
            assert abs(planes.lambda_min(p) - onset) <= 1e-15, p


def _agreement_starts():
    """Seeded PPT starts: 1,000 from the box, the rest from the facet patch."""
    rng = np.random.default_rng(12345)
    box = checks._ppt_starts(rng, 1000)
    patch = [plane_point(*row) for row in rng.uniform((-0.05, -0.6), (0.3, 0.6), (2400, 2))]
    return box + [p for p in patch if pyramid_margin(p) >= STATE_TOL and is_ppt(p).is_ppt]


def test_closed_form_onset_matches_the_matrix_oracle():
    starts = _agreement_starts()
    assert len(starts) >= 2000
    found = 0
    for p in starts:
        closed, oracle = planes.lambda_min(p), lambda_min(p)
        assert (closed is None) == (oracle is None), p
        mirrored = planes.lambda_min(mirror(p))
        assert (mirrored is None) == (closed is None), p
        if closed is not None:
            assert abs(closed - oracle) <= 1e-12, p
            assert format_number(closed) == format_number(oracle), p
            assert abs(mirrored - closed) <= 1e-15, p
            found += 1
    assert 200 <= found <= len(starts) - 200  # both outcomes well represented


def test_closed_form_onset_post_rejects_an_unsafe_operator(monkeypatch):
    # A table whose largest off-identity entry is 1e-9 too large for the
    # operator at the onset: the product-safety post must refuse it.
    table = planes._character_table

    def inflated(start):
        excess, t = table(start)
        worst = max((k for k in t if k != (0, 0)), key=lambda k: abs(t[k]))
        return excess, {k: v * (1.0 + 1e-9) if k == worst else v for k, v in t.items()}

    monkeypatch.setattr(planes, "_character_table", inflated)
    with pytest.raises(ArithmeticError, match="not product-safe"):
        planes.lambda_min(optimal_plane_start())


def test_matrix_onset_raises_when_the_closed_form_moves(monkeypatch):
    closed = planes.lambda_min
    monkeypatch.setattr(planes, "lambda_min", lambda start: closed(start) + 1e-9)
    with pytest.raises(ArithmeticError, match="is not its closed form"):
        lambda_min(optimal_plane_start())
    monkeypatch.setattr(planes, "lambda_min", lambda start: None)
    with pytest.raises(ArithmeticError, match="is not its closed form"):
        lambda_min(optimal_plane_start())


def test_line_crossing_checks_are_exact():
    for res in run_all(only=[1, 2]):
        assert abs(res.computed - res.expected) <= 1e-12, res


def test_optimal_start_constants():
    assert OPTIMAL_EPSILON == pytest.approx((-25.0 + 7.0 * math.sqrt(13.0)) / 2.0)
    assert OPTIMAL_GAMMA == pytest.approx(math.sqrt(OPTIMAL_EPSILON))
    start = optimal_plane_start()
    assert start == plane_point(OPTIMAL_EPSILON, OPTIMAL_GAMMA)


def test_cone_start_closed_form_beta():
    # the flat-face/PPT-cone intersection at gamma = 2/7 has
    # beta = 10(6 - sqrt(39))/63
    start = pl1_cone_start()
    want = 10.0 * (6.0 - math.sqrt(39.0)) / 63.0
    assert start.beta == pytest.approx(want, abs=1e-9)
    assert start.gamma == pytest.approx(2.0 / 7.0, abs=1e-15)
    # the point sits on the flat witness plane
    pl1 = dict(witness_planes())["Pl1"]
    a, b, g = start
    assert abs(a - (pl1.beta_coeff * b + pl1.gamma_coeff * g + pl1.offset)) <= 1e-12


def test_cone_start_is_on_the_cone():
    start = pl1_cone_start()
    assert abs(min(pt_block_eigenvalues(start))) <= 1e-15

    def on_plane(beta):
        return FamilyPoint((4.0 * beta + 2.0 * (1.0 - start.gamma)) / 5.0, beta, start.gamma)

    # oracle: bisect the matrix PT minimum along the Pl1 plane
    lo, hi = -0.1, 0.0
    assert pt_min_eigenvalue(on_plane(lo)) >= 0.0 > pt_min_eigenvalue(on_plane(hi))
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if pt_min_eigenvalue(on_plane(mid)) >= 0.0:
            lo = mid
        else:
            hi = mid
    assert start.beta == pytest.approx(lo, abs=1e-12)
    assert start.alpha == pytest.approx(on_plane(lo).alpha, abs=1e-12)


# ---------------------------------------------------------------------------
# Plane extraction and the deployed battery
# ---------------------------------------------------------------------------


def test_witness_plane_of_flat_face():
    plane = witness_plane(c_lambda(plane_tip_start(), 1.0))
    assert plane.beta_coeff == pytest.approx(0.8, abs=1e-12)
    assert plane.gamma_coeff == pytest.approx(-0.4, abs=1e-12)
    assert plane.offset == pytest.approx(0.4, abs=1e-12)
    assert plane.trace_scale == pytest.approx(-5.0 / 36.0, abs=1e-12)


def test_battery_membership_and_planes():
    battery = deployed_witnesses()
    names = ["Pl1", "Pl1m", "Pl2", "Pl2m", "Pl3", "Pl3m"]
    assert [w.name for w in battery] == names
    assert [name for name, _ in witness_planes()] == names
    for w in battery:
        assert w.candidate.feasible
    # mirroring preserves the beta coefficient, offset, and trace scale
    by_name = {w.name: w.plane for w in battery}
    for base in ("Pl1", "Pl2", "Pl3"):
        mirror = by_name[base + "m"]
        assert mirror.beta_coeff == pytest.approx(by_name[base].beta_coeff, abs=1e-12)
        assert mirror.offset == pytest.approx(by_name[base].offset, abs=1e-12)
        assert mirror.trace_scale == pytest.approx(
            by_name[base].trace_scale, abs=1e-12
        )


def test_battery_tangent_at_shared_corner():
    # all six planes pass through the gamma = 0 corner (2/9, -2/9, 0)
    corner = family_state(FamilyPoint(2.0 / 9.0, -2.0 / 9.0, 0.0))
    for name, value in witness_values(corner):
        assert abs(value) <= 1e-12, name


def test_closed_form_planes_match_the_oracle():
    for (name, closed), w in zip(witness_planes(), deployed_witnesses()):
        assert name == w.name
        probed = witness_plane(w.candidate)._asdict()
        for field, value in closed._asdict().items():
            assert abs(probed[field] - value) <= 1e-12, (name, field)


def _rebuild_oracle(monkeypatch, *shrunk_starts):
    """``deployed_witnesses()`` rebuilt, with the named ``planes`` starts moved."""
    for start in shrunk_starts:
        # toward the center: still a PPT state, but its onset moves by 1e-6
        shrunk = FamilyPoint(*(0.999999 * x for x in getattr(planes, start)()))
        monkeypatch.setattr(planes, start, lambda shrunk=shrunk: shrunk)
    for cache in (witness_planes, deployed_witnesses):
        cache.cache_clear()
    try:
        return deployed_witnesses()
    finally:
        monkeypatch.undo()
        for cache in (witness_planes, deployed_witnesses):
            cache.cache_clear()


@pytest.mark.parametrize(
    "shrunk_starts, message",
    [
        (("pl1_cone_start",), "Pl3: .* closed form"),
        # Pl2 comes before Pl3 in the battery
        (("optimal_plane_start", "pl1_cone_start"), "witness Pl2: onset"),
    ],
    ids=["Pl3", "Pl2-first"],
)
def test_oracle_raises_when_a_start_leaves_its_closed_form(
    monkeypatch, shrunk_starts, message
):
    with pytest.raises(ArithmeticError, match=message):
        _rebuild_oracle(monkeypatch, *shrunk_starts)


def test_battery_build_samples_no_product_state(monkeypatch):
    # The safety criterion certifies every member; verify check 9 is the one
    # product-state sweep.
    def refuse(*args, **kwargs):
        raise AssertionError("the battery build sampled product states")

    monkeypatch.setattr(witness, "min_product_expectation", refuse)
    monkeypatch.setattr(witness, "product_state_vectors", refuse)
    battery = _rebuild_oracle(monkeypatch)
    assert [w.name for w in battery] == [name for name, _ in witness_planes()]


def test_planes_are_logged_once_per_battery_build(caplog):
    caplog.set_level(logging.INFO, logger="magicsimplex")
    for cache in (witness_planes, deployed_witnesses):
        cache.cache_clear()
    deployed_witnesses()
    deployed_witnesses.cache_clear()
    deployed_witnesses()  # the oracle alone logs no plane
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("witness ")]
    assert [m.split(":")[0] for m in logged] == ["witness Pl1", "witness Pl2", "witness Pl3"]


def test_plane_residual_examples():
    # alpha - (b beta + g gamma + c) of Pl1 vanishes at (0.4, 0, 0) and is
    # -0.4 at the origin
    pl1 = dict(witness_planes())["Pl1"]
    for (a, b, g), want in (((0.4, 0.0, 0.0), 0.0), (ORIGIN, -0.4)):
        got = a - (pl1.beta_coeff * b + pl1.gamma_coeff * g + pl1.offset)
        assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError, match="unknown witness"):
        deployed_witness("Pl9")


def test_witness_value_proportional_to_residual():
    rng = np.random.default_rng(13)
    battery = {w.name: w for w in deployed_witnesses()}
    w = battery["Pl2"]
    nb, ng, c, k = w.plane
    for _ in range(20):
        p = FamilyPoint(*rng.uniform((-0.5, -1, -1), (1.5, 1, 1.2)))
        value = hs_inner(w.candidate.matrix, family_state(p)).real
        a, b, g = p
        assert value == pytest.approx(k * (a - (nb * b + ng * g + c)), abs=1e-12)


def test_mirror_detects_mirrored_bound_point():
    rho = family_state(horodecki_point(3.5))  # gamma < 0 bound segment
    values = dict(witness_values(rho))
    assert values["Pl1m"] < -1e-4
    rho_plus = family_state(horodecki_point(1.5))
    values_plus = dict(witness_values(rho_plus))
    assert values_plus["Pl1"] < -1e-4


# ---------------------------------------------------------------------------
# Product-state sampling
# ---------------------------------------------------------------------------


def test_product_vectors_are_deterministic():
    a = product_state_vectors(64, seed=5)
    b = product_state_vectors(64, seed=5)
    assert np.array_equal(a, b)
    c = product_state_vectors(64, seed=6)
    assert not np.array_equal(a, c)


def test_product_vectors_are_normalized_rank_one():
    vecs = product_state_vectors(32, seed=DEFAULT_SEED)
    norms = np.linalg.norm(vecs, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    for v in vecs[:8]:
        second_sv = np.linalg.svd(v.reshape(3, 3), compute_uv=False)[1]
        assert second_sv <= 1e-12


def test_min_product_expectation_sweeps_a_stack_once():
    # 30_000 vectors span two chunks; each witness must see the same vectors
    # as its own call and get the same minimum to the last bit.
    battery = deployed_witnesses()
    minima = min_product_expectation(
        np.stack([w.candidate.matrix for w in battery]), count=30_000
    )
    assert minima.shape == (len(battery),)
    for w, value in zip(battery, minima):
        single = min_product_expectation(w.candidate.matrix, count=30_000)
        assert isinstance(single, float)
        assert value == single


def _three_operand_minima(stack, count):
    """The sweep with the generic ``<v|W|v>`` einsum, chunked and seeded alike."""
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = np.full(len(stack), math.inf)
    remaining = count
    while remaining > 0:
        take = min(20_000, remaining)
        v = product_state_vectors(take, rng)
        bra = v.conj()
        for k, mat in enumerate(stack):
            vals = np.einsum("ni,ij,nj->n", bra, mat, v).real
            worst[k] = min(worst[k], vals.min())
        remaining -= take
    return worst


def test_min_product_expectation_matches_the_three_operand_kernel():
    rng = np.random.default_rng(2024)
    raw = rng.standard_normal((20, 9, 9)) + 1j * rng.standard_normal((20, 9, 9))
    hermitian = raw + raw.conj().transpose(0, 2, 1)
    stack = np.concatenate(
        [np.stack([w.candidate.matrix for w in deployed_witnesses()]), hermitian]
    )
    minima = min_product_expectation(stack, count=30_000)
    for mat, value, ref in zip(stack, minima, _three_operand_minima(stack, 30_000)):
        bound = 81 * np.finfo(float).eps * max(1.0, float(np.linalg.norm(mat)))
        assert abs(value - ref) <= bound


def test_min_product_expectation_memory_does_not_grow_with_the_stack():
    battery = np.stack([w.candidate.matrix for w in deployed_witnesses()])

    def peak(stack):
        tracemalloc.start()
        try:
            min_product_expectation(stack, count=40_000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(battery) <= peak(battery[:1]) + 2**20


def test_product_sweep_is_the_same_for_any_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=PYTHONPATH,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "magicsimplex.cli", "verify", "--only", "9"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "product-state-safety" in outputs[0]
    assert outputs[0] == outputs[1]


def test_ppt_starts_match_a_point_by_point_loop():
    def reference(rng, count):
        out = []
        while len(out) < count:
            for row in rng.uniform((-0.5, -1.0, -1.0), (1.5, 1.0, 1.2), size=(256, 3)):
                p = FamilyPoint(*row)
                if pyramid_margin(p) >= STATE_TOL and pt_min_eigenvalue(p) >= PPT_TOL:
                    out.append(p)
                    if len(out) == count:
                        break
        return out

    for count in (1, 37, 120):
        rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
        assert checks._ppt_starts(rng, count) == reference(ref_rng, count)
        # Both leave the generator at the same place for the draws that follow.
        assert rng.uniform() == ref_rng.uniform()


def test_min_product_expectation_on_identity():
    assert min_product_expectation(np.eye(9, dtype=complex), count=500) == (
        pytest.approx(1.0, abs=1e-12)
    )


def test_min_product_expectation_flags_bell_projector():
    # <v|P_00|v> dips well below 1/9 on product states but stays positive
    value = min_product_expectation(bell_projector(0, 0), count=2000)
    assert 0.0 <= value < 0.05

"""Witness construction tests: feasibility criterion, line operators,
closed-form crossings against in-test bisection oracles, plane extraction,
and the closed-form battery against its matrix oracle."""

import logging
import math
import os
import re
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
from magicsimplex.cli import format_number
from magicsimplex.family import (
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    _building_blocks,
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
    PlaneCoefficients,
    optimal_plane_start,
    pl1_cone_start,
    plane_tip_start,
    witness_planes,
)
from magicsimplex.qmat import hermitian_eigenvalues, hs_inner
from magicsimplex.weyl import bell_projector, tensor_basis_element
from magicsimplex.witness import (
    FEASIBLE,
    INFEASIBLE,
    NOT_IN_SPAN,
    _scaled_line_operator,
    c_lambda,
    deployed_witness,
    deployed_witnesses,
    lambda_min,
    line_operator,
    product_minima,
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
        scaled = _scaled_line_operator(family_state(np.array([start])), lam)[0]
        ref = scaled if lam == 1.0 else (1.0 - lam) * scaled
        matrix = c_lambda(start, lam).matrix
        assert np.array_equal(matrix.view(np.int64), ref.view(np.int64))


def test_line_operator_stack_is_c_lambda_bit_for_bit():
    # Every start at every parameter, in one stack that mixes the endpoint
    # with interior values; the int64 view also compares signed zeros.
    lams = (0.0, 0.25, 0.7, 1.0 - 1e-9, 1.0)
    pairs = [
        (start, lam)
        for start in seeded_ppt_starts(8, seed=23) + [plane_tip_start()]
        for lam in lams
    ]
    stack = line_operator(np.array([s for s, _ in pairs]), np.array([l for _, l in pairs]))
    assert stack.shape == (len(pairs), 9, 9)
    for member, (start, lam) in zip(stack, pairs):
        ref = c_lambda(start, lam).matrix.view(np.int64)
        assert np.array_equal(member.view(np.int64), ref)
        assert np.array_equal(line_operator(start, lam).view(np.int64), ref)


@pytest.mark.parametrize(
    "bad_start, bad_lam",
    [
        ((0.0, 0.0, 0.0), math.nan),
        ((0.0, 0.0, 0.0), 1.01),
        ((1.0, 0.0, 0.0), 0.5),
        ((3.0, 0.0, 0.0), 0.5),
        # the parameter is checked before the start
        ((1.0, 0.0, 0.0), 1.01),
        # ... also before a non-finite coordinate, which FamilyPoint names
        ((0.0, math.nan, 0.0), 1.01),
        ((math.nan, 0.0, 0.0), 0.5),
    ],
)
def test_line_operator_stack_raises_c_lambdas_error_before_any_matrix(
    monkeypatch, bad_start, bad_lam
):
    with pytest.raises(ValueError) as single:
        c_lambda(bad_start, bad_lam)
    # The last member fails too, and by a non-finite coordinate: only the
    # first failing member may name the error.
    starts = np.array([horodecki_point(1.5), bad_start, (math.nan, 0.0, 0.0)])
    lams = np.array([0.5, bad_lam, 1.01])

    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was formed")

    monkeypatch.setattr(witness, "family_state", refuse)
    with pytest.raises(ValueError) as stacked:
        line_operator(starts, lams)
    assert str(stacked.value) == str(single.value)


def test_line_operator_stack_logs_no_ppt_line_for_its_valid_members(caplog):
    starts = np.array(seeded_ppt_starts(4, seed=23))
    with caplog.at_level(logging.DEBUG, logger="magicsimplex.family"):
        line_operator(starts, np.full(len(starts), 0.5))
        # One start is the one-member stack: it logs nothing either.
        line_operator(starts[0], 0.5)
        c_lambda(tuple(starts[0]), 0.5)
        assert caplog.records == []
        # is_ppt still logs its line, and so does lambda_min, which runs it.
        is_ppt(tuple(starts[0]))
        assert len(caplog.records) == 1
        lambda_min(tuple(starts[0]))
        assert len(caplog.records) > 1


def test_lambda_min_validates_its_start_once(caplog):
    # The closed form validates the start; the matrix oracle does not again.
    with caplog.at_level(logging.DEBUG, logger="magicsimplex.family"):
        lambda_min(horodecki_point(1.5))
    lines = [r.getMessage() for r in caplog.records]
    assert [m.split(":")[0] for m in lines if m.startswith("is_ppt")] == [
        "is_ppt" + str(horodecki_point(1.5).as_tuple())
    ]


def test_line_operator_rejects_mismatched_shapes():
    starts = np.array(seeded_ppt_starts(3, seed=23))
    bad = [
        (starts, lams)
        for lams in (np.full(2, 0.5), np.full(4, 0.5), 0.5, np.full((3, 1), 0.5))
    ] + [
        (starts[0], np.full(3, 0.5)),
        ((0.1, 0.0), 0.5),
        (starts[:, :2], np.full(3, 0.5)),
        (starts[None], np.full((1, 3), 0.5)),
        (0.1, 0.5),
    ]
    for start, lams in bad:
        shapes = f"got shapes {np.shape(start)} and {np.shape(lams)}"
        with pytest.raises(ValueError, match=re.escape(shapes)):
            line_operator(start, lams)
    # Any (3,) or (N, 3) array-like is a start: lists and tuples too.
    ref = line_operator(starts[:2], np.full(2, 0.5))
    rows = [FamilyPoint(*row) for row in starts[:2].tolist()]
    assert np.array_equal(line_operator(rows, np.array([0.5, 0.5])), ref)
    assert np.array_equal(line_operator(tuple(starts[0]), 0.5), ref[0])


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
    box = [FamilyPoint(*row) for row in checks._ppt_starts(rng, 1000).tolist()]
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
    pl1 = next(PlaneCoefficients(*p) for name, *p in witness_planes() if name == "Pl1")
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
    assert [row[0] for row in witness_planes()] == names
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
    for (name, *closed), w in zip(witness_planes(), deployed_witnesses()):
        assert name == w.name
        probed = witness_plane(w.candidate)._asdict()
        for field, value in PlaneCoefficients(*closed)._asdict().items():
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
    # minimisation over product states.
    def refuse(*args, **kwargs):
        raise AssertionError("the battery build minimised over product states")

    monkeypatch.setattr(witness, "product_minima", refuse)
    monkeypatch.setattr(witness, "_family_coefficients", refuse)
    battery = _rebuild_oracle(monkeypatch)
    assert [w.name for w in battery] == [row[0] for row in witness_planes()]


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
    pl1 = next(PlaneCoefficients(*p) for name, *p in witness_planes() if name == "Pl1")
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
# The minimum over product states
# ---------------------------------------------------------------------------


def _haar_factors(count, rng):
    """``count`` pairs of complex Haar-random unit vectors on C^3."""
    raw = rng.standard_normal((2, count, 3)) + 1j * rng.standard_normal((2, count, 3))
    return raw / np.linalg.norm(raw, axis=2, keepdims=True)


def _battery_stack():
    return np.stack([w.candidate.matrix for w in deployed_witnesses()])


def _family_operators(count, seed):
    """Random operators in the family span whose ``u u^T`` coefficient is not positive."""
    rng = np.random.default_rng(seed)
    c_i, c_a, c_b, c_c = rng.uniform(-1.0, 1.0, (4, count))
    c_a = np.minimum(c_a, c_b / 2.0 - 0.01)
    blocks = np.stack(_building_blocks())
    return np.einsum("kn,kij->nij", np.stack([c_i, c_a, c_b, c_c]), blocks)


def test_product_reduction_is_the_trace_on_complex_product_states():
    # c_I + c_A p00 + c_B (Q0 - p00)/2 + c_C Q1/3 on complex vectors, and
    # v.M(u)v on their moduli, against Tr(W |uv><uv|).
    u, v = _haar_factors(2_000, np.random.default_rng(2024))
    x = np.einsum("ni,nj->nij", u, v).reshape(-1, 9)
    au, av = np.abs(u), np.abs(v)
    ax = np.einsum("ni,nj->nij", au, av).reshape(-1, 9)
    p00 = np.abs((u * v).sum(axis=1)) ** 2 / 3.0
    su, sv = au**2, av**2
    q0, q1 = (su * sv).sum(axis=1), (su * np.roll(sv, -1, axis=1)).sum(axis=1)
    stack = _battery_stack()
    coeffs = witness._family_coefficients(stack)
    for op, (c_i, c_a, c_b, c_c), row in zip(stack, coeffs, coeffs[:, None]):
        trace = np.einsum("ni,ij,nj->n", x.conj(), op, x).real
        reduced = c_i + c_a * p00 + c_b * (q0 - p00) / 2.0 + c_c * q1 / 3.0
        assert np.max(np.abs(reduced - trace)) <= 1e-15
        trace = np.einsum("ni,ij,nj->n", ax, op, ax).real
        m_u = witness._reduced_matrices(row, au[None])[0]
        assert np.max(np.abs(np.einsum("ni,nij,nj->n", av, m_u, av) - trace)) <= 1e-15


def test_deployed_product_minima_are_zero_at_their_minimisers():
    stack = _battery_stack()
    values, u, v = product_minima(stack)
    assert values.shape == (6,) and u.shape == v.shape == (6, 3)
    assert np.all(np.abs(values) <= 1e-12)
    for vec in (u, v):
        assert np.all(vec >= 0.0)
        assert np.max(np.abs(np.linalg.norm(vec, axis=1) - 1.0)) <= 1e-15
    x = np.einsum("ni,nj->nij", u, v).reshape(-1, 9)
    assert np.max(np.abs(np.einsum("ni,nij,nj->n", x, stack, x).real - values)) <= 1e-16
    record = checks._check_product_safety(DEFAULT_SEED)
    assert record["passed"] and record["computed"] == values.min()
    for w, value, a, b in zip(deployed_witnesses(), values.tolist(), u, v):
        ket = lambda y: "(" + ",".join(f"{c:.3f}" for c in y) + ")"
        assert f"{w.name}:{value + 0.0:.2e} at {ket(a)}{ket(b)}" in record["detail"]


def test_product_minima_lie_below_every_sampled_product_state():
    # Off the grid too: random family operators, against 2,000 complex
    # Haar product states each.
    stack = _family_operators(40, seed=5)
    values, _, _ = product_minima(stack)
    u, v = _haar_factors(2_000, np.random.default_rng(6))
    x = np.einsum("ni,nj->nij", u, v).reshape(-1, 9)
    sampled = np.einsum("ni,kij,nj->kn", x.conj(), stack, x).real.min(axis=1)
    assert np.all(values <= sampled + 1e-15)


@pytest.mark.parametrize(
    "row", [(-0.01, -0.185, 0.738, 0.848), (0.505, -0.543, 0.398, -0.877)]
)
def test_product_minima_leave_a_corner_that_is_only_a_partial_optimum(row):
    # At a pair of basis vectors |i>|j> each factor is the best for the
    # other, so alternating between the factors stops there; these two
    # minima lie within one grid step of a corner, 4e-7 and 4e-5 below it.
    op = np.einsum("k,kij->ij", row, np.stack(_building_blocks()))
    coeffs = witness._family_coefficients(op[None])
    (values,), _, _ = product_minima(op)
    corners = np.linalg.eigvalsh(witness._reduced_matrices(coeffs, np.eye(3)[None]))
    assert values < corners[..., 0].min() - 3e-7
    i, j = np.triu_indices(241)
    dense = np.stack([i, j - i, 240 - j], axis=1).astype(float)
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    dense_values = np.linalg.eigvalsh(witness._reduced_matrices(coeffs, dense[None]))
    assert values <= dense_values[..., 0].min() + 1e-15


def test_min_product_expectation_sweeps_a_stack_once():
    stack = np.concatenate([_battery_stack(), _family_operators(10, seed=7)])
    values, u, v = product_minima(stack)
    for k, op in enumerate(stack):
        single = product_minima(op)
        assert [a.tolist() for a in single] == [[values[k]], [u[k].tolist()], [v[k].tolist()]]


def _planted_battery(monkeypatch, index, matrix):
    """``checks`` sees the battery with member ``index``'s matrix replaced."""
    battery = list(deployed_witnesses())
    w = battery[index]
    battery[index] = w._replace(candidate=w.candidate._replace(matrix=matrix))
    monkeypatch.setattr(checks, "deployed_witnesses", lambda: tuple(battery))


@pytest.mark.parametrize("index", range(6))
def test_a_witness_shifted_below_zero_fails_the_product_check(monkeypatch, index):
    w = deployed_witnesses()[index]
    _planted_battery(monkeypatch, index, w.candidate.matrix - 1e-9 * np.eye(9))
    record = checks._check_product_safety(DEFAULT_SEED)
    assert not record["passed"]
    assert record["computed"] == pytest.approx(-1e-9, abs=1e-12)
    assert f"{w.name}:-1.00e-09 at " in record["detail"]


def _off_family(op):
    t = tensor_basis_element(0, 1)
    return op + 1e-6 * (t + t.conj().T)


def _with_nan(op):
    op = op.copy()
    op[4, 7] = math.nan
    return op


@pytest.mark.parametrize(
    "plant, reason",
    [
        (_off_family, "is outside the family span"),
        (np.negative, "has a positive u u^T coefficient"),
        (_with_nan, "has a non-finite entry"),
    ],
    ids=["out-of-span", "negated", "nan"],
)
def test_an_unproven_reduction_fails_the_product_check(monkeypatch, plant, reason):
    for index, w in enumerate(deployed_witnesses()):
        _planted_battery(monkeypatch, index, plant(w.candidate.matrix))
        record = checks._check_product_safety(DEFAULT_SEED)
        assert not record["passed"]
        assert math.isnan(record["computed"])
        assert f"operator {index} {reason}" in record["detail"]
        monkeypatch.undo()


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_min_product_expectation_rejects_a_non_finite_operator(bad):
    op = np.eye(9, dtype=complex)
    op[4, 7] = bad
    with pytest.raises(ValueError, match="operator 0 has a non-finite entry"):
        product_minima(op)
    # The first operator that fails, in stack order, is named.
    with pytest.raises(ValueError, match="operator 1 has a non-finite entry"):
        product_minima(np.stack([np.eye(9), op, -np.eye(9) + bell_projector(0, 0)]))


def test_min_product_expectation_raises_when_a_finite_operator_overflows():
    # Finite entries, but a norm beyond the largest float: no residual is
    # then small enough to trust, so the operator must not read as safe.
    with pytest.raises(ValueError, match="operator 1 is too large"):
        product_minima(np.stack([np.eye(9), -1e308 * np.eye(9)]))


def test_min_product_expectation_on_identity():
    values, _, _ = product_minima(np.eye(9, dtype=complex))
    assert values.tolist() == [pytest.approx(1.0, abs=1e-15)]


def test_product_minima_of_an_empty_stack_are_empty():
    values, us, vs = product_minima(np.zeros((0, 9, 9), dtype=complex))
    assert (values.shape, us.shape, vs.shape) == ((0,), (0, 3), (0, 3))


def test_min_product_expectation_flags_bell_projector():
    # <uv|P_00|uv> = |u . v|^2 / 3: its u u^T coefficient is positive, so
    # the moduli of a complex product state need not reach its minimum.
    with pytest.raises(ValueError, match=r"operator 0 has a positive u u\^T coefficient"):
        product_minima(bell_projector(0, 0))


def _traced_peak(fn, *args, **kwargs):
    """Peak traced allocation, in bytes, while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_min_product_expectation_memory_does_not_grow_with_the_stack():
    battery = _battery_stack()
    stacked = _traced_peak(product_minima, battery)
    single = _traced_peak(product_minima, battery[:1])
    assert stacked <= single + 2**20


def test_product_sweep_check_runs_in_bounded_memory():
    deployed_witnesses()  # the battery build is set-up, not the sweep
    assert _traced_peak(checks._check_product_safety, DEFAULT_SEED) <= 4 * 2**20


def test_line_identities_check_runs_in_bounded_memory(monkeypatch):
    # The 256-row chunks peak near 2.0 MB; one 1,000-member stack of
    # operators and states peaks near 4.2 MB, so the bound tells them apart.
    bound = 3 * 2**20
    checks._check_line_identities(DEFAULT_SEED)  # build the cached tables first
    assert _traced_peak(checks._check_line_identities, DEFAULT_SEED) <= bound
    monkeypatch.setattr(checks, "_STACK", 1000)
    assert _traced_peak(checks._check_line_identities, DEFAULT_SEED) > bound


def test_gamma_zero_slice_check_runs_in_bounded_memory():
    checks._check_gamma_zero_slice(DEFAULT_SEED)  # build the cached tables first
    assert _traced_peak(checks._check_gamma_zero_slice, DEFAULT_SEED) <= 2**20


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

    # 240 (at this seed) ends on the last row of its round; 1,000 takes
    # several blocks of rounds; 0 draws nothing.
    for count in (0, 1, 37, 120, 240, 1000):
        rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
        starts = checks._ppt_starts(rng, count)
        assert starts.shape == (count, 3)
        assert starts.tolist() == [list(p) for p in reference(ref_rng, count)]
        # Both leave the generator at the same place for the draws that follow.
        assert rng.uniform() == ref_rng.uniform()


def test_ppt_starts_edge_count_ends_on_the_last_row_of_its_round():
    # Why the test above samples 240: its 240th start is row 255 of a round.
    rng, found = np.random.default_rng(240), 0
    while found < 240:
        accepted = np.flatnonzero(witness._ppt_rows(checks._box_points(rng, 256)))
        found += len(accepted)
    assert found == 240 and accepted[-1] == 255


def test_ppt_starts_of_zero_leave_the_generator_untouched():
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    starts = checks._ppt_starts(rng, 0)
    assert starts.shape == (0, 3)
    assert rng.bit_generator.state == state


def _line_identities_point_by_point(seed):
    """Check 6 as one loop: one draw, one ``c_lambda`` and one state per start."""
    rng = np.random.default_rng(seed + 6)
    starts = checks._ppt_starts(rng, 1000).tolist()
    mixed = np.eye(9, dtype=complex) / 9.0
    worst = 0.0
    for start in starts:
        rho = family_state(start)
        lam = float(rng.uniform(0.0, 1.0 - 1e-12))
        cand = c_lambda(start, lam)
        rho_l = lam * rho + (1.0 - lam) * mixed
        on_line = abs(hs_inner(cand.matrix, rho_l).real)
        dist_sq = float(np.linalg.norm(rho_l - rho)) ** 2
        at_start = abs(hs_inner(cand.matrix, rho).real + dist_sq)
        worst = max(worst, on_line, at_start)
    detail = "max |Tr(C rho_line)| and |Tr(C rho) + dist^2| over 1000 draws"
    return checks._fields(0.0, worst, 1e-12, detail)


@pytest.mark.parametrize("seed", [1, 3, DEFAULT_SEED])
def test_line_identities_check_matches_a_point_by_point_loop(seed):
    assert checks._check_line_identities(seed) == _line_identities_point_by_point(seed)


def _limit_law_point_by_point(seed):
    """Check 8 as one loop: five ``c_lambda`` calls per start."""
    rng = np.random.default_rng(seed + 8)
    worst_ratio = 0.0
    for start in checks._ppt_starts(rng, 10).tolist():
        limit = c_lambda(start, 1.0).matrix
        for k in range(3, 7):
            lam = 1.0 - 10.0**-k
            op = c_lambda(start, lam).matrix
            gap = float(np.linalg.norm(op / (lam * (1.0 - lam)) - limit))
            worst_ratio = max(worst_ratio, gap / (10.0 * (1.0 - lam)))
    detail = "max ||C/(l(1-l)) - C_limit|| / (10(1-l)), l = 1-10^-k, k=3..6"
    return checks._fields(1.0, worst_ratio, 1.0, detail, passed=worst_ratio <= 1.0)


@pytest.mark.parametrize("seed", [1, 3, DEFAULT_SEED])
def test_limit_law_check_matches_a_point_by_point_loop(seed):
    assert checks._check_limit_law(seed) == _limit_law_point_by_point(seed)


def test_limit_law_and_mirror_checks_form_their_operators_in_one_call(monkeypatch):
    rows = _count_rows(monkeypatch, "line_operator")
    assert checks._check_limit_law(1)["passed"]
    assert checks._check_mirror_conjugation(1)["passed"]
    assert rows == [50, 200]


def _mirror_conjugation_point_by_point(seed):
    """Check 10 as one loop: two ``c_lambda`` calls per accepted sample."""
    rng = np.random.default_rng(seed + 10)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        eps = float(rng.uniform(-0.3, 0.15))
        gamma = float(rng.uniform(0.02, 0.45))
        plus = plane_point(eps, gamma)
        minus = mirror(plus)
        if pyramid_margin(plus) < STATE_TOL or pyramid_margin(minus) < STATE_TOL:
            continue
        if not (is_ppt(plus).is_ppt and is_ppt(minus).is_ppt):
            continue
        lam = float(rng.uniform(0.05, 0.999))
        table_plus = c_lambda(plus, lam).coeffs
        table_minus = c_lambda(minus, lam).coeffs
        for key, value in table_plus.coeffs.items():
            gap = abs(value - np.conj(table_minus.coeffs[key]))
            worst = max(worst, float(gap))
        accepted += 1
    detail = "coefficients at (eps, +g) vs conjugate at (eps, -g), 100 samples"
    return checks._fields(0.0, worst, 1e-12, detail)


@pytest.mark.parametrize("seed", [1, 3, DEFAULT_SEED])
def test_mirror_conjugation_check_matches_a_point_by_point_loop(seed):
    expected = _mirror_conjugation_point_by_point(seed)
    assert checks._check_mirror_conjugation(seed) == expected


def test_ppt_samplers_run_no_eigensolver(monkeypatch):
    # Both samplers accept by the closed forms their consumer checks.
    def refuse(*args, **kwargs):
        raise AssertionError("a PPT sampler ran the eigensolver")

    monkeypatch.setattr(checks, "pt_min_eigenvalue", refuse)
    monkeypatch.setattr(checks, "hermitian_eigenvalues", refuse)
    assert len(checks._ppt_starts(np.random.default_rng(5), 300)) == 300
    assert checks._check_mirror_conjugation(5)["passed"]


def test_ppt_starts_are_accepted_as_line_starts():
    for start in checks._ppt_starts(np.random.default_rng(6), 2000).tolist():
        planes._require_ppt(start)


def _count_rows(monkeypatch, name):
    """Wrap ``checks.<name>``; return the list of row counts it was called on."""
    real, rows = getattr(checks, name), []

    def counted(p, *args):
        rows.append(len(p))
        return real(p, *args)

    monkeypatch.setattr(checks, name, counted)
    return rows


def test_spectrum_check_evaluates_the_production_closed_forms_on_every_point(monkeypatch):
    spectrum_rows = _count_rows(monkeypatch, "bell_spectrum")
    slack_rows = _count_rows(monkeypatch, "pyramid_slacks")
    assert checks._check_spectrum_pyramid(1)["passed"]
    assert sum(spectrum_rows) == sum(slack_rows) == 10_000


def test_family_states_are_block_diagonal_in_sector_order():
    # This order is what makes check 7's eigensolves cheaper; the check's
    # soundness does not rest on it, since a permutation keeps the spectrum.
    assert sorted(checks._SECTORS) == list(range(9))
    sector = [(j - i) % 3 for i, j in (divmod(k, 3) for k in checks._SECTORS)]
    off_sector = np.not_equal.outer(sector, sector)
    for block in _building_blocks():
        permuted = block.reshape(81)[checks._SECTOR_ENTRIES].reshape(9, 9)
        assert np.array_equal(permuted, block[np.ix_(checks._SECTORS, checks._SECTORS)])
        assert (permuted[off_sector] == 0).all()


def test_sector_order_spectra_match_the_computational_order():
    rng = np.random.default_rng(17)
    states = family_state(checks._box_points(rng, 256))
    permuted = states.reshape(-1, 81)[:, checks._SECTOR_ENTRIES].reshape(-1, 9, 9)
    gap = np.abs(hermitian_eigenvalues(permuted) - hermitian_eigenvalues(states))
    assert gap.max() <= 1e-14


def test_spectrum_check_fails_on_a_shifted_bell_weight(monkeypatch):
    real = checks.bell_spectrum

    def shifted(p):
        spectrum = real(p)
        spectrum.weights[(0, 0)] = spectrum.weights[(0, 0)] + 1e-6
        return spectrum

    monkeypatch.setattr(checks, "bell_spectrum", shifted)
    result = checks._check_spectrum_pyramid(1)
    assert not result["passed"]
    assert result["computed"] == pytest.approx(1e-6, abs=1e-9)

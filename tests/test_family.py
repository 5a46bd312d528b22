"""Tests for the three-parameter family: states, positivity, PT, lines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicsimplex.family import (
    FamilyPoint,
    bell_spectrum,
    family_state,
    horodecki_b_from_gamma,
    horodecki_classification,
    horodecki_gamma_from_b,
    horodecki_point,
    is_ppt,
    mirror,
    plane_point,
    pt_block_eigenvalues,
    pt_min_eigenvalue,
    pyramid_margin,
    pyramid_slacks,
)
from magicsimplex.qmat import hermitian_eigenvalues, partial_transpose
from magicsimplex.verdicts import Verdict
from magicsimplex.weyl import bell_projector

ORIGIN = FamilyPoint(0.0, 0.0, 0.0)


def test_family_state_special_points():
    assert np.allclose(family_state(ORIGIN), np.eye(9) / 9.0, atol=1e-15)
    assert np.allclose(family_state((1, 0, 0)), bell_projector(0, 0), atol=1e-14)
    mix_beta = 0.5 * (bell_projector(1, 0) + bell_projector(2, 0))
    assert np.allclose(family_state((0, 1, 0)), mix_beta, atol=1e-14)
    mix_gamma = (
        bell_projector(0, 1) + bell_projector(1, 1) + bell_projector(2, 1)
    ) / 3.0
    assert np.allclose(family_state((0, 0, 1)), mix_gamma, atol=1e-14)


def test_family_state_is_unit_trace_hermitian():
    rho = family_state((0.2, -0.1, 0.3))
    assert abs(np.trace(rho) - 1.0) <= 1e-14
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-15


def test_stacked_family_state_equals_per_point_calls():
    rows = np.random.default_rng(43).uniform((-0.5, -1.0, -1.0), (1.5, 1.0, 1.2), (64, 3))
    stack = family_state(rows)
    assert stack.shape == (64, 9, 9)
    for row, rho in zip(rows, stack):
        assert np.array_equal(rho, family_state(FamilyPoint(*row)))
    minima = pt_min_eigenvalue(rows)
    assert minima.shape == (64,)
    for row, smallest in zip(rows, minima):
        assert smallest == pt_min_eigenvalue(tuple(row))


def test_stacked_family_state_rejects_bad_rows():
    with pytest.raises(ValueError):
        family_state(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        family_state(np.array([[0.0, np.nan, 0.0]]))


def test_point_validation():
    for index, name in enumerate(FamilyPoint._fields):
        for bad in (math.nan, math.inf, -math.inf):
            coords = [0.1, -0.2, 0.3]
            coords[index] = bad
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad!r}$"):
                FamilyPoint(*coords)
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                FamilyPoint(0.1, -0.2, 0.3)._replace(**{name: bad})


def test_point_is_a_tuple():
    p = FamilyPoint(0.1, -0.2, 0.3)
    assert p == (0.1, -0.2, 0.3)
    a, b, g = p
    assert (a, b, g) == (p.alpha, p.beta, p.gamma)
    assert p.as_tuple() == (0.1, -0.2, 0.3) and type(p.as_tuple()) is tuple


def test_mirrored_point():
    rng = np.random.default_rng(41)
    for p in rng.uniform((-0.5, -1.0, -1.0), (1.5, 1.0, 1.2), size=(200, 3)):
        assert mirror(mirror(p)).as_tuple() == pytest.approx(tuple(p), abs=1e-15)
    for eps, g in rng.uniform(-0.5, 0.5, size=(200, 2)):
        image = mirror(plane_point(eps, g))
        assert image.as_tuple() == pytest.approx(plane_point(eps, -g).as_tuple(), abs=1e-15)
    # the gamma = 0 plane is fixed pointwise
    assert mirror((0.3, -0.1, 0.0)) == FamilyPoint(0.3, -0.1, 0.0)


def test_mirror_preserves_both_spectra():
    rng = np.random.default_rng(43)
    for p in rng.uniform((-0.5, -1.0, -1.0), (1.5, 1.0, 1.2), size=(2000, 3)):
        image = mirror(p)
        assert np.max(
            np.abs(
                np.array(bell_spectrum(image).sorted_values())
                - np.array(bell_spectrum(p).sorted_values())
            )
        ) <= 1e-15
        assert np.max(
            np.abs(np.array(pt_block_eigenvalues(image)) - np.array(pt_block_eigenvalues(p)))
        ) <= 1e-15


@given(
    st.floats(-0.5, 1.5),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.2),
)
@settings(max_examples=60, deadline=None)
def test_bell_spectrum_closed_form(alpha, beta, gamma):
    p = FamilyPoint(alpha, beta, gamma)
    closed = np.array(bell_spectrum(p).sorted_values())
    numeric = hermitian_eigenvalues(family_state(p))
    assert np.max(np.abs(closed - numeric)) <= 1e-10


def test_bell_spectrum_weights():
    spec = bell_spectrum((0.3, -0.1, 0.2))
    w = (1.0 - 0.3 + 0.1 - 0.2) / 9.0
    assert spec.weights[(0, 0)] == pytest.approx(w + 0.3, abs=1e-15)
    assert spec.weights[(1, 0)] == pytest.approx(w - 0.05, abs=1e-15)
    assert spec.weights[(2, 0)] == pytest.approx(w - 0.05, abs=1e-15)
    for n in range(3):
        assert spec.weights[(n, 1)] == pytest.approx(w + 0.2 / 3.0, abs=1e-15)
        assert spec.weights[(n, 2)] == pytest.approx(w, abs=1e-15)
    assert sum(spec.weights.values()) == pytest.approx(1.0, abs=1e-13)


def test_pyramid_margin_examples():
    assert pyramid_margin(ORIGIN) == pytest.approx(1.0 / 8.0, abs=1e-15)
    # any facet point has margin zero
    assert pyramid_margin(horodecki_point(1.7)) == pytest.approx(0.0, abs=1e-14)
    assert pyramid_margin((2.0, 0.0, 0.0)) < 0.0


def test_pyramid_slacks_sign():
    s = pyramid_slacks(ORIGIN)
    assert len(s) == 4
    assert min(s) == pytest.approx(1.0 / 8.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Partial transpose
# ---------------------------------------------------------------------------


def test_pt_block_spectrum_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = FamilyPoint(*rng.uniform((-0.5, -1, -1), (1.5, 1, 1.2)))
        e0, e_minus, e_plus = pt_block_eigenvalues(p)
        closed = np.sort(np.repeat([e0, e_minus, e_plus], 3))
        numeric = hermitian_eigenvalues(partial_transpose(family_state(p)))
        assert np.max(np.abs(closed - numeric)) <= 1e-10


def test_is_ppt_examples():
    assert is_ppt(ORIGIN).is_ppt
    # the pure Bell point is an extreme state and maximally NPT
    result = is_ppt((1.0, 0.0, 0.0))
    assert not result.is_ppt
    assert result.pt_min_eigenvalue == pytest.approx(-1.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError, match="not a state"):
        is_ppt((2.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Horodecki line and facet patch
# ---------------------------------------------------------------------------


def test_horodecki_point_values():
    p = horodecki_point(2.5)
    assert p.alpha == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert p.beta == pytest.approx(-5.0 / 21.0, abs=1e-15)
    assert p.gamma == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        horodecki_point(-0.01)
    with pytest.raises(ValueError):
        horodecki_point(5.01)


def test_horodecki_parameter_round_trip():
    for b in np.linspace(0.0, 5.0, 11):
        assert horodecki_b_from_gamma(horodecki_gamma_from_b(b)) == pytest.approx(
            b, abs=1e-13
        )


def test_horodecki_points_sit_on_facet():
    for b in np.linspace(0.0, 5.0, 26):
        p = horodecki_point(b)
        s1 = 7.0 * p.beta / 2.0 + 1.0 - p.gamma - p.alpha
        assert abs(s1) <= 1e-14


def test_horodecki_classification_labels():
    assert horodecki_classification(0.5) is Verdict.NPT_ENTANGLED
    assert horodecki_classification(1.5) is Verdict.BOUND_ENTANGLED
    assert horodecki_classification(2.5) is Verdict.SEPARABLE
    assert horodecki_classification(3.5) is Verdict.BOUND_ENTANGLED
    assert horodecki_classification(4.5) is Verdict.NPT_ENTANGLED
    with pytest.raises(ValueError):
        horodecki_classification(5.5)


def test_horodecki_pt_transition_at_b_one():
    # NPT just below b = 1, PPT just above
    assert pt_min_eigenvalue(horodecki_point(1.0 - 1e-4)) < -1e-8
    assert pt_min_eigenvalue(horodecki_point(1.0 + 1e-4)) > -1e-12
    assert abs(pt_min_eigenvalue(horodecki_point(1.0))) <= 1e-12


def test_plane_point_closure_and_line():
    rng = np.random.default_rng(31)
    for _ in range(40):
        eps, g = rng.uniform(-0.5, 0.5, size=2)
        p = plane_point(eps, g)
        s1 = 7.0 * p.beta / 2.0 + 1.0 - p.gamma - p.alpha
        assert abs(s1) <= 1e-14
    for b in np.linspace(0.0, 5.0, 9):
        line = horodecki_point(b)
        patch = plane_point(0.0, horodecki_gamma_from_b(b))
        assert patch.alpha == pytest.approx(line.alpha, abs=1e-14)
        assert patch.beta == pytest.approx(line.beta, abs=1e-14)


def test_plane_tip_is_pure_limit():
    # epsilon = -1/4, gamma = 1/4 pins the facet corner used by the
    # endpoint witness; its state is PPT with unit closed-form parameter.
    p = plane_point(-0.25, 0.25)
    assert is_ppt(p).is_ppt
    assert pyramid_margin(p) >= -1e-15


def test_gamma_from_b_endpoints():
    assert horodecki_gamma_from_b(0.0) == pytest.approx(5.0 / 7.0)
    assert horodecki_gamma_from_b(2.5) == pytest.approx(0.0)
    assert horodecki_gamma_from_b(5.0) == pytest.approx(-5.0 / 7.0)

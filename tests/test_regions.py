"""Region machinery tests: facet curves, polytope, classifier, scans."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicsimplex import planes, regions
from magicsimplex.checks import CheckResult
from magicsimplex.family import (
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    horodecki_b_from_gamma,
    horodecki_point,
    pt_block_eigenvalues,
    pt_min_eigenvalue,
    pyramid_margin,
)
from magicsimplex.regions import (
    CSV_HEADER,
    DETECTION_TOL,
    FACET_DOMAIN,
    MEMBERSHIP_TOL,
    Classification,
    build_polygon,
    classify,
    grid_points,
    l_a,
    l_b,
    parse_grid,
    plane_grid_points,
    scan,
)
from magicsimplex.planes import witness_planes
from magicsimplex.verdicts import Verdict
from magicsimplex.witness import deployed_witnesses


def boundary_plane_region(gamma: float, beta: float) -> Classification:
    """Closed-form classification of a point on the positivity facet.

    Equivalent to :func:`classify` at ``alpha = 7 beta / 2 + 1 - gamma``
    but with every decision taken from the two facet curves instead of
    the pipeline.  Points the curves don't cover (mirrored side below the
    cone) are honestly ``Undetermined``, exactly like the pipeline.
    """
    pt = FamilyPoint(7.0 * beta / 2.0 + 1.0 - gamma, beta, gamma)
    margin = pyramid_margin(pt)
    if margin < STATE_TOL:
        return Classification(pt, Verdict.NOT_A_STATE, margin)
    ceiling = l_a(gamma)
    cone = l_b(gamma) if abs(gamma) <= FACET_DOMAIN else None
    if 0.0 <= gamma <= 1.0 and beta <= ceiling:
        return Classification(pt, Verdict.SEPARABLE, margin)
    if cone is not None and beta > cone:
        return Classification(pt, Verdict.NPT_ENTANGLED, margin)
    if 0.0 < gamma < 1.0 and cone is not None and ceiling < beta <= cone:
        return Classification(pt, Verdict.BOUND_ENTANGLED, margin)
    return Classification(pt, Verdict.UNDETERMINED, margin)


# ---------------------------------------------------------------------------
# Facet curves
# ---------------------------------------------------------------------------


def test_curve_values():
    assert l_a(0.0) == pytest.approx(-2.0 / 9.0, abs=1e-15)
    assert l_a(1.0) == pytest.approx(0.0, abs=1e-15)
    assert l_b(0.0) == pytest.approx(-2.0 / 9.0, abs=1e-15)
    assert l_b(1.0) == pytest.approx(0.0, abs=1e-15)


def test_curve_crossings_are_exact():
    assert abs(l_a(0.0) - l_b(0.0)) <= 1e-12
    assert abs(l_a(1.0) - l_b(1.0)) <= 1e-12


def test_strip_orientation():
    for g in np.linspace(0.05, 0.95, 19):
        assert l_a(g) < l_b(g)


def test_cone_trace_domain():
    limit = 2.0 / np.sqrt(3.0)
    l_b(limit - 1e-12)  # fine
    with pytest.raises(ValueError, match="undefined"):
        l_b(limit + 1e-9)


def test_cone_trace_is_finite_at_its_domain_edge():
    # 4 - 3 gamma^2 rounds to -8.9e-16 at gamma = FACET_DOMAIN.
    for gamma in (FACET_DOMAIN, -FACET_DOMAIN):
        assert np.isfinite(l_b(gamma))
        assert l_b(gamma) == (3.0 * gamma - 4.0) / 9.0


# ---------------------------------------------------------------------------
# Separable polytope
# ---------------------------------------------------------------------------


def test_trapezoid_corners_match_closed_forms(probed_slice_corners):
    want = {
        (-1.0 / 6.0, -1.0 / 3.0),
        (2.0 / 9.0, -2.0 / 9.0),
        (1.0 / 3.0, 2.0 / 3.0),
        (-1.0 / 12.0, 1.0 / 3.0),
    }
    got = probed_slice_corners
    assert len(got) == 4
    for a, b in got:
        assert any(
            abs(a - wa) <= 1e-6 and abs(b - wb) <= 1e-6 for wa, wb in want
        ), (a, b)


def test_polygon_membership_examples():
    assert classify(FamilyPoint(0.0, 0.0, 0.0)).polygon_member is True
    assert classify(FamilyPoint(0.0, 0.0, 1.0)).polygon_member is True  # a vertex
    assert classify(FamilyPoint(0.0, 0.0, -0.2)).polygon_member is False  # below it
    assert classify(FamilyPoint(1.0, 0.0, 0.0)).polygon_member is None  # NPT point


def test_polygon_vertices_are_ppt_states():
    poly = build_polygon()
    for v in poly.vertices:
        assert pt_min_eigenvalue(v) >= PPT_TOL


def test_polygon_rejects_a_slightly_npt_corner(monkeypatch):
    # A state 1e-8 inside the positivity facet but NPT by about 2e-9: the
    # classifier calls it NptEntangled, so the polytope must not certify it.
    good = (1.0 / 3.0, 2.0 / 3.0)
    bad = (good[0] - 1e-8, good[1])
    p = FamilyPoint(*bad, 0.0)
    assert pyramid_margin(p) >= 0.0
    assert -1e-6 < pt_min_eigenvalue(p) < -1e-10
    corners = tuple(bad if c == good else c for c in regions.SLICE_CORNERS)
    assert bad in corners
    monkeypatch.setattr(regions, "SLICE_CORNERS", corners)
    build_polygon.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="NPT"):
            build_polygon()
    finally:
        build_polygon.cache_clear()


def test_polygon_rejects_a_corner_npt_within_rounding(monkeypatch):
    # NPT by only 2.2e-14, far inside PPT_TOL: the vertex certificate is
    # exact, so no rounding band lets this corner in.
    good = (1.0 / 3.0, 2.0 / 3.0)
    bad = (good[0] - 1e-13, good[1])
    p = FamilyPoint(*bad, 0.0)
    assert pyramid_margin(p) >= 0.0
    assert PPT_TOL < pt_min_eigenvalue(p) < 0.0
    corners = tuple(bad if c == good else c for c in regions.SLICE_CORNERS)
    monkeypatch.setattr(regions, "SLICE_CORNERS", corners)
    build_polygon.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="NPT"):
            build_polygon()
    finally:
        build_polygon.cache_clear()


def test_polygon_subset_of_ppt():
    # random convex combinations of the vertices must pass the PT oracle
    poly = build_polygon()
    pts = poly.vertex_array()
    rng = np.random.default_rng(23)
    weights = rng.dirichlet(np.ones(len(pts)), size=2000)
    worst = 0.0
    for wvec in weights:
        a, b, g = wvec @ pts
        worst = min(worst, pt_min_eigenvalue(FamilyPoint(a, b, g)))
    assert worst >= -1e-8


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def test_classify_examples():
    assert classify((0.0, 0.0, 0.0)).verdict is Verdict.SEPARABLE
    assert classify((1.0, 0.0, 0.0)).verdict is Verdict.NPT_ENTANGLED
    assert classify((2.0, 0.0, 0.0)).verdict is Verdict.NOT_A_STATE
    assert classify(horodecki_point(1.5)).verdict is Verdict.BOUND_ENTANGLED


def test_classify_records_evidence():
    row = classify(horodecki_point(1.5))
    assert row.pt_min_eig >= -1e-10
    assert row.witness_value < -1e-10
    assert row.witness_name in {"Pl1", "Pl1m", "Pl2", "Pl2m", "Pl3", "Pl3m"}
    assert row.polygon_member is None  # pipeline stopped at the witness stage


def test_classify_soundness_layers():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = FamilyPoint(*rng.uniform((-0.5, -1, -1), (1.5, 1, 1.2)))
        row = classify(p)
        if row.verdict is Verdict.BOUND_ENTANGLED:
            assert row.pt_min_eig >= -1e-10
        if row.verdict is Verdict.SEPARABLE:
            assert row.polygon_member is True
            assert row.pt_min_eig >= -1e-8
        if row.verdict is Verdict.NOT_A_STATE:
            assert row.pt_min_eig is None


def test_classify_leaves_the_witness_oracle_unbuilt():
    points = {
        Verdict.NOT_A_STATE: (2.0, 0.0, 0.0),
        Verdict.NPT_ENTANGLED: (1.0, 0.0, 0.0),
        Verdict.BOUND_ENTANGLED: horodecki_point(1.5),
        Verdict.SEPARABLE: (0.0, 0.0, 0.0),
        Verdict.UNDETERMINED: horodecki_point(2.75),
    }
    deployed_witnesses.cache_clear()
    for verdict, p in points.items():
        assert classify(p).verdict is verdict
    assert deployed_witnesses.cache_info().currsize == 0


def test_csv_row_shapes():
    full = classify(horodecki_point(2.5)).csv_row()
    assert full.count(",") == CSV_HEADER.count(",")
    empty_tail = classify((2.0, 0.0, 0.0)).csv_row()
    assert empty_tail.endswith(",NotAState,,,,")


# ---------------------------------------------------------------------------
# Closed-form facet region vs pipeline
# ---------------------------------------------------------------------------


def test_boundary_plane_region_examples():
    g = 0.5
    mid = 0.5 * (l_a(g) + l_b(g))
    assert boundary_plane_region(g, mid).verdict is Verdict.BOUND_ENTANGLED
    g = 2.0 / 7.0
    assert boundary_plane_region(g, l_a(g) - 0.02).verdict is Verdict.SEPARABLE
    horo = horodecki_point(horodecki_b_from_gamma(0.5))
    assert boundary_plane_region(0.5, horo.beta).verdict is Verdict.NPT_ENTANGLED


def test_facet_agreement_with_pipeline():
    # on a seeded facet sample, the closed-form region and the matrix
    # pipeline must agree wherever both commit to a verdict; points
    # strictly between the curves must come out BoundEntangled
    rng = np.random.default_rng(37)
    strict_checked = 0
    for _ in range(1000):
        g = float(rng.uniform(0.0, 1.0))
        b = float(rng.uniform(-1.0 / 3.0, 0.1))
        analytic = boundary_plane_region(g, b)
        piped = classify(analytic.point)
        if analytic.verdict is Verdict.UNDETERMINED:
            continue
        assert piped.verdict is analytic.verdict, (g, b)
        if l_a(g) + 1e-6 < b < l_b(g) - 1e-6:
            strict_checked += 1
            assert piped.verdict is Verdict.BOUND_ENTANGLED
    assert strict_checked >= 30  # the strip was actually sampled


def test_horodecki_segments_are_contiguous():
    # walk the gamma >= 0 half of the line; verdicts must change exactly
    # twice: NPT -> Bound at gamma = 3/7, Bound -> Separable at 1/7
    gammas = np.arange(0.0, 5.0 / 7.0, 0.005)
    verdicts = [
        classify(horodecki_point(horodecki_b_from_gamma(g))).verdict for g in gammas
    ]
    changes = [
        (gammas[i], verdicts[i - 1], verdicts[i])
        for i in range(1, len(verdicts))
        if verdicts[i] != verdicts[i - 1]
    ]
    assert len(changes) == 2
    first, second = changes
    assert first[1] is Verdict.SEPARABLE and first[2] is Verdict.BOUND_ENTANGLED
    assert abs(first[0] - 1.0 / 7.0) <= 0.005 + 1e-3
    assert second[1] is Verdict.BOUND_ENTANGLED and second[2] is Verdict.NPT_ENTANGLED
    assert abs(second[0] - 3.0 / 7.0) <= 0.005 + 1e-3


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


def test_parse_grid():
    assert parse_grid("0:1:0.25") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert parse_grid("0.3") == [0.3]
    with pytest.raises(ValueError):
        parse_grid("1:0:0.1")
    with pytest.raises(ValueError):
        parse_grid("0:1:0")
    with pytest.raises(ValueError):
        parse_grid("0:1")


def test_grid_never_overshoots_its_upper_bound():
    steps = ("0.01", "0.02", "0.05", "0.1", "0.2", "0.25", "0.3", "0.7")
    specs = [f"{k / 10}:5:{step}" for k in range(50) for step in steps]
    assert len(specs) == 400
    over = [spec for spec in specs if max(parse_grid(spec)) > 5.0]
    assert over == []
    assert parse_grid("0.2:5:0.2")[-1] == 5.0


def test_grid_size_is_capped_before_expansion():
    with pytest.raises(ValueError, match="points"):
        parse_grid("0:1:1e-12")
    # each axis is small, the product is not
    with pytest.raises(ValueError, match="points"):
        grid_points("0:1:0.001", "0:1:0.001", "0:1:0.001")
    with pytest.raises(ValueError, match="points"):
        plane_grid_points("0:1:1e-4", "0:1:1e-4")
    with pytest.raises(ValueError, match="finite"):
        parse_grid("0:inf:1")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_single_value_grid_spec_must_be_finite(value):
    with pytest.raises(ValueError, match=rf"^grid spec must be finite, got '{value}'$"):
        parse_grid(value)
    with pytest.raises(ValueError, match="finite"):
        plane_grid_points("0:1:0.5", value)


def test_grid_points_order():
    pts = grid_points("0:1:1", "0:0:1", "0:1:1")
    assert [p.as_tuple() for p in pts] == [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),
    ]


def test_scan_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        scan([])


def test_scan_counts():
    result = scan([FamilyPoint(0, 0, 0), FamilyPoint(2, 0, 0)])
    assert result.counts() == {"Separable": 1, "NotAState": 1}
    lines = list(result.csv_lines())
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def _bits(value):
    """A field as something ``==`` compares bit for bit (floats by their hex)."""
    if isinstance(value, float):
        return (float, value.hex())
    if isinstance(value, tuple):
        return (type(value), tuple(_bits(v) for v in value))
    return (type(value), value)


def test_scan_rows_equal_classify_bit_for_bit():
    rng = np.random.default_rng(53)
    box = rng.uniform((-0.5, -1.0, -1.0), (1.5, 1.0, 1.2), size=(3000, 3))
    gamma = rng.uniform(-1.0, 1.0, 1000)
    beta = rng.uniform(-0.35, 0.05, 1000)
    facet = np.column_stack([3.5 * beta + 1.0 - gamma, beta, gamma])
    probes = [horodecki_point(k + s * 1e-9) for k in (1, 2, 3, 4) for s in (-1, 1)]
    rows = [tuple(r) for r in np.vstack([box, facet]).tolist()]
    # tuples and FamilyPoints alternate, so both input forms are covered
    points = [FamilyPoint(*r) if i % 2 else r for i, r in enumerate(rows)] + probes
    scanned = scan(points).rows
    assert {row.verdict for row in scanned} == set(Verdict)
    assert len(scanned) == len(points)
    for p, row in zip(points, scanned):
        single = classify(p)
        assert type(row.point) is FamilyPoint
        for field in Classification._fields:
            assert _bits(getattr(row, field)) == _bits(getattr(single, field)), (p, field)


def test_records_refuse_attribute_assignment():
    row = classify(horodecki_point(2.5))
    records = [
        (row.point, "alpha"),
        (row, "verdict"),
        (witness_planes()[0][1], "offset"),
        (build_polygon(), "halfspaces"),
        (scan([horodecki_point(2.5)]), "rows"),
        (CheckResult(4, "facet-curve-crossings", 0.0, 0.0, 1e-12, True), "passed"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0


def test_classify_reads_a_rebuilt_witness_table(monkeypatch):
    # The loop keeps no copy of the plane table: once the cache is cleared
    # and rebuilt from renamed lines, classify and scan report the new names.
    original = planes._battery_lines
    point = horodecki_point(1.5)
    before = classify(point).witness_name
    monkeypatch.setattr(
        planes,
        "_battery_lines",
        lambda: ((name + "x", start, onset) for name, start, onset in original()),
    )
    witness_planes.cache_clear()
    try:
        assert classify(point).witness_name == before + "x"
        assert scan([point]).rows[0].witness_name == before + "x"
    finally:
        monkeypatch.undo()
        witness_planes.cache_clear()
    assert classify(point).witness_name == before


# ---------------------------------------------------------------------------
# The loop's inline closed forms, pinned to the family functions
# ---------------------------------------------------------------------------


def _reference_row(p) -> Classification:
    """The row of ``p`` from the public closed forms, with nothing inlined."""
    pt = p if isinstance(p, FamilyPoint) else FamilyPoint(*p)
    margin = pyramid_margin(pt)
    if margin < STATE_TOL:
        return Classification(pt, Verdict.NOT_A_STATE, margin)
    pt_eig = float(min(pt_block_eigenvalues(pt)))
    if pt_eig < PPT_TOL:
        return Classification(pt, Verdict.NPT_ENTANGLED, margin, pt_eig)
    a, b, g = pt
    name = value = None
    for plane_name, plane in witness_planes():
        v = plane.trace_scale * (
            a - (plane.beta_coeff * b + plane.gamma_coeff * g + plane.offset)
        )
        if value is None or v < value:
            name, value = plane_name, v
    if value < DETECTION_TOL:
        return Classification(pt, Verdict.BOUND_ENTANGLED, margin, pt_eig, name, value)
    excess = [na * a + nb * b + ng * g - c for na, nb, ng, c in build_polygon().halfspaces]
    member = max(excess) <= MEMBERSHIP_TOL
    verdict = Verdict.SEPARABLE if member else Verdict.UNDETERMINED
    return Classification(pt, verdict, margin, pt_eig, name, value, member)


def _assert_pinned(points) -> list[Classification]:
    rows = regions._classify_rows(points)
    assert len(rows) == len(points)
    for p, row in zip(points, rows):
        assert type(row.point) is FamilyPoint, p
        # repr prints every float round-trip exactly, -0.0 included
        assert repr(row) == repr(_reference_row(p)), p
    return rows


def _membership_edge_points() -> list[tuple[float, float, float]]:
    """Points just outside the polytope faces that bound no positivity facet.

    Each face centroid is pushed along the outward normal by 0.5, 1 and 2
    times ``MEMBERSHIP_TOL``; the faces on a pyramid facet are skipped,
    since pushing out of them leaves the state space.
    """
    poly = build_polygon()
    points = []
    for na, nb, ng, c in poly.halfspaces:
        on = [(a, b, g) for a, b, g in poly.vertices if abs(na * a + nb * b + ng * g - c) <= 1e-12]
        centroid = [sum(axis) / len(on) for axis in zip(*on)]
        if pyramid_margin(FamilyPoint(*centroid)) < 0.1:
            continue
        for k in (0.5, 1.0, 2.0):
            t = k * MEMBERSHIP_TOL
            points.append(tuple(x + t * n for x, n in zip(centroid, (na, nb, ng))))
    return points


def test_loop_rows_are_the_family_closed_forms_bit_for_bit():
    box = np.random.default_rng(12345).uniform((-0.5, -1, -1), (1.5, 1, 1.2), size=(20000, 3))
    facet = plane_grid_points("0:1:0.01", "-0.35:0.05:0.01")
    probes = [horodecki_point(k + s * 1e-9) for k in (1, 2, 3, 4) for s in (-1, 1)]
    edge = _membership_edge_points()
    points = [tuple(r) for r in box.tolist()] + facet + probes + edge
    rows = _assert_pinned(points)
    assert {row.verdict for row in rows} == set(Verdict)
    # within MEMBERSHIP_TOL of a face is inside, twice it is not
    edge_verdicts = [row.verdict for row in rows[-len(edge):]]
    inside, outside = Verdict.SEPARABLE, Verdict.UNDETERMINED
    assert edge_verdicts == [inside, inside, outside] * 3


def test_witness_ties_keep_battery_order():
    # At gamma = 0 the Pl3 and Pl3m planes differ only in gamma_coeff, so
    # every stage-3 value ties exactly; the first in battery order wins.
    pl3, pl3m = (plane for name, plane in witness_planes() if name in ("Pl3", "Pl3m"))
    assert (pl3.beta_coeff, pl3.offset, pl3.trace_scale) == (
        pl3m.beta_coeff, pl3m.offset, pl3m.trace_scale
    )
    points = plane_grid_points("0", "-0.35:0.05:0.01")
    points += [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.05, -0.02, 0.0)]
    rows = [row for row in map(classify, points) if row.witness_name is not None]
    assert len(rows) == 14
    nb, ng, c, k = pl3m
    for row in rows:
        a, b, g = row.point
        tied = k * (a - (nb * b + ng * g + c))
        assert _bits(tied) == _bits(row.witness_value), row
        assert row.witness_name == "Pl3", row


@given(st.tuples(*[st.floats(-1e308, 1e308)] * 3))
@example((1e308, 1e308, 0.0))  # slacks overflow to -inf
@example((-1e308, -1e308, 1e308))  # and to +inf
@example((-0.0, -0.0, -0.0))
@settings(max_examples=300, deadline=None)
def test_loop_rows_are_pinned_at_any_finite_coordinates(p):
    _assert_pinned([p])


# ---------------------------------------------------------------------------
# Input contract of classify and scan
# ---------------------------------------------------------------------------


def _both(p):
    """``classify(p)`` and the one-row ``scan([p])``, which must agree."""
    single = classify(p)
    assert scan([p]).rows == [single]
    return single


@pytest.mark.parametrize("bad", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)])
def test_wrong_length_points_raise_type_error(bad):
    with pytest.raises(TypeError):
        classify(bad)
    with pytest.raises(TypeError):
        scan([(0.0, 0.0, 0.0), bad])


def test_non_finite_coordinates_raise_value_error():
    for index, name in enumerate(FamilyPoint._fields):
        for bad in (math.nan, math.inf, -math.inf):
            coords = [0.1, -0.2, 0.3]
            coords[index] = bad
            message = rf"^{name} must be finite, got {bad!r}$"
            for p in (tuple(coords), coords):
                with pytest.raises(ValueError, match=message):
                    classify(p)
                with pytest.raises(ValueError, match=message):
                    scan([(0.0, 0.0, 0.0), p])


def test_list_and_generator_inputs():
    coords = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), horodecki_point(1.5)]
    expected = [classify(tuple(c)) for c in coords]
    assert [_both(list(c)) for c in coords] == expected
    assert scan(list(c) for c in coords).rows == expected
    assert scan(tuple(c) for c in coords).rows == expected
    assert regions._classify_rows(iter(coords)) == expected


def test_family_point_subclass_comes_back_as_the_same_object():
    class Labelled(FamilyPoint):
        __slots__ = ()

    p = Labelled(*horodecki_point(1.5))
    assert classify(p).point is p
    assert scan([p, (0.0, 0.0, 0.0)]).rows[0].point is p
    assert classify(p) == classify(tuple(p))


def test_integer_coordinates_give_the_row_of_their_float_values():
    points = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0)]
    for p in points:
        row, floats = _both(p), _both(tuple(float(x) for x in p))
        assert row == floats, p
        assert row.csv_row() == floats.csv_row(), p

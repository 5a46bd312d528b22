"""Region machinery tests: facet curves, polytope, classifier, scans."""

import ast
import gc
import inspect
import itertools
import math
import textwrap
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicsimplex import planes, regions, weyl
from magicsimplex.checks import CheckResult
from magicsimplex.cli import CSV_HEADER, csv_row, format_number
from magicsimplex.family import (
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    family_state,
    horodecki_b_from_gamma,
    horodecki_point,
    pt_block_eigenvalues,
    pt_min_eigenvalue,
    pyramid_margin,
    pyramid_slacks,
)
from magicsimplex.regions import (
    DETECTION_TOL,
    FACET_DOMAIN,
    MEMBERSHIP_TOL,
    Classification,
    build_polygon,
    classify,
    l_a,
    l_b,
    parse_grid,
    plane_grid_points,
    scan,
)
from magicsimplex.planes import PlaneCoefficients, witness_planes
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
        return Classification(*pt, Verdict.NOT_A_STATE, margin)
    ceiling = l_a(gamma)
    cone = l_b(gamma) if abs(gamma) <= FACET_DOMAIN else None
    if 0.0 <= gamma <= 1.0 and beta <= ceiling:
        return Classification(*pt, Verdict.SEPARABLE, margin)
    if cone is not None and beta > cone:
        return Classification(*pt, Verdict.NPT_ENTANGLED, margin)
    if 0.0 < gamma < 1.0 and cone is not None and ceiling < beta <= cone:
        return Classification(*pt, Verdict.BOUND_ENTANGLED, margin)
    return Classification(*pt, Verdict.UNDETERMINED, margin)


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


def _local_average(rho: np.ndarray) -> np.ndarray:
    """Average over W(n, m) (x) conj(W(n, m)), the shears and complex conjugation."""
    w = np.exp(2j * np.pi / 3)
    total = np.zeros((9, 9), dtype=complex)
    for s in range(3):
        shear = np.diag([1.0, w**s, w**s])
        for n in range(3):
            for m in range(3):
                u = weyl.weyl_operator(n, m) @ shear
                uu = np.kron(u, u.conj())
                total += uu @ rho @ uu.conj().T
    total /= 27
    return (total + total.conj()) / 2


def _bell_image(a, b) -> np.ndarray:
    """Family point of the normalised ``a (x) b`` from its nine Bell weights."""
    v = np.kron(a, b) / np.linalg.norm(np.kron(a, b))
    p = {
        (n, m): v @ weyl.bell_projector(n, m).real @ v for n in range(3) for m in range(3)
    }
    q = [sum(p[n, m] for n in range(3)) for m in range(3)]
    return np.array([p[0, 0] - q[2] / 3, q[0] - p[0, 0] - 2 * q[2] / 3, q[1] - q[2]])


def test_product_image_matches_the_bell_weights():
    rng = np.random.default_rng(29)
    pairs = 0
    while pairs < 500:
        a, b = (tuple(int(x) for x in rng.integers(-3, 4, 3)) for _ in range(2))
        if not any(a) or not any(b):
            continue
        num, den = regions._product_image(a, b)
        image = np.array(num) / den
        assert np.abs(image - _bell_image(a, b)).max() <= 1e-15, (a, b)
        pairs += 1


@pytest.mark.parametrize("a, b", regions._PRODUCT_STATES)
def test_local_average_of_each_product_state_is_its_vertex(a, b):
    v = np.kron(a, b) / np.linalg.norm(np.kron(a, b))
    num, den = regions._product_image(a, b)
    vertex = tuple(x / den for x in num)
    assert vertex in build_polygon().vertices
    gap = np.abs(_local_average(np.outer(v, v)) - family_state(vertex)).max()
    assert gap <= 1e-15


@pytest.mark.parametrize("index", range(5))
def test_polygon_rejects_a_product_state_below_gamma_zero(monkeypatch, index):
    # |0>|2> maps to (-1/3, -2/3, -1): separable, but outside gamma >= 0.
    assert regions._product_image((1, 0, 0), (0, 0, 1)) == ((-1, -2, -3), 3)
    states = list(regions._PRODUCT_STATES)
    states[index] = ((1, 0, 0), (0, 0, 1))
    monkeypatch.setattr(regions, "_PRODUCT_STATES", tuple(states))
    build_polygon.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not a face"):
            build_polygon()
    finally:
        build_polygon.cache_clear()


#: The polytope's two positivity facets as integer rows, inside where
#: ``n . p <= offset``: ``-2 s1 <= 0`` and ``-8 s4 <= 0``.  With
#: ``regions._FACET_ROWS`` they are its five facets.
POSITIVITY_ROWS = ((2, -7, 2, 2), (-8, 1, 1, 1))


def _det(m) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_positivity_rows_are_the_scaled_slacks():
    # Affine maps that agree on four affinely independent points are equal.
    for p in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        a, b, g = (Fraction(x) for x in p)
        s1, _, _, s4 = pyramid_slacks((a, b, g))
        (n1a, n1b, n1g, c1), (n4a, n4b, n4g, c4) = POSITIVITY_ROWS
        assert n1a * a + n1b * b + n1g * g - c1 == -2 * s1
        assert n4a * a + n4b * b + n4g * g - c4 == -8 * s4


def test_facet_rows_cut_out_exactly_the_five_vertices():
    # Every vertex of {n . p <= offset for the five rows} is a triple
    # intersection of their planes that satisfies all five, in Fraction.
    rows = regions._FACET_ROWS + POSITIVITY_ROWS
    corners = set()
    for triple in itertools.combinations(rows, 3):
        normals = [[Fraction(x) for x in row[:3]] for row in triple]
        offsets = [Fraction(row[3]) for row in triple]
        det = _det(normals)
        if det == 0:
            continue
        point = tuple(
            _det([n[:k] + [c] + n[k + 1:] for n, c in zip(normals, offsets)]) / det
            for k in range(3)
        )
        if all(sum(n * x for n, x in zip(row[:3], point)) <= row[3] for row in rows):
            corners.add(point)
    F = Fraction
    assert corners == {
        (F(-1, 6), F(-1, 3), F(0)),
        (F(2, 9), F(-2, 9), F(0)),
        (F(1, 3), F(2, 3), F(0)),
        (F(-1, 12), F(1, 3), F(0)),
        (F(0), F(0), F(1)),
    }
    # Both ways: the product states map onto exactly these corners, and the
    # build's vertices are their correctly rounded floats.
    images = [regions._product_image(a, b) for a, b in regions._PRODUCT_STATES]
    exact = [tuple(F(x, den) for x in num) for num, den in images]
    assert len(exact) == 5 and set(exact) == corners
    assert build_polygon().vertices == tuple(tuple(map(float, c)) for c in exact)


@pytest.mark.parametrize("offset", [2.001, 1.999])
def test_polygon_rejects_a_facet_row_off_its_vertices(monkeypatch, offset):
    # 2.001 leaves every vertex strictly inside the row; 1.999 cuts three.
    rows = tuple((8, -1, 2, offset) if r == (8, -1, 2, 2) else r for r in regions._FACET_ROWS)
    assert rows != regions._FACET_ROWS
    monkeypatch.setattr(regions, "_FACET_ROWS", rows)
    build_polygon.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not a face"):
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
    full = csv_row(classify(horodecki_point(2.5)))
    assert full.count(",") == CSV_HEADER.count(",")
    empty_tail = csv_row(classify((2.0, 0.0, 0.0)))
    assert empty_tail.endswith(",NotAState,,,,")


def test_csv_row_prints_each_cell_as_format_number_does():
    # The row writer's templates match format_number on every exit stage,
    # -0.0 coordinates included.
    points = _box_points(3000, 9) + [(-0.0, -0.0, 0.25), horodecki_point(2.75)]
    rows = scan(points).rows
    assert {row.verdict for row in rows} == set(Verdict)
    for row in rows:
        cells = (*row[:3], row.verdict.value, row.pt_min_eig)
        cells += (row.witness_name, row.witness_value, row.polygon_member)
        assert csv_row(row) == ",".join(map(format_number, cells)), row


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
        piped = classify(analytic[:3])
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


def test_a_grid_whose_range_overflows_keeps_its_count():
    # hi - lo overflows to inf, yet the grid has three points.
    assert parse_grid("-1e308:1e308:1e308") == [-1e308, 0.0, 1e308]
    with pytest.raises(ValueError, match="more than"):
        parse_grid("-1e308:1e308:1e300")
    # both quotients overflow too: far more points than the cap
    with pytest.raises(ValueError, match="more than"):
        parse_grid("1e300:1e308:1e-10")


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
        regions._grid(("0:1:0.001", "0:1:0.001", "0:1:0.001"))
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
    # Both grids yield plain tuples: box alpha outermost, facet gamma outermost.
    box = list(regions._grid(("0:1:1", "0:0:1", "0:1:1"))[1])
    assert box == [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),
    ]
    facet = plane_grid_points("0:1:1", "-0.5:0:0.5")
    assert facet == [(-0.75, -0.5, 0.0), (1.0, 0.0, 0.0), (-1.75, -0.5, 1.0), (0.0, 0.0, 1.0)]
    assert {type(p) for p in box + facet} == {tuple}


def test_scan_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        scan([])


def test_scan_counts():
    result = scan([FamilyPoint(0, 0, 0), FamilyPoint(2, 0, 0)])
    assert result.counts() == {"Separable": 1, "NotAState": 1}
    assert [csv_row(row).split(",")[3] for row in result.rows] == ["Separable", "NotAState"]


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
        for field in Classification._fields:
            assert _bits(getattr(row, field)) == _bits(getattr(single, field)), (p, field)


def test_records_refuse_attribute_assignment():
    row = classify(horodecki_point(2.5))
    w = deployed_witnesses()[0]
    records = [
        (horodecki_point(2.5), "alpha"),
        (row, "verdict"),
        (witness_planes()[0], "offset"),
        (build_polygon(), "halfspaces"),
        (scan([horodecki_point(2.5)]), "rows"),
        (CheckResult(4, "facet-curve-crossings", 0.0, 0.0, 1e-12, True), "passed"),
        (w, "plane"),
        (w.candidate, "status"),
        (w.candidate.coeffs, "residual"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0


def test_witness_planes_are_plain_rows_in_battery_order():
    # Stage 3 unpacks each plane in place, which CPython specialises only
    # for an exact tuple.
    rows = witness_planes()
    assert [row[0] for row in rows] == ["Pl1", "Pl1m", "Pl2", "Pl2m", "Pl3", "Pl3m"]
    for row in rows:
        assert type(row) is tuple and len(row) == 5, row
        assert type(row[0]) is str and all(type(x) is float for x in row[1:]), row


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


#: :data:`POSITIVITY_ROWS` with unit normals, as in ``SeparablePolygon.halfspaces``.
POSITIVITY_HALFSPACES = tuple(
    tuple(x / math.hypot(*row[:3]) for x in row) for row in POSITIVITY_ROWS
)


def _reference_row(p) -> Classification:
    """The row of ``p`` from the public closed forms, with nothing inlined.

    Stage 4 tests all five facets of the polytope: the three rows the loop
    reads and the two positivity facets it leaves to stage 1.
    """
    pt = p if isinstance(p, FamilyPoint) else FamilyPoint(*p)
    margin = pyramid_margin(pt)
    if margin < STATE_TOL:
        return Classification(*pt, Verdict.NOT_A_STATE, margin)
    pt_eig = float(min(pt_block_eigenvalues(pt)))
    if pt_eig < PPT_TOL:
        return Classification(*pt, Verdict.NPT_ENTANGLED, margin, pt_eig)
    a, b, g = pt
    name = value = None
    for plane_name, *fields in witness_planes():
        plane = PlaneCoefficients(*fields)
        v = plane.trace_scale * (
            a - (plane.beta_coeff * b + plane.gamma_coeff * g + plane.offset)
        )
        if value is None or v < value:
            name, value = plane_name, v
    if value < DETECTION_TOL:
        return Classification(*pt, Verdict.BOUND_ENTANGLED, margin, pt_eig, name, value)
    facets = build_polygon().halfspaces + POSITIVITY_HALFSPACES
    excess = [na * a + nb * b + ng * g - c for na, nb, ng, c in facets]
    member = max(excess) <= MEMBERSHIP_TOL
    verdict = Verdict.SEPARABLE if member else Verdict.UNDETERMINED
    return Classification(*pt, verdict, margin, pt_eig, name, value, member)


def _assert_pinned(points) -> list[Classification]:
    rows = regions._classify_rows(points)
    assert len(rows) == len(points)
    for p, row in zip(points, rows):
        # repr prints every float round-trip exactly, -0.0 included
        assert repr(row) == repr(_reference_row(p)), p
    return rows


def _membership_edge_points() -> list[tuple[float, float, float]]:
    """Points just outside the polytope's three faces that are not positivity facets.

    Each face centroid is pushed along the outward normal by 0.5, 1 and 2
    times ``MEMBERSHIP_TOL``.
    """
    poly = build_polygon()
    points = []
    for na, nb, ng, c in poly.halfspaces:
        on = [(a, b, g) for a, b, g in poly.vertices if abs(na * a + nb * b + ng * g - c) <= 1e-12]
        centroid = [sum(axis) / len(on) for axis in zip(*on)]
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
    pl3, pl3m = (
        PlaneCoefficients(*plane) for name, *plane in witness_planes() if name in ("Pl3", "Pl3m")
    )
    assert (pl3.beta_coeff, pl3.offset, pl3.trace_scale) == (
        pl3m.beta_coeff, pl3m.offset, pl3m.trace_scale
    )
    points = plane_grid_points("0", "-0.35:0.05:0.01")
    points += [(0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (0.05, -0.02, 0.0)]
    rows = [row for row in map(classify, points) if row.witness_name is not None]
    assert len(rows) == 14
    nb, ng, c, k = pl3m
    for row in rows:
        a, b, g = row[:3]
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


def test_a_row_keeps_the_coordinates_not_the_input_object():
    # A row's first three fields are the input's coordinates, whatever held
    # them: a tuple, a list, a FamilyPoint or a subclass of it.
    class Labelled(FamilyPoint):
        __slots__ = ()

    coords = horodecki_point(1.5)
    for p in (tuple(coords), list(coords), FamilyPoint(*coords), Labelled(*coords)):
        for row in (classify(p), scan([p, (0.0, 0.0, 0.0)]).rows[0]):
            assert type(row) is Classification
            assert row[:3] == tuple(coords)
        assert classify(p) == classify(tuple(p))


def _box_points(n: int, seed: int) -> list[tuple[float, float, float]]:
    box = np.random.default_rng(seed).uniform((-0.5, -1, -1), (1.5, 1, 1.2), size=(n, 3))
    return [tuple(r) for r in box.tolist()]


def test_a_scanned_row_is_one_tracked_object():
    # A row is one flat tuple: no FamilyPoint rides along with it.
    points = _box_points(5000, 7)
    scan(points)  # the witness table and the polytope are built
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = scan(points)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert {row.verdict for row in result.rows} == set(Verdict)
    assert added <= len(points) + 2  # the rows, their list and the ScanResult


def test_no_field_of_a_row_is_a_tuple():
    rows = scan(_box_points(2000, 8) + [horodecki_point(1.5)]).rows
    assert {row.verdict for row in rows} == set(Verdict)
    for row in rows:
        assert not any(isinstance(field, tuple) for field in row), row


def test_integer_coordinates_give_the_row_of_their_float_values():
    # The loop computes an int, or a Fraction that holds a float exactly, as
    # that float: every field after the coordinates has the float row's type
    # and bits.  (Stage 2 adds and squares two Fractions exactly before it
    # rounds, so a Fraction such as 1/3 can move pt_min_eig by an ulp.)
    fractions = [
        (Fraction(1, 8), Fraction(-1, 16), Fraction(1, 4)),
        tuple(map(Fraction, horodecki_point(1.5))),
    ]
    points = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), *fractions]
    verdicts = set()
    for p in points:
        row, floats = _both(p), _both(tuple(float(x) for x in p))
        assert row[:3] == p, p
        assert [_bits(x) for x in row[3:]] == [_bits(x) for x in floats[3:]], p
        assert csv_row(row) == csv_row(floats), p
        verdicts.add(row.verdict)
    assert verdicts == set(Verdict) - {Verdict.UNDETERMINED}


def test_fraction_coordinates_round_only_in_stage_2():
    # Stage 2 adds and squares two Fractions exactly before it rounds, so
    # this point's pt_min_eig is an ulp off its float row; every other field
    # has the float row's type and bits.
    p = (Fraction(-4, 43), Fraction(-6, 47), Fraction(-21, 65))
    row, floats = _both(p), _both(tuple(map(float, p)))
    assert row.witness_name is not None, row  # the point reaches stage 3
    for field in Classification._fields[3:]:
        if field != "pt_min_eig":
            assert _bits(getattr(row, field)) == _bits(getattr(floats, field)), field
    assert type(row.pt_min_eig) is float
    assert abs(row.pt_min_eig - floats.pt_min_eig) <= 4 * math.ulp(floats.pt_min_eig)


def test_numpy_float64_coordinates_give_numpy_float64_fields():
    # No field is converted: every number of the row has the coordinates'
    # type, pt_min_eig included, and the float row's value.
    for p in [(0.9, 0.0, 0.0), (0.0, 0.0, 0.0), horodecki_point(1.5), (0.1, 0.3, 0.2)]:
        row = _both(tuple(map(np.float64, p)))
        floats = _both(tuple(map(float, p)))
        assert row.pt_min_eig is not None, row
        for field in Classification._fields:
            x, want = getattr(row, field), getattr(floats, field)
            if isinstance(want, float):
                assert type(x) is np.float64, (p, field)
                assert float(x).hex() == want.hex(), (p, field)
            else:
                assert _bits(x) == _bits(want), (p, field)


def test_the_classification_loop_has_no_int_literal_operand():
    # An int literal in a float expression, as in ``7 * b``, makes CPython
    # skip its float-specialised BINARY_OP: stage 1 writes ``7.0 * b``.
    tree = ast.parse(textwrap.dedent(inspect.getsource(regions._classify_rows)))
    ops = [n for n in ast.walk(tree) if isinstance(n, (ast.BinOp, ast.UnaryOp))]
    assert len(ops) > 20
    for node in ops:
        operands = (node.operand,) if isinstance(node, ast.UnaryOp) else (node.left, node.right)
        for x in operands:
            is_int = isinstance(x, ast.Constant) and type(x.value) is int
            assert not is_int, f"line {node.lineno}: {ast.unparse(node)}"

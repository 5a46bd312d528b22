"""The closed-form classifier against the matrix pipeline it replaces.

The oracle verdict is rebuilt here from the matrix route: the pyramid
slacks, the spectrum of the partial-transposed 9x9 state (LAPACK through
``qmat.hermitian_eigenvalues``), ``Tr(W rho)`` for every deployed witness
and a hull test whose facets are derived from the polytope's vertices
alone, not from the facet rows ``classify`` reads.  ``classify`` must
reproduce it on every point, and its evidence must match the oracle's
numbers to 1e-12.
"""

from itertools import combinations

import numpy as np
import pytest

from conftest import witness_values
from magicsimplex.family import (
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    family_state,
    horodecki_point,
    pt_min_eigenvalue,
    pyramid_margin,
)
from magicsimplex.regions import (
    DETECTION_TOL,
    MEMBERSHIP_TOL,
    build_polygon,
    classify,
    parse_grid,
    plane_grid_points,
)
from magicsimplex.verdicts import Verdict

#: Bounding box of the state pyramid (vertices (1,0,0), (0,1,0), (0,0,1)
#: and (-1/3,-2/3,-1)), slightly enlarged.
_BOX_LOW = (-0.4, -0.7, -1.05)
_BOX_HIGH = (1.05, 1.05, 1.05)
_PYRAMID = np.array(
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1 / 3, -2 / 3, -1.0]]
)


def _points() -> list[FamilyPoint]:
    rng = np.random.default_rng(4711)
    box = rng.uniform(_BOX_LOW, _BOX_HIGH, size=(10_000, 3))
    # Uniform in the pyramid, blown up 5% about its centroid so the
    # sample straddles the positivity facets too.
    center = _PYRAMID.mean(axis=0)
    inner = center + 1.05 * (rng.dirichlet(np.ones(4), size=5_000) @ _PYRAMID - center)
    gamma = rng.uniform(-1.0, 1.0, 3_000)
    beta = rng.uniform(-0.35, 0.05, 3_000)
    facet = np.column_stack([3.5 * beta + 1.0 - gamma, beta, gamma])
    # Points on the polytope's faces (and two interior diagonal planes),
    # pushed in or out about its centroid.  The 1e-8 pushes leave a facet
    # row by 1.4 to 2.1 times MEMBERSHIP_TOL, so a stage-4 threshold looser
    # than that shows.  Two side faces lie in positivity facets, so only
    # their inner side holds states; the other three faces are tested from
    # both sides.
    verts = build_polygon().vertex_array()
    triples = np.array([rng.choice(len(verts), 3, replace=False) for _ in range(6_000)])
    on_faces = np.einsum("nk,nkd->nd", rng.dirichlet(np.ones(3), size=6_000), verts[triples])
    centroid = verts.mean(axis=0)
    push = np.repeat([1e-3, -1e-3, 1e-6, -1e-6, 1e-8, -1e-8], 1_000)[:, None]
    near = centroid + (1.0 + push) * (on_faces - centroid)
    rows = np.vstack([box, inner, facet, near]).tolist()
    pts = [FamilyPoint(*row) for row in rows]
    pts += [FamilyPoint(*p) for p in plane_grid_points("0:1:0.01", "-0.3333333333:0.1:0.01")]
    pts += [
        FamilyPoint(a, b, 0.0)
        for a in parse_grid("-0.4:1.05:0.02")
        for b in parse_grid("-0.7:1.05:0.02")
    ]
    pts += [horodecki_point(b) for b in parse_grid("0:5:0.005")]
    return pts


def _hull_facets(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward normals ``n`` and offsets ``d`` of the hull of ``verts``.

    Every plane through three vertices with all vertices on one side of it
    is a facet; a point is inside when ``n . p <= d`` for every facet.
    """
    facets = set()
    for tri in combinations(verts, 3):
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        n /= np.linalg.norm(n)
        excess = verts @ n - n @ tri[0]
        if excess.max() > 1e-12:
            if excess.min() < -1e-12:
                continue
            n = -n
        # A facet through four vertices is found once per triple of them.
        facets.add(tuple(np.round([*n, n @ tri[0]], 12) + 0.0))
    rows = np.array(sorted(facets))
    return rows[:, :3], rows[:, 3]


def _oracle(p: FamilyPoint, normals: np.ndarray, offsets: np.ndarray):
    """Verdict, PT minimum and witness expectations from the matrices."""
    if pyramid_margin(p) < STATE_TOL:
        return Verdict.NOT_A_STATE, None, None
    eig = pt_min_eigenvalue(p)
    if eig < PPT_TOL:
        return Verdict.NPT_ENTANGLED, eig, None
    values = dict(witness_values(family_state(p)))
    if min(values.values()) < DETECTION_TOL:
        return Verdict.BOUND_ENTANGLED, eig, values
    excess = (normals @ np.array(p) - offsets).max()
    verdict = Verdict.SEPARABLE if excess <= MEMBERSHIP_TOL else Verdict.UNDETERMINED
    return verdict, eig, values


@pytest.fixture(scope="module")
def comparison():
    normals, offsets = _hull_facets(build_polygon().vertex_array())
    # The three facet rows and the positivity facets s1 >= 0 and s4 >= 0.
    assert len(offsets) == 5
    return [(classify(p), *_oracle(p, normals, offsets)) for p in _points()]


def test_sample_covers_every_verdict(comparison):
    assert len(comparison) >= 30_000
    seen = {row.verdict for row, *_ in comparison}
    assert seen == set(Verdict)
    # Points the oracle takes to its hull test (PPT, no witness fires) lie
    # within 1e-6 of each facet row on both sides: stage 4 decides there.
    hull_tested = np.array(
        [
            row[:3]
            for row, verdict, *_ in comparison
            if verdict in (Verdict.SEPARABLE, Verdict.UNDETERMINED)
        ]
    )
    for *normal, offset in build_polygon().halfspaces:
        excess = hull_tested @ normal - offset
        assert ((excess > 0) & (excess <= 1e-6)).any(), (normal, offset)
        assert ((excess < 0) & (excess >= -1e-6)).any(), (normal, offset)


def test_verdicts_match_matrix_oracle(comparison):
    mismatches = [
        (row[:3], row.verdict, verdict)
        for row, verdict, _, _ in comparison
        if row.verdict is not verdict
    ]
    assert mismatches == []


def test_pt_minimum_matches_the_lapack_oracle(comparison):
    worst = max(
        abs(row.pt_min_eig - eig) for row, _, eig, _ in comparison if eig is not None
    )
    assert worst <= 1e-12


def test_witness_value_matches_trace(comparison):
    checked = 0
    for row, _, _, values in comparison:
        if values is None:
            continue
        # At gamma = 0 a witness and its mirror tie; either name is right,
        # so compare with the oracle's value for the reported name.
        assert abs(row.witness_value - values[row.witness_name]) <= 1e-12
        assert abs(row.witness_value - min(values.values())) <= 1e-12
        checked += 1
    assert checked >= 5_000


def test_slice_probe_finds_the_analytic_corners(probed_slice_corners):
    probed = probed_slice_corners
    corners = build_polygon().vertices[:4]  # the gamma = 0 slice's corners
    assert len(probed) == len(corners)
    for (a, b), (wa, wb, _) in zip(probed, corners):
        assert abs(a - wa) <= 1e-6 and abs(b - wb) <= 1e-6

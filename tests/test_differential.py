"""The closed-form classifier against the matrix pipeline it replaces.

The oracle verdict is rebuilt here from the matrix route: the pyramid
slacks, the spectrum of the partial-transposed 9x9 state (LAPACK through
``qmat.hermitian_eigenvalues``), ``Tr(W rho)`` for every deployed witness
and a non-negative least-squares hull test on the polytope's vertices.  ``classify`` must reproduce it on every point, and
its evidence must match the oracle's numbers to 1e-12.
"""

import numpy as np
import pytest

nnls = pytest.importorskip("scipy.optimize", exc_type=ImportError).nnls

from conftest import witness_values  # noqa: E402
from magicsimplex.family import (  # noqa: E402
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    family_state,
    horodecki_point,
    pt_min_eigenvalue,
    pyramid_margin,
)
from magicsimplex.regions import (  # noqa: E402
    DETECTION_TOL,
    MEMBERSHIP_TOL,
    build_polygon,
    classify,
    parse_grid,
    plane_grid_points,
)
from magicsimplex.verdicts import Verdict  # noqa: E402

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
    # pushed in or out about its centroid, well clear of the MEMBERSHIP_TOL
    # band.  Two side faces lie in positivity facets, so only their inner
    # side holds states; the other three faces are tested from both sides.
    verts = build_polygon().vertex_array()
    triples = np.array([rng.choice(len(verts), 3, replace=False) for _ in range(4_000)])
    on_faces = np.einsum("nk,nkd->nd", rng.dirichlet(np.ones(3), size=4_000), verts[triples])
    centroid = verts.mean(axis=0)
    push = np.repeat([1e-3, -1e-3, 1e-6, -1e-6], 1_000)[:, None]
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


def _oracle(p: FamilyPoint, hull: np.ndarray):
    """Verdict, PT minimum and witness expectations from the matrices."""
    if pyramid_margin(p) < STATE_TOL:
        return Verdict.NOT_A_STATE, None, None
    eig = pt_min_eigenvalue(p)
    if eig < PPT_TOL:
        return Verdict.NPT_ENTANGLED, eig, None
    values = dict(witness_values(family_state(p)))
    if min(values.values()) < DETECTION_TOL:
        return Verdict.BOUND_ENTANGLED, eig, values
    _, rnorm = nnls(hull, np.array([p.alpha, p.beta, p.gamma, 1.0]))
    verdict = Verdict.SEPARABLE if rnorm <= MEMBERSHIP_TOL else Verdict.UNDETERMINED
    return verdict, eig, values


@pytest.fixture(scope="module")
def comparison():
    verts = build_polygon().vertex_array()
    hull = np.vstack([verts.T, np.ones((1, len(verts)))])
    return [(classify(p), *_oracle(p, hull)) for p in _points()]


def test_sample_covers_every_verdict(comparison):
    assert len(comparison) >= 30_000
    seen = {row.verdict for row, *_ in comparison}
    assert seen == set(Verdict)


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

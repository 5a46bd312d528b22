"""Region geometry and the classification pipeline.

The classifier stacks four certificates, cheapest arguments first:

1. positivity (closed-form facet slacks) -- else ``NotAState``;
2. the closed-form partial-transpose spectrum -- a negative eigenvalue
   means ``NptEntangled``;
3. the deployed witness battery, evaluated as affine planes -- a negative
   expectation on a PPT state certifies ``BoundEntangled``;
4. membership in an inner polytope of known separable states (five
   half-spaces around certified extreme points) -- membership certifies
   ``Separable``.

Anything that survives all four is reported ``Undetermined``: the
certificates are sound but not complete.

On the positivity facet ``alpha = 7 beta / 2 + 1 - gamma`` everything is
available in closed form.  Two curves organize that facet in the
``(gamma, beta)`` coordinates: the trace of the flat-face witness plane

    l_a(gamma) = 2 (gamma - 1) / 9

and the trace of the PPT cone edge

    l_b(gamma) = (3 gamma - 4 + sqrt(4 - 3 gamma^2)) / 9.

They cross exactly at ``gamma = 0`` and ``gamma = 1``; for ``gamma``
between the crossings every facet state strictly between the curves is
PPT yet detected by the battery (bound entangled), everything at or below
``l_a`` with ``gamma in [0, 1]`` is separable, and everything above
``l_b`` is NPT.  :func:`boundary_plane_region` packages that trichotomy;
it must and does agree with the matrix pipeline pointwise.

Every production certificate is a sign test on a closed form of the three
coordinates: the affine pyramid slacks, the partial-transpose spectrum
(:func:`~.family.pt_block_eigenvalues`), the affine witness planes and the
five half-spaces of the separable polytope.  The matrix pipeline (the
spectrum of the partial-transposed 9x9 state, ``Tr(W rho)`` witness
expectations, the blind slice probe :func:`trapezoid_vertices`) is kept as
the oracle the closed forms are certified and tested against.

The separable polytope is the pyramid over the ``gamma = 0`` slice's PPT
quadrilateral (corners :data:`SLICE_CORNERS`, in closed form) with apex
``(0, 0, 1)``, where the facet triangle closes.  Its vertices are certified
against the matrix oracle when it is built.  It lies in ``gamma >= 0``;
on the ``gamma < 0`` side, points that no witness detects are left
``Undetermined``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .family import (
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    pt_block_eigenvalues,
    pt_min_eigenvalue,
    pyramid_margin,
)
from .verdicts import Verdict
from .witness import deployed_witnesses

__all__ = [
    "DETECTION_TOL",
    "MAX_GRID_POINTS",
    "MEMBERSHIP_TOL",
    "SLICE_CORNERS",
    "Classification",
    "ScanResult",
    "SeparablePolygon",
    "boundary_plane_region",
    "build_polygon",
    "classify",
    "format_number",
    "grid_points",
    "l_a",
    "l_b",
    "parse_grid",
    "plane_grid_points",
    "scan",
    "trapezoid_vertices",
]

logger = logging.getLogger(__name__)

#: A witness expectation below this fires the bound-entanglement certificate.
DETECTION_TOL = -1e-10

#: Largest facet excess accepted by the separability certificate.
MEMBERSHIP_TOL = 1e-9

#: Most points a grid spec (or a product of specs) may expand to.
MAX_GRID_POINTS = 10**7

#: Corners ``(alpha, beta)`` of the PPT region in the ``gamma = 0`` slice,
#: counter-clockwise from the maximally mixed state.  Each is where two of
#: the slice's edges meet: pyramid facets and partial-transpose zeros.
SLICE_CORNERS = (
    (-1.0 / 6.0, -1.0 / 3.0),
    (2.0 / 9.0, -2.0 / 9.0),
    (1.0 / 3.0, 2.0 / 3.0),
    (-1.0 / 12.0, 1.0 / 3.0),
)

#: Largest ``|gamma|`` on which the facet curves :func:`l_a`/:func:`l_b` are defined.
FACET_DOMAIN = 2.0 / math.sqrt(3.0)


def l_a(gamma: float) -> float:
    """Facet trace of the flat-face witness plane (separability ceiling)."""
    return 2.0 * (gamma - 1.0) / 9.0


def l_b(gamma: float) -> float:
    """Facet trace of the PPT cone edge.  Defined for ``|gamma| <= 2/sqrt(3)``."""
    disc = 4.0 - 3.0 * gamma * gamma
    if disc < 0.0:
        raise ValueError(
            f"cone trace undefined at gamma={gamma} (|gamma| <= 2/sqrt(3) required)"
        )
    return (3.0 * gamma - 4.0 + math.sqrt(disc)) / 9.0


def _facet_point(gamma: float, beta: float) -> FamilyPoint:
    return FamilyPoint(7.0 * beta / 2.0 + 1.0 - gamma, beta, gamma)


def format_number(x: float | None) -> str:
    """12 significant digits, no ``-0.0``; ``None`` prints as an empty field."""
    return "" if x is None else "%.12g" % (x + 0.0)  # + 0.0 drops -0.0


# ---------------------------------------------------------------------------
# Classification records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Verdict for one point plus the evidence that produced it.

    Stages the pipeline never reached stay ``None`` (e.g. no witness data
    for an NPT point -- the battery was never consulted).
    """

    point: FamilyPoint
    verdict: Verdict
    pyramid_margin: float
    pt_min_eig: float | None = None
    witness_name: str | None = None
    witness_value: float | None = None
    polygon_member: bool | None = None
    detail: str = ""

    def csv_row(self) -> str:
        member = "" if self.polygon_member is None else str(self.polygon_member).lower()
        return ",".join(
            [
                format_number(self.point.alpha),
                format_number(self.point.beta),
                format_number(self.point.gamma),
                self.verdict.value,
                format_number(self.pt_min_eig),
                self.witness_name or "",
                format_number(self.witness_value),
                member,
            ]
        )


CSV_HEADER = "alpha,beta,gamma,verdict,pt_min_eig,witness_name,witness_value,polygon_member"


def classify(p: FamilyPoint | tuple[float, float, float]) -> Classification:
    """Run the four-certificate pipeline on one family point."""
    pt = p if isinstance(p, FamilyPoint) else FamilyPoint(*p)
    margin = pyramid_margin(pt)
    if margin < STATE_TOL:
        return Classification(pt, Verdict.NOT_A_STATE, margin)
    pt_eig = float(min(pt_block_eigenvalues(pt)))
    if pt_eig < PPT_TOL:
        return Classification(pt, Verdict.NPT_ENTANGLED, margin, pt_eig)
    # Tr(W rho) is affine in the coordinates, so each witness plane gives
    # it as trace_scale * residual (to rounding); ties keep battery order.
    name, value = min(
        ((w.name, w.plane.trace_scale * w.plane.residual(pt)) for w in deployed_witnesses()),
        key=lambda nv: nv[1],
    )
    if value < DETECTION_TOL:
        return Classification(
            pt,
            Verdict.BOUND_ENTANGLED,
            margin,
            pt_eig,
            witness_name=name,
            witness_value=value,
        )
    member = build_polygon().contains(pt)
    verdict = Verdict.SEPARABLE if member else Verdict.UNDETERMINED
    return Classification(
        pt,
        verdict,
        margin,
        pt_eig,
        witness_name=name,
        witness_value=value,
        polygon_member=member,
    )


def boundary_plane_region(gamma: float, beta: float) -> Classification:
    """Closed-form classification of a point on the positivity facet.

    Equivalent to :func:`classify` at ``alpha = 7 beta / 2 + 1 - gamma``
    but with every decision taken from the two facet curves instead of
    matrices.  Points the curves don't cover (mirrored side below the
    cone) are honestly ``Undetermined``, exactly like the pipeline.
    """
    pt = _facet_point(gamma, beta)
    margin = pyramid_margin(pt)
    if margin < STATE_TOL:
        return Classification(pt, Verdict.NOT_A_STATE, margin)
    ceiling = l_a(gamma)
    cone = l_b(gamma) if abs(gamma) <= FACET_DOMAIN else None
    if 0.0 <= gamma <= 1.0 and beta <= ceiling:
        return Classification(
            pt,
            Verdict.SEPARABLE,
            margin,
            detail="at or below the facet separability ceiling",
        )
    if cone is not None and beta > cone:
        return Classification(
            pt, Verdict.NPT_ENTANGLED, margin, detail="above the facet cone trace"
        )
    if 0.0 < gamma < 1.0 and cone is not None and ceiling < beta <= cone:
        return Classification(
            pt,
            Verdict.BOUND_ENTANGLED,
            margin,
            detail="strictly between the facet curves",
        )
    return Classification(pt, Verdict.UNDETERMINED, margin)


# ---------------------------------------------------------------------------
# The separable polytope
# ---------------------------------------------------------------------------


def _slice_feasible(alpha: float, beta: float) -> bool:
    p = FamilyPoint(alpha, beta, 0.0)
    if pyramid_margin(p) < 0.0:
        return False
    return pt_min_eigenvalue(p) >= PPT_TOL


@lru_cache(maxsize=1)
def trapezoid_vertices() -> tuple[tuple[float, float], ...]:
    """Corners of the PPT region in the ``gamma = 0`` slice, probed blind.

    96 rays from the maximally mixed state are bisected to 1e-9 against
    the combined positivity + PPT oracle; maximal collinear runs of
    boundary hits are fitted as edges and consecutive edge lines
    intersected.  No closed-form geometry enters: this is the independent
    construction :data:`SLICE_CORNERS` is tested against.
    """
    n_rays = 96
    thetas = np.linspace(0.0, 2.0 * math.pi, n_rays, endpoint=False)
    hits = np.empty((n_rays, 2))
    for i, theta in enumerate(thetas):
        d = np.array([math.cos(theta), math.sin(theta)])
        lo, hi = 0.0, 3.0
        if _slice_feasible(*(hi * d)):
            raise ArithmeticError("probe ray failed to exit the PPT region")
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if _slice_feasible(*(mid * d)):
                lo = mid
            else:
                hi = mid
        hits[i] = 0.5 * (lo + hi) * d

    segs = np.roll(hits, -1, axis=0) - hits
    dirs = segs / np.linalg.norm(segs, axis=1, keepdims=True)
    prev = np.roll(dirs, 1, axis=0)
    turning = np.abs(prev[:, 0] * dirs[:, 1] - prev[:, 1] * dirs[:, 0]) > 5e-5

    corner_idx = [i for i in range(n_rays) if turning[i]]
    if len(corner_idx) < 3:
        raise ArithmeticError("fewer than three edges found in the slice probe")

    lines: list[tuple[np.ndarray, np.ndarray]] = []  # (point, direction)
    for k, start in enumerate(corner_idx):
        stop = corner_idx[(k + 1) % len(corner_idx)]
        run_len = (stop - start) % n_rays
        if run_len < 2:
            continue  # a lone corner-straddling segment, not a real edge
        first = hits[start]
        last = hits[(start + run_len) % n_rays]
        direction = last - first
        lines.append((first, direction / np.linalg.norm(direction)))

    vertices: list[tuple[float, float]] = []
    for k, (p1, d1) in enumerate(lines):
        p2, d2 = lines[(k + 1) % len(lines)]
        det = d1[0] * (-d2[1]) - (-d2[0]) * d1[1]
        if abs(det) < 1e-8:
            raise ArithmeticError("adjacent probe edges are parallel")
        rhs = p2 - p1
        t = (rhs[0] * (-d2[1]) - (-d2[0]) * rhs[1]) / det
        v = p1 + t * d1
        vertices.append((float(v[0]), float(v[1])))

    for v in vertices:
        closeness = min(
            abs(pyramid_margin(FamilyPoint(v[0], v[1], 0.0))),
            abs(pt_min_eigenvalue(FamilyPoint(v[0], v[1], 0.0))),
        )
        if closeness > 1e-6:
            raise ArithmeticError(
                f"probed corner {v} is {closeness:.2e} away from the boundary"
            )
    vertices.sort(key=lambda v: math.atan2(v[1], v[0]))
    return tuple(vertices)


@dataclass(frozen=True)
class PolygonVertex:
    point: FamilyPoint
    provenance: str


@dataclass(frozen=True)
class SeparablePolygon:
    """Convex hull of known-separable extreme points, as half-spaces.

    ``halfspaces`` holds one ``(n_alpha, n_beta, n_gamma, offset)`` per
    facet, with an outward unit normal: a point is inside the facet's
    half-space when ``n . p <= offset``.
    """

    vertices: tuple[PolygonVertex, ...]
    halfspaces: tuple[tuple[float, float, float, float], ...]

    def vertex_array(self) -> np.ndarray:
        return np.array([v.point.as_tuple() for v in self.vertices])

    def membership_residual(self, p: FamilyPoint | tuple[float, float, float]) -> float:
        """Largest distance of ``p`` outside a facet plane; 0 on and inside the hull."""
        if not isinstance(p, FamilyPoint):
            p = FamilyPoint(*p)
        a, b, g = p.alpha, p.beta, p.gamma
        excess = max(na * a + nb * b + ng * g - c for na, nb, ng, c in self.halfspaces)
        return float(max(excess, 0.0))

    def contains(self, p: FamilyPoint | tuple[float, float, float]) -> bool:
        return self.membership_residual(p) <= MEMBERSHIP_TOL


def _pyramid_halfspaces(
    base: list[FamilyPoint], apex: FamilyPoint
) -> tuple[tuple[float, float, float, float], ...]:
    """Outward unit-normal half-spaces of the pyramid over a convex ``base``.

    ``base`` lists the corners of a planar polygon in cyclic order; the
    result is the base facet followed by one side facet per base edge.
    Every vertex must lie inside every half-space (to rounding).
    """
    corners = np.array([v.as_tuple() for v in base])
    top = np.array(apex.as_tuple())
    inner = (corners.sum(axis=0) + top) / (len(base) + 1)
    faces = [(corners[0], corners[1], corners[2])]
    faces += [
        (corners[i], corners[(i + 1) % len(base)], top) for i in range(len(base))
    ]
    halfspaces = []
    for p0, p1, p2 in faces:
        normal = np.cross(p1 - p0, p2 - p0)
        normal /= np.linalg.norm(normal)
        if normal @ (inner - p0) > 0.0:
            normal = -normal
        halfspaces.append((*(float(x) for x in normal), float(normal @ p0)))
    for v in (*corners, top):
        excess = max(n[0] * v[0] + n[1] * v[1] + n[2] * v[2] - n[3] for n in halfspaces)
        if excess > 1e-12:
            raise ArithmeticError(
                f"polytope vertex {tuple(v)} lies {excess:.2e} outside a facet"
            )
    return tuple(halfspaces)


@lru_cache(maxsize=1)
def build_polygon() -> SeparablePolygon:
    """Assemble the separable polytope (five vertices, built once).

    Four corners are the closed-form ``gamma = 0`` slice corners
    :data:`SLICE_CORNERS`; the fifth closes the facet triangle at
    ``(0, 0, 1)``, where the separability ceiling meets the cone trace.
    Every vertex is verified against the positivity slacks and the
    matrix partial-transpose oracle, in the classifier's own bands
    (:data:`~.family.STATE_TOL`, :data:`~.family.PPT_TOL`); the build
    raises if one fails.
    """
    verts = [
        PolygonVertex(FamilyPoint(a, b, 0.0), "gamma=0 slice corner")
        for (a, b) in SLICE_CORNERS
    ]
    verts.append(
        PolygonVertex(FamilyPoint(0.0, 0.0, 1.0), "facet curve crossing at gamma=1")
    )
    for v in verts:
        margin = pyramid_margin(v.point)
        if margin < STATE_TOL:
            raise ArithmeticError(f"polytope vertex {v.point.as_tuple()} is not a state")
        eig = pt_min_eigenvalue(v.point)
        if eig < PPT_TOL:
            raise ArithmeticError(
                f"polytope vertex {v.point.as_tuple()} is NPT ({eig:.2e})"
            )
    halfspaces = _pyramid_halfspaces([v.point for v in verts[:-1]], verts[-1].point)
    logger.info(
        "separable polytope built: %d vertices, %d facets", len(verts), len(halfspaces)
    )
    return SeparablePolygon(vertices=tuple(verts), halfspaces=halfspaces)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    rows: list[Classification] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for row in self.rows:
            tally[row.verdict.value] = tally.get(row.verdict.value, 0) + 1
        return tally

    def csv_lines(self) -> Iterator[str]:
        yield CSV_HEADER
        for row in self.rows:
            yield row.csv_row()


def scan(points: Iterable[FamilyPoint | tuple[float, float, float]]) -> ScanResult:
    """Classify every point, preserving input order."""
    pts = [p if isinstance(p, FamilyPoint) else FamilyPoint(*p) for p in points]
    if not pts:
        raise ValueError("scan called with an empty grid")
    return ScanResult(rows=[classify(p) for p in pts])


def _grid_axis(spec: str) -> tuple[float, float, int]:
    """``(lo, step, count)`` of a grid spec, validated but not expanded.

    A single value ``"x"`` has step 0.
    """
    parts = spec.split(":")
    if len(parts) == 1:
        return float(parts[0]), 0.0, 1
    if len(parts) != 3:
        raise ValueError(f"grid spec must be 'lo:hi:step' or 'x', got {spec!r}")
    lo, hi, step = (float(v) for v in parts)
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"grid spec must be finite, got {spec!r}")
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"grid range is empty: {spec!r}")
    span = (hi - lo) / step
    if span >= MAX_GRID_POINTS:
        raise ValueError(
            f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points"
        )
    n = int(round(span))
    if abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        n = int(math.floor(span + 1e-12))
    return lo, step, n + 1


def _check_grid_size(*counts: int) -> None:
    total = math.prod(counts)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points (at most {MAX_GRID_POINTS})")


def parse_grid(spec: str) -> list[float]:
    """``"lo:hi:step"`` (inclusive ends) or a single value ``"x"``.

    Raises ``ValueError`` for a malformed spec or one that expands to more
    than :data:`MAX_GRID_POINTS` values.
    """
    lo, step, count = _grid_axis(spec)
    _check_grid_size(count)
    if not step:
        return [lo]
    return [lo + k * step for k in range(count)]


def grid_points(
    alpha_spec: str, beta_spec: str, gamma_spec: str
) -> list[FamilyPoint]:
    """Row-major grid: alpha outermost, gamma innermost."""
    specs = (alpha_spec, beta_spec, gamma_spec)
    _check_grid_size(*(_grid_axis(s)[2] for s in specs))
    alphas, betas, gammas = (parse_grid(s) for s in specs)
    return [FamilyPoint(a, b, g) for a in alphas for b in betas for g in gammas]


def plane_grid_points(gamma_spec: str, beta_spec: str) -> list[FamilyPoint]:
    """Facet grid: gamma outermost, beta innermost, alpha pinned by the facet."""
    _check_grid_size(_grid_axis(gamma_spec)[2], _grid_axis(beta_spec)[2])
    gammas, betas = parse_grid(gamma_spec), parse_grid(beta_spec)
    return [_facet_point(g, b) for g in gammas for b in betas]

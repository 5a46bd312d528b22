"""Region geometry and the classification pipeline.

The classifier stacks four certificates, cheapest arguments first:

1. positivity (closed-form facet slacks) -- else ``NotAState``;
2. the closed-form partial-transpose spectrum -- a negative eigenvalue
   means ``NptEntangled``;
3. the six closed-form witness planes -- a negative expectation on a PPT
   state certifies ``BoundEntangled``;
4. membership in an inner polytope of known separable states (five
   half-spaces around certified extreme points) -- membership certifies
   ``Separable``.

Anything that survives all four is reported ``Undetermined``: the
certificates are sound but not complete.

One loop runs the pipeline: it walks the points once, reads the witness
battery once and builds the polytope only when a point reaches stage 4,
and it stops each point at its first decisive stage.  :func:`scan` is its
batch call and :func:`classify` its one-row call, so a scanned row equals
``classify`` of its point.  Its records -- :class:`Classification`
(holding a :class:`~.family.FamilyPoint`), :class:`ScanResult` and
:class:`SeparablePolygon` -- are immutable named tuples.  All four stages
evaluate their closed forms inline, stages 1 and 2 as copies of
:func:`~.family.pyramid_slacks` and :func:`~.family.pt_block_eigenvalues`
with the same operations in the same order; a pin test in
``tests/test_regions.py`` holds every row bit for bit to those functions
and to the witness-plane and facet fields.

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
``l_b`` is NPT.

Every production certificate is a sign test on a closed form of the three
coordinates: the affine pyramid slacks, the partial-transpose spectrum
(:func:`~.family.pt_block_eigenvalues`), the witness planes of
:func:`~.planes.witness_planes` and the five half-spaces of the separable
polytope.  The matrix pipeline (the spectrum of the partial-transposed 9x9
state, the matrix witness battery :func:`~.witness.deployed_witnesses`
and its ``Tr(W rho)`` expectations) is the oracle the closed forms are
tested against in ``verify`` and the tests; this module imports only the
standard library, and ``classify`` builds no matrix.

The separable polytope is the pyramid over the ``gamma = 0`` slice's PPT
quadrilateral (corners :data:`SLICE_CORNERS`, in closed form) with apex
``(0, 0, 1)``, where the facet triangle closes.  When it is built, each
vertex is certified a PPT state in exact rational arithmetic on the
closed forms (the only use of :mod:`fractions`, imported there).  It
lies in ``gamma >= 0``; on the ``gamma < 0`` side, points that no witness
detects are left ``Undetermined``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .family import (
    _INFO,
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    _log,
    pt_block_eigenvalues,
    pyramid_slacks,
)
from .planes import witness_planes
from .verdicts import Verdict

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DETECTION_TOL",
    "MAX_GRID_POINTS",
    "MEMBERSHIP_TOL",
    "SLICE_CORNERS",
    "Classification",
    "ScanResult",
    "SeparablePolygon",
    "build_polygon",
    "classify",
    "format_number",
    "grid_points",
    "l_a",
    "l_b",
    "parse_grid",
    "plane_grid_points",
    "scan",
]

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
    if abs(gamma) > FACET_DOMAIN:
        raise ValueError(
            f"cone trace undefined at gamma={gamma} (|gamma| <= 2/sqrt(3) required)"
        )
    # At the domain edge the discriminant rounds to a few ulps below zero.
    disc = max(4.0 - 3.0 * gamma * gamma, 0.0)
    return (3.0 * gamma - 4.0 + math.sqrt(disc)) / 9.0


def _facet_point(gamma: float, beta: float) -> FamilyPoint:
    return FamilyPoint(7.0 * beta / 2.0 + 1.0 - gamma, beta, gamma)


def format_number(x: float | None) -> str:
    """12 significant digits, no ``-0.0``; ``None`` prints as an empty field."""
    return "" if x is None else "%.12g" % (x + 0.0)  # + 0.0 drops -0.0


# ---------------------------------------------------------------------------
# Classification records
# ---------------------------------------------------------------------------


class Classification(NamedTuple):
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


#: The loop's verdicts as module names: on Python 3.11 reading an Enum
#: member off its class costs about as much as one stage-1 slack.
_NOT_A_STATE, _NPT_ENTANGLED, _BOUND_ENTANGLED = (
    Verdict.NOT_A_STATE,
    Verdict.NPT_ENTANGLED,
    Verdict.BOUND_ENTANGLED,
)
_SEPARABLE, _UNDETERMINED = Verdict.SEPARABLE, Verdict.UNDETERMINED

CSV_HEADER = "alpha,beta,gamma,verdict,pt_min_eig,witness_name,witness_value,polygon_member"


def _classify_rows(
    points: Iterable[FamilyPoint | tuple[float, float, float]],
) -> list[Classification]:
    """The four-certificate pipeline over ``points``, in input order.

    This is the one classification loop: :func:`classify` is its one-row
    call and :func:`scan` its batch call.  The witness battery is read once
    per call, the polytope only once a point reaches stage 4.

    All four stages evaluate their closed forms inline rather than through
    calls: the slacks of :func:`~.family.pyramid_slacks` and the spectrum of
    :func:`~.family.pt_block_eigenvalues` with the same operations in the
    same order, then each witness plane and each polytope facet read as a
    plain tuple; ``tuple.__new__`` builds the records.  A finite plain
    3-tuple becomes a :class:`~.family.FamilyPoint` without its constructor;
    anything else goes through it and raises as it does.  A pin test in
    ``tests/test_regions.py`` holds every row bit for bit to the ``family``
    functions and the plane and facet fields.
    """
    planes = witness_planes()
    halfspaces = None
    rows: list[Classification] = []
    append = rows.append
    new = tuple.__new__
    isfinite = math.isfinite
    sqrt = math.sqrt
    for p in points:
        if type(p) is tuple and len(p) == 3:
            a, b, g = p
            if isfinite(a) and isfinite(b) and isfinite(g):
                pt = new(FamilyPoint, p)
            else:
                pt = FamilyPoint(*p)  # raises its ValueError
        else:
            pt = p if isinstance(p, FamilyPoint) else FamilyPoint(*p)
            a, b, g = pt
        # Stage 1: min(family.pyramid_slacks(pt)), the min as comparisons.
        margin = 7 * b / 2 + 1 - g - a
        s = -b + 1 - g - a
        if s < margin:
            margin = s
        s = -b + 1 + 2 * g - a
        if s < margin:
            margin = s
        s = a - (b - 1 + g) / 8
        if s < margin:
            margin = s
        if margin < STATE_TOL:
            row = (pt, _NOT_A_STATE, margin, None, None, None, None, "")
            append(new(Classification, row))
            continue
        # Stage 2: float(min(family.pt_block_eigenvalues(pt))), the same way.
        w = (1.0 - a - b - g) / 9.0
        y = a - b / 2.0
        e0 = w + (a + b) / 3.0
        half = g / 6.0
        root = sqrt(g * g / 36.0 + y * y / 9.0)
        pt_eig = e0
        s = w + half - root
        if s < pt_eig:
            pt_eig = s
        s = w + half + root
        if s < pt_eig:
            pt_eig = s
        pt_eig = float(pt_eig)
        if pt_eig < PPT_TOL:
            row = (pt, _NPT_ENTANGLED, margin, pt_eig, None, None, None, "")
            append(new(Classification, row))
            continue
        # Stage 3: Tr(W rho) = k * (alpha - (b beta + g gamma + c)); ties keep battery order.
        name = value = None
        for plane_name, (nb, ng, c, k) in planes:
            v = k * (a - (nb * b + ng * g + c))
            if value is None or v < value:
                name, value = plane_name, v
        if value < DETECTION_TOL:
            row = (pt, _BOUND_ENTANGLED, margin, pt_eig, name, value, None, "")
            append(new(Classification, row))
            continue
        # Stage 4: inside every half-space of the polytope, to MEMBERSHIP_TOL.
        if halfspaces is None:
            halfspaces = build_polygon().halfspaces
        verdict, member = _SEPARABLE, True
        for na, nb, ng, c in halfspaces:
            if na * a + nb * b + ng * g - c > MEMBERSHIP_TOL:
                verdict, member = _UNDETERMINED, False
                break
        row = (pt, verdict, margin, pt_eig, name, value, member, "")
        append(new(Classification, row))
    return rows


def classify(p: FamilyPoint | tuple[float, float, float]) -> Classification:
    """Run the four-certificate pipeline on one family point: a one-row scan."""
    return _classify_rows((p,))[0]


# ---------------------------------------------------------------------------
# The separable polytope
# ---------------------------------------------------------------------------


class SeparablePolygon(NamedTuple):
    """Convex hull of known-separable extreme points, as half-spaces.

    ``halfspaces`` holds one ``(n_alpha, n_beta, n_gamma, offset)`` per
    facet, with an outward unit normal: a point is inside the facet's
    half-space when ``n . p <= offset``.
    """

    vertices: tuple[FamilyPoint, ...]
    halfspaces: tuple[tuple[float, float, float, float], ...]

    def vertex_array(self) -> np.ndarray:
        """The vertices as a ``(5, 3)`` float array, for the matrix oracle."""
        import numpy as np

        return np.array([v.as_tuple() for v in self.vertices])


def _pyramid_halfspaces(
    base: list[FamilyPoint], apex: FamilyPoint
) -> tuple[tuple[float, float, float, float], ...]:
    """Outward unit-normal half-spaces of the pyramid over a convex ``base``.

    ``base`` lists the corners of a planar polygon in cyclic order; the
    result is the base facet followed by one side facet per base edge.
    Every vertex must lie inside every half-space (to rounding).
    """
    corners = [v.as_tuple() for v in base]
    top = apex.as_tuple()
    points = (*corners, top)
    inner = [sum(axis) / len(points) for axis in zip(*points)]
    faces = [(corners[0], corners[1], corners[2])]
    faces += [
        (corners[i], corners[(i + 1) % len(base)], top) for i in range(len(base))
    ]
    halfspaces = []
    for p0, p1, p2 in faces:
        e1 = [x - x0 for x, x0 in zip(p1, p0)]
        e2 = [x - x0 for x, x0 in zip(p2, p0)]
        normal = [
            e1[1] * e2[2] - e1[2] * e2[1],
            e1[2] * e2[0] - e1[0] * e2[2],
            e1[0] * e2[1] - e1[1] * e2[0],
        ]
        length = math.sqrt(sum(x * x for x in normal))
        normal = [x / length for x in normal]
        if _dot(normal, [x - x0 for x, x0 in zip(inner, p0)]) > 0.0:
            normal = [-x for x in normal]
        halfspaces.append((*normal, _dot(normal, p0)))
    for v in points:
        excess = max(n[0] * v[0] + n[1] * v[1] + n[2] * v[2] - n[3] for n in halfspaces)
        if excess > 1e-12:
            raise ArithmeticError(
                f"polytope vertex {tuple(v)} lies {excess:.2e} outside a facet"
            )
    return tuple(halfspaces)


def _dot(x: Iterable[float], y: Iterable[float]) -> float:
    return sum(a * b for a, b in zip(x, y))


def _require_ppt_state(v: FamilyPoint) -> None:
    """Raise ``ArithmeticError`` unless ``v`` is exactly a PPT state.

    The float coordinates are taken as the rationals they are, so the four
    pyramid slacks and ``e0`` are exact, and ``e_minus >= 0`` is decided by
    squaring: ``w + gamma/6 >= 0`` and ``(w + gamma/6)^2 >= gamma^2/36 +
    y^2/9`` (see :func:`~.family.pt_block_eigenvalues`).  No rounding band
    is involved, so a corner the closed forms put a hair outside the PPT
    region is rejected however small the miss.
    """
    from fractions import Fraction

    a, b, g = (Fraction(x) for x in v.as_tuple())
    if min(pyramid_slacks((a, b, g))) < 0:
        raise ArithmeticError(f"polytope vertex {v.as_tuple()} is not a state")
    w = (1 - a - b - g) / 9
    y = a - b / 2
    shift = w + g / 6
    e0 = w + (a + b) / 3
    if e0 < 0 or shift < 0 or shift * shift < g * g / 36 + y * y / 9:
        eig = min(pt_block_eigenvalues(v))
        raise ArithmeticError(f"polytope vertex {v.as_tuple()} is NPT ({eig:.2e})")


@lru_cache(maxsize=1)
def build_polygon() -> SeparablePolygon:
    """Assemble the separable polytope (five vertices, built once).

    Four corners are the closed-form ``gamma = 0`` slice corners
    :data:`SLICE_CORNERS`; the fifth closes the facet triangle at
    ``(0, 0, 1)``, where the separability ceiling meets the cone trace.
    Every vertex must be a PPT state in exact rational arithmetic
    (:func:`_require_ppt_state`); the build raises if one is not.
    """
    verts = [FamilyPoint(a, b, 0.0) for (a, b) in SLICE_CORNERS]
    verts.append(FamilyPoint(0.0, 0.0, 1.0))
    for v in verts:
        _require_ppt_state(v)
    halfspaces = _pyramid_halfspaces(verts[:-1], verts[-1])
    _log(
        __name__,
        _INFO,
        "separable polytope built: %d vertices, %d facets",
        len(verts),
        len(halfspaces),
    )
    return SeparablePolygon(vertices=tuple(verts), halfspaces=halfspaces)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


class ScanResult(NamedTuple):
    """The rows of one :func:`scan`, in input order."""

    rows: list[Classification]

    def counts(self) -> dict[str, int]:
        """Rows per verdict name, in order of first occurrence."""
        tally = Counter(row.verdict for row in self.rows)
        return {verdict.value: n for verdict, n in tally.items()}

    def csv_lines(self) -> Iterator[str]:
        yield CSV_HEADER
        for row in self.rows:
            yield row.csv_row()


def scan(points: Iterable[FamilyPoint | tuple[float, float, float]]) -> ScanResult:
    """Classify every point, preserving input order.

    Each row equals :func:`classify` of its point: both run the same loop.
    """
    pts = list(points)
    if not pts:
        raise ValueError("scan called with an empty grid")
    return ScanResult(rows=_classify_rows(pts))


def _grid_axis(spec: str) -> tuple[float, float, float, int]:
    """``(lo, hi, step, count)`` of a grid spec, validated but not expanded.

    A single value ``"x"`` has ``hi == lo`` and step 0.  Every value must
    be finite.
    """
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"grid spec must be 'lo:hi:step' or 'x', got {spec!r}")
    values = [float(v) for v in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid spec must be finite, got {spec!r}")
    if len(values) == 1:
        return values[0], values[0], 0.0, 1
    lo, hi, step = values
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
    return lo, hi, step, n + 1


def _check_grid_size(*counts: int) -> None:
    total = math.prod(counts)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points (at most {MAX_GRID_POINTS})")


def parse_grid(spec: str) -> list[float]:
    """``"lo:hi:step"`` (inclusive ends) or a single value ``"x"``.

    Raises ``ValueError`` for a malformed spec or one that expands to more
    than :data:`MAX_GRID_POINTS` values.
    """
    lo, hi, step, count = _grid_axis(spec)
    _check_grid_size(count)
    if not step:
        return [lo]
    # lo + k * step can round past hi on the last point; hi is inclusive.
    return [min(lo + k * step, hi) for k in range(count)]


def grid_points(
    alpha_spec: str, beta_spec: str, gamma_spec: str
) -> list[FamilyPoint]:
    """Row-major grid: alpha outermost, gamma innermost."""
    specs = (alpha_spec, beta_spec, gamma_spec)
    _check_grid_size(*(_grid_axis(s)[-1] for s in specs))
    alphas, betas, gammas = (parse_grid(s) for s in specs)
    return [FamilyPoint(a, b, g) for a in alphas for b in betas for g in gammas]


def plane_grid_points(gamma_spec: str, beta_spec: str) -> list[FamilyPoint]:
    """Facet grid: gamma outermost, beta innermost, alpha pinned by the facet."""
    _check_grid_size(_grid_axis(gamma_spec)[-1], _grid_axis(beta_spec)[-1])
    gammas, betas = parse_grid(gamma_spec), parse_grid(beta_spec)
    return [_facet_point(g, b) for g in gammas for b in betas]

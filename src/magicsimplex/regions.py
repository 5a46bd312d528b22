"""Region geometry and the classification pipeline.

The classifier stacks four certificates, cheapest arguments first:

1. positivity (closed-form facet slacks) -- else ``NotAState``;
2. the closed-form partial-transpose spectrum -- a negative eigenvalue
   means ``NptEntangled``;
3. the six closed-form witness planes -- a negative expectation on a PPT
   state certifies ``BoundEntangled``;
4. membership in an inner polytope of known separable states (the states
   cut by three exact half-spaces, around certified extreme points) --
   membership certifies ``Separable``.

Anything that survives all four is reported ``Undetermined``: the
certificates are sound but not complete.

One loop runs the pipeline: it walks the points once, reads the witness
battery once and builds the polytope only when a point reaches stage 4,
and it stops each point at its first decisive stage.  :func:`scan` is its
batch call and :func:`classify` its one-row call, so a scanned row equals
``classify`` of its point.  Its records -- :class:`Classification` (one
flat row, the point's coordinates first: ``row[:3]``), :class:`ScanResult`
and :class:`SeparablePolygon` -- are immutable named tuples with no
per-row method; the module defines no output format (:mod:`.cli` writes
every row and number).  All four stages evaluate their closed forms
inline: stage 1 the values of :func:`~.family.pyramid_slacks` computed in
floats, and stage 2 ``min(e0, e_minus)`` of
:func:`~.family.pt_block_eigenvalues` (``e_plus`` is never smaller), each
with the same operations in the same order, so a float point gives the
same bits.  An int coordinate, or a ``Fraction`` one outside stage 2, is
computed as its float value; stage 2 adds and squares two ``Fraction``
coordinates exactly before it rounds, so its ``pt_min_eig`` can sit a few
ulps from the float row's.  Stage 3 reads each witness plane as one plain
row of :func:`~.planes.witness_planes`.  A pin test in
``tests/test_regions.py`` holds every row bit for bit to those functions
and to the witness-plane and facet fields.  The grids behind ``scan
--grid`` and :func:`plane_grid_points` yield plain ``(alpha, beta,
gamma)`` tuples, each axis checked finite once, before the first point.

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
:func:`~.planes.witness_planes` and the three half-spaces that cut the
separable polytope out of the state space.  The matrix pipeline (the
spectrum of the partial-transposed 9x9 state, the matrix witness battery
:func:`~.witness.deployed_witnesses` and its ``Tr(W rho)`` expectations)
is the oracle the closed forms are tested against in ``verify`` and the
tests; this module imports only the standard library, and ``classify``
builds no matrix.

The separable polytope is the pyramid over the ``gamma = 0`` slice's PPT
quadrilateral (the first four :func:`build_polygon` vertices) with apex
``(0, 0, 1)``, where the facet triangle closes.  Each vertex is the image
of a product state (:func:`_product_image`), so it is separable.  Two of
its five facets are the positivity facets ``s1 >= 0`` and ``s4 >= 0``,
so it is the state space cut by three exact half-spaces
(``_FACET_ROWS``).  It lies in ``gamma >= 0``; on the ``gamma < 0`` side,
points that no witness detects are left ``Undetermined``.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from math import isfinite, sqrt
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .family import (
    _INFO,
    PPT_TOL,
    STATE_TOL,
    FamilyPoint,
    _log,
)
from .planes import witness_planes
from .verdicts import Verdict

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DETECTION_TOL",
    "MAX_GRID_POINTS",
    "MEMBERSHIP_TOL",
    "Classification",
    "ScanResult",
    "SeparablePolygon",
    "build_polygon",
    "classify",
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

#: The separable polytope's facets other than ``s1 >= 0`` and ``s4 >= 0``
#: (stage 1 decides those), as integer rows ``(n_alpha, n_beta, n_gamma,
#: offset)``, inside where ``n . p <= offset``: ``gamma >= 0`` and the two
#: side facets through the apex, which meet ``gamma = 0`` where ``e_minus``
#: vanishes.  On the positivity facet the first is ``beta = l_a(gamma)``.
_FACET_ROWS = (
    (0, 0, -1, 0),
    (8, -1, 2, 2),
    (-4, 5, 2, 2),
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


# ---------------------------------------------------------------------------
# Classification records
# ---------------------------------------------------------------------------


class Classification(NamedTuple):
    """Verdict for one point plus the evidence that produced it.

    Stages the pipeline never reached stay ``None`` (e.g. no witness data
    for an NPT point -- the battery was never consulted).
    """

    alpha: float
    beta: float
    gamma: float
    verdict: Verdict
    pyramid_margin: float
    pt_min_eig: float | None = None
    witness_name: str | None = None
    witness_value: float | None = None
    polygon_member: bool | None = None
    detail: str = ""


#: The loop's verdicts as module names: on Python 3.11 reading an Enum
#: member off its class costs about as much as one stage-1 slack.
_NOT_A_STATE, _NPT_ENTANGLED, _BOUND_ENTANGLED = (
    Verdict.NOT_A_STATE,
    Verdict.NPT_ENTANGLED,
    Verdict.BOUND_ENTANGLED,
)
_SEPARABLE, _UNDETERMINED = Verdict.SEPARABLE, Verdict.UNDETERMINED

#: Builds a :class:`Classification` from one flat tuple without the
#: generated ``__new__``'s keyword handling.
_new = tuple.__new__


def _classify_rows(
    points: Iterable[FamilyPoint | tuple[float, float, float]],
) -> list[Classification]:
    """The four-certificate pipeline over ``points``, in input order.

    This is the one classification loop: :func:`classify` is its one-row
    call and :func:`scan` its batch call.  The witness battery is read once
    per call, the polytope only once a point reaches stage 4.

    All four stages evaluate their closed forms inline rather than through
    calls: the slacks of :func:`~.family.pyramid_slacks` computed in floats
    and ``min(e0, e_minus)`` of :func:`~.family.pt_block_eigenvalues`, each
    with the same operations in the same order, then each witness plane as
    the plain row ``(name, beta_coeff, gamma_coeff, offset, trace_scale)``
    of :func:`~.planes.witness_planes` and each polytope facet as a plain
    tuple; ``tuple.__new__`` builds each row as one flat tuple from the
    coordinates.  A float point gives the bits of the ``family`` functions.
    An int coordinate, or a ``Fraction`` one in stages 1, 3 and 4, is
    computed as its float value; stage 2 adds and squares two ``Fraction``
    coordinates exactly before it rounds, so such a point can read a
    ``pt_min_eig`` a few ulps from its float row.  Every field keeps the
    type its arithmetic gives: ``numpy.float64`` coordinates give
    ``numpy.float64`` fields.  A plain 3-tuple is read as it is once its
    coordinate sum is finite; if the sum is not, the ``FamilyPoint``
    constructor raises for a non-finite coordinate and passes a sum that
    only overflowed.  Anything else goes through that constructor and
    raises as it does.  A pin test in ``tests/test_regions.py`` holds every
    row bit for bit to the ``family`` functions and the plane and facet
    fields.
    """
    planes = witness_planes()
    halfspaces = None
    rows: list[Classification] = []
    append = rows.append
    for p in points:
        if type(p) is tuple and len(p) == 3:
            a, b, g = p
            if not isfinite(a + b + g):
                FamilyPoint(*p)  # raises its ValueError, or the sum overflowed
        else:
            a, b, g = p if isinstance(p, FamilyPoint) else FamilyPoint(*p)
        # Stage 1: min(family.pyramid_slacks(p)) in floats, the min as
        # comparisons.  Float literals keep every operation float-only,
        # which CPython runs faster than a mixed int/float one.
        margin = 7.0 * b / 2.0 + 1.0 - g - a
        t = -b + 1.0
        s = t - g - a
        if s < margin:
            margin = s
        s = t + 2.0 * g - a
        if s < margin:
            margin = s
        s = a - (b - 1.0 + g) / 8.0
        if s < margin:
            margin = s
        if margin < STATE_TOL:
            row = (a, b, g, _NOT_A_STATE, margin, None, None, None, None, "")
            append(_new(Classification, row))
            continue
        # Stage 2: min(family.pt_block_eigenvalues(p)), the same way;
        # e_plus adds the root that e_minus subtracts, so it is never smaller.
        w = (1.0 - a - b - g) / 9.0
        y = a - b / 2.0
        pt_eig = w + (a + b) / 3.0
        s = w + g / 6.0 - sqrt(g * g / 36.0 + y * y / 9.0)
        if s < pt_eig:
            pt_eig = s
        if pt_eig < PPT_TOL:
            row = (a, b, g, _NPT_ENTANGLED, margin, pt_eig, None, None, None, "")
            append(_new(Classification, row))
            continue
        # Stage 3: Tr(W rho) = k * (alpha - (b beta + g gamma + c)); ties keep battery order.
        name = value = None
        for plane_name, nb, ng, c, k in planes:
            v = k * (a - (nb * b + ng * g + c))
            if value is None or v < value:
                name, value = plane_name, v
        if value < DETECTION_TOL:
            row = (a, b, g, _BOUND_ENTANGLED, margin, pt_eig, name, value, None, "")
            append(_new(Classification, row))
            continue
        # Stage 4: inside the polytope's three rows (stage 1 decided the
        # positivity facets), to MEMBERSHIP_TOL.
        if halfspaces is None:
            halfspaces = build_polygon().halfspaces
        verdict, member = _SEPARABLE, True
        for na, nb, ng, c in halfspaces:
            if na * a + nb * b + ng * g - c > MEMBERSHIP_TOL:
                verdict, member = _UNDETERMINED, False
                break
        row = (a, b, g, verdict, margin, pt_eig, name, value, member, "")
        append(_new(Classification, row))
    return rows


def classify(p: FamilyPoint | tuple[float, float, float]) -> Classification:
    """Run the four-certificate pipeline on one family point: a one-row scan."""
    return _classify_rows((p,))[0]


# ---------------------------------------------------------------------------
# The separable polytope
# ---------------------------------------------------------------------------


class SeparablePolygon(NamedTuple):
    """Convex hull of five product-state images: the states in three half-spaces.

    ``halfspaces`` holds one ``(n_alpha, n_beta, n_gamma, offset)`` per
    facet that is not a positivity facet, with an outward unit normal: a
    state is in the polytope when ``n . p <= offset`` for every row.
    """

    vertices: tuple[FamilyPoint, ...]
    halfspaces: tuple[tuple[float, float, float, float], ...]

    def vertex_array(self) -> np.ndarray:
        """The vertices as a ``(5, 3)`` float array, for the matrix oracle."""
        import numpy as np

        return np.array([v.as_tuple() for v in self.vertices])


#: The polytope's vertices as unnormalised real product states ``(a, b)``:
#: the ``gamma = 0`` slice corners, counter-clockwise from the maximally
#: mixed state, then the apex ``(0, 0, 1)``.
_PRODUCT_STATES = (
    ((1, 0, 0), (0, 1, 1)),
    ((1, 1, 1), (1, 1, 1)),
    ((1, 0, 0), (1, 0, 0)),
    ((1, 0, 1), (1, 0, -1)),
    ((1, 0, 0), (0, 1, 0)),
)


def _product_image(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], int]:
    """The family point of ``|a>|b>`` as integer numerators over one denominator.

    Averaging over ``W(n, m) (x) conj(W(n, m))``, the shears ``D^s (x)
    conj(D^s)`` with ``D = diag(1, w, w)``, ``w = exp(2 pi i / 3)``, and
    complex conjugation takes a state to the family state with its Bell
    weights averaged within each class, and product states to separable
    ones.  With ``d = |a|^2 |b|^2``, ``s = (a . b)^2`` and ``q_m = sum_k
    a_k^2 b_(k+m)^2``, the state has ``p_00 = s / 3d`` and class sums ``Q_m
    = q_m / d``, so its image ``(p_00 - Q_2/3, Q_0 - p_00 - 2 Q_2/3, Q_1 -
    Q_2)`` is ``(s - q2, 3 q0 - s - 2 q2, 3 (q1 - q2)) / 3d``.
    """
    d = sum(x * x for x in a) * sum(y * y for y in b)
    s = sum(x * y for x, y in zip(a, b)) ** 2
    q0, q1, q2 = (
        sum(a[k] ** 2 * b[(k + m) % 3] ** 2 for k in range(3)) for m in range(3)
    )
    return (s - q2, 3 * q0 - s - 2 * q2, 3 * (q1 - q2)), 3 * d


@lru_cache(maxsize=1)
def build_polygon() -> SeparablePolygon:
    """Assemble the separable polytope from its product states (built once).

    Each vertex is the image ``num / den`` of one of ``_PRODUCT_STATES``.
    The half-spaces are the rows of :data:`_FACET_ROWS` with unit normals.
    In integer arithmetic on the images, every vertex must lie in every row
    and every row must pass through at least three vertices; the build
    raises ``ArithmeticError`` otherwise.
    """
    images = [_product_image(a, b) for a, b in _PRODUCT_STATES]
    verts = tuple(FamilyPoint(*(x / den for x in num)) for num, den in images)
    halfspaces = []
    for row in _FACET_ROWS:
        na, nb, ng, c = row
        excess = [na * x + nb * y + ng * z - c * den for (x, y, z), den in images]
        on = excess.count(0)
        if max(excess) > 0 or on < 3:
            raise ArithmeticError(
                f"facet row {row} is not a face: numerator excess up to"
                f" {max(excess)}, {on} vertices on it"
            )
        length = math.hypot(na, nb, ng)
        halfspaces.append(tuple(x / length for x in row))
    _log(
        __name__,
        _INFO,
        "separable polytope built: %d vertices, %d facets",
        len(verts),
        len(halfspaces),
    )
    return SeparablePolygon(vertices=verts, halfspaces=tuple(halfspaces))


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


def scan(points: Iterable[FamilyPoint | tuple[float, float, float]]) -> ScanResult:
    """Classify every point, preserving input order.

    Each row equals :func:`classify` of its point: both run the same loop.
    """
    rows = _classify_rows(points)
    if not rows:
        raise ValueError("scan called with an empty grid")
    return ScanResult(rows=rows)


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
    if not math.isfinite(span):  # hi - lo overflowed, or the step is tiny
        span = hi / step - lo / step
    if not span < MAX_GRID_POINTS:  # nan when both quotients overflow
        raise ValueError(
            f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points"
        )
    n = int(round(span))
    if abs(lo + n * step - hi) > 1e-9 * max(1.0, abs(hi)):
        n = int(math.floor(span + 1e-12))
    return lo, hi, step, n + 1


def _grid_axes(*specs: str) -> list[tuple[float, float, float, int]]:
    """:func:`_grid_axis` of each spec, with the product of their sizes capped."""
    axes = [_grid_axis(spec) for spec in specs]
    total = math.prod(count for *_, count in axes)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points (at most {MAX_GRID_POINTS})")
    return axes


def _axis_values(lo: float, hi: float, step: float, count: int) -> Iterable[float]:
    """The values of one parsed axis, in order, each computed as it is read."""
    # lo + k * step can round past hi on the last point; hi is inclusive.
    return (min(lo + k * step, hi) for k in range(count)) if step else (lo,)


def parse_grid(spec: str) -> list[float]:
    """``"lo:hi:step"`` (inclusive ends) or a single value ``"x"``.

    Raises ``ValueError`` for a malformed spec or one that expands to more
    than :data:`MAX_GRID_POINTS` values.
    """
    (axis,) = _grid_axes(spec)
    return list(_axis_values(*axis))


def _grid(
    specs: Sequence[str], plane: bool = False
) -> tuple[tuple[float, float, float, int], Iterator[tuple[float, float, float]]]:
    """The gamma axis and the lazy points of a box grid or, with ``plane``, a facet grid.

    A box grid is ``(alpha, beta, gamma)`` specs, alpha outermost and gamma
    innermost; a facet grid is ``(gamma, beta)`` specs, gamma outermost,
    alpha pinned by the facet.  The points are plain ``(alpha, beta,
    gamma)`` tuples.  Every error of the grid is raised here, before the
    first point is read: :func:`_grid_axis` checks every axis value finite,
    and only a facet alpha can overflow.  That alpha ``7 beta / 2 + 1 -
    gamma`` rises with beta and falls with gamma, in floats too, so when a
    point's alpha overflows a corner's does, and the first corner to
    overflow in grid order raises the error the first such point would.
    """
    axes = _grid_axes(*specs)
    if not plane:
        alphas, betas, gammas = axes
        points = (
            (a, b, g)
            for a in _axis_values(*alphas)
            for b in _axis_values(*betas)
            for g in _axis_values(*gammas)
        )
        return gammas, points
    gammas, betas = axes
    # The first and last values of each axis, as _axis_values gives them.
    ends = [(lo, min(lo + (count - 1) * step, hi)) for lo, hi, step, count in axes]
    for g in ends[0]:
        for b in ends[1]:
            FamilyPoint(7.0 * b / 2.0 + 1.0 - g, b, g)
    points = (
        (7.0 * b / 2.0 + 1.0 - g, b, g)
        for g in _axis_values(*gammas)
        for b in _axis_values(*betas)
    )
    return gammas, points


def plane_grid_points(gamma_spec: str, beta_spec: str) -> list[tuple[float, float, float]]:
    """Facet grid: gamma outermost, beta innermost, alpha pinned by the facet.

    Each point is a plain ``(alpha, beta, gamma)`` tuple.
    """
    return list(_grid((gamma_spec, beta_spec), plane=True)[1])

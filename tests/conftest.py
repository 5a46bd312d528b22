"""Shared test oracles."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from magicsimplex.family import PPT_TOL, FamilyPoint, pt_min_eigenvalue, pyramid_margin
from magicsimplex.qmat import hs_inner
from magicsimplex.witness import deployed_witnesses

#: PYTHONPATH for subprocesses: this checkout's sources first, so the
#: tests pass without installing the package.
PYTHONPATH = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


def witness_values(rho: np.ndarray) -> list[tuple[str, float]]:
    """``Tr(W rho)`` for every member of the matrix battery (detection: < 0)."""
    return [(w.name, hs_inner(w.candidate.matrix, rho).real) for w in deployed_witnesses()]


def _slice_feasible(alpha: float, beta: float) -> bool:
    p = FamilyPoint(alpha, beta, 0.0)
    if pyramid_margin(p) < 0.0:
        return False
    return pt_min_eigenvalue(p) >= PPT_TOL


def trapezoid_vertices() -> tuple[tuple[float, float], ...]:
    """Corners of the PPT region in the ``gamma = 0`` slice, probed blind.

    96 rays from the maximally mixed state are bisected to 1e-9 against
    the combined positivity + PPT oracle; maximal collinear runs of
    boundary hits are fitted as edges and consecutive edge lines
    intersected.  No closed-form geometry enters: this is the independent
    construction the first four ``regions.build_polygon()`` vertices are
    tested against.
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


@pytest.fixture(scope="session")
def probed_slice_corners():
    """The blind slice probe's corners, computed once per session."""
    return trapezoid_vertices()

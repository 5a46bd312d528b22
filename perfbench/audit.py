"""Independent audit of ``regions.classify`` verdicts.

Each verdict is re-derived from evidence the production pipeline does not
use for its decision, and a verdict counts as contradicted only when that
evidence disagrees by more than a rounding band derived from double
precision:

* ``NotAState`` and "is a state": the Bell spectrum, written out here from
  its closed form (the pipeline decides on the pyramid slacks);
* PPT and NPT: ``np.linalg.eigvalsh`` on a partial transpose taken here by
  reindexing (the pipeline uses its own Jacobi solver);
* ``BoundEntangled``: the deployed witness expectations ``Tr(W rho)``;
* ``Separable``: the excess of the point over the facets of the separable
  polytope, recomputed from its exact rational vertices (the pipeline runs
  NNLS against probed vertices), plus "no witness fires" and "is PPT".

``Undetermined`` is never a contradiction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from magicsimplex.family import family_state
from magicsimplex.regions import build_polygon
from magicsimplex.witness import deployed_witnesses

EPS = float(np.finfo(float).eps)

#: Relative rounding band.  ``eigvalsh`` is backward stable (error of order
#: n * eps * ||A|| for n = 9), and a Hilbert-Schmidt product or facet
#: excess sums at most n^2 = 81 rounded products, so 81 * eps bounds every
#: quantity below relative to its scale.  That is about 1.8e-14, four
#: orders of magnitude under the pipeline's PPT_TOL (1e-10) and
#: MEMBERSHIP_TOL (1e-9): the audit does not inherit the pipeline's bands.
BAND = 81 * EPS

#: Corners of the gamma = 0 PPT quadrilateral plus the facet-triangle apex
#: (0, 0, 1): the exact points ``regions.build_polygon`` probes for.  Each
#: slice corner is where two boundary surfaces meet exactly: a pyramid
#: slack and the closed-form partial-transpose eigenvalue e0 or e-
#: (``family.pt_block_eigenvalues``).  ``_exact_vertices`` checks this in
#: rational arithmetic.
EXACT_VERTICES = (
    (Fraction(-1, 6), Fraction(-1, 3), Fraction(0)),
    (Fraction(2, 9), Fraction(-2, 9), Fraction(0)),
    (Fraction(1, 3), Fraction(2, 3), Fraction(0)),
    (Fraction(-1, 12), Fraction(1, 3), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


def _slacks(a, b, g):
    return (
        Fraction(7, 2) * b + 1 - g - a,
        -b + 1 - g - a,
        -b + 1 + 2 * g - a,
        a - (b / 8 - Fraction(1, 8) + g / 8),
    )


def _exact_vertices() -> np.ndarray:
    """The exact polytope vertices, each proved to sit on two boundaries."""
    for a, b, g in EXACT_VERTICES:
        w = (1 - a - b - g) / 9
        y = a - b / 2
        e0 = w + (a + b) / 3
        # e- = w + g/6 - sqrt(g^2/36 + y^2/9) vanishes iff (w + g/6)^2 equals
        # the radicand with w + g/6 >= 0.
        e_minus_zero = w + g / 6 >= 0 and (w + g / 6) ** 2 == g * g / 36 + y * y / 9
        zeros = sum(s == 0 for s in _slacks(a, b, g)) + (e0 == 0) + e_minus_zero
        if min(_slacks(a, b, g)) < 0 or zeros < 2:
            raise ArithmeticError(f"reference vertex {(a, b, g)} is not a boundary corner")
    return np.array(EXACT_VERTICES, dtype=float)


def _hull_facets(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals ``n`` and offsets ``d`` with ``n . x <= d`` inside."""
    normals, offsets = [], []
    for i, j, k in itertools.combinations(range(len(vertices)), 3):
        n = np.cross(vertices[j] - vertices[i], vertices[k] - vertices[i])
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            continue
        n /= norm
        side = vertices @ n - n @ vertices[i]
        if np.all(side <= 1e-12):
            normals.append(n)
        elif np.all(side >= -1e-12):
            normals.append(-n)
        else:
            continue
        offsets.append(normals[-1] @ vertices[i])
    return np.array(normals), np.array(offsets)


class VerdictAudit:
    """Audits batches of ``(point, verdict)`` pairs; build once per process."""

    def __init__(self) -> None:
        exact = _exact_vertices()
        probed = build_polygon().vertex_array()
        drift = np.abs(probed[:, None, :] - exact[None, :, :]).max(axis=2).min(axis=1)
        if len(probed) != len(exact) or drift.max() > 1e-6:
            raise ArithmeticError(
                f"program polytope {probed.tolist()} is not the reference polytope"
            )
        self.normals, self.offsets = _hull_facets(exact)
        # family_state is affine in (alpha, beta, gamma); rebuild it batched.
        origin = family_state((0.0, 0.0, 0.0))
        self.affine = np.stack(
            [origin]
            + [family_state(tuple(e)) - origin for e in np.eye(3)]
        )
        self.witnesses = np.stack([w.candidate.matrix for w in deployed_witnesses()])

    def contradictions(self, points: np.ndarray, verdicts: list[str]) -> np.ndarray:
        """Boolean mask: verdicts the independent evidence refutes."""
        a, b, g = points.T
        scale = 1.0 + np.abs(points).sum(axis=1)
        band = BAND * scale

        w = (1.0 - a - b - g) / 9.0
        bell_min = np.min(np.stack([w + a, w + b / 2.0, w + g / 3.0, w]), axis=0)

        rho = self.affine[0] + np.einsum("nk,kij->nij", points, self.affine[1:])
        pt = rho.reshape(-1, 3, 3, 3, 3).transpose(0, 1, 4, 3, 2).reshape(-1, 9, 9)
        pt_min = np.linalg.eigvalsh(pt)[:, 0]
        witness_min = np.einsum("kij,nij->nk", self.witnesses.conj(), rho).real.min(axis=1)
        hull_excess = (points @ self.normals.T - self.offsets).max(axis=1)

        v = np.array(verdicts)
        claims_state = v != "NotAState"
        decided = v != "Undetermined"
        bad = np.zeros(len(v), dtype=bool)
        bad |= (v == "NotAState") & (bell_min > band)
        bad |= claims_state & decided & (bell_min < -band)
        bad |= (v == "NptEntangled") & (pt_min > band)
        claims_ppt = (v == "BoundEntangled") | (v == "Separable")
        bad |= claims_ppt & (pt_min < -band)
        bad |= (v == "BoundEntangled") & (witness_min > band)
        bad |= (v == "Separable") & ((witness_min < -band) | (hull_excess > band))
        return bad

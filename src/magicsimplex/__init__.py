"""Tools for a three-parameter family of two-qutrit Bell-diagonal states.

The package classifies family members as separable, bound entangled, NPT
entangled, or undetermined, using stacked sound certificates: closed-form
positivity, the closed-form partial-transpose spectrum, a battery of
constructed entanglement witnesses, and an inner polytope of separable
states.  See :mod:`magicsimplex.regions` for the pipeline,
:mod:`magicsimplex.planes` for the closed-form witness planes and
:mod:`magicsimplex.witness` for the matrix construction that checks them.

The production modules (``verdicts``, ``family``, ``planes``, ``regions``,
``cli``) import only the standard library; importing the package loads no
numpy, and neither does any command but ``witness --name`` and ``verify``.
Nor does it load :mod:`logging`, :mod:`dataclasses`, :mod:`json` or
:mod:`fractions`: ``json`` loads only for JSON output, ``logging`` only
under ``MAGIC_SIMPLEX_LOG`` or once the host has imported it.  The package
logs to the ``magicsimplex.*`` loggers at DEBUG and INFO, with no handler.
The matrix oracle (``qmat``, ``weyl``, ``witness``, ``checks``) needs
numpy and is imported on its own, e.g. ``from magicsimplex.witness import
deployed_witnesses``.
"""

from __future__ import annotations

from .family import (
    FamilyPoint,
    PptResult,
    bell_spectrum,
    family_state,
    horodecki_classification,
    horodecki_point,
    is_ppt,
    plane_point,
    pt_min_eigenvalue,
    pyramid_margin,
)
from .planes import optimal_plane_start, pl1_cone_start
from .regions import (
    Classification,
    ScanResult,
    build_polygon,
    classify,
    l_a,
    l_b,
    scan,
)
from .verdicts import Verdict

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "FamilyPoint",
    "PptResult",
    "ScanResult",
    "Verdict",
    "bell_spectrum",
    "build_polygon",
    "classify",
    "family_state",
    "horodecki_classification",
    "horodecki_point",
    "is_ppt",
    "l_a",
    "l_b",
    "optimal_plane_start",
    "pl1_cone_start",
    "plane_point",
    "pt_min_eigenvalue",
    "pyramid_margin",
    "scan",
]

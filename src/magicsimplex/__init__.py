"""Tools for a three-parameter family of two-qutrit Bell-diagonal states.

The package classifies family members as separable, bound entangled, NPT
entangled, or undetermined, using stacked sound certificates: closed-form
positivity, the closed-form partial-transpose spectrum, a battery of
constructed entanglement witnesses, and an inner polytope of separable
states.  See :mod:`magicsimplex.regions` for the pipeline and
:mod:`magicsimplex.witness` for the witness constructions.
"""

from __future__ import annotations

import logging

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
from .witness import (
    LineSpec,
    c_lambda,
    c_limit,
    deployed_witnesses,
    lambda_min,
    optimal_plane_start,
    pl1_cone_start,
    witness_plane,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "FamilyPoint",
    "LineSpec",
    "PptResult",
    "ScanResult",
    "Verdict",
    "bell_spectrum",
    "build_polygon",
    "c_lambda",
    "c_limit",
    "classify",
    "deployed_witnesses",
    "family_state",
    "horodecki_classification",
    "horodecki_point",
    "is_ppt",
    "l_a",
    "l_b",
    "lambda_min",
    "optimal_plane_start",
    "pl1_cone_start",
    "plane_point",
    "pt_min_eigenvalue",
    "pyramid_margin",
    "scan",
    "witness_plane",
]

logging.getLogger(__name__).addHandler(logging.NullHandler())

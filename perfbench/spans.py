"""In-memory span recorder for magicsimplex's public entry points.

``Tracer.install`` replaces each traced function at every import site: in
every loaded ``magicsimplex`` module namespace that holds the function
object.  Each call records one span ``(id, parent, layer, start, end)`` in
a flat ``array('q')``; ``Tracer.summary`` derives calls, inclusive time,
self time (duration minus the time covered by child spans) and the longest
single call per layer.  Nothing is written until the caller asks for the
summary.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (layer, module, attribute) of every traced entry point.  Attributes the
#: program no longer has are skipped, so their layers report zero calls.
LAYERS = (
    ("regions.scan", "magicsimplex.regions", "scan"),
    ("regions.classify", "magicsimplex.regions", "classify"),
    ("regions.build_polygon", "magicsimplex.regions", "build_polygon"),
    ("family.pyramid_margin", "magicsimplex.family", "pyramid_margin"),
    ("family.family_state", "magicsimplex.family", "family_state"),
    ("family.pt_min_eigenvalue", "magicsimplex.family", "pt_min_eigenvalue"),
    ("qmat.hermitian_eigenvalues", "magicsimplex.qmat", "hermitian_eigenvalues"),
    ("witness.witness_values", "magicsimplex.witness", "witness_values"),
    ("witness.deployed_witnesses", "magicsimplex.witness", "deployed_witnesses"),
    ("witness.lambda_min", "magicsimplex.witness", "lambda_min"),
    ("witness.c_lambda", "magicsimplex.witness", "c_lambda"),
    ("witness.min_product_expectation", "magicsimplex.witness", "min_product_expectation"),
    ("weyl.weyl_tensor_decompose", "magicsimplex.weyl", "weyl_tensor_decompose"),
    ("checks.run_all", "magicsimplex.checks", "run_all"),
    ("cli.main", "magicsimplex.cli", "main"),
)

#: Method traced on the polytope class (membership test).
CONTAINS_LAYER = "regions.polytope_contains"

class Tracer:
    def __init__(self) -> None:
        self.layers: list[str] = []
        self.spans = array("q")
        self._stack = [-1]
        self._next_id = 0
        self.verdict_calls: dict[str, int] = {}
        self.verdict_ns: dict[str, int] = {}
        self.contains_accepted = 0
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, layer: str, fn, on_result=None):
        index = len(self.layers)
        self.layers.append(layer)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((span_id, parent, index, start, end))
            if on_result is not None:
                on_result(result, end - start)
            return result

        return traced

    def _on_classify(self, result, ns: int) -> None:
        verdict = result.verdict.value
        self.verdict_calls[verdict] = self.verdict_calls.get(verdict, 0) + 1
        self.verdict_ns[verdict] = self.verdict_ns.get(verdict, 0) + ns

    def _on_contains(self, result, ns: int) -> None:
        self.contains_accepted += bool(result)

    def install(self) -> None:
        """Wrap every entry point in ``LAYERS`` at all its import sites.

        The first call builds the wrappers; later calls re-apply them after
        ``uninstall``, so layer indices and counters carry over.
        """
        if not self._patches:
            self._patches = list(self._build_patches())
        for owner, name, _, traced in self._patches:
            setattr(owner, name, traced)

    def uninstall(self) -> None:
        """Restore the original functions (the spans recorded so far stay)."""
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _build_patches(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("magicsimplex")]
        for layer, module_name, attr in LAYERS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            hook = self._on_classify if layer == "regions.classify" else None
            traced = self._wrap(layer, original, hook)
            for module in modules:
                for name, value in vars(module).items():
                    if value is original:
                        yield module, name, original, traced
        regions = sys.modules.get("magicsimplex.regions")
        polygon_cls = getattr(regions, "SeparablePolygon", None)
        if polygon_cls is not None and hasattr(polygon_cls, "contains"):
            original = polygon_cls.contains
            traced = self._wrap(CONTAINS_LAYER, original, self._on_contains)
            yield polygon_cls, "contains", original, traced
        checks = sys.modules.get("magicsimplex.checks")
        if checks is not None and hasattr(checks, "_CHECKS"):
            original = checks._CHECKS
            traced = tuple(
                self._wrap(f"checks.{name}", fn)
                for name, fn in zip(checks.CHECK_NAMES, original)
            )
            yield checks, "_CHECKS", original, traced

    def summary(self) -> dict:
        """Per-layer calls, inclusive/self/max nanoseconds, plus tallies."""
        rows = np.frombuffer(self.spans, dtype=np.int64).copy().reshape(-1, 5)
        span_id, parent, layer = rows[:, 0], rows[:, 1], rows[:, 2]
        duration = rows[:, 4] - rows[:, 3]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=self._next_id
        )
        self_ns = duration - covered[span_id]
        layers = {}
        for index, name in enumerate(self.layers):
            mask = layer == index
            layers[name] = {
                "calls": int(mask.sum()),
                "incl_ns": int(duration[mask].sum()),
                "self_ns": int(self_ns[mask].sum()),
                "max_ns": int(duration[mask].max()) if mask.any() else 0,
            }
        return {
            "spans": int(len(rows)),
            "layers": layers,
            "verdict_calls": self.verdict_calls,
            "verdict_ns": self.verdict_ns,
            "contains_accepted": self.contains_accepted,
        }

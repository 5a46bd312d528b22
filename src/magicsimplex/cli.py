"""Command-line front end.

Subcommands:

``classify``
    Verdict and evidence for one family point.
``scan``
    Grid classification, CSV rows or a JSON summary.
``lambda-min``
    Smallest line parameter at which the line operator becomes a safe
    witness, for a PPT start.
``witness``
    List the six closed-form witness planes, or dump one member of the
    matrix battery (the oracle) as JSON.
``horodecki``
    Walk the one-parameter line, reporting both parametrizations.
``verify``
    Replay the twelve-point verification battery, as text lines or as JSON
    records with per-check wall times; exit 1 on any failure.

Points are addressed by exactly one of three flag groups: ``--alpha
--beta --gamma`` (simplex coordinates), ``--b`` (the one-parameter line),
or ``--epsilon --gamma`` (coordinates on the positivity facet).  All
numeric output is printed with 12 significant digits.  Exit codes: 0
success, 2 invalid input, 1 failed verification.  Set the environment
variable ``MAGIC_SIMPLEX_LOG`` to a level name (e.g. ``INFO``) for
diagnostics on stderr.

:func:`main` takes an argument list and is also the in-process entry
point: it returns the exit code instead of exiting.

The module imports only the standard library and the production modules
(:mod:`.family`, :mod:`.planes`, :mod:`.regions`, :mod:`.verdicts`), so
``classify``, ``scan``, ``lambda-min``, ``horodecki`` and the ``witness``
table run without numpy.  The numpy oracle (:mod:`.witness`, :mod:`.qmat`,
:mod:`.checks`) is imported inside the handlers of ``witness --name`` and
``verify``.  So are the costlier standard-library modules: :mod:`json`
only for JSON output, :mod:`logging` only when ``MAGIC_SIMPLEX_LOG`` is
set, and :mod:`fractions` only when a command builds the separable
polytope (:func:`.regions.build_polygon`).  JSON output is strict: a
non-finite number prints as ``null``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import nullcontext
from functools import lru_cache
from typing import TYPE_CHECKING, Any, ContextManager, Sequence, TextIO

from .family import (
    FamilyPoint,
    horodecki_classification,
    horodecki_point,
    plane_point,
)
from .planes import DEFAULT_SEED, lambda_min, witness_planes
from .regions import (
    CSV_HEADER,
    FACET_DOMAIN,
    classify,
    format_number as _fmt,
    grid_points,
    l_a,
    l_b,
    parse_grid,
    plane_grid_points,
    scan,
)

if TYPE_CHECKING:
    import logging


def _json_round(value: Any) -> Any:
    """Round floats to 12 significant digits for JSON emission.

    A non-finite float becomes ``None`` (JSON ``null``): strict JSON has no
    ``Infinity`` or ``NaN`` token.
    """
    if isinstance(value, float):
        return float(_fmt(value)) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_round(v) for v in value]
    return value


def _emit_json(out: TextIO, payload: Any) -> None:
    import json  # only JSON output needs it

    _emit(out, json.dumps(_json_round(payload), indent=2, allow_nan=False))


@lru_cache(maxsize=1)
def _log_handler() -> logging.StreamHandler:
    """The one stderr handler :func:`main` attaches, however often it runs."""
    import logging

    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    return handler


def _configure_logging() -> None:
    level_name = os.environ.get("MAGIC_SIMPLEX_LOG")
    if not level_name:
        return
    import logging  # only loaded when asked for; see family._log

    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        print(f"ignoring unknown MAGIC_SIMPLEX_LOG level {level_name!r}", file=sys.stderr)
        return
    handler = _log_handler()
    # In-process callers may have swapped sys.stderr since the last call.
    handler.stream = sys.stderr
    pkg_logger = logging.getLogger("magicsimplex")
    pkg_logger.addHandler(handler)  # no-op when already attached
    pkg_logger.setLevel(level)


# ---------------------------------------------------------------------------
# Flag handling
# ---------------------------------------------------------------------------


def _add_point_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group(
        "point addressing (use exactly one group)",
        "--alpha/--beta/--gamma, or --b, or --epsilon with --gamma",
    )
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--beta", type=float, default=None)
    group.add_argument("--gamma", type=float, default=None)
    group.add_argument("--b", type=float, default=None)
    group.add_argument("--epsilon", type=float, default=None)


def _resolve_point(args: argparse.Namespace) -> FamilyPoint:
    has_abc = args.alpha is not None or args.beta is not None
    if args.b is not None:
        if has_abc or args.epsilon is not None or args.gamma is not None:
            raise ValueError("--b conflicts with the other point-addressing flags")
        return horodecki_point(args.b)
    if args.epsilon is not None:
        if has_abc:
            raise ValueError("--epsilon/--gamma conflicts with --alpha/--beta")
        if args.gamma is None:
            raise ValueError("--epsilon requires --gamma")
        return plane_point(args.epsilon, args.gamma)
    if args.alpha is None or args.beta is None or args.gamma is None:
        raise ValueError(
            "address a point with --alpha/--beta/--gamma, --b, or --epsilon/--gamma"
        )
    return FamilyPoint(args.alpha, args.beta, args.gamma)


def _open_out(path: str | None) -> ContextManager[TextIO]:
    # stdout must survive the ``with`` block: this module is also driven
    # in-process (tests, other tools), not only as a one-shot subprocess.
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _emit(out: TextIO, text: str) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> int:
    point = _resolve_point(args)
    row = classify(point)
    with _open_out(args.out) as out:
        if args.format == "csv":
            _emit(out, CSV_HEADER)
            _emit(out, row.csv_row())
        elif args.format == "json":
            payload = {
                "alpha": point.alpha,
                "beta": point.beta,
                "gamma": point.gamma,
                "verdict": row.verdict.value,
                "pyramid_margin": row.pyramid_margin,
                "pt_min_eig": row.pt_min_eig,
                "witness_name": row.witness_name,
                "witness_value": row.witness_value,
                "polygon_member": row.polygon_member,
                "detail": row.detail,
            }
            _emit_json(out, payload)
        else:
            _emit(out, f"verdict: {row.verdict.value}")
            _emit(
                out,
                "point: alpha=%s beta=%s gamma=%s"
                % (_fmt(point.alpha), _fmt(point.beta), _fmt(point.gamma)),
            )
            _emit(out, f"pyramid_margin: {_fmt(row.pyramid_margin)}")
            if row.pt_min_eig is not None:
                _emit(out, f"pt_min_eig: {_fmt(row.pt_min_eig)}")
            if row.witness_name is not None:
                _emit(
                    out,
                    f"witness: {row.witness_name} value {_fmt(row.witness_value)}",
                )
            if row.polygon_member is not None:
                _emit(out, f"polygon_member: {str(row.polygon_member).lower()}")
            if row.detail:
                _emit(out, f"detail: {row.detail}")
    return 0


def _scan_points(args: argparse.Namespace):
    if args.grid is None:
        raise ValueError("scan requires --grid")
    specs = args.grid.split(",")
    if args.plane:
        if len(specs) != 2:
            raise ValueError("--plane expects --grid gamma0:gamma1:step,beta0:beta1:step")
        return plane_grid_points(specs[0], specs[1])
    if len(specs) != 3:
        raise ValueError(
            "--grid expects alpha0:alpha1:step,beta0:beta1:step,gamma0:gamma1:step"
        )
    return grid_points(specs[0], specs[1], specs[2])


def _cmd_scan(args: argparse.Namespace) -> int:
    points = _scan_points(args)
    result = scan(points)
    counts = result.counts()
    with _open_out(args.out) as out:
        if args.format == "json":
            gammas = sorted({p.gamma for p in points})
            samples = [
                {"gamma": g, "l_a": l_a(g), "l_b": l_b(g)}
                for g in gammas
                if abs(g) <= FACET_DOMAIN
            ]
            payload = {
                "rows": len(result.rows),
                "counts": counts,
                "boundary_samples": samples,
            }
            _emit_json(out, payload)
        else:
            for line in result.csv_lines():
                _emit(out, line)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"scanned {len(result.rows)} points: {summary}", file=sys.stderr)
    return 0


def _cmd_lambda_min(args: argparse.Namespace) -> int:
    point = _resolve_point(args)
    value = lambda_min(point)
    with _open_out(args.out) as out:
        if args.format == "json":
            payload = {
                "alpha": point.alpha,
                "beta": point.beta,
                "gamma": point.gamma,
                "lambda_min": value,
            }
            _emit_json(out, payload)
        elif value is None:
            _emit(out, "lambda_min: never feasible (degenerate line)")
        else:
            _emit(out, f"lambda_min: {_fmt(value)}")
    return 0


def _witness_payload(name: str) -> dict[str, Any]:
    from .qmat import matrix_to_json
    from .witness import deployed_witness

    w = deployed_witness(name)
    plane = w.plane
    lo, hi = w.candidate.a_interval
    return {
        "name": w.name,
        "matrix": matrix_to_json(w.candidate.matrix),
        "plane": {
            "a_coeff": 1.0,
            "b_coeff": -plane.beta_coeff,
            "g_coeff": -plane.gamma_coeff,
            "const": -plane.offset,
        },
        "trace_scale": plane.trace_scale,
        "feasible": w.candidate.feasible,
        "a_interval": [lo, hi],
        "weyl_coefficients": [
            [n, m, value.real, value.imag]
            for (n, m), value in sorted(w.candidate.coeffs.coeffs.items())
        ],
    }


def _cmd_witness(args: argparse.Namespace) -> int:
    with _open_out(args.out) as out:
        if args.name is None:
            for name, plane in witness_planes():
                _emit(
                    out,
                    "%-4s alpha = %s beta + %s gamma + %s   (trace scale %s)"
                    % (
                        name,
                        _fmt(plane.beta_coeff),
                        _fmt(plane.gamma_coeff),
                        _fmt(plane.offset),
                        _fmt(plane.trace_scale),
                    ),
                )
            return 0
        payload = _witness_payload(args.name)
        _emit_json(out, payload)
    return 0


_HORODECKI_CSV_HEADER = "b,alpha,beta,gamma,pyramid_margin,pt_min_eig,classification"


def _cmd_horodecki(args: argparse.Namespace) -> int:
    if (args.b is None) == (args.grid is None):
        raise ValueError("give exactly one of --b or --grid b0:b1:step")
    b_values = [args.b] if args.b is not None else parse_grid(args.grid)
    # Points on the line are states, so every row carries its PT minimum.
    rows = list(zip(b_values, scan([horodecki_point(b) for b in b_values]).rows))
    with _open_out(args.out) as out:
        if args.format == "json":
            payload = [
                {
                    "b": b,
                    "alpha": c.point.alpha,
                    "beta": c.point.beta,
                    "gamma": c.point.gamma,
                    "pyramid_margin": c.pyramid_margin,
                    "pt_min_eig": c.pt_min_eig,
                    "classification": c.verdict.value,
                    "published": horodecki_classification(b).value,
                }
                for b, c in rows
            ]
            _emit_json(out, payload)
        else:
            _emit(out, _HORODECKI_CSV_HEADER)
            for b, c in rows:
                p = c.point
                _emit(
                    out,
                    ",".join(
                        (
                            _fmt(b),
                            _fmt(p.alpha),
                            _fmt(p.beta),
                            _fmt(p.gamma),
                            _fmt(c.pyramid_margin),
                            _fmt(c.pt_min_eig),
                            c.verdict.value,
                        )
                    ),
                )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .checks import run_all

    only = None
    if args.only is not None:
        try:
            only = [int(tok) for tok in args.only.split(",")]
        except ValueError:
            raise ValueError(
                f"--only expects comma-separated integers, got {args.only!r}"
            ) from None
    results = run_all(seed=args.seed, only=only)
    failures = sum(not r.passed for r in results)
    with _open_out(args.out) as out:
        if args.format == "json":
            payload = {
                "checks": [r._asdict() for r in results],
                "passed": len(results) - failures,
                "total": len(results),
            }
            _emit_json(out, payload)
        else:
            for r in results:
                status = "PASS" if r.passed else "FAIL"
                _emit(
                    out,
                    "[%s] %2d %-30s expected=%s computed=%s tol=%s"
                    % (status, r.index, r.name, _fmt(r.expected), _fmt(r.computed), _fmt(r.tolerance)),
                )
                if r.detail:
                    _emit(out, f"         {r.detail}")
            _emit(out, f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magicsimplex",
        description="Classify, scan, and verify the three-parameter two-qutrit family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="verdict and evidence for one point")
    p_classify.set_defaults(handler=_cmd_classify)
    _add_point_flags(p_classify)
    p_classify.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_classify.add_argument("--out", default=None)

    p_scan = sub.add_parser("scan", help="classify a grid of points")
    p_scan.set_defaults(handler=_cmd_scan)
    p_scan.add_argument("--grid", required=True, help="comma-separated lo:hi:step specs")
    p_scan.add_argument(
        "--plane",
        action="store_true",
        help="two-spec grid (gamma,beta) on the positivity facet",
    )
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--out", default=None)

    p_lambda = sub.add_parser(
        "lambda-min", help="first safe-witness parameter along the line to the center"
    )
    p_lambda.set_defaults(handler=_cmd_lambda_min)
    _add_point_flags(p_lambda)
    p_lambda.add_argument("--format", choices=("text", "json"), default="text")
    p_lambda.add_argument("--out", default=None)

    p_witness = sub.add_parser("witness", help="list or dump the deployed witnesses")
    p_witness.set_defaults(handler=_cmd_witness)
    p_witness.add_argument("--name", default=None, help="dump one witness as JSON")
    p_witness.add_argument("--out", default=None)

    p_horo = sub.add_parser("horodecki", help="walk the one-parameter line")
    p_horo.set_defaults(handler=_cmd_horodecki)
    p_horo.add_argument("--b", type=float, default=None)
    p_horo.add_argument("--grid", default=None, help="b0:b1:step")
    p_horo.add_argument("--format", choices=("csv", "json"), default="csv")
    p_horo.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="replay the verification battery")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--only", default=None, help="comma-separated check indices")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    # argparse reads ``--flag -1e-3`` (unlike ``--flag -0.1``) as a missing value.
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"--[^=]+$", argv[i - 1]) and re.match(r"-[\d.in]", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # Invalid input raises ValueError (unwritable output OSError): exit 2.
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

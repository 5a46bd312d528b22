"""Command-line front end.

Subcommands:

``classify``
    Verdict and evidence for one family point.
``scan``
    Grid classification, CSV rows or a JSON summary; the grid is
    classified a chunk at a time, its rows written as they are built, and
    the summary's boundary samples are written a chunk at a time too.
``lambda-min``
    Smallest line parameter at which the line operator becomes a safe
    witness, for a PPT start; "never feasible" names why: a degenerate
    line (the maximally mixed start) or an onset beyond the endpoint.
``witness``
    List the six closed-form witness planes, or dump one member of the
    matrix battery (the oracle) as JSON.
``horodecki``
    Walk the one-parameter line, reporting both parametrizations; rows are
    classified a chunk at a time as they are written.
``verify``
    Replay the twelve-point verification battery, as text lines or as JSON
    records with per-check wall times; exit 1 on any failure.

Points are addressed by exactly one of three flag groups: ``--alpha
--beta --gamma`` (simplex coordinates), ``--b`` (the one-parameter line),
or ``--epsilon --gamma`` (coordinates on the positivity facet).  This
module owns every output format: :func:`format_number` prints each number
with 12 significant digits, and :func:`csv_row` writes a classification
under :data:`CSV_HEADER`.  Every subcommand opens ``--out`` only after the
command has succeeded, so a failing command leaves the file as it was.
Exit codes: 0 success, 2 invalid input, 1 failed verification, 141 (128 +
SIGPIPE) when the reader closes stdout early, as ``| head`` does.  Set the
environment variable ``MAGIC_SIMPLEX_LOG`` to a level name (e.g.
``INFO``) for diagnostics on stderr.

:func:`main` takes an argument list and is also the in-process entry
point: it returns the exit code instead of exiting.

The module imports only the standard library and the production modules
(:mod:`.family`, :mod:`.planes`, :mod:`.regions`, :mod:`.verdicts`), so
``classify``, ``scan``, ``lambda-min``, ``horodecki`` and the ``witness``
table run without numpy.  The numpy oracle (:mod:`.witness`, :mod:`.qmat`,
:mod:`.checks`) is imported inside the handlers of ``witness --name`` and
``verify``.  So are the costlier standard-library modules: :mod:`json`
only for JSON output and :mod:`logging` only when ``MAGIC_SIMPLEX_LOG`` is
set.  JSON output is strict: a non-finite number prints as ``null``.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections import Counter
from contextlib import nullcontext
from functools import lru_cache
from itertools import groupby, islice
from typing import TYPE_CHECKING, Any, ContextManager, Iterable, Iterator, Sequence, TextIO

from .family import (
    FamilyPoint,
    horodecki_classification,
    horodecki_point,
    plane_point,
)
from .planes import DEFAULT_SEED, lambda_min, witness_planes
from .regions import (
    FACET_DOMAIN,
    Classification,
    ScanResult,
    _axis_values,
    _grid,
    _grid_axes,
    classify,
    l_a,
    l_b,
    scan,
)
from .verdicts import Verdict

if TYPE_CHECKING:
    import logging


# ---------------------------------------------------------------------------
# Output format
# ---------------------------------------------------------------------------

#: The columns of a ``classify --format csv`` or ``scan`` row (:func:`csv_row`).
CSV_HEADER = "alpha,beta,gamma,verdict,pt_min_eig,witness_name,witness_value,polygon_member"


def format_number(x: float | str | bool | None) -> str:
    """One output cell: a number to 12 significant digits and no ``-0.0``.

    ``None`` prints as an empty field, a string as itself and a bool as
    ``true`` or ``false``.
    """
    if x is None or isinstance(x, str):
        return x or ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return "%.12g" % (x + 0.0)  # + 0.0 drops -0.0


#: Each verdict's CSV text: on Python 3.11 ``Verdict.value`` goes through
#: enum's Python-level descriptor, a dict lookup does not.
_VERDICT_TEXT = {verdict: verdict.value for verdict in Verdict}


def csv_row(row: Classification) -> str:
    """The :data:`CSV_HEADER` cells of one row, as :func:`format_number` prints them.

    Each field of a stage the pipeline never reached is ``None`` and prints
    empty, so the first ``None`` among ``pt_min_eig``, ``witness_name`` and
    ``polygon_member`` names the row's exit stage; each exit stage has one
    ``%`` template.
    """
    a, b, g, verdict, _, eig, name, value, member, _ = row
    verdict_text = _VERDICT_TEXT[verdict]
    if eig is None:
        return "%.12g,%.12g,%.12g,%s,,,," % (a + 0.0, b + 0.0, g + 0.0, verdict_text)
    if name is None:
        return "%.12g,%.12g,%.12g,%s,%.12g,,," % (
            a + 0.0, b + 0.0, g + 0.0, verdict_text, eig + 0.0
        )
    if member is None:
        return "%.12g,%.12g,%.12g,%s,%.12g,%s,%.12g," % (
            a + 0.0, b + 0.0, g + 0.0, verdict_text, eig + 0.0, name, value + 0.0
        )
    return "%.12g,%.12g,%.12g,%s,%.12g,%s,%.12g,%s" % (
        a + 0.0, b + 0.0, g + 0.0, verdict_text, eig + 0.0, name, value + 0.0,
        "true" if member else "false",
    )


def _json_round(value: Any) -> Any:
    """Round floats to 12 significant digits for JSON emission.

    A non-finite float becomes ``None`` (JSON ``null``): strict JSON has no
    ``Infinity`` or ``NaN`` token.
    """
    if isinstance(value, float):
        return float(format_number(value)) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_round(v) for v in value]
    return value


def _json_text(payload: Any) -> str:
    import json  # only JSON output needs it

    return json.dumps(_json_round(payload), indent=2, allow_nan=False)


def _json_list_lines(chunks: Iterable[list[Any]], depth: int = 0) -> Iterator[str]:
    """The lines of :func:`_json_text` of the chunks' concatenation, a chunk at a time.

    Each chunk's own text less its brackets is spliced in, the pieces joined
    by commas.  ``depth`` is the list's nesting level in the enclosing
    document: every line but the first is indented two spaces per level.
    """
    pad = "  " * depth
    text = None
    for chunk in chunks:
        yield "[" if text is None else text + ","
        text = pad + _json_text(chunk)[2:-2].replace("\n", "\n" + pad)
    if text is None:
        yield "[]"
    else:
        yield text
        yield pad + "]"


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


def _add_output_flags(sub: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """``--format`` (the first choice is the default), when given, then ``--out``."""
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None)


def _open_out(path: str | None) -> ContextManager[TextIO]:
    # stdout must survive the ``with`` block: this module is also driven
    # in-process (tests, other tools), not only as a one-shot subprocess.
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


#: Points ``scan`` and ``horodecki`` classify per :func:`~.regions.scan` call.
_CHUNK = 1024


def _chunks(values: Iterable[Any]) -> Iterator[list[Any]]:
    """``values`` in lists of :data:`_CHUNK`, the last one shorter."""
    values = iter(values)
    while chunk := list(islice(values, _CHUNK)):
        yield chunk


# ---------------------------------------------------------------------------
# Subcommand implementations
#
# Each handler raises every error before it returns, and then returns
# ``(exit_code, lines)``: the output lines, with no trailing newline,
# possibly as a lazy iterable (``scan`` and ``horodecki`` classify their
# rows only as they are written).  Only :func:`main` opens ``--out`` and
# writes them.
# ---------------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    row = classify(_resolve_point(args))
    if args.format == "csv":
        return 0, [CSV_HEADER, csv_row(row)]
    if args.format == "json":
        return 0, [_json_text({**row._asdict(), "verdict": row.verdict.value})]
    lines = [
        f"verdict: {row.verdict.value}",
        "point: alpha=%s beta=%s gamma=%s" % tuple(map(format_number, row[:3])),
        f"pyramid_margin: {format_number(row.pyramid_margin)}",
    ]
    if row.pt_min_eig is not None:
        lines.append(f"pt_min_eig: {format_number(row.pt_min_eig)}")
    if row.witness_name is not None:
        lines.append(f"witness: {row.witness_name} value {format_number(row.witness_value)}")
    if row.polygon_member is not None:
        lines.append(f"polygon_member: {format_number(row.polygon_member)}")
    return 0, lines


def _cmd_scan(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    specs = args.grid.split(",")
    if args.plane and len(specs) != 2:
        raise ValueError("--plane expects --grid gamma0:gamma1:step,beta0:beta1:step")
    if not args.plane and len(specs) != 3:
        raise ValueError(
            "--grid expects alpha0:alpha1:step,beta0:beta1:step,gamma0:gamma1:step"
        )
    gamma_axis, points = _grid(specs, args.plane)
    # Rows are classified a chunk at a time and tallied as they are read.
    counts: Counter[str] = Counter()

    def results() -> Iterator[ScanResult]:
        for chunk in _chunks(points):
            result = scan(chunk)
            counts.update(result.counts())
            yield result

    def csv_lines() -> Iterator[str]:
        yield CSV_HEADER
        for result in results():
            for row in result.rows:
                yield csv_row(row)

    def json_lines() -> Iterator[str]:
        for _ in results():  # the payload needs only the counts
            pass
        payload = {"rows": sum(counts.values()), "counts": counts, "boundary_samples": []}
        # One sample per distinct gamma, ascending: the axis never falls.
        samples = (
            {"gamma": g, "l_a": l_a(g), "l_b": l_b(g)}
            for g, _ in groupby(_axis_values(*gamma_axis))
            if abs(g) <= FACET_DOMAIN
        )
        # The samples stream into the payload's text in place of its "[]".
        lines = _json_list_lines(_chunks(samples), depth=1)
        yield _json_text(payload)[: -len("[]\n}")] + next(lines)
        yield from lines
        yield "}"

    # The summary follows the last line written, and a failed write skips it.
    def lines_then_summary() -> Iterator[str]:
        yield from json_lines() if args.format == "json" else csv_lines()
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"scanned {sum(counts.values())} points: {summary}", file=sys.stderr)

    return 0, lines_then_summary()


def _cmd_lambda_min(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    point = _resolve_point(args)
    value = lambda_min(point)
    if args.format == "json":
        return 0, [_json_text({**point._asdict(), "lambda_min": value})]
    if value is None:
        # Only the maximally mixed state has a vanishing line operator.
        why = "degenerate line" if not any(point) else "onset beyond the endpoint"
        return 0, [f"lambda_min: never feasible ({why})"]
    return 0, [f"lambda_min: {format_number(value)}"]


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


def _cmd_witness(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if args.name is not None:
        return 0, [_json_text(_witness_payload(args.name))]
    return 0, [
        "%-4s alpha = %s beta + %s gamma + %s   (trace scale %s)"
        % (name, *map(format_number, plane))
        for name, *plane in witness_planes()
    ]


#: The keys of a ``horodecki`` JSON record but ``published``: its CSV columns.
_HORODECKI_HEADER = "b,alpha,beta,gamma,pyramid_margin,pt_min_eig,classification"


def _cmd_horodecki(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if (args.b is None) == (args.grid is None):
        raise ValueError("give exactly one of --b or --grid b0:b1:step")
    (axis,) = _grid_axes(args.grid) if args.b is None else [(args.b, args.b, 0.0, 1)]
    for b in _axis_values(*axis):
        horodecki_point(b)  # raises for the first value off the line

    # Rows are classified and built a chunk at a time, as they are written.
    def chunks() -> Iterator[list[dict[str, Any]]]:
        for b_values in _chunks(_axis_values(*axis)):
            rows = scan([horodecki_point(b) for b in b_values]).rows
            # Points on the line are states, so every row carries its PT minimum.
            yield [
                {
                    "b": b,
                    "alpha": c.alpha, "beta": c.beta, "gamma": c.gamma,
                    "pyramid_margin": c.pyramid_margin,
                    "pt_min_eig": c.pt_min_eig,
                    "classification": c.verdict.value,
                    "published": horodecki_classification(b).value,
                }
                for b, c in zip(b_values, rows)
            ]

    def csv_lines() -> Iterator[str]:
        yield _HORODECKI_HEADER
        fields = _HORODECKI_HEADER.split(",")
        for chunk in chunks():
            for record in chunk:
                yield ",".join(format_number(record[key]) for key in fields)

    return 0, _json_list_lines(chunks()) if args.format == "json" else csv_lines()


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
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
    code = 1 if failures else 0
    if args.format == "json":
        payload = {
            "checks": [r._asdict() for r in results],
            "passed": len(results) - failures,
            "total": len(results),
        }
        return code, [_json_text(payload)]
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        numbers = map(format_number, (r.expected, r.computed, r.tolerance))
        lines.append(
            "[%s] %2d %-30s expected=%s computed=%s tol=%s"
            % (status, r.index, r.name, *numbers)
        )
        if r.detail:
            lines.append(f"         {r.detail}")
    lines.append(f"{len(results) - failures}/{len(results)} checks passed")
    return code, lines


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
    _add_output_flags(p_classify, ("text", "csv", "json"))

    p_scan = sub.add_parser("scan", help="classify a grid of points")
    p_scan.set_defaults(handler=_cmd_scan)
    p_scan.add_argument("--grid", required=True, help="comma-separated lo:hi:step specs")
    p_scan.add_argument(
        "--plane",
        action="store_true",
        help="two-spec grid (gamma,beta) on the positivity facet",
    )
    _add_output_flags(p_scan, ("csv", "json"))

    p_lambda = sub.add_parser(
        "lambda-min", help="first safe-witness parameter along the line to the center"
    )
    p_lambda.set_defaults(handler=_cmd_lambda_min)
    _add_point_flags(p_lambda)
    _add_output_flags(p_lambda, ("text", "json"))

    p_witness = sub.add_parser("witness", help="list or dump the deployed witnesses")
    p_witness.set_defaults(handler=_cmd_witness)
    p_witness.add_argument("--name", default=None, help="dump one witness as JSON")
    _add_output_flags(p_witness, ())

    p_horo = sub.add_parser("horodecki", help="walk the one-parameter line")
    p_horo.set_defaults(handler=_cmd_horodecki)
    p_horo.add_argument("--b", type=float, default=None)
    p_horo.add_argument("--grid", default=None, help="b0:b1:step")
    _add_output_flags(p_horo, ("csv", "json"))

    p_verify = sub.add_parser("verify", help="replay the verification battery")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--only", default=None, help="comma-separated check indices")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output_flags(p_verify, ("text", "json"))

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
    # The handler has raised every input error before --out is opened.
    try:
        code, lines = args.handler(args)
        with _open_out(args.out) as out:
            for line in lines:
                out.write(line + "\n")
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader stopped reading (``| head``): end quietly, with the exit
        # status of a process killed by SIGPIPE.  Pointing stdout at devnull
        # keeps the interpreter's last flush off the closed pipe.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # in-process capture
            pass
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

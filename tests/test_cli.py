"""CLI behavior: flag handling, exit codes, formats, determinism."""

import hashlib
import importlib
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from conftest import PYTHONPATH

from magicsimplex import cli, regions, weyl, witness
from magicsimplex.checks import run_all
from magicsimplex.cli import main
from magicsimplex.planes import witness_planes

#: Recorded stdout of known invocations, one ``.txt`` file each.
GOLDEN = Path(__file__).resolve().parent / "golden"

README = Path(__file__).resolve().parent.parent / "README.md"

#: SHA-256 of the recorded stdout of invocations too large to keep as text.
GOLDEN_DIGESTS = {
    "scan_plane_facet_grid": "16bae9f6f818df52038e20c67b48b1386895253d396e7750cbcec8b95e5480bc",
    "scan_box_0.05": "0c80714d44f9f42b1ab2b18d565f6c1507d2b5be34108431886f7512b7bd09f2",
    "witness_Pl1": "9793dfacfde8d950fe1dd7ece87194a9f5ac6165cf72e892c58b735697bc2652",
    "witness_Pl1m": "83a2cfd2b7976ffc4a87b7aedff9dde84824acc52580947a7d55781cb5f22749",
    "witness_Pl2": "5e4df4bc5c6d9a2ff44d14dcaf8fa453e6af81da353e7245ae499e694b953d96",
    "witness_Pl2m": "fb90765f187f4003be69fd1cb549d12cb7f67172ab5be798752e39fec6d504c5",
    "witness_Pl3": "da9a0209d61b279db177f939401bc25880d489174551e7b7cc60b4c4dc1c23b8",
    "witness_Pl3m": "efb2c923402c93e59943b7f9d3f8b7947bcb668a01d5cfc889ee1d2c8a251ae0",
    "horodecki_0_5_0.01": "7f2ced4777588b2ad454fc84e76f6c0ff9dd896486749d404e0bfd9d6c110c74",
    "horodecki_0_5_0.01_json": "0f87f064ffe4f56e2c5e3b8898f53048c28df08ea5700beaf8ef54b9becc343d",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_by_line_parameter(capsys):
    code, out, _ = run_cli(capsys, "classify", "--b", "3.5")
    assert code == 0
    assert "BoundEntangled" in out


def test_classify_origin_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--alpha", "0", "--beta", "0", "--gamma", "0")
    assert code == 0
    assert out.startswith("verdict: Separable")
    assert "pyramid_margin: 0.125" in out


def test_classify_facet_flags(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--epsilon", "-0.25", "--gamma", "0.25"
    )
    assert code == 0
    assert "verdict:" in out


def test_classify_takes_a_negative_value_in_scientific_notation(capsys):
    # argparse alone reads "-1e-3" after a flag as a missing argument
    code, out, err = run_cli(capsys, "classify", "--alpha", "-1e-3", "--beta", "0", "--gamma", "0")
    assert (code, err) == (0, "")
    assert "point: alpha=-0.001 beta=0 gamma=0" in out
    assert out == run_cli(capsys, "classify", "--alpha=-1e-3", "--beta=0", "--gamma=0")[1]


def test_classify_json(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--b", "1.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "BoundEntangled"
    assert payload["witness_value"] < 0
    assert set(payload) >= {"alpha", "beta", "gamma", "pt_min_eig", "pyramid_margin"}


def _strict_json(text: str):
    def reject(token: str):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_classify_json_prints_an_overflowing_margin_as_null(capsys):
    # The pyramid slacks overflow to -inf for these finite coordinates;
    # strict JSON has no Infinity token, while the text output keeps -inf.
    point = ("--alpha", "1e308", "--beta", "1e308", "--gamma", "0")
    code, out, _ = run_cli(capsys, "classify", *point, "--format", "json")
    assert code == 0
    payload = _strict_json(out)
    assert payload["verdict"] == "NotAState"
    assert payload["pyramid_margin"] is None
    code, out, _ = run_cli(capsys, "classify", *point)
    assert code == 0
    assert "pyramid_margin: -inf" in out


def test_classify_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "--b", "2.5", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "alpha,beta,gamma,verdict,pt_min_eig,witness_name,witness_value,polygon_member"
    assert row.split(",")[3] == "Separable"


def test_conflicting_point_flags(capsys):
    code, _, err = run_cli(capsys, "classify", "--b", "1", "--alpha", "0")
    assert code == 2
    assert "conflicts" in err


def test_missing_point_flags(capsys):
    code, _, err = run_cli(capsys, "classify")
    assert code == 2
    assert "address a point" in err


def test_epsilon_without_gamma(capsys):
    code, _, err = run_cli(capsys, "classify", "--epsilon", "0.1")
    assert code == 2
    assert "requires --gamma" in err


def test_invalid_line_parameter(capsys):
    code, _, err = run_cli(capsys, "classify", "--b", "9")
    assert code == 2
    assert "[0, 5]" in err


# ---------------------------------------------------------------------------
# lambda-min
# ---------------------------------------------------------------------------


def test_lambda_min_near_optimal_point(capsys):
    code, out, _ = run_cli(
        capsys,
        "lambda-min",
        "--epsilon", "0.119429",
        "--gamma", "0.345586",
    )
    assert code == 0
    value = float(out.split(":")[1])
    assert abs(value - 0.825694) <= 1e-5


def test_lambda_min_has_no_tolerance(capsys):
    # the onset is a closed form: no --tol flag, no tol key in the JSON
    code, _, err = run_cli(
        capsys, "lambda-min", "--epsilon", "0.119429", "--gamma", "0.345586", "--tol", "1e-9"
    )
    assert code == 2
    assert "--tol" in err
    code, out, _ = run_cli(capsys, "lambda-min", "--b", "1.5", "--format", "json")
    assert code == 0
    assert set(json.loads(out)) == {"alpha", "beta", "gamma", "lambda_min"}


def test_lambda_min_rejects_npt_point(capsys):
    code, _, err = run_cli(capsys, "lambda-min", "--epsilon", "0.11963", "--gamma", "0.35")
    assert code == 2
    assert "NPT" in err


def test_lambda_min_degenerate(capsys):
    code, out, _ = run_cli(
        capsys, "lambda-min", "--alpha", "0", "--beta", "0", "--gamma", "0"
    )
    assert code == 0
    assert "never feasible" in out


@pytest.mark.parametrize(
    "start",
    [("--b", "2.5"), ("--alpha", "1e-300", "--beta", "0", "--gamma", "0")],
    ids=["separable-b2.5", "near-origin"],
)
def test_lambda_min_without_onset_is_not_a_degenerate_line(capsys, start):
    # Only the maximally mixed start has a vanishing line operator; these
    # starts have one whose onset lies beyond the endpoint.
    code, out, _ = run_cli(capsys, "lambda-min", *start)
    assert (code, out) == (0, "lambda_min: never feasible (onset beyond the endpoint)\n")
    code, out, _ = run_cli(capsys, "lambda-min", *start, "--format", "json")
    assert code == 0
    assert json.loads(out)["lambda_min"] is None


def test_lambda_min_json(capsys):
    code, out, _ = run_cli(
        capsys, "lambda-min", "--b", "1.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert 0.0 < payload["lambda_min"] <= 1.0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_listing(capsys):
    code, out, _ = run_cli(capsys, "witness")
    assert code == 0
    for name in ("Pl1", "Pl1m", "Pl2", "Pl2m", "Pl3", "Pl3m"):
        assert name in out


def test_witness_dump_structure(capsys):
    code, out, _ = run_cli(capsys, "witness", "--name", "Pl1")
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "Pl1"
    assert payload["matrix"]["dim"] == 9
    assert len(payload["matrix"]["entries"]) == 81
    assert set(payload["plane"]) == {"a_coeff", "b_coeff", "g_coeff", "const"}
    assert payload["plane"]["a_coeff"] == 1.0
    assert payload["plane"]["b_coeff"] == pytest.approx(-0.8, abs=1e-9)
    coeffs = payload["weyl_coefficients"]
    assert len(coeffs) == 9
    assert all(len(entry) == 4 for entry in coeffs)
    assert payload["feasible"] is True


def test_witness_unknown_name(capsys):
    code, _, err = run_cli(capsys, "witness", "--name", "Pl7")
    assert code == 2
    assert "unknown witness" in err


# ---------------------------------------------------------------------------
# horodecki
# ---------------------------------------------------------------------------


def test_horodecki_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "horodecki", "--grid", "0:5:2.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,alpha,beta,gamma,pyramid_margin,pt_min_eig,classification"
    assert len(lines) == 4
    assert lines[2].split(",")[0] == "2.5"


def test_horodecki_json_includes_published_label(capsys):
    code, out, _ = run_cli(capsys, "horodecki", "--b", "3.5", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["published"] == "BoundEntangled"
    assert rows[0]["classification"] == "BoundEntangled"


@pytest.mark.parametrize("b", ["1", "4"])
def test_horodecki_pt_min_eig_matches_classify(capsys, b):
    # At the published NPT edges the PT minimum is exactly 0 in closed form;
    # both subcommands must report the same number for the same point.
    code, out, _ = run_cli(capsys, "horodecki", "--b", b)
    assert code == 0
    line_eig = out.strip().splitlines()[1].split(",")[5]
    code, out, _ = run_cli(capsys, "classify", "--b", b)
    assert code == 0
    point_eig = next(
        ln.split(": ")[1] for ln in out.splitlines() if ln.startswith("pt_min_eig:")
    )
    assert line_eig == point_eig == "0"


def test_horodecki_grid_ends_on_its_upper_bound(capsys):
    # 0.2 + 24 * 0.2 rounds to 5.000000000000001, outside the line's domain.
    code, out, _ = run_cli(capsys, "horodecki", "--grid", "0.2:5:0.2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 25
    assert lines[-1].split(",")[0] == "5"


def test_horodecki_requires_exactly_one_selector(capsys):
    code, _, err = run_cli(capsys, "horodecki")
    assert code == 2
    code, _, err = run_cli(capsys, "horodecki", "--b", "1", "--grid", "0:1:1")
    assert code == 2


def _horodecki_peak(target, step, fmt):
    """Peak traced allocation, in bytes, of ``horodecki --grid 0:5:<step>``."""
    tracemalloc.start()
    try:
        code = main(["horodecki", "--grid", f"0:5:{step}", "--format", fmt, "--out", str(target)])
        assert code == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_horodecki_memory_does_not_grow_with_the_grid(tmp_path, fmt):
    # Rows are classified and written a chunk at a time, so ten times the
    # rows must not raise the peak; holding every row adds about 11 MiB
    # (CSV) or 44 MiB (JSON) here.  Tracing slows the walk about fifteenfold,
    # so the walks are 2,001 and 20,001 rows long.
    target = tmp_path / "rows"
    main(["horodecki", "--grid", "0:5:1", "--format", fmt, "--out", str(target)])  # imports
    small = _horodecki_peak(target, "0.0025", fmt)
    large = _horodecki_peak(target, "0.00025", fmt)
    assert len(target.read_text(encoding="utf-8").splitlines()) > 20_001
    assert large <= small + 6 * 2**20


def _scan_peak(target, gamma_step, fmt):
    """Peak traced allocation, in bytes, of ``scan`` over an 11 x 11 x n box."""
    tracemalloc.start()
    try:
        grid = f"0:1:0.1,0:1:0.1,0:1:{gamma_step}"
        code = main(["scan", "--grid", grid, "--format", fmt, "--out", str(target)])
        assert code == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_memory_does_not_grow_with_the_grid(tmp_path, capsys, fmt):
    # The grid is classified a chunk at a time and its rows are tallied and
    # written as they are built, so ten times the points must not raise the
    # peak; holding every point and row adds about 5 MiB here.
    target = tmp_path / "rows"
    main(["scan", "--grid", "0:1:1,0,0", "--format", fmt, "--out", str(target)])  # imports
    small = _scan_peak(target, "0.05", fmt)
    large = _scan_peak(target, "0.005", fmt)
    assert f"scanned {11 * 11 * 201} points" in capsys.readouterr().err
    assert large <= small + 2 * 2**20


def test_scan_json_memory_does_not_grow_with_the_gamma_axis(tmp_path, capsys):
    # One boundary sample per distinct gamma, streamed a chunk at a time, so
    # ten times the gamma values must not raise the peak; holding every
    # sample and the whole text adds about 22 MiB here.
    target = tmp_path / "summary.json"
    argv = ["scan", "--format", "json", "--out", str(target), "--grid"]
    main([*argv, "0,0,0:1:1"])  # imports
    peaks = []
    for step in ("0.0005", "0.00005"):
        tracemalloc.start()
        try:
            assert main([*argv, f"0,0,0:1:{step}"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    small, large = peaks
    assert len(json.loads(target.read_text(encoding="utf-8"))["boundary_samples"]) == 20_001
    assert "scanned 20001 points" in capsys.readouterr().err
    assert large <= small + 2 * 2**20


def test_scan_takes_a_grid_whose_range_overflows(capsys):
    code, out, err = run_cli(capsys, "scan", "--grid=-1e308:1e308:1e308,0,0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["-1e+308", "0", "1e+308"]
    assert err.startswith("scanned 3 points: ")


def test_a_facet_grid_whose_alpha_overflows_fails_before_any_output(tmp_path, capsys):
    # Every error is raised before the first line, although the rows stream.
    target = tmp_path / "out.csv"
    target.write_text("keep\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "scan", "--plane", "--grid", "0,1e308", "--out", str(target))
    assert (code, out, err) == (2, "", "error: alpha must be finite, got inf\n")
    assert target.read_text(encoding="utf-8") == "keep\n"
    # alpha overflows from the 1,098th of 1,501 points on: after the first chunk
    code, out, err = run_cli(capsys, "scan", "--plane", "--grid", "0:1.5e308:1e305,-2e307")
    assert (code, out, err) == (2, "", "error: alpha must be finite, got -inf\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_single_value_grid_spec_is_named_as_such(capsys, value):
    for argv in (
        ["horodecki", f"--grid={value}"],
        ["horodecki", "--grid", value],
        ["scan", "--plane", "--grid", f"0:1:0.5,{value}"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"grid spec must be finite, got '{value}'" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--epsilon", "nan", "--gamma", "0"], "epsilon must be finite, got nan"),
        (["classify", "--epsilon", "0", "--gamma", "inf"], "gamma must be finite, got inf"),
        (["lambda-min", "--epsilon", "0", "--gamma", "nan"], "gamma must be finite, got nan"),
        (["classify", "--epsilon", "-inf", "--gamma", "nan"], "epsilon must be finite, got -inf"),
    ],
)
def test_a_non_finite_facet_coordinate_is_named_by_its_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err
    assert "alpha" not in err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_csv_deterministic_across_threads(tmp_path, capsys):
    grid = "0:1:0.5,-0.3:0:0.15,0:0.5:0.25"
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    assert run_cli(capsys, "scan", "--grid", grid, "--out", str(out1))[0] == 0
    assert run_cli(capsys, "scan", "--grid", grid, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_has_no_threads_flag(capsys):
    code, _, err = run_cli(capsys, "scan", "--grid", "0:0:1,0:0:1,0:0:1", "--threads", "2")
    assert code == 2
    assert "--threads" in err


def test_scan_plane_json_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--plane", "--grid", "0:1:0.25,-0.3:0:0.1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 5 * 4
    assert "Separable" in payload["counts"]
    sample = payload["boundary_samples"][0]
    assert set(sample) == {"gamma", "l_a", "l_b"}


def test_scan_plane_accepts_the_facet_domain_edge(capsys):
    # gamma = 2/sqrt(3) is the last point on which the cone trace exists.
    code, out, _ = run_cli(
        capsys, "scan", "--plane", "--grid=1.1547005383792517,-0.3", "--format", "json"
    )
    assert code == 0
    assert len(json.loads(out)["boundary_samples"]) == 1


def test_scan_grid_shape_errors(capsys):
    code, _, err = run_cli(capsys, "scan", "--grid", "0:1:0.5")
    assert code == 2
    code, _, err = run_cli(capsys, "scan", "--plane", "--grid", "0:1:0.5")
    assert code == 2


def test_scan_oversized_grid_exits_fast(capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "scan", "--grid", "0:1:1e-12,0,0")
    assert code == 2
    assert "points" in err
    assert time.perf_counter() - start < 5.0


def test_scan_unwritable_output(capsys):
    code, _, err = run_cli(
        capsys, "scan", "--grid", "0:0:1,0:0:1,0:0:1",
        "--out", "/nonexistent-dir/out.csv",
    )
    assert code == 2
    assert "error" in err
    assert "scanned" not in err  # the summary follows a written output only


#: 125 points on a coarse box; the scan's stderr summary for them.
_SMALL_BOX = "--grid=-0.5:1.5:0.5,-1:1:0.5,-1:1.2:0.55"
_SMALL_BOX_SUMMARY = (
    "scanned 125 points: NotAState=120, NptEntangled=2, Separable=2, Undetermined=1\n"
)


def test_scan_summary_follows_a_written_output(tmp_path, capsys):
    code, out, err = run_cli(capsys, "scan", _SMALL_BOX)
    assert (code, err) == (0, _SMALL_BOX_SUMMARY)
    assert len(out.splitlines()) == 126
    target = tmp_path / "box.csv"
    code, out, err = run_cli(capsys, "scan", _SMALL_BOX, "--format", "json", "--out", str(target))
    assert (code, out, err) == (0, "", _SMALL_BOX_SUMMARY)
    assert json.loads(target.read_text(encoding="utf-8"))["rows"] == 125


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "4")
    assert code == 0
    assert "[PASS]" in out
    assert "1/1 checks passed" in out


def test_verify_json_carries_per_check_timings(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "4,11", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["passed"], payload["total"]) == (2, 2)
    assert [c["index"] for c in payload["checks"]] == [4, 11]
    for record in payload["checks"]:
        assert record["passed"] is True
        assert record["seconds"] >= 0.0
        assert list(record) == [
            "index", "name", "expected", "computed", "tolerance", "passed", "detail", "seconds"
        ]


def test_verify_json_prints_an_infinite_record_value_as_null(capsys, monkeypatch):
    # Checks 1 and 2 report computed = inf when the line has no onset.
    from magicsimplex import checks

    def no_onset(seed):
        return dict(expected=1.0, computed=math.inf, tolerance=1e-9, passed=False)

    monkeypatch.setattr(
        checks, "_CHECKS", (("deepest-line-crossing", no_onset), *checks._CHECKS[1:])
    )
    code, out, _ = run_cli(capsys, "verify", "--only", "1", "--format", "json")
    assert code == 1
    (record,) = _strict_json(out)["checks"]
    assert record["computed"] is None
    assert record["expected"] == 1.0
    code, out, _ = run_cli(capsys, "verify", "--only", "1")
    assert code == 1
    assert "computed=inf" in out


#: The documented exceptions to the rule a verify record prints: check 3
#: and 7 also need the count their detail ends with to be zero, and checks
#: 8 and 9 are one-sided bounds.
_COUNTED_CHECKS = (3, 7)
_ONE_SIDED_CHECKS = {
    8: lambda r: r.computed <= r.expected,
    9: lambda r: r.computed >= -r.tolerance,
}


def test_every_verify_record_passes_by_the_rule_it_prints():
    results = run_all(seed=1)
    assert [r.index for r in results] == list(range(1, 13))
    for r in results:
        within = abs(r.computed - r.expected) <= r.tolerance
        if r.index in _ONE_SIDED_CHECKS:
            assert r.passed == _ONE_SIDED_CHECKS[r.index](r), r
        elif r.index in _COUNTED_CHECKS:
            count = int(r.detail.rsplit(": ", 1)[1].split("/")[0])
            assert r.passed == (within and count == 0), r
        else:
            assert r.passed == within, r
    # Check 9 reads the exact minimum, 0 to rounding for every deployed
    # witness, since each one touches the separable set.
    product = results[8]
    assert product.passed and abs(product.computed) <= product.tolerance


def test_a_check_fails_when_its_measurement_exceeds_its_printed_tolerance(monkeypatch):
    from magicsimplex import checks

    real = checks.l_b
    monkeypatch.setattr(checks, "l_b", lambda gamma: real(gamma) + 1e-9)
    (record,) = run_all(seed=1, only=[4])
    assert not record.passed
    assert record.computed == pytest.approx(1e-9, rel=1e-3)
    assert record.computed > record.tolerance


def test_check_names_match_the_checks_one_to_one():
    from magicsimplex import checks

    assert len(checks.CHECK_NAMES) == len(checks._CHECKS)
    assert len(set(checks.CHECK_NAMES)) == len(checks.CHECK_NAMES)


def test_region_layout_rejects_a_grid_of_the_wrong_size(monkeypatch):
    from magicsimplex import checks

    full = checks.plane_grid_points
    monkeypatch.setattr(checks, "plane_grid_points", lambda g, b: full(g, b)[:-1])
    with pytest.raises(ArithmeticError, match="facet grid"):
        run_all(only=[11])


def test_verify_rejects_bad_index(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "99")
    assert code == 2


def test_verify_rejects_non_integer(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "two")
    assert code == 2


def test_verify_rejects_a_negative_seed_before_any_check(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--only", "4")
    assert code == 2
    assert "--seed" in err
    assert out == ""


def test_verify_rejects_empty_selection(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "")
    assert code == 2
    assert "checks passed" not in out
    with pytest.raises(ValueError, match="empty"):
        run_all(only=[])


# ---------------------------------------------------------------------------
# in-process entry: main(argv)
# ---------------------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "row.json"
    code, out, _ = run_cli(
        capsys, "classify", "--b", "3.5", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["verdict"] == "BoundEntangled"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--alpha", "nan", "--beta", "0", "--gamma", "0"], "alpha must be finite"),
        (["scan", "--grid", "0:1:0"], "--grid expects"),
        (["lambda-min", "--b", "0.5"], "is NPT"),
        (["witness", "--name", "bogus"], "unknown witness name 'bogus'"),
        (["horodecki", "--b", "6"], "line parameter must lie in [0, 5]"),
        # Valid rows 4.0 and 5.0 come before the bad value.
        (["horodecki", "--grid", "4:7:1"], "line parameter must lie in [0, 5], got 6.0"),
        (["verify", "--only", "99"], "check index must be in 1..12"),
    ],
    ids=["classify", "scan", "lambda-min", "witness", "horodecki", "horodecki-grid", "verify"],
)
def test_a_failing_command_leaves_the_out_file_as_it_was(argv, message, tmp_path, capsys):
    # --out is opened only once the command has succeeded.
    target = tmp_path / "out.txt"
    target.write_text("keep\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert target.read_text(encoding="utf-8") == "keep\n"


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run_cli(capsys, "explode")
    assert code == 2
    assert "explode" in err


def _golden(number: int, name: str, *argv: str):
    """A golden case with id ``<name>-argv<number>``; ``number`` is fixed
    when the case is added, so inserting a case renames no other test."""
    return pytest.param(name, list(argv), id=f"{name}-argv{number}")


@pytest.mark.parametrize(
    "name, argv",
    [
        _golden(0, "classify_b1.5_text", "classify", "--b", "1.5"),
        _golden(1, "classify_b1.5_json", "classify", "--b", "1.5", "--format", "json"),
        _golden(2, "classify_b1.5_csv", "classify", "--b", "1.5", "--format", "csv"),
        _golden(3, "classify_origin", "classify", "--alpha", "0", "--beta", "0", "--gamma", "0"),
        _golden(4, "classify_b0.5", "classify", "--b", "0.5"),
        _golden(5, "classify_alpha2", "classify", "--alpha", "2", "--beta", "0", "--gamma", "0"),
        _golden(6, "witness", "witness"),
        _golden(7, "horodecki_0_5_0.25", "horodecki", "--grid", "0:5:0.25"),
        _golden(8, "scan_small", "scan", "--grid", "0:1:0.5,-0.3:0:0.15,0:0.5:0.25"),
        _golden(9, "verify_seed1", "verify", "--seed", "1"),
        _golden(10, "verify_seed3_only_6-10", "verify", "--seed", "3", "--only", "6,7,8,9,10"),
        _golden(11, "scan_plane_facet_grid", "scan", "--plane", "--grid", "0:1:0.01,-0.35:0.05:0.01"),
        # The same scan twice, the grid written as --grid=-… and as --grid -…
        _golden(12, "scan_box_0.05", "scan", "--grid=-0.5:1.5:0.05,-1:1:0.05,-1:1.2:0.05"),
        _golden(13, "lambda_min_optimal", "lambda-min", "--epsilon", "0.119429", "--gamma", "0.345586"),
        _golden(14, "lambda_min_b1.5_json", "lambda-min", "--b", "1.5", "--format", "json"),
        _golden(15, "lambda_min_origin", "lambda-min", "--alpha", "0", "--beta", "0", "--gamma", "0"),
        _golden(16, "scan_box_0.05", "scan", "--grid", "-0.5:1.5:0.05,-1:1:0.05,-1:1.2:0.05"),
        *(
            _golden(number, f"witness_{name}", "witness", "--name", name)
            for number, name in enumerate(("Pl1", "Pl1m", "Pl2", "Pl2m", "Pl3", "Pl3m"), 17)
        ),
        _golden(
            23,
            "classify_origin_json",
            "classify", "--alpha", "0", "--beta", "0", "--gamma", "0", "--format", "json",
        ),
        _golden(24, "horodecki_0_5_0.25_json", "horodecki", "--grid", "0:5:0.25", "--format", "json"),
        _golden(25, "horodecki_0_5_0.01", "horodecki", "--grid", "0:5:0.01"),
        _golden(26, "horodecki_0_5_0.01_json", "horodecki", "--grid", "0:5:0.01", "--format", "json"),
    ],
)
def test_golden_output(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if name in GOLDEN_DIGESTS:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[name]
    else:
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_golden_verify_json_apart_from_wall_times(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    for record in payload["checks"]:
        del record["seconds"]
    # The output is ``json.dumps(..., indent=2)``, so dumping the parsed
    # payload again reproduces its bytes, keys in order and floats by repr.
    golden = GOLDEN / "verify_seed1_json_no_seconds.txt"
    assert json.dumps(payload, indent=2) + "\n" == golden.read_text(encoding="utf-8")


def _readme_commands() -> list[list[str]]:
    """The ``magicsimplex ...`` lines of README.md's bash blocks, as argument lists."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", text, re.M | re.S)
    lines = (line for block in blocks for line in block.splitlines())
    return [
        shlex.split(line, comments=True)[1:]
        for line in lines
        if line.startswith("magicsimplex ")
    ]


def test_every_readme_command_runs(tmp_path, monkeypatch, capsys):
    # A documented command must keep working: a removed flag fails here.  The
    # --out examples write into tmp_path.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 14
    for argv in commands:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
    assert {"map.csv", "line.csv"} <= {path.name for path in tmp_path.iterdir()}


# ---------------------------------------------------------------------------
# real process round trips
# ---------------------------------------------------------------------------


def test_subprocess_classify():
    proc = subprocess.run(
        [sys.executable, "-m", "magicsimplex.cli", "classify", "--b", "3.5"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=PYTHONPATH),
    )
    assert proc.returncode == 0
    assert "BoundEntangled" in proc.stdout


def test_a_closed_stdout_ends_the_command_quietly():
    # About 3.5 MB of CSV, far more than a pipe buffers: the writes meet the
    # closed pipe while the command runs, as under ``| head -1``.
    argv = [sys.executable, "-m", "magicsimplex.cli", "horodecki", "--grid", "0:5:0.0001"]
    env = dict(os.environ, PYTHONPATH=PYTHONPATH)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            header = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert header.startswith(b"b,alpha,beta,gamma,")
    assert code == 141
    assert "error" not in err
    assert "Exception ignored" not in err


def test_a_closed_stdout_ends_a_scan_before_its_summary():
    # 459,045 CSV rows: the summary would follow the last of them, and a
    # reader that stops after the header leaves stderr empty.
    argv = [
        sys.executable, "-m", "magicsimplex.cli",
        "scan", "--grid=-0.5:1.5:0.02,-1:1:0.02,-1:1.2:0.05",
    ]
    env = dict(os.environ, PYTHONPATH=PYTHONPATH)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        try:
            header = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert header.decode().rstrip("\n") == cli.CSV_HEADER
    assert (code, err) == (141, "")


def test_a_closed_stdout_in_process_returns_141_without_touching_descriptors(
    capsys, monkeypatch
):
    class ClosedPipe(io.StringIO):  # no usable fileno, like a capture object
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["classify", "--b", "1.5"]) == 141
    assert capsys.readouterr().err == ""


def test_a_short_output_to_a_closed_pipe_ends_the_command_quietly():
    # Block-buffered stdout holds a short output until the last flush, so
    # the closed pipe shows there, not in a write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = PYTHONPATH
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "magicsimplex.cli", "classify", "--b", "1.5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_subprocess_logging_env():
    proc = subprocess.run(
        [sys.executable, "-m", "magicsimplex.cli", "classify", "--b", "1.5"],
        capture_output=True,
        text=True,
        timeout=120,
        env={"MAGIC_SIMPLEX_LOG": "INFO", "PATH": "/usr/bin:/bin", "PYTHONPATH": PYTHONPATH},
    )
    assert proc.returncode == 0
    assert "witness Pl1" in proc.stderr


def test_logging_handler_attached_once(capsys, monkeypatch):
    # main() may run many times in one process; each battery build must
    # log each witness plane once, not once per earlier main() call.
    pkg_logger = logging.getLogger("magicsimplex")
    saved = (pkg_logger.handlers[:], pkg_logger.level)
    monkeypatch.setenv("MAGIC_SIMPLEX_LOG", "INFO")
    try:
        for _ in range(2):
            witness_planes.cache_clear()
            code, _, err = run_cli(capsys, "classify", "--b", "1.5")
            assert code == 0
            for name in ("Pl1", "Pl2", "Pl3"):
                assert err.count(f"witness {name}:") == 1, err
    finally:
        pkg_logger.handlers[:], level = saved
        pkg_logger.setLevel(level)
        witness_planes.cache_clear()


def test_production_commands_build_no_witness_matrix(capsys, monkeypatch):
    # classify, scan, lambda-min, horodecki and the witness table read
    # closed forms; the matrix battery, the Weyl decomposition and the
    # minimisation over product states belong to the oracle.
    def forbidden(*args, **kwargs):
        raise AssertionError("the production path reached the witness oracle")

    for module in (cli, regions, weyl, witness):  # every import site
        for name in ("deployed_witnesses", "product_minima", "weyl_tensor_decompose"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    witness_planes.cache_clear()
    regions.build_polygon.cache_clear()
    try:
        for argv in (
            ("classify", "--alpha", "2", "--beta", "0", "--gamma", "0"),
            ("classify", "--alpha", "1", "--beta", "0", "--gamma", "0"),
            ("classify", "--b", "1.5"),
            ("classify", "--b", "2.5"),
            ("classify", "--b", "2.75"),
            ("scan", "--grid=-0.5:1.5:0.5,-1:1:0.5,-1:1.2:0.55"),
            ("scan", "--grid", "-0.5:1.5:0.5,-1:1:0.5,-1:1.2:0.55"),
            ("scan", "--plane", "--grid=-1:1:0.25,-0.35:0.05:0.1", "--format", "json"),
            ("scan", "--plane", "--grid", "-1:1:0.25,-0.35:0.05:0.1", "--format", "json"),
            ("horodecki", "--grid", "0:5:0.25"),
            ("lambda-min", "--epsilon", "0.119429", "--gamma", "0.345586"),
            ("witness",),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)
            assert out
    finally:
        witness_planes.cache_clear()
        regions.build_polygon.cache_clear()


def test_cli_import_leaves_scipy_out():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, magicsimplex.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=PYTHONPATH),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _child(source: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=PYTHONPATH),
    )


def test_cli_import_leaves_the_numpy_oracle_out():
    proc = _child(
        "import sys, magicsimplex.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m in ("
        "'magicsimplex.qmat', 'magicsimplex.weyl', 'magicsimplex.witness', "
        "'magicsimplex.checks')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scalar_closed_forms_run_without_numpy():
    # Only an (N, 3) array argument loads numpy; points and exact rationals do not.
    proc = _child(
        "import sys; sys.modules['numpy'] = None\n"
        "from fractions import Fraction as F\n"
        "from magicsimplex.family import bell_spectrum, pt_block_eigenvalues, pyramid_slacks\n"
        "p = (0.2, -0.1, 0.3)\n"
        "print(bell_spectrum(p).sorted_values()[0], min(pt_block_eigenvalues(p)))\n"
        "print(pyramid_slacks((F(1, 5), F(-1, 10), F(3, 10))))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1] == (
        "(Fraction(3, 20), Fraction(3, 5), Fraction(3, 2), Fraction(3, 10))"
    )


@pytest.mark.parametrize(
    "module",
    [
        "magicsimplex.checks",
        "magicsimplex.family",
        "magicsimplex.planes",
        "magicsimplex.qmat",
        "magicsimplex.regions",
        "magicsimplex.verdicts",
        "magicsimplex.weyl",
        "magicsimplex.witness",
    ],
)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    # One home per name: no module re-exports another module's function or
    # class (qmat.Array is numpy's ndarray, which is no magicsimplex module).
    homes = {name: getattr(getattr(mod, name), "__module__", None) for name in mod.__all__}
    borrowed = {
        name: home
        for name, home in homes.items()
        if callable(getattr(mod, name))
        and home.split(".")[0] == "magicsimplex"
        and home != module
    }
    assert borrowed == {}


def test_package_import_loads_no_module():
    proc = _child(
        "import sys, magicsimplex; "
        "print(sorted(m for m in sys.modules if m.startswith('magicsimplex.')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: Runs each JSON-encoded argv through ``main`` in one process and prints
#: every exit code after that command's stdout; a first argument ``block``
#: makes ``import numpy`` raise ImportError.
_MAIN_LOOP = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from magicsimplex.cli import main
for argv in json.loads(sys.argv[2]):
    print("exit", main(argv))
"""


def test_production_commands_run_without_numpy():
    commands = json.dumps(
        [
            ["classify", "--alpha", "2", "--beta", "0", "--gamma", "0"],
            ["classify", "--alpha", "1", "--beta", "0", "--gamma", "0"],
            ["classify", "--b", "1.5"],
            ["classify", "--b", "2.5"],
            ["classify", "--b", "2.75"],
            ["scan", "--grid=-0.5:1.5:0.5,-1:1:0.5,-1:1.2:0.55"],
            ["scan", "--grid", "-0.5:1.5:0.5,-1:1:0.5,-1:1.2:0.55"],
            ["scan", "--plane", "--grid=-1:1:0.25,-0.35:0.05:0.1"],
            ["scan", "--plane", "--grid", "-1:1:0.25,-0.35:0.05:0.1"],
            ["horodecki", "--grid", "0:5:0.25"],
            ["lambda-min", "--epsilon", "0.119429", "--gamma", "0.345586"],
            ["lambda-min", "--epsilon", "0.11963", "--gamma", "0.35"],  # NPT start
            ["witness"],
        ]
    )
    normal = _child(_MAIN_LOOP, "normal", commands)
    blocked = _child(_MAIN_LOOP, "block", commands)
    assert normal.returncode == 0, normal.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert normal.stdout.count("exit 0") == 12
    assert normal.stdout.count("exit 2") == 1
    assert "lambda_min: 0.825694571492" in normal.stdout
    assert "is NPT" in blocked.stderr
    verdicts = {line for line in normal.stdout.splitlines() if line.startswith("verdict: ")}
    assert len(verdicts) == 5
    assert blocked.stdout == normal.stdout


def test_oracle_commands_run_in_a_fresh_process():
    commands = json.dumps(
        [
            ["witness", "--name", "Pl1"],
            ["verify", "--only", "4"],
        ]
    )
    proc = _child(_MAIN_LOOP, "normal", commands)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("exit")] == [
        "exit 0"
    ] * 2


#: Runs ``main`` on the argv it is given in a fresh process, then prints
#: every top-level module that importing the CLI and running the command
#: loaded.
_FRESH_IMPORTS = """
import sys
before = set(sys.modules)
from magicsimplex.cli import main
code = main(sys.argv[1:])
loaded = sorted({m.split(".")[0] for m in set(sys.modules) - before})
print("exit", code, *loaded)
"""

#: Standard-library modules a command loads only when it uses them.
_LAZY_STDLIB = {"logging", "dataclasses", "json", "fractions", "decimal", "inspect"}


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--b", "1.5"],
        ["classify", "--alpha", "0", "--beta", "0", "--gamma", "0"],
        ["lambda-min", "--epsilon", "0.119429", "--gamma", "0.345586"],
        ["scan", "--grid", "1.5:2:0.5,0,0"],
        ["scan", "--grid", "0:1:0.5,-0.3:0:0.15,0:0.5:0.25"],
        ["horodecki", "--b", "3.5"],
        ["horodecki", "--grid", "0:5:0.25"],
        ["witness"],
        ["classify", "--b", "1.5", "--format", "json"],
        ["scan", "--plane", "--grid=-1:1:0.25,-0.35:0.05:0.1", "--format", "json"],
        ["scan", "--plane", "--grid", "-1:1:0.25,-0.35:0.05:0.1", "--format", "json"],
    ],
)
def test_production_commands_load_only_what_they_use(argv):
    # json only for JSON output and logging only under MAGIC_SIMPLEX_LOG,
    # which this child does not set.  fractions and decimal never load, also
    # not in the commands that build the polytope (classify at the origin,
    # the second scan, the Horodecki grid and the plane scans).
    env = {k: v for k, v in os.environ.items() if k != "MAGIC_SIMPLEX_LOG"}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORTS, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(env, PYTHONPATH=PYTHONPATH),
    )
    assert proc.returncode == 0, proc.stderr
    _, code, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    allowed = {"json"} if "json" in argv else set()
    assert set(loaded) & _LAZY_STDLIB <= allowed, loaded
    # Nothing outside the standard library and the package: no numpy, and
    # no optional dependency, whatever the environment has installed.
    assert set(loaded) - set(sys.stdlib_module_names) <= {"magicsimplex"}, loaded


def test_logging_configured_after_import_still_reaches_the_package():
    # The package does not import logging; a host that configures it only
    # after importing the package must still get its records.
    proc = _child(
        "import magicsimplex.regions as regions\n"
        "import logging\n"
        "logging.basicConfig(level=logging.INFO)\n"
        "regions.classify((0.0, 0.0, 0.0))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert "separable polytope built" in proc.stderr
    assert "witness Pl1" in proc.stderr

"""CLI behavior: flag handling, exit codes, formats, determinism."""

import hashlib
import importlib
import json
import logging
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import PYTHONPATH

from magicsimplex import cli, regions, weyl, witness
from magicsimplex.checks import run_all
from magicsimplex.cli import main
from magicsimplex.planes import witness_planes

#: Recorded stdout of known invocations, one ``.txt`` file each.
GOLDEN = Path(__file__).resolve().parent / "golden"

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

    monkeypatch.setattr(checks, "_CHECKS", (no_onset, *checks._CHECKS[1:]))
    code, out, _ = run_cli(capsys, "verify", "--only", "1", "--format", "json")
    assert code == 1
    (record,) = _strict_json(out)["checks"]
    assert record["computed"] is None
    assert record["expected"] == 1.0
    code, out, _ = run_cli(capsys, "verify", "--only", "1")
    assert code == 1
    assert "computed=inf" in out


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


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run_cli(capsys, "explode")
    assert code == 2
    assert "explode" in err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("classify_b1.5_text", ["classify", "--b", "1.5"]),
        ("classify_b1.5_json", ["classify", "--b", "1.5", "--format", "json"]),
        ("classify_b1.5_csv", ["classify", "--b", "1.5", "--format", "csv"]),
        ("classify_origin", ["classify", "--alpha", "0", "--beta", "0", "--gamma", "0"]),
        ("classify_b0.5", ["classify", "--b", "0.5"]),
        ("classify_alpha2", ["classify", "--alpha", "2", "--beta", "0", "--gamma", "0"]),
        ("witness", ["witness"]),
        ("horodecki_0_5_0.25", ["horodecki", "--grid", "0:5:0.25"]),
        ("scan_small", ["scan", "--grid", "0:1:0.5,-0.3:0:0.15,0:0.5:0.25"]),
        ("verify_seed1", ["verify", "--seed", "1"]),
        ("verify_seed3_only_6-10", ["verify", "--seed", "3", "--only", "6,7,8,9,10"]),
        ("scan_plane_facet_grid", ["scan", "--plane", "--grid", "0:1:0.01,-0.35:0.05:0.01"]),
        ("scan_box_0.05", ["scan", "--grid=-0.5:1.5:0.05,-1:1:0.05,-1:1.2:0.05"]),
        ("lambda_min_optimal", ["lambda-min", "--epsilon", "0.119429", "--gamma", "0.345586"]),
        ("lambda_min_b1.5_json", ["lambda-min", "--b", "1.5", "--format", "json"]),
        ("lambda_min_origin", ["lambda-min", "--alpha", "0", "--beta", "0", "--gamma", "0"]),
        ("scan_box_0.05", ["scan", "--grid", "-0.5:1.5:0.05,-1:1:0.05,-1:1.2:0.05"]),
        *(
            (f"witness_{name}", ["witness", "--name", name])
            for name in ("Pl1", "Pl1m", "Pl2", "Pl2m", "Pl3", "Pl3m")
        ),
    ],
)
def test_golden_output(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if name in GOLDEN_DIGESTS:
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_DIGESTS[name]
    else:
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


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
    # product-state sweeps belong to the oracle.
    def forbidden(*args, **kwargs):
        raise AssertionError("the production path reached the witness oracle")

    for module in (cli, regions, weyl, witness):  # every import site
        for name in ("deployed_witnesses", "min_product_expectation", "weyl_tensor_decompose"):
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


@pytest.mark.parametrize(
    "module",
    [
        "magicsimplex",
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
#: whether the polytope was built and every top-level module that importing
#: the CLI and running the command loaded.
_FRESH_IMPORTS = """
import sys
before = set(sys.modules)
from magicsimplex.cli import main
from magicsimplex.regions import build_polygon
code = main(sys.argv[1:])
loaded = sorted({m.split(".")[0] for m in set(sys.modules) - before})
print("exit", code, "polytope", build_polygon.cache_info().currsize, *loaded)
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
    # json only for JSON output, fractions (and the decimal it pulls in)
    # only for the exact vertex proof of a polytope build, and logging only
    # under MAGIC_SIMPLEX_LOG, which this child does not set.
    env = {k: v for k, v in os.environ.items() if k != "MAGIC_SIMPLEX_LOG"}
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORTS, *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(env, PYTHONPATH=PYTHONPATH),
    )
    assert proc.returncode == 0, proc.stderr
    _, code, _, built, *loaded = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    allowed = {"json"} if "json" in argv else set()
    if built == "1":
        allowed |= {"fractions", "decimal"}
    assert set(loaded) & _LAZY_STDLIB <= allowed, loaded
    assert ("fractions" in loaded) == (built == "1"), loaded


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

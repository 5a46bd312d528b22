"""Self-test of the benchmark: small inputs, every metric with its unit.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from audit import VerdictAudit  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_declared_metrics_match_the_code():
    assert units("end_to_end") == dict(run.END_TO_END)
    assert units("per_layer") == dict(run.per_layer_units())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_hanging_child_is_killed_and_fails_its_check():
    start = time.perf_counter()
    child = run.run_child(
        ["-m", "magicsimplex.cli", "lambda-min", "--b", "1.5", "--tol", "1e-20"],
        timeout=3.0,
        deadline=start + 60.0,
    )
    assert child.timed_out
    assert time.perf_counter() - start < 30.0
    assert run.check_cli_output("cli_lambda_min_s", child) == "timed out"


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "facet-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_audit_refutes_wrong_verdicts_and_accepts_right_ones():
    from magicsimplex.family import horodecki_point

    origin = (0.0, 0.0, 0.0)
    npt = horodecki_point(0.5).as_tuple()
    bound = horodecki_point(1.5).as_tuple()
    outside = (2.0, 0.0, 0.0)
    cases = [
        (origin, "Separable", False),
        (origin, "NotAState", True),
        (origin, "NptEntangled", True),
        (origin, "BoundEntangled", True),
        (npt, "NptEntangled", False),
        (npt, "Separable", True),
        (bound, "BoundEntangled", False),
        (bound, "Separable", True),
        (outside, "NotAState", False),
        (outside, "Separable", True),
        (outside, "Undetermined", False),
    ]
    points = np.array([p for p, _, _ in cases])
    flagged = VerdictAudit().contradictions(points, [v for _, v, _ in cases])
    assert flagged.tolist() == [bad for _, _, bad in cases]

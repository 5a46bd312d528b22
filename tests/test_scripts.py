"""Smoke test for the study script under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lambda_min_landscape_small_grid():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "lambda_min_landscape.py"),
            "--epsilon",
            "0.1:0.12:0.01",
            "--gamma",
            "0.33:0.35:0.01",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "epsilon,gamma,lambda_min"
    assert len(lines) >= 2
    assert "closed-form optimum" in proc.stderr

"""Benchmark for magicsimplex: facet-scan, cold-cli and verify workloads.

Run from the repository root; the program is loaded from ``src`` with
``PYTHONPATH=src`` and driven only through its public functions and CLI:

    python3 perfbench/run.py --workload facet-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every workload is a closed loop with one caller: one child process at a
time, each with BLAS pinned to one thread and a timeout that counts as a
failed operation.  ``--trace 0`` reports the end-to-end metrics, ``--trace
1`` a separate traced run's per-layer metrics.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report under the names
used in ``perfbench/README.md``.  ``--smoke`` shrinks every input for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

from calibrate import reference_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")
TRACE_MARKER = "PERFBENCH_TRACE "  # as in child.py

WORKLOADS = ("facet-scan", "cold-cli", "verify")

#: Wall-time budget of one workload run; children get no more than what is left.
RUN_BUDGET_S = 170.0

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: (report name, CLI arguments) of the cold-cli commands.
CLI_COMMANDS = (
    ("cli_classify_witness_s", ("classify", "--b", "1.5")),
    ("cli_classify_polytope_s", ("classify", "--alpha", "0", "--beta", "0", "--gamma", "0")),
    ("cli_lambda_min_s", ("lambda-min", "--epsilon", "0.119429", "--gamma", "0.345586")),
)

#: Expected verdict line of each classify command: ``b = 1.5`` lies inside
#: the published bound-entangled band [1, 2) and the origin is the
#: maximally mixed state.
EXPECTED_VERDICT = {
    "cli_classify_witness_s": "BoundEntangled",
    "cli_classify_polytope_s": "Separable",
}

#: The paper's smallest lambda_min over the facet patch, (3 + sqrt 13) / 8,
#: attained at epsilon = (7 sqrt 13 - 25) / 2, gamma = sqrt(epsilon).  The
#: command's start is that optimum rounded to six digits, so its value lies
#: above the optimum by less than 1e-5 (and may undershoot it only by the
#: bisection tolerance, 1e-8).
OPTIMAL_LAMBDA = (3.0 + math.sqrt(13.0)) / 8.0

#: End-to-end metrics.  Times of operations are in reference units (one
#: ref is the time of ``calibrate.reference_ns``'s computation, measured
#: next to them in the same run), which cancels most of the machine's speed
#: drift; the report prints the same figures in seconds.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ref", "ref"),
    ("latency_p99_ref", "ref"),
    ("throughput_per_ref", "1/ref"),
    ("decided_share", "share"),
    ("peak_rss_mb", "MB"),
)

#: Layers timed per call: (layer, report unit, nanoseconds per unit).
PER_CALL = (
    ("regions.classify", "us", 1e3),
    ("family.pyramid_margin", "us", 1e3),
    ("family.family_state", "us", 1e3),
    ("family.pt_min_eigenvalue", "us", 1e3),
    ("qmat.hermitian_eigenvalues", "us", 1e3),
    ("witness.witness_values", "us", 1e3),
    ("regions.polytope_contains", "us", 1e3),
    ("weyl.weyl_tensor_decompose", "us", 1e3),
    ("witness.c_lambda", "us", 1e3),
    ("witness.lambda_min", "ms", 1e6),
    ("witness.min_product_expectation", "s", 1e9),
)

#: Cached builders: the time of the call that builds (the longest call).
BUILDS = ("witness.deployed_witnesses", "regions.build_polygon")

VERDICTS = ("NotAState", "NptEntangled", "BoundEntangled", "Separable", "Undetermined")
STAGES = ("slack", "ppt", "witness", "polytope")
STAGE_OF_VERDICT = dict(zip(VERDICTS, ("slack", "ppt", "witness", "polytope", "polytope")))

CHECK_NAMES = (
    "deepest-line-crossing",
    "cone-edge-line-crossing",
    "horodecki-line-boundaries",
    "facet-curve-crossings",
    "flat-face-functional",
    "line-operator-identities",
    "spectrum-pyramid-agreement",
    "endpoint-limit-law",
    "product-state-safety",
    "mirror-coefficient-conjugation",
    "facet-region-layout",
    "gamma-zero-no-bound",
)


def per_layer_units() -> list[tuple[str, str]]:
    """Name and unit of every per-layer metric, in report order."""
    units = [("import.magicsimplex_s", "s"), ("import.scipy_optimize_share", "share")]
    units += [(f"{layer}_s", "s") for layer in BUILDS]
    for layer, unit, _ in PER_CALL:
        units += [(f"{layer}_{unit}", unit), (f"{layer}.calls", "count")]
    units += [(f"{layer}.self_share", "share") for layer in BUILDS]
    units += [(f"{layer}.self_share", "share") for layer, _, _ in PER_CALL]
    units += [(f"regions.classify.{v}.time_share", "share") for v in VERDICTS]
    units += [(f"regions.stage_exit.{s}", "share") for s in STAGES]
    units += [("regions.polytope_accept_ratio", "share")]
    units += [(f"checks.{name}.share", "share") for name in CHECK_NAMES]
    units += [("cli.self_share", "share"), ("trace.overhead_ratio", "ratio"), ("trace.spans", "count")]
    units += [("trace.wall_s", "s")]
    return units


class Pace:
    """Reference timings around each child process (see calibrate.py).

    ``refs`` converts a child's wall time into reference units, dividing by
    the mean of the reference timings just before and just after it.  Each
    timing is the median of ``repeats`` runs of the reference computation;
    callers size it to about 5% of a child's time.
    """

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats
        self.timings = [reference_ns(repeats)]

    def refs(self, seconds: float) -> float:
        self.timings.append(reference_ns(self.repeats))
        return seconds * 2e9 / (self.timings[-2] + self.timings[-1])

    def median_ms(self) -> float:
        return statistics.median(self.timings) / 1e6


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed operation)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float
    timed_out: bool


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MAGIC_SIMPLEX_LOG"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    return env


def run_child(args: list[str], timeout: float, deadline: float) -> Child:
    """Run ``python3 ARGS`` to completion or kill it after ``timeout``.

    ``os.wait4`` reaps the child so its own peak RSS is known; pipes are
    drained by two threads so a chatty child cannot block.
    """
    timeout = max(1.0, min(timeout, deadline - time.perf_counter()))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    output: dict[str, bytes] = {}
    readers = [
        threading.Thread(target=lambda k=k, s=s: output.__setitem__(k, s.read()))
        for k, s in (("out", proc.stdout), ("err", proc.stderr))
    ]
    fired = threading.Event()

    def kill() -> None:
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    for thread in readers:
        thread.start()
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for thread in readers:
        thread.join()
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        code=proc.returncode,
        out=output["out"].decode(errors="replace"),
        err=output["err"].decode(errors="replace"),
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        timed_out=fired.is_set() and proc.returncode == -signal.SIGKILL,
    )


def last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def scipy_optimize_import_us(importtime_log: str) -> int:
    """Cumulative ``-X importtime`` microseconds of ``scipy.optimize`` (0 if absent)."""
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            if parts[2].strip() == "scipy.optimize":
                return int(parts[1])
    return 0


def measure_setup(repeats: int, deadline: float) -> float:
    """Median of ``repeats`` fresh-interpreter set-ups, in seconds."""
    times = []
    for _ in range(repeats):
        child = run_child([CHILD, "setup"], 60.0, deadline)
        if child.code != 0:
            raise BenchError(f"set-up failed (exit {child.code}): {child.err.strip()[-500:]}")
        times.append(last_json(child.out)["setup_ns"] / 1e9)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.correct = False
        self.report.append(f"FAILED {what}")

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def fmt(name: str, value: float, unit: str) -> str:
    return f"  {name:34s} {value:.6g} {unit}"


def merge_traces(traces: list[dict]) -> dict:
    """Sum calls, times and tallies of several traced processes."""
    merged: dict = {"wall_ns": 0, "spans": 0, "layers": {}, "verdict_calls": {},
                    "verdict_ns": {}, "contains_accepted": 0, "build_ns": {}}
    for trace in traces:
        merged["wall_ns"] += trace["wall_ns"]
        merged["spans"] += trace["spans"]
        merged["contains_accepted"] += trace["contains_accepted"]
        for key in ("verdict_calls", "verdict_ns"):
            for k, v in trace[key].items():
                merged[key][k] = merged[key].get(k, 0) + v
        for name, row in trace["layers"].items():
            into = merged["layers"].setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            for k in into:
                into[k] += row[k]
            if row["calls"]:
                merged["build_ns"].setdefault(name, []).append(row["max_ns"])
    return merged


def layer_metrics(
    traces: list[dict], import_s: list[float], scipy_share: list[float], overhead: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced processes of one run."""
    t = merge_traces(traces)
    wall = t["wall_ns"]
    layers = t["layers"]
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0}

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    m: dict[str, tuple[float, str]] = {
        "import.magicsimplex_s": (statistics.mean(import_s), "s"),
        "import.scipy_optimize_share": (statistics.mean(scipy_share), "share"),
    }
    for layer in BUILDS:
        builds = t["build_ns"].get(layer, [0])
        m[f"{layer}_s"] = (statistics.mean(builds) / 1e9, "s")
    for layer, unit, scale in PER_CALL:
        row = layers.get(layer, empty)
        m[f"{layer}_{unit}"] = (share(row["incl_ns"], row["calls"]) / scale, unit)
        m[f"{layer}.calls"] = (row["calls"], "count")
    for layer in BUILDS + tuple(layer for layer, _, _ in PER_CALL):
        m[f"{layer}.self_share"] = (share(layers.get(layer, empty)["self_ns"], wall), "share")
    classify_ns = sum(t["verdict_ns"].values())
    classify_calls = sum(t["verdict_calls"].values())
    for v in VERDICTS:
        m[f"regions.classify.{v}.time_share"] = (share(t["verdict_ns"].get(v, 0), classify_ns), "share")
    for stage in STAGES:
        calls = sum(n for v, n in t["verdict_calls"].items() if STAGE_OF_VERDICT[v] == stage)
        m[f"regions.stage_exit.{stage}"] = (share(calls, classify_calls), "share")
    contains = layers.get("regions.polytope_contains", empty)["calls"]
    m["regions.polytope_accept_ratio"] = (share(t["contains_accepted"], contains), "share")
    for name in CHECK_NAMES:
        m[f"checks.{name}.share"] = (share(layers.get(f"checks.{name}", empty)["incl_ns"], wall), "share")
    m["cli.self_share"] = (share(layers.get("cli.main", empty)["self_ns"], wall), "share")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    m["trace.spans"] = (t["spans"], "count")
    m["trace.wall_s"] = (wall / 1e9, "s")
    return m


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def facet_scan(opts, deadline: float) -> Outcome:
    """Seeded facet points, classified warm by ``scan`` and per point."""
    out = Outcome()
    batch = 50 if opts.smoke else 500
    args = [CHILD, "facet-scan", str(opts.seed), str(opts.seconds), str(batch), str(opts.trace)]
    if opts.trace:
        args = ["-X", "importtime", *args]
    else:
        setup_s = measure_setup(opts.setup_repeats, deadline)
    child = run_child(args, opts.seconds + 120.0, deadline)
    if child.code != 0:
        raise BenchError(f"facet-scan child failed (exit {child.code}): {child.err.strip()[-800:]}")
    r = last_json(child.out)
    out.attempted = r["points"]
    out.failed = r["failed"]
    # Seeded points must all pass the audit; the band-edge probes carry the
    # known boundary overclaims and count only toward ``failed``.
    out.correct = r["seeded_failed"] == 0
    out.report += [
        f"facet-scan: {r['seeded'] // batch} batches of {batch} seeded points + 8 band-edge probes",
        f"  seeded verdicts: {json.dumps(r['verdicts'], sort_keys=True)}",
        f"  audit: {r['failed']} of {r['points']} verdicts contradicted "
        f"({r['seeded_failed']} seeded); probe failures {json.dumps(r['probe_failures'])}",
    ]
    if opts.trace:
        log = TraceLog()
        log.add(dict(r["trace"], import_ns=r["import_ns"]), child.err)
        out.metrics = log.metrics(r["trace"]["overhead_ratio"])
        return out
    out.report += [
        fmt("setup_s", setup_s, "s"),
        fmt("scan_points_per_s", r["points"] / (r["scan_ns"] / 1e9), "1/s"),
        fmt("classify_p50_us", r["latency_p50_ns"] / 1e3, "us"),
        fmt(f"classify_p99_us (n={r['latency_samples']})", r["latency_p99_ns"] / 1e3, "us"),
        fmt("decided_share", r["decided"] / r["seeded"], "share"),
        fmt("failed_share", r["failed"] / r["points"], "share"),
        fmt("peak_rss_mb", child.rss_mb, "MB"),
        fmt("reference_ms", r["reference_ns"] / 1e6, "ms"),
    ]
    out.metrics = end_to_end(
        setup_s,
        r["latency_p50_ref"],
        r["latency_p99_ref"],
        r["points"] / r["scan_ref"],
        r["decided"] / r["seeded"],
        child.rss_mb,
    )
    return out


def end_to_end(setup_s, p50, p99, throughput, decided, rss) -> dict[str, tuple[float, str]]:
    values = (setup_s, p50, p99, throughput, decided, rss)
    return {name: (value, unit) for (name, unit), value in zip(END_TO_END, values)}


def check_cli_output(name: str, child: Child) -> str | None:
    """Why a cold-cli invocation failed, or None when its output is right."""
    if child.timed_out:
        return "timed out"
    if child.code != 0:
        return f"exit {child.code}"
    lines = child.out.strip().splitlines()
    if name in EXPECTED_VERDICT:
        expected = f"verdict: {EXPECTED_VERDICT[name]}"
        return None if lines and lines[0] == expected else f"first line {lines[:1]}, want {expected!r}"
    try:
        value = float(lines[0].split(":", 1)[1])
    except (IndexError, ValueError):
        return f"unparsable lambda-min output {lines[:1]}"
    if not -1e-8 <= value - OPTIMAL_LAMBDA <= 1e-5:
        return f"lambda_min {value!r} is not within [-1e-8, 1e-5] of {OPTIMAL_LAMBDA!r}"
    return None


def cli_args(cli: list[str], traced: bool) -> list[str]:
    if traced:
        return ["-X", "importtime", CHILD, "cli", *cli]
    return ["-m", "magicsimplex.cli", *cli]


class TraceLog:
    """Trace summaries of the traced children of one run."""

    def __init__(self) -> None:
        self.traces: list[dict] = []
        self.import_s: list[float] = []
        self.scipy_share: list[float] = []

    def add(self, trace: dict, importtime_log: str) -> None:
        import_s = trace["import_ns"] / 1e9
        self.traces.append(trace)
        self.import_s.append(import_s)
        self.scipy_share.append(scipy_optimize_import_us(importtime_log) / 1e6 / import_s)

    def add_cli(self, child: Child) -> None:
        """Add the summary a traced CLI child wrote after its marker on stderr."""
        marker = next(
            (line for line in reversed(child.err.splitlines()) if line.startswith(TRACE_MARKER)),
            None,
        )
        if marker is None:
            raise BenchError(f"traced CLI child left no trace (exit {child.code})")
        self.add(json.loads(marker[len(TRACE_MARKER):]), child.err)

    def metrics(self, overhead: float) -> dict[str, tuple[float, str]]:
        if not self.traces:
            raise BenchError("no traced child completed")
        return layer_metrics(self.traces, self.import_s, self.scipy_share, overhead)


def cold_cli(opts, deadline: float) -> Outcome:
    """Fresh CLI processes for the three commands, in seeded order per round."""
    out = Outcome()
    setup_s = None if opts.trace else measure_setup(opts.setup_repeats, deadline)
    rng = random.Random(opts.seed)
    walls: dict[str, list[float]] = {name: [] for name, _ in CLI_COMMANDS}
    rounds: dict[bool, list[float]] = {False: [], True: []}  # traced? -> round times in refs
    log = TraceLog()
    pace = Pace(repeats=20)  # about 45 ms around each 1 s child
    rss = 0.0
    decided = classified = 0
    start = time.perf_counter()
    while True:
        traced = bool(opts.trace) and len(rounds[True]) <= len(rounds[False])
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        round_refs = 0.0
        for name, cli in order:
            child = run_child(cli_args(list(cli), traced), 60.0, deadline)
            out.attempted += 1
            round_refs += pace.refs(child.wall_s)
            walls[name].append(child.wall_s)
            rss = max(rss, child.rss_mb)
            problem = check_cli_output(name, child)
            if problem:
                out.fail(f"{' '.join(cli)}: {problem}")
            if name in EXPECTED_VERDICT:
                classified += 1
                decided += problem is None
            if traced and not child.timed_out:
                log.add_cli(child)
        rounds[traced].append(round_refs)
        done = time.perf_counter() - start >= opts.seconds
        if done and (not opts.trace or (rounds[True] and rounds[False])):
            break
    out.report.append(
        f"cold-cli: {len(rounds[False]) + len(rounds[True])} rounds of 3 fresh CLI processes; "
        f"{out.failed} of {out.attempted} output checks failed"
    )
    if opts.trace:
        out.metrics = log.metrics(statistics.median(rounds[True]) / statistics.median(rounds[False]))
        return out
    refs = rounds[False]
    out.report += [fmt(name, statistics.median(walls[name]), "s") for name, _ in CLI_COMMANDS]
    out.report += [
        fmt("setup_s", setup_s, "s"),
        fmt("failed_share", out.failed / out.attempted, "share"),
        fmt("peak_rss_mb", rss, "MB"),
        fmt("reference_ms", pace.median_ms(), "ms"),
    ]
    out.metrics = end_to_end(
        setup_s,
        statistics.median(refs),
        percentile(refs, 99),
        out.attempted / sum(refs),
        decided / classified,
        rss,
    )
    return out


def verify(opts, deadline: float) -> Outcome:
    """``magicsimplex verify --seed SEED`` in fresh processes."""
    out = Outcome()
    setup_s = None if opts.trace else measure_setup(opts.setup_repeats, deadline)
    cli = ["verify", "--seed", str(opts.seed)]
    if opts.smoke:
        cli += ["--only", "4"]
    total = 1 if opts.smoke else 12
    runs: dict[bool, list[float]] = {False: [], True: []}  # traced? -> run times in refs
    walls: list[float] = []
    log = TraceLog()
    pace = Pace(repeats=5 if opts.smoke else 200)  # about 0.45 s around each 10 s child
    rss = 0.0
    passed = ran = 0
    start = time.perf_counter()
    while True:
        traced = bool(opts.trace) and len(runs[True]) <= len(runs[False])
        child = run_child(cli_args(cli, traced), 120.0, deadline)
        out.attempted += 1
        runs[traced].append(pace.refs(child.wall_s))
        if not traced:
            walls.append(child.wall_s)
        rss = max(rss, child.rss_mb)
        lines = child.out.strip().splitlines()
        passed += sum(line.startswith("[PASS]") for line in lines)
        ran += total
        if child.timed_out:
            out.fail("verify: timed out")
        elif child.code != 0 or not lines or lines[-1] != f"{total}/{total} checks passed":
            out.fail(f"verify: exit {child.code}, last line {lines[-1:]}")
        elif traced:
            log.add_cli(child)
        done = time.perf_counter() - start >= opts.seconds
        if done and (not opts.trace or (runs[True] and runs[False])):
            break
    out.report.append(f"verify: {out.attempted} runs; {passed} of {ran} checks passed")
    if opts.trace:
        out.metrics = log.metrics(statistics.median(runs[True]) / statistics.median(runs[False]))
        return out
    refs = runs[False]
    out.report += [
        fmt("verify_s", statistics.median(walls), "s"),
        fmt("setup_s", setup_s, "s"),
        fmt("failed_share", out.failed / out.attempted, "share"),
        fmt("peak_rss_mb", rss, "MB"),
        fmt("reference_ms", pace.median_ms(), "ms"),
    ]
    out.metrics = end_to_end(
        setup_s,
        statistics.median(refs),
        percentile(refs, 99),
        ran / sum(refs),
        passed / ran,
        rss,
    )
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``numpy.percentile``'s default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


RUNNERS = {"facet-scan": facet_scan, "cold-cli": cold_cli, "verify": verify}


# ---------------------------------------------------------------------------
# Machine record and entry point
# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass

    def ver(pkg: str) -> str:
        try:
            return version(pkg)
        except PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": ver("numpy"),
        "scipy": ver("scipy"),
        "commit": git_commit(),
        "concurrency": 1,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    opts = parser.parse_args(argv)
    if opts.seed < 0 or opts.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    opts.setup_repeats = 1 if opts.smoke else 3
    return opts


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(argv)
    if not (SRC / "magicsimplex" / "__init__.py").is_file():
        print(f"error: no magicsimplex sources under {SRC}", file=sys.stderr)
        return 2
    info = machine()
    # One CPU for the whole run: every child and every reference timing
    # then shares that CPU's speed, which the reference units rely on.
    info["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {info["pinned_cpu"]})
    print("machine: " + json.dumps(info))
    names = WORKLOADS if opts.workload == "all" else (opts.workload,)
    results = {}
    for name in names:
        deadline = time.perf_counter() + RUN_BUDGET_S
        try:
            outcome = RUNNERS[name](opts, deadline)
        except (BenchError, ValueError, KeyError) as exc:  # a child's output is unusable
            print(f"error: {name}: {exc!r}", file=sys.stderr)
            return 1
        print("\n".join(outcome.report))
        results[name] = outcome.result()
    print(json.dumps(results if opts.workload == "all" else results[opts.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Work that runs inside a fresh interpreter started by ``run.py``.

    python3 perfbench/child.py setup
    python3 perfbench/child.py facet-scan SEED SECONDS BATCH TRACE
    python3 perfbench/child.py cli ARG...        (traced ``magicsimplex`` CLI)

Each mode imports magicsimplex first, so that import is timed on a cold
interpreter, and only then the benchmark's own modules.  ``setup`` and
``facet-scan`` print one JSON object as their last stdout line; ``cli``
leaves stdout to the CLI and writes its trace summary to stderr after
``TRACE_MARKER``.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_MARKER = "PERFBENCH_TRACE "

#: Reference repetitions timed between facet-scan batches (about 11 ms).
REFERENCE_REPEATS = 5

#: Horodecki-line parameters straddling the published band edges 1..4.
PROBE_B = tuple(k + s * 1e-9 for k in (1, 2, 3, 4) for s in (-1, 1))


def setup() -> None:
    start = time.perf_counter_ns()
    from magicsimplex.regions import build_polygon
    from magicsimplex.witness import deployed_witnesses

    deployed_witnesses()
    build_polygon()
    print(json.dumps({"setup_ns": time.perf_counter_ns() - start}))


def facet_points(rng, count: int):
    """Uniform points on the facet ``alpha = 7 beta / 2 + 1 - gamma``."""
    import numpy as np

    gamma = rng.uniform(-1.0, 1.0, count)
    beta = rng.uniform(-0.35, 0.05, count)
    return np.column_stack([3.5 * beta + 1.0 - gamma, beta, gamma])


def facet_scan(seed: int, seconds: float, batch: int, traced: bool) -> None:
    start = time.perf_counter_ns()
    import magicsimplex.cli  # noqa: F401  (the whole package, as the CLI loads it)
    from magicsimplex import regions, witness
    from magicsimplex.family import horodecki_point

    import_ns = time.perf_counter_ns() - start

    from array import array

    import numpy as np

    from audit import VerdictAudit
    from calibrate import reference_ns
    from spans import Tracer

    clock = time.perf_counter_ns
    tracer = Tracer() if traced else None
    traced_ns = untraced_scan_ns = 0
    if tracer:
        tracer.install()
    t = clock()
    witness.deployed_witnesses()
    regions.build_polygon()
    traced_ns += clock() - t
    checker = VerdictAudit()

    rng = np.random.default_rng(seed)
    probes = np.array([horodecki_point(b).as_tuple() for b in PROBE_B])
    latencies = array("q")
    tally = {"points": 0, "seeded": 0, "decided": 0, "failed": 0, "seeded_failed": 0}
    seeded_verdicts: dict[str, int] = {}
    probe_failures: dict[str, str] = {}
    batch_scan_ns = []
    # Reference timings before and after every batch; a batch's figures
    # are divided by the mean of the two (see calibrate.py).
    refs = [reference_ns(REFERENCE_REPEATS)]
    loop_start = time.perf_counter()
    while True:
        points = np.vstack([facet_points(rng, batch), probes])
        inputs = [tuple(row) for row in points.tolist()]
        if tracer:
            tracer.uninstall()
            t = clock()
            regions.scan(inputs)
            untraced_scan_ns += clock() - t
            tracer.install()
        segment = clock()
        t = clock()
        rows = regions.scan(inputs).rows
        batch_scan_ns.append(clock() - t)
        verdicts = []
        for p in inputs:
            t = clock()
            row = regions.classify(p)
            latencies.append(clock() - t)
            verdicts.append(row.verdict.value)
        traced_ns += clock() - segment
        refs.append(reference_ns(REFERENCE_REPEATS))

        bad = checker.contradictions(points, verdicts)
        bad |= np.array([r.verdict.value != v for r, v in zip(rows, verdicts)])
        tally["points"] += len(inputs)
        tally["failed"] += int(bad.sum())
        tally["seeded"] += batch
        tally["seeded_failed"] += int(bad[:batch].sum())
        for v in verdicts[:batch]:
            seeded_verdicts[v] = seeded_verdicts.get(v, 0) + 1
        tally["decided"] += sum(v != "Undetermined" for v in verdicts[:batch])
        for b, v, wrong in zip(PROBE_B, verdicts[batch:], bad[batch:]):
            if wrong:
                probe_failures[repr(b)] = v
        if time.perf_counter() - loop_start >= seconds:
            break

    lat = np.frombuffer(latencies, dtype=np.int64)
    scan = np.array(batch_scan_ns)
    ref = (np.array(refs[:-1]) + np.array(refs[1:])) / 2.0
    lat_ref = lat / np.repeat(ref, len(inputs))
    result = dict(
        tally,
        import_ns=import_ns,
        verdicts=seeded_verdicts,
        probe_failures=probe_failures,
        scan_ns=int(scan.sum()),
        scan_ref=float((scan / ref).sum()),
        reference_ns=float(np.median(refs)),
        latency_samples=int(len(lat)),
        latency_p50_ns=float(np.percentile(lat, 50)),
        latency_p99_ns=float(np.percentile(lat, 99)),
        latency_p50_ref=float(np.percentile(lat_ref, 50)),
        # The tail is taken per batch and its median over batches reported,
        # so a spike of machine noise inside one batch cannot move it.
        latency_p99_ref=float(np.median(np.percentile(lat_ref.reshape(len(ref), -1), 99, axis=1))),
    )
    if tracer:
        tracer.uninstall()
        result["trace"] = dict(
            tracer.summary(),
            wall_ns=traced_ns,
            overhead_ratio=result["scan_ns"] / untraced_scan_ns,
        )
    print(json.dumps(result))


def traced_cli(argv: list[str]) -> int:
    start = time.perf_counter_ns()
    import magicsimplex.cli as cli

    import_ns = time.perf_counter_ns() - start

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter_ns()
    code = cli.main(argv)
    wall_ns = time.perf_counter_ns() - start
    tracer.uninstall()
    sys.stdout.flush()
    summary = dict(tracer.summary(), wall_ns=wall_ns, import_ns=import_ns)
    print(TRACE_MARKER + json.dumps(summary), file=sys.stderr)
    return code


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        setup()
    elif mode == "facet-scan":
        seed, seconds, batch, traced = args
        facet_scan(int(seed), float(seconds), int(batch), traced == "1")
    elif mode == "cli":
        return traced_cli(args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

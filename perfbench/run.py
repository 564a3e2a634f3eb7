"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kdd_pipeline --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the five end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give the tail percentile,
the host record, the drift probe and the recorded work.  The full report is
also written to ``.perfbench/results/``, and with ``--trace 1`` the spans to
``.perfbench/traces/`` as Chrome trace-event JSON.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("kdd_pipeline", "serve_mix", "feed_ingest")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced phase after an untraced one")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _digest(work: dict) -> str:
    return hashlib.sha256(json.dumps(work, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def code_digest(root: Path = ROOT) -> str:
    """A digest of the code a run exercises: every file under ``src/`` and ``perfbench/``."""
    digest = hashlib.sha256()
    for top in (root / "src", root / "perfbench"):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(f"{path.relative_to(root)}\0{path.stat().st_size}\0".encode("utf-8"))
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def end_to_end(phase, harness) -> tuple[dict[str, float], object]:
    """The five end-to-end metric values of an untraced phase, plus its tail.

    A phase that completed too few ops for a tail percentile reports 0 for
    every metric and no tail; its failed ops already make the run incorrect.
    """
    if len(phase.latencies) <= harness.TAIL_MIN_BEYOND or phase.elapsed <= 0:
        return dict.fromkeys(harness.END_TO_END_UNITS, 0.0), None
    tail = harness.tail_percentile(phase.latencies)
    values = {
        "setup_s": statistics.median(phase.setup),
        "latency_p50_ms": statistics.median(phase.latencies) * 1e3,
        "latency_tail_ms": tail.value * 1e3,
        "throughput_per_s": len(phase.latencies) / phase.elapsed,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    return values, tail


def per_layer(untraced, traced, harness, probes: list[dict]) -> dict[str, float]:
    """Every per-layer metric value; 0 for a layer the workload never calls."""
    values = {name: 0.0 for name in harness.PER_LAYER_UNITS}
    values.update(traced.layers)
    values.update({
        "host.probe_py_ms": statistics.median([p["py_ms"] for p in probes]),
        "host.probe_np_ms": statistics.median([p["np_ms"] for p in probes]),
    })
    breakdowns = harness.op_breakdowns(traced.spans)
    if breakdowns and untraced.latencies:
        traced_p50 = statistics.median([b.wall for b in breakdowns])
        unattributed = statistics.median([b.unattributed for b in breakdowns])
        values.update({
            "trace.op_p50_ms": traced_p50 * 1e3,
            "trace.overhead_ms": (traced_p50 - statistics.median(untraced.latencies)) * 1e3,
            "trace.unattributed_ms": unattributed * 1e3,
            "trace.unattributed_share": unattributed / traced_p50,
        })
    unknown = set(values) - set(harness.PER_LAYER_UNITS)
    if unknown:
        raise RuntimeError(f"workload reported metrics missing from the catalogue: {sorted(unknown)}")
    return values


def check_recorded_work(records: Path, key: str, work: dict, clean: bool) -> str | None:
    """Compare ``work`` with the record of an earlier run under ``key``.

    ``key`` names the workload, seed, seconds and code digest, so only runs
    of the same code are compared: a change that legitimately changes the
    work gets a record of its own.  A run with no record yet writes one, but
    only when ``clean`` (no failed op, no failed check), so a broken run
    never becomes the reference.
    """
    path = records / f"{key}.json"
    if path.exists():
        if json.loads(path.read_text(encoding="utf-8")) != work:
            return f"work differs from an earlier run of the same code and seed (recorded in {path.name})"
        return None
    if clean:
        records.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(work, sort_keys=True, indent=1), encoding="utf-8")
    return None


def main(argv: list[str] | None = None) -> int:
    """Run the workload; exit 0 when it ran, whether or not its checks passed."""
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    repro_n_jobs = os.environ.pop("REPRO_N_JOBS", None)  # every workload runs the sequential tier

    from perfbench import harness

    workload = importlib.import_module(f"perfbench.{args.workload}")
    host = harness.host_record(repro_n_jobs)
    probes = [harness.calibration_probe()]
    out = ROOT / ".perfbench"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out / "tmp"))
    try:
        inputs = workload.prepare(args.seed, args.seconds, workdir)
        untraced = workload.run_phase(inputs)
        traced = workload.run_phase(inputs, harness.Tracer()) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes.append(harness.calibration_probe())

    problems = list(untraced.mismatches)
    if traced is not None:
        problems += traced.mismatches
        if traced.work != untraced.work:
            problems.append("the traced phase did different work than the untraced one")
    op_failures = untraced.failed + (traced.failed if traced else 0)
    code = code_digest()
    recorded = check_recorded_work(out / "work", f"{args.workload}-seed{args.seed}-seconds{args.seconds}-{code}",
                                   untraced.work, clean=not problems and op_failures == 0)
    if recorded:
        problems.append(recorded)
    attempted = untraced.attempted + (traced.attempted if traced else 0)
    failed = min(attempted, op_failures + len(problems))

    values, tail = end_to_end(untraced, harness)
    layers = per_layer(untraced, traced, harness, probes) if traced is not None else None
    if traced is not None:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.trace.json"
        trace_path.write_text(json.dumps(harness.chrome_trace(traced.spans)), encoding="utf-8")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "probe_before": probes[0],
        "probe_after": probes[1],
        "tail": tail and {"percentile": tail.percentile, "samples": tail.n, "beyond": tail.beyond},
        "timed_seconds": untraced.elapsed,
        "setup_trials_s": untraced.setup,
        "work": untraced.work,
        "work_digest": _digest(untraced.work),
        "code_digest": code,
        "problems": problems,
        "end_to_end": values,
        "per_layer": layers,
    }
    results = out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, sort_keys=True, indent=1), encoding="utf-8"
    )

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  host: {json.dumps(host, sort_keys=True)}")
    print(f"  probe before: {json.dumps(probes[0])}  after: {json.dumps(probes[1])}")
    if tail is not None:
        print(f"  latency_tail_ms is p{tail.percentile:.2f} of {tail.n} ops ({tail.beyond} beyond it); "
              f"timed phase {untraced.elapsed:.2f} s; set-up trials {[round(s, 3) for s in untraced.setup]}")
    print(f"  work digest {report['work_digest']} (code digest {code})")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    if traced is None:
        reported, units = values, harness.END_TO_END_UNITS
    else:
        reported, units = layers, harness.PER_LAYER_UNITS
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

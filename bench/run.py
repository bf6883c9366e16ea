"""Benchmark of hypspeeds: runs one workload and prints its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {paper_cli,orbit_speeds,walk_mc} \
        --seed N --seconds S --trace {0,1}

The run measures set-up in fresh interpreters, then repeats whole rounds of
the workload's operations until S seconds have passed, then checks every
output against bench/oracle.py.  With --trace 1 it then repeats the rounds
for S more seconds with every public hypspeeds function wrapped
(bench/tracer.py) and reports the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The program is imported
from src/ of the same checkout; without it the run exits with code 2 and
prints no result.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from workloads import BENCH, ROOT, SRC, child_env

SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
MAX_PRINTED_PROBLEMS = 20
IMPORTTIME_MODULES = {"hypspeeds": "import.hypspeeds_s", "scipy.integrate": "import.scipy_integrate_s"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str):
    print(f"bench: error: {message}", file=sys.stderr)
    sys.exit(2)


def require_program() -> None:
    """Import hypspeeds from this checkout's src/, and from nowhere else."""
    package = SRC / "hypspeeds"
    if not (package / "__init__.py").is_file():
        fail(f"no hypspeeds package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypspeeds

    if Path(hypspeeds.__file__).resolve().parent != package.resolve():
        fail(f"hypspeeds was imported from {hypspeeds.__file__}, not from {package}")


# ---------------------------------------------------------------------------
# Set-up and import probes (fresh interpreters)


def setup_times(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import hypspeeds and build the workload."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()}")
    return times


def import_times() -> dict:
    """Cumulative import time of hypspeeds and scipy.integrate, from -X importtime."""
    samples = {name: [] for name in IMPORTTIME_MODULES.values()}
    for _ in range(IMPORTTIME_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hypspeeds"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"import probe exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in IMPORTTIME_MODULES:
                samples[IMPORTTIME_MODULES[parts[2].strip()]].append(int(parts[1]) * 1e-6)
    return {name: statistics.median(values) if values else 0.0 for name, values in samples.items()}


# ---------------------------------------------------------------------------
# Timed phase


@dataclass
class Phase:
    tags: list = field(default_factory=list)
    first: list = field(default_factory=list)  # the results of the phase's first round
    differing: list = field(default_factory=list)  # tags of rounds that returned other results
    round_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _comparable(results: list) -> list:
    """Results with each exception replaced by its type and message."""
    return [(type(r).__name__, str(r)) if isinstance(r, Exception) else r for r in results]


def run_phase(w, seconds: float, prefix: str, traced: bool, reference: list | None = None) -> Phase:
    """Whole rounds of the workload's operations until `seconds` have passed.

    Only the first round's results are kept; every round's results are
    compared with `reference` (by default that first round) as it ends, so
    memory does not grow with the number of rounds.
    """
    phase = Phase()
    start = perf_counter()
    while not phase.round_s or perf_counter() - start < seconds:
        tag = f"{prefix}{len(phase.round_s)}"
        ops = w.round_ops(tag, traced)
        results = []
        r0 = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted; the run goes on
                traceback.print_exc(file=sys.stderr)
                out = exc
            phase.op_s.append(perf_counter() - t0)
            results.append(out)
        phase.round_s.append(perf_counter() - r0)
        phase.tags.append(tag)
        phase.attempted += len(results)
        phase.failed += sum(not w.completed(r) for r in results)
        if not phase.first:
            phase.first = results
            reference = results if reference is None else reference
        if _comparable(results) != _comparable(reference):
            phase.differing.append(tag)
    return phase


def end_to_end(w, phase: Phase, setups: list[float], rss_mb: float) -> dict:
    completed = phase.attempted - phase.failed
    return {
        "setup_s": statistics.median(setups),
        "time_to_solution_s": statistics.median(phase.round_s),
        "ops_per_s": completed / sum(phase.round_s),
        "op_p50_ms": statistics.median(phase.op_s) * 1e3,
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------------------
# Traced phase


def traced_layers(w, seconds: float, untraced: Phase, trace_path: Path) -> tuple[Phase, dict]:
    import tracer

    if isinstance(w, workloads.PaperCli):
        phase = run_phase(w, seconds, "t", traced=True, reference=untraced.first)
        by_stem = w.trace_snapshots(phase.tags)
        snap = tracer.merge([s for snaps in by_stem.values() for s in snaps])
        cli_runs = {
            f"cli.run.{stem}_s": sum(s["totals"].get("cli.run", [0, 0.0])[1] for s in snaps) / len(phase.tags)
            for stem, snaps in by_stem.items()
        }
    else:
        t = tracer.Tracer()
        t.install()
        try:
            phase = run_phase(w, seconds, "t", traced=True, reference=untraced.first)
        finally:
            t.uninstall()
        snap = t.snapshot()
        cli_runs = {f"cli.run.{stem}_s": 0.0 for _, stem, _ in workloads.PaperCli.RUNS}
    rounds = len(phase.tags)
    metrics = import_times()
    metrics.update(cli_runs)
    metrics["cli.emit_csv.self_s"] = snap["totals"].get("cli.emit_csv", [0, 0.0, 0.0])[2] / rounds
    metrics.update(tracer.layer_metrics(snap, rounds))
    metrics["trace.overhead_s"] = statistics.median(phase.round_s) - statistics.median(untraced.round_s)
    tracer.write_trace(trace_path, snap, metrics)
    return phase, metrics


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("per_walk"):
        return "steps/walk"
    if name.endswith("per_projection"):
        return "calls/projection"
    return "count"


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    require_program()
    out_dir = BENCH / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    w = workloads.make(args.workload, out_dir)
    if args.probe:
        w.build(args.seed)
        return 0

    try:
        setups = [] if args.trace else setup_times(args.workload, args.seed)
        w.build(args.seed)
        phase = run_phase(w, args.seconds, "r", traced=False)
        rss_mb = w.peak_rss_mb()
        if args.trace:
            trace_path = BENCH / "out" / f"trace-{args.workload}-{args.seed}.json"
            traced, metrics = traced_layers(w, args.seconds, phase, trace_path)
            units = {name: layer_unit(name) for name in metrics}
        else:
            traced = Phase()
            metrics = end_to_end(w, phase, setups, rss_mb)
            units = END_TO_END_UNITS
        problems = w.check(phase.tags + traced.tags, phase.first)
        problems += [f"round {tag} returned other results than round {phase.tags[0]}" for tag in phase.differing + traced.differing]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"bench: ... and {len(problems) - MAX_PRINTED_PROBLEMS} more failed checks", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": phase.attempted + traced.attempted,
        "failed": phase.failed + traced.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

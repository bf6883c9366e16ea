"""The benchmark's three workloads.

Each workload makes its inputs from the seed (``build``), lists the
operations of one round as callables (``round_ops``), tells a failed operation from a
completed one (``completed``) and, after timing, checks what the first round
returned (``check``) against ``oracle`` or against a property the method must
have.  Every round repeats the same operations, so the runner requires later
rounds to return exactly what the first one did.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one input stream, fixed by the benchmark seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def child_env() -> dict:
    """Environment for a child interpreter that imports hypspeeds from this checkout."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# paper_cli


class PaperCli:
    """The seven experiments on the eight shipped configs, each run as
    ``python -m hypspeeds.cli`` in a fresh interpreter, one after another."""

    name = "paper_cli"
    # (experiment, config stem, whether the run takes the benchmark seed)
    RUNS = (
        ("dist", "dist", True),
        ("speeds", "speeds_slit", False),
        ("thm1", "thm1_slit", False),
        ("thm1", "thm1_strip", False),
        ("thm2", "thm2_dip", False),
        ("thm3", "thm3_table", False),
        ("thm4", "thm4_strips", True),
        ("hm", "hm_strip", False),
    )

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def build(self, seed: int) -> None:
        from hypspeeds.cli import parse_config

        self.configs = {}
        for exp, stem, seeded in self.RUNS:
            data = json.loads((BENCH / "configs" / f"{stem}.json").read_text(encoding="utf-8"))
            data["experiment"] = exp
            if seeded:
                data["seed"] = derive_seed(seed, stem)
            self.configs[stem] = parse_config(data)

    def argv(self, exp: str, stem: str, seeded: bool, out: Path) -> list[str]:
        args = [exp, "--config", str(BENCH / "configs" / f"{stem}.json"), "--out", str(out)]
        if seeded:
            args += ["--seed", str(self.configs[stem].seed)]
        return args

    def round_ops(self, tag: str, traced: bool) -> list:
        ops = []
        for exp, stem, seeded in self.RUNS:
            out = self.out_dir / tag / stem
            out.mkdir(parents=True, exist_ok=True)
            args = self.argv(exp, stem, seeded, out)
            if traced:
                cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(out / "trace.json")] + args
            else:
                cmd = [sys.executable, "-m", "hypspeeds.cli"] + args

            def op(cmd=cmd):
                proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170)
                return proc.returncode, proc.stdout, proc.stderr

            ops.append(op)
        return ops

    @staticmethod
    def completed(result) -> bool:
        code, stdout, _ = result
        return code == 0 and "PASS" in stdout

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_CHILDREN)

    def trace_snapshots(self, tags: list[str]) -> dict:
        """Tracer totals of each traced CLI run that got to write them, by config."""
        snaps = {stem: [] for _, stem, _ in self.RUNS}
        for tag in tags:
            for stem in snaps:
                path = self.out_dir / tag / stem / "trace.json"
                if path.is_file():
                    snaps[stem].append(json.loads(path.read_text(encoding="utf-8")))
        return snaps

    def check(self, tags: list[str], first: list) -> list[str]:
        """The first round's CSVs against the oracle; every later round's CSVs
        byte for byte against the first round's."""
        import checks

        problems = []
        for (exp, stem, _), result in zip(self.RUNS, first):
            if not self.completed(result):
                continue
            paths = [self.out_dir / tag / stem / f"{exp}.csv" for tag in tags]
            csv_bytes = [p.read_bytes() if p.is_file() else None for p in paths]
            rows = list(csv.DictReader(io.StringIO(csv_bytes[0].decode("utf-8"))))
            problems += [f"{stem}: {p}" for p in checks.CLI_CHECKS[exp](rows, self.configs[stem])]
            problems += [f"{stem}: CSV of round {tag} differs" for tag, b in zip(tags, csv_bytes) if b != csv_bytes[0]]
        return problems


# ---------------------------------------------------------------------------
# orbit_speeds


class OrbitSpeeds:
    """In-process sweeps of ``speeds`` and ``generalized_speed`` over four
    models.  Each sweep stops before today's values leave SPEED_RTOL of the
    oracle (README, "Oracle tolerances")."""

    name = "orbit_speeds"
    BASE_POINTS = (0.3 + 0j, -0.4j, 0.2 + 0.5j)
    T_MIN = 0.5
    POINTS_PER_SWEEP = 100
    # (label, oracle domain, largest t)
    MODELS = (
        ("slit_plane[(0,1)]", ("slit", 0.0, 1.0), 200.0),
        ("HalfPlaneDom(-1)", ("half_plane", -1.0, "above"), 300.0),
        ("StripDom(-1,2)", ("strip", -1.0, 2.0), 10.0),
        ("StripDom(-1,1)", ("strip", -1.0, 1.0), 1000.0),
    )

    def build(self, seed: int) -> None:
        from hypspeeds import HalfPlaneDom, StripDom, make_model, slit_plane

        descriptors = {
            "slit": lambda d: slit_plane([(d[1], d[2])]),
            "half_plane": lambda d: HalfPlaneDom(d[1], d[2]),
            "strip": lambda d: StripDom(d[1], d[2]),
        }
        rng = random.Random(derive_seed(seed, self.name))
        self.sweeps = []  # (label, oracle domain, model, sorted t values)
        k = self.POINTS_PER_SWEEP
        for label, dom, t_max in self.MODELS:
            lo, hi = math.log(self.T_MIN), math.log(t_max)
            ts = [math.exp(lo + (hi - lo) * (i + rng.random()) / k) for i in range(k)]
            self.sweeps.append((label, dom, make_model(descriptors[dom[0]](dom)), ts))

    def round_ops(self, tag: str, traced: bool) -> list:
        from hypspeeds import generalized_speed, speeds

        ops = []
        for _, _, model, ts in self.sweeps:
            for t in ts:
                ops.append(lambda m=model, t=t: speeds(m, t))
                for z in self.BASE_POINTS:
                    ops.append(lambda m=model, z=z, t=t: generalized_speed(m, z, t))
        return ops

    @staticmethod
    def completed(result) -> bool:
        return not isinstance(result, Exception)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def check(self, tags: list[str], first: list) -> list[str]:
        import checks

        return checks.orbit_speeds(self.sweeps, self.BASE_POINTS, first)


# ---------------------------------------------------------------------------
# walk_mc


class WalkMc:
    """In-process walk-on-spheres estimates: straight obstacles (radial
    slits, the semidisk diameter), the exact-exit-law arc sampler, and curved
    slit-plane orbit tails."""

    name = "walk_mc"
    RADIAL_R = (0.3, 0.5, 0.7)
    RADIAL_N = 50_000
    SEMIDISK_T0 = 0.5
    SEMIDISK_N = 50_000
    ARC_Z = 0.3 + 0.2j
    ARC = (0.0, math.pi / 2.0)
    ARC_N = 1_000_000
    TAIL_TS = (1.0, 5.0)
    TAIL_N = 10_000

    def build(self, seed: int) -> None:
        from hypspeeds import ArcOnCircle, make_model, slit_plane

        self.model = make_model(slit_plane([(0.0, 1.0)]))
        self.arc = ArcOnCircle(*self.ARC)
        self.seeds = {label: derive_seed(seed, label) for label, _ in self.specs()}

    def specs(self) -> list[tuple[str, float]]:
        return (
            [(f"radial_slit@{r}", r) for r in self.RADIAL_R]
            + [("semidisk", self.SEMIDISK_T0), ("disk_arc", 0.0)]
            + [(f"orbit_tail@{t}", t) for t in self.TAIL_TS]
        )

    def round_ops(self, tag: str, traced: bool) -> list:
        from hypspeeds import mc_disk_arc, mc_first_hit, semidisk_bisection_check
        from hypspeeds.harmonic import discretize_orbit_tail

        def tail_op(t, seed):
            tail = discretize_orbit_tail(self.model, t)
            return complex(tail[0]), mc_first_hit(tail, 0j, self.TAIL_N, seed=seed)

        ops = []
        for label, param in self.specs():
            seed = self.seeds[label]
            if label.startswith("radial_slit"):
                op = lambda r=param, s=seed: mc_first_hit([complex(r), 1 + 0j], 0j, self.RADIAL_N, seed=s)
            elif label == "semidisk":
                op = lambda s=seed: semidisk_bisection_check(self.SEMIDISK_T0, self.SEMIDISK_N, seed=s)
            elif label == "disk_arc":
                op = lambda s=seed: mc_disk_arc(self.ARC_Z, self.arc, self.ARC_N, seed=s)
            else:
                op = lambda t=param, s=seed: tail_op(t, s)
            ops.append(op)
        return ops

    @staticmethod
    def completed(result) -> bool:
        return not isinstance(result, Exception)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(resource.RUSAGE_SELF)

    def check(self, tags: list[str], first: list) -> list[str]:
        import checks

        return checks.walk_mc(self, first)


def make(name: str, out_dir: Path):
    if name == PaperCli.name:
        return PaperCli(out_dir)
    if name == OrbitSpeeds.name:
        return OrbitSpeeds()
    if name == WalkMc.name:
        return WalkMc()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (PaperCli.name, OrbitSpeeds.name, WalkMc.name)

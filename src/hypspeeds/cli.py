"""Config-driven experiment runner with CSV/JSON outputs and CI exit codes.

Usage: ``hypspeeds <experiment> --config <path> [--out <dir>] [--seed <u64>]``.

Exit codes: 0 when every assertion of the experiment passed, 1 when an
assertion was violated, 2 for configuration or numeric errors (including a
domain kind the requested experiment cannot support).  Re-running with an
identical config and seed reproduces byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .domains import (
    DomainDescriptor,
    HalfPlaneDom,
    RectangleChain,
    SlitPlane,
    StripDom,
)
from .errors import ConfigError, HypspeedsError
from .hyperbolic import (
    CAYLEY,
    RIGHT_HALF_PLANE,
    UNIT_DISK,
    apply_mobius,
    density_of,
    disk_distance,
    integrate_density_along,
    region_distance,
)
from .quasihyperbolic import quasihyperbolic_axis, stage_ratio, theorem3_table
from .semigroup import dip_search, make_model, monotonicity_scan, slit_inequality_on_K, speeds, theorem4_scan

EXPERIMENTS = ("dist", "speeds", "thm1", "thm2", "thm3", "thm4", "hm")

LOG2 = math.log(2.0)


@dataclass
class TGrid:
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and math.isfinite(self.step)):
            raise ConfigError("t_grid entries must be finite")
        if self.step <= 0.0 or self.stop <= self.start:
            raise ConfigError(f"t_grid must be increasing with positive step, got {self}")

    def values(self) -> list[float]:
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + k * self.step for k in range(count)]


@dataclass
class ExperimentConfig:
    experiment: str
    domain: DomainDescriptor | None = None
    domain_tilde: DomainDescriptor | None = None
    t_grid: TGrid | None = None
    seed: int | None = None
    n_samples: int = 100_000
    violation_slack: float = 1e-12
    mc_sigma: float = 3.0
    mc_chunk: int = 8192
    base_points: list[complex] = field(default_factory=lambda: [0.3 + 0j, -0.4j, 0.2 + 0.5j])
    table_n_lo: int = 2
    table_n_hi: int = 6
    table_alpha: float = 7.0 / 12.0
    dip_R: float = 100.0
    dip_a0_log10: tuple[float, float, int] = (3.0, 5.0, 41)
    k_radii: list[float] = field(default_factory=lambda: [10.0, 100.0, 1000.0])
    k_samples: int = 1000
    projection_ts: list[float] = field(default_factory=lambda: [1.0, 5.0, 20.0])
    semidisk_t0: float = 0.5
    min_dip: float = 0.01
    diff_slack: float = 0.05
    ratio_slack: float = 0.05
    raw: dict = field(default_factory=dict)


def parse_domain(spec: dict) -> DomainDescriptor:
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ConfigError(f"domain spec needs a 'kind' field, got {spec!r}") from None
    fields = {k: v for k, v in spec.items() if k != "kind"}
    try:
        if kind == "half_plane":
            return HalfPlaneDom(boundary_height=float(fields["boundary_height"]), side=fields.get("side", "above"))
        if kind == "strip":
            return StripDom(y_low=float(fields["y_low"]), y_high=float(fields["y_high"]))
        if kind == "rectangle_chain":
            return RectangleChain(n_max=int(fields["n_max"]))
        if kind == "slit_plane":
            return SlitPlane(tuple((float(a), float(b)) for a, b in fields["slits"]))
    except KeyError as exc:
        raise ConfigError(f"domain spec for {kind!r} is missing field {exc}") from None
    raise ConfigError(f"unknown domain kind {kind!r}")


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    experiment = data.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    cfg = ExperimentConfig(experiment=experiment, raw=data)
    if "domain" in data:
        cfg.domain = parse_domain(data["domain"])
    if "domain_tilde" in data:
        cfg.domain_tilde = parse_domain(data["domain_tilde"])
    if "t_grid" in data:
        g = data["t_grid"]
        try:
            cfg.t_grid = TGrid(float(g["start"]), float(g["stop"]), float(g["step"]))
        except (TypeError, KeyError) as exc:
            raise ConfigError(f"malformed t_grid {g!r}: {exc}") from None
    if "seed" in data:
        cfg.seed = int(data["seed"])
    if "n_samples" in data:
        cfg.n_samples = int(data["n_samples"])
        if cfg.n_samples <= 0:
            raise ConfigError("n_samples must be positive")
    tol = data.get("tolerances", {})
    cfg.violation_slack = float(tol.get("violation_slack", cfg.violation_slack))
    cfg.mc_sigma = float(tol.get("mc_sigma", cfg.mc_sigma))
    if "mc_chunk" in data:
        cfg.mc_chunk = int(data["mc_chunk"])
        if cfg.mc_chunk <= 0:
            raise ConfigError("mc_chunk must be positive")
    if "base_points" in data:
        cfg.base_points = [complex(p[0], p[1]) for p in data["base_points"]]
    table = data.get("table", {})
    cfg.table_n_lo = int(table.get("n_lo", cfg.table_n_lo))
    cfg.table_n_hi = int(table.get("n_hi", cfg.table_n_hi))
    cfg.table_alpha = float(table.get("alpha", cfg.table_alpha))
    dip = data.get("dip", {})
    cfg.dip_R = float(dip.get("R", cfg.dip_R))
    cfg.dip_a0_log10 = (
        float(dip.get("a0_log10_start", cfg.dip_a0_log10[0])),
        float(dip.get("a0_log10_stop", cfg.dip_a0_log10[1])),
        int(dip.get("a0_count", cfg.dip_a0_log10[2])),
    )
    if cfg.dip_a0_log10[2] < 2:
        raise ConfigError(f"dip.a0_count must be at least 2, got {cfg.dip_a0_log10[2]}")
    cfg.k_radii = [float(r) for r in dip.get("k_radii", cfg.k_radii)]
    cfg.k_samples = int(dip.get("k_samples", cfg.k_samples))
    hm = data.get("hm", {})
    cfg.projection_ts = [float(t) for t in hm.get("projection_ts", cfg.projection_ts)]
    cfg.semidisk_t0 = float(hm.get("semidisk_t0", cfg.semidisk_t0))
    thresholds = data.get("thresholds", {})
    cfg.min_dip = float(thresholds.get("min_dip", cfg.min_dip))
    cfg.diff_slack = float(thresholds.get("diff_slack", cfg.diff_slack))
    cfg.ratio_slack = float(thresholds.get("ratio_slack", cfg.ratio_slack))
    if experiment in ("dist", "hm") and cfg.seed is None:
        raise ConfigError(f"experiment {experiment!r} samples randomly and needs a seed")
    return cfg


@dataclass
class RunReport:
    experiment: str
    passed: bool
    summary: dict
    provenance: dict

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "passed": self.passed,
            "summary": self.summary,
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=str)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def emit_csv(rows, schema, path: Path) -> None:
    """Write rows as UTF-8 CSV: header row, 12 significant digits, given order."""
    lines = [",".join(schema)]
    for row in rows:
        if len(row) != len(schema):
            raise ConfigError(f"row width {len(row)} does not match schema {schema}")
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _require_domain(cfg: ExperimentConfig) -> DomainDescriptor:
    if cfg.domain is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs a 'domain' entry")
    return cfg.domain


def _require_grid(cfg: ExperimentConfig) -> list[float]:
    if cfg.t_grid is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs a 't_grid' entry")
    return cfg.t_grid.values()


# ---------------------------------------------------------------------------
# Experiment bodies


def _run_dist(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    import numpy as np

    from .seeding import sample_uniforms

    seed = cfg.seed
    rows = []
    worst_pair = 0.0
    cayley_inv = CAYLEY.inverse()
    u = sample_uniforms(seed, np.arange(400, dtype=np.uint64), 0)
    for i in range(100):
        w1 = complex(0.05 + 6.0 * u[4 * i], -6.0 + 12.0 * u[4 * i + 1])
        w2 = complex(0.05 + 6.0 * u[4 * i + 2], -6.0 + 12.0 * u[4 * i + 3])
        val = region_distance(RIGHT_HALF_PLANE, w1, w2)
        ref = disk_distance(apply_mobius(cayley_inv, w1), apply_mobius(cayley_inv, w2))
        err = abs(val - ref)
        worst_pair = max(worst_pair, err)
        rows.append(("halfplane_vs_pullback", w1.real, w1.imag, w2.real, w2.imag, val, ref, err))
    worst_quad = 0.0
    v = sample_uniforms(seed, np.arange(60, dtype=np.uint64), 1)
    lam = density_of(UNIT_DISK)
    for i in range(20):
        ang = 2.0 * math.pi * v[3 * i]
        r1 = 0.85 * v[3 * i + 1]
        r2 = 0.85 * v[3 * i + 2]
        z1 = r1 * complex(math.cos(ang), math.sin(ang))
        z2 = r2 * complex(math.cos(ang), math.sin(ang))
        val = disk_distance(z1, z2)
        ref = integrate_density_along([z1, z2], lam)
        err = abs(val - ref)
        worst_quad = max(worst_quad, err)
        rows.append(("disk_vs_quadrature", z1.real, z1.imag, z2.real, z2.imag, val, ref, err))
    emit_csv(rows, ["check", "re1", "im1", "re2", "im2", "value", "reference", "abs_err"], out_dir / "dist.csv")
    passed = worst_pair <= 1e-10 and worst_quad <= 1e-8
    summary = {"max_abs_err_halfplane": worst_pair, "max_abs_err_quadrature": worst_quad}
    return RunReport("dist", passed, summary, _provenance(cfg))


def _run_speeds(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    model = make_model(_require_domain(cfg))
    grid = _require_grid(cfg)
    rows = []
    ok = True
    tol = 1e-12
    for t in grid:
        s = speeds(model, t)
        rows.append((s.t, s.v, s.v_o, s.v_T, s.pi_t))
        ok = ok and s.v_o <= s.v + tol and s.v_T <= s.v + tol and s.v <= s.v_o + s.v_T + tol
    emit_csv(rows, ["t", "v", "v_o", "v_T", "pi_t"], out_dir / "speeds.csv")
    return RunReport("speeds", ok, {"n_rows": len(rows), "invariants_ok": ok}, _provenance(cfg))


def _run_thm1(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    model = make_model(_require_domain(cfg))
    grid = _require_grid(cfg)
    slack = cfg.violation_slack
    scans = {
        "orthogonal": monotonicity_scan(model, grid, "orthogonal", slack=slack),
        "foot": monotonicity_scan(model, grid, "foot", slack=slack),
    }
    for z in cfg.base_points:
        label = f"generalized@{z.real:g}{z.imag:+g}j"
        scans[label] = monotonicity_scan(model, grid, "generalized", base_point=z, slack=slack)
    rows = [(s.t, s.v, s.v_o, s.v_T, s.pi_t) for s in (speeds(model, t) for t in grid)]
    emit_csv(rows, ["t", "v", "v_o", "v_T", "pi_t"], out_dir / "thm1.csv")
    violations = {name: len(rep.violations) for name, rep in scans.items()}
    passed = all(v == 0 for v in violations.values())
    return RunReport("thm1", passed, {"violations": violations}, _provenance(cfg))


def _run_thm2(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    lo, hi, count = cfg.dip_a0_log10
    a0_grid = [10.0 ** (lo + (hi - lo) * k / (count - 1)) for k in range(count)]
    dip = dip_search(cfg.dip_R, a0_grid)
    etas = [slit_inequality_on_K(R, cfg.k_samples) for R in cfg.k_radii]
    emit_csv(dip.curve, ["a0", "delta"], out_dir / "thm2.csv")
    passed = dip.dip >= cfg.min_dip and all(e.min_gap > 0.0 for e in etas)
    summary = {
        "best_a0": dip.a0,
        "dip": dip.dip,
        "min_dip_required": cfg.min_dip,
        "eta_by_R": {str(e.R): e.min_gap for e in etas},
    }
    return RunReport("thm2", passed, summary, _provenance(cfg))


def _run_thm3(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    rows = theorem3_table(cfg.table_n_lo, cfg.table_n_hi, cfg.table_alpha)
    emit_csv(
        [(r.n, r.t_n, r.q_total, r.upper_ratio, r.lower_ratio) for r in rows],
        ["n", "t_n", "Q", "upper_ratio", "lower_ratio"],
        out_dir / "thm3.csv",
    )
    odd = [r for r in rows if r.n % 2 == 1]
    even = [r for r in rows if r.n % 2 == 0]
    exceptions = []
    for a, b in zip(odd[:-1], odd[1:]):
        if not b.upper_ratio < a.upper_ratio:
            exceptions.append(f"upper_ratio({b.n}) >= upper_ratio({a.n})")
    for a, b in zip(even[:-1], even[1:]):
        if not b.lower_ratio > a.lower_ratio:
            exceptions.append(f"lower_ratio({b.n}) <= lower_ratio({a.n})")
    d = RectangleChain(cfg.table_n_hi)
    ratios = {n: stage_ratio(d, n) for n in range(cfg.table_n_lo, cfg.table_n_hi + 1)}
    ratios_ok = all(0.5 <= r <= 2.5 for r in ratios.values())
    t2, t4 = 2.0 ** (2**2), 2.0 ** (2**4)
    lhs = quasihyperbolic_axis(d, 0.0, t4)
    rhs = quasihyperbolic_axis(d, 0.0, t2) + quasihyperbolic_axis(d, t2, t4)
    additive_ok = abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)
    passed = not exceptions and ratios_ok and additive_ok
    summary = {
        "rows": len(rows),
        "trend_exceptions": exceptions,
        "stage_ratios": {str(n): r for n, r in ratios.items()},
        "additivity_ok": additive_ok,
    }
    return RunReport("thm3", passed, summary, _provenance(cfg))


def _run_thm4(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    if cfg.domain_tilde is None:
        raise ConfigError("thm4 needs 'domain' and 'domain_tilde' entries")
    model = make_model(_require_domain(cfg))
    model_tilde = make_model(cfg.domain_tilde)
    report = theorem4_scan(model, model_tilde, _require_grid(cfg))
    emit_csv(
        [(r.t, r.v_o, r.v_o_tilde, r.diff, r.ratio) for r in report.rows],
        ["t", "v_o", "v_o_tilde", "diff", "ratio"],
        out_dir / "thm4.csv",
    )
    diff_ok = report.tail_min_diff >= -LOG2 - cfg.diff_slack
    ratio_ok = report.tail_min_ratio >= 0.25 - cfg.ratio_slack
    summary = {
        "tail_min_diff": report.tail_min_diff,
        "tail_min_ratio": report.tail_min_ratio,
        "bound": -LOG2,
    }
    return RunReport("thm4", diff_ok and ratio_ok, summary, _provenance(cfg))


def _run_hm(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    from .harmonic import (
        ArcOnCircle,
        disk_arc_measure,
        geodesic_cut_measure,
        mc_disk_arc,
        projection_bound_check,
        semidisk_bisection_check,
    )

    seed, n, sigma = cfg.seed, cfg.n_samples, cfg.mc_sigma
    rows = []
    checks_ok = []

    arc = ArcOnCircle(0.0, math.pi / 2.0)
    est = mc_disk_arc(0j, arc, n, seed=seed)
    ref = disk_arc_measure(0j, arc)
    ok = abs(est.value - ref) <= sigma * est.std_error
    rows.append(("arc_calibration", 0.25, est.value, ref, est.std_error, est.n_samples, seed, ok))
    checks_ok.append(ok)

    worst = 0.0
    for k in range(1, 10):
        pi_t = k / 10.0
        _, closed = geodesic_cut_measure(pi_t)
        geo = disk_arc_measure(0j, geodesic_cut_measure(pi_t)[0])
        worst = max(worst, abs(geo - closed))
    ok = worst <= 1e-10
    rows.append(("geodesic_cut_agreement", math.nan, worst, 0.0, 0.0, 9, seed, ok))
    checks_ok.append(ok)

    model = make_model(_require_domain(cfg))
    truncated = 0
    for t in cfg.projection_ts:
        res = projection_bound_check(model, t, n, seed=seed, chunk=cfg.mc_chunk)
        truncated += res.estimate.truncated
        rows.append(
            ("projection_bound", t, res.estimate.value, res.lower_bound, res.estimate.std_error, n, seed, res.passed)
        )
        checks_ok.append(res.passed)

    left, right = semidisk_bisection_check(cfg.semidisk_t0, n, seed=seed, chunk=cfg.mc_chunk)
    # one walk per sample serves both halves: count its truncations once
    truncated += left.truncated
    joint = math.sqrt(left.std_error**2 + right.std_error**2 + 2.0 * left.value * right.value / n)
    ok = abs(left.value - right.value) <= sigma * joint
    rows.append(("semidisk_bisection", cfg.semidisk_t0, left.value, right.value, joint, n, seed, ok))
    checks_ok.append(ok)

    emit_csv(
        rows,
        ["check", "param", "value", "reference", "std_error", "n", "seed", "passed"],
        out_dir / "hm.csv",
    )
    summary = {"n_checks": len(checks_ok), "truncated_walks": truncated}
    return RunReport("hm", all(checks_ok), summary, _provenance(cfg))


_RUNNERS = {
    "dist": _run_dist,
    "speeds": _run_speeds,
    "thm1": _run_thm1,
    "thm2": _run_thm2,
    "thm3": _run_thm3,
    "thm4": _run_thm4,
    "hm": _run_hm,
}


def _provenance(cfg: ExperimentConfig) -> dict:
    return {"config": cfg.raw, "seed": cfg.seed, "version": __version__}


def run(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    """Dispatch an experiment; writes its CSV and JSON report into out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _RUNNERS[cfg.experiment](cfg, out_dir)
    (out_dir / f"{cfg.experiment}_report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hypspeeds", description="semigroup speed experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=".", help="output directory for CSV/JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        data["experiment"] = args.experiment
        if args.seed is not None:
            data["seed"] = args.seed
        cfg = parse_config(data)
        report = run(cfg, Path(args.out))
    except (HypspeedsError, OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"hypspeeds: error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.experiment}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""Config-driven experiment runner with CSV/JSON outputs and CI exit codes.

Usage: ``hypspeeds <experiment> --config <path> [--out <dir>] [--seed <u64>]``.

Exit codes: 0 when every assertion of the experiment passed, 1 when an
assertion was violated, 2 for configuration or numeric errors (including a
domain kind the requested experiment cannot support).  Re-running with an
identical config and seed reproduces byte-identical CSV output.

Each runner is a function of its config alone and returns its CSV schema and
rows, its verdict and its summary; ``run`` writes ``<experiment>.csv`` and
``<experiment>_report.json`` after the runner returns, so a run that raises
writes neither.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
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
from .semigroup import (
    _minus_two_log_cosh,
    dip_search,
    make_model,
    orthogonal_rate,
    slit_inequality_on_K,
    speeds,
    theorem4_scan,
)

LOG2 = math.log(2.0)

#: A grid is built whole: a time grid must span fewer steps than this, and
#: ``dip.a0_count`` may not exceed it.  The largest shipped grid spans 1000.
MAX_GRID_ROWS = 10**6


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
        if (self.stop - self.start) / self.step >= MAX_GRID_ROWS:
            raise ConfigError(f"t_grid must span fewer than {MAX_GRID_ROWS} steps, got {self}")
        # one time gives no pair to compare, and every scan would pass on it
        if self._count() < 2:
            raise ConfigError(f"t_grid must hold at least two times, got {self}")

    def _count(self) -> int:
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> list[float]:
        return [self.start + k * self.step for k in range(self._count())]


# Config readers: each takes a JSON value and its key's path, and returns the
# parsed value or raises ConfigError.


def _finite(value, name: str) -> float:
    """A config number as a float.  NaN and infinities are refused: compared
    against them, a threshold or slack switches its check off.  So are
    booleans, which Python would read as 1 and 0."""
    try:
        x = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the largest float
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def _positive(value, name: str) -> float:
    """A finite config number above 0.  A sigma of 0 or below fails each
    two-sided Monte Carlo check whatever the estimate."""
    x = _finite(value, name)
    if not x > 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return x


def _integer(value, name: str, least: float = -math.inf, most: float = math.inf) -> int:
    """A config integer.  A fraction is refused rather than truncated, and a
    boolean rather than read as 1 or 0."""
    try:
        n = int(value)
    except (OverflowError, TypeError, ValueError):
        n = None
    if n is None or n != value or isinstance(value, bool):
        raise ConfigError(f"{name} must be a finite integer, got {value!r}")
    if n < least:
        raise ConfigError(f"{name} must be at least {least}, got {n}")
    if n > most:
        raise ConfigError(f"{name} must be at most {most}, got {n}")
    return n


def _points(value, name: str, least: int = 0) -> list[complex]:
    if not (isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value)):
        raise ConfigError(f"{name} must be a list of [x, y] pairs, got {value!r}")
    if len(value) < least:
        raise ConfigError(f"{name} must hold at least {least} pairs, got {value!r}")
    return [complex(_finite(x, name), _finite(y, name)) for x, y in value]


def _base_label(z: complex) -> str:
    """The name of thm1's check seeded at z.  Adding 0.0 turns -0.0 into 0.0,
    so that -0.4j, whose real part is -0.0, prints as [0, -0.4] does."""
    return f"generalized@{z.real + 0.0:g}{z.imag + 0.0:+g}j"


def _base_points(value, name: str) -> list[complex]:
    """thm1's base points.  Two that print to one label would share one
    summary entry, and a violation at the first would be overwritten."""
    points = _points(value, name, least=1)
    labels = [_base_label(z) for z in points]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"{name} must print to distinct labels, got {labels}")
    return points


def _numbers(value, name: str, least: int = 0) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    if len(value) < least:
        raise ConfigError(f"{name} must hold at least {least} numbers, got {value!r}")
    return [_finite(x, name) for x in value]


def _build(cls, readers: dict, spec, name: str):
    """cls from the JSON object spec, each field read by its reader.  Only
    the fields with a default in cls may be left out."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} must be a JSON object, got {spec!r}")
    unknown = sorted(spec.keys() - readers.keys())
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in spec]
    if unknown or missing:
        raise ConfigError(f"{name} {spec!r}: unknown fields {unknown}, missing fields {missing}")
    return cls(**{key: readers[key](value, f"{name}.{key}") for key, value in spec.items()})


_DOMAIN_KINDS = {
    "half_plane": (HalfPlaneDom, {"boundary_height": _finite, "side": lambda side, name: side}),
    "strip": (StripDom, {"y_low": _finite, "y_high": _finite}),
    "rectangle_chain": (RectangleChain, {"n_max": _integer}),
    "slit_plane": (SlitPlane, {"slits": lambda slits, name: tuple((z.real, z.imag) for z in _points(slits, name))}),
}


def parse_domain(spec: dict) -> DomainDescriptor:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not (isinstance(kind, str) and kind in _DOMAIN_KINDS):
        raise ConfigError(f"domain spec needs a 'kind' field, one of {list(_DOMAIN_KINDS)}, got {spec!r}")
    cls, readers = _DOMAIN_KINDS[kind]
    return _build(cls, readers, {k: v for k, v in spec.items() if k != "kind"}, kind)


def _grid(spec, name: str) -> TGrid:
    return _build(TGrid, dict.fromkeys(("start", "stop", "step"), _finite), spec, name)


def _key(path: str, read, default):
    """A config key: its path in the JSON config, its reader and its default."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"path": path, "read": read})
    return field(default=default, metadata={"path": path, "read": read})


@dataclass
class ExperimentConfig:
    """One run's settings.  Each config key is declared once, as the field
    holding its path in the JSON config, its reader and its default."""

    experiment: str
    domain: DomainDescriptor | None = _key("domain", lambda spec, name: parse_domain(spec), None)
    domain_tilde: DomainDescriptor | None = _key("domain_tilde", lambda spec, name: parse_domain(spec), None)
    t_grid: TGrid | None = _key("t_grid", _grid, None)
    seed: int | None = _key("seed", partial(_integer, least=0, most=2**64 - 1), None)
    n_samples: int = _key("n_samples", partial(_integer, least=1), 100_000)
    mc_chunk: int = _key("mc_chunk", partial(_integer, least=1), 8192)
    base_points: list[complex] = _key("base_points", _base_points, [0.3 + 0j, -0.4j, 0.2 + 0.5j])
    # no check reads it; it is accepted because the benchmark's thm1_strip config sets it
    violation_slack: float = _key("tolerances.violation_slack", _finite, 1e-12)
    mc_sigma: float = _key("tolerances.mc_sigma", _positive, 3.0)
    table_n_lo: int = _key("table.n_lo", _integer, 2)
    table_n_hi: int = _key("table.n_hi", _integer, 6)
    table_alpha: float = _key("table.alpha", _finite, 7.0 / 12.0)
    dip_R: float = _key("dip.R", _finite, 100.0)
    dip_a0_log10_start: float = _key("dip.a0_log10_start", _finite, 3.0)
    dip_a0_log10_stop: float = _key("dip.a0_log10_stop", _finite, 5.0)
    dip_a0_count: int = _key("dip.a0_count", partial(_integer, least=2, most=MAX_GRID_ROWS), 41)
    k_radii: list[float] = _key("dip.k_radii", partial(_numbers, least=1), [10.0, 100.0, 1000.0])
    k_samples: int = _key("dip.k_samples", _integer, 1000)
    projection_ts: list[float] = _key("hm.projection_ts", partial(_numbers, least=1), [1.0, 5.0, 20.0])
    semidisk_t0: float = _key("hm.semidisk_t0", _finite, 0.5)
    min_dip: float = _key("thresholds.min_dip", _finite, 0.01)
    diff_slack: float = _key("thresholds.diff_slack", _finite, 0.05)
    ratio_slack: float = _key("thresholds.ratio_slack", _finite, 0.05)
    raw: dict = field(default_factory=dict)


#: Each config key's field, by the key's path in the JSON config.
CONFIG_KEYS = {f.metadata["path"]: f for f in fields(ExperimentConfig) if "path" in f.metadata}
_SECTIONS = {path.split(".")[0] for path in CONFIG_KEYS if "." in path}


def parse_config(data: dict) -> ExperimentConfig:
    """The run a JSON config describes.  A key not declared in
    ``ExperimentConfig``, or a key the experiment needs left out, is a
    ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    experiment = data.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    values = {}
    for key, value in data.items():
        if key == "experiment":
            continue
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
            entries = [(f"{key}.{k}", v) for k, v in value.items()]
        else:
            entries = [(key, value)]
        for path, v in entries:
            if path not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {path!r}")
            values[CONFIG_KEYS[path].name] = CONFIG_KEYS[path].metadata["read"](v, path)
    missing = [key for key in _RUNNERS[experiment][1] if key not in data]
    if missing:
        raise ConfigError(f"experiment {experiment!r} needs config keys {missing}")
    return ExperimentConfig(experiment, raw=data, **values)


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


_SPEEDS_SCHEMA = ["t", "v", "v_o", "v_T", "pi_t"]


def _speeds_rows(samples) -> list[tuple]:
    return [(s.t, s.v, s.v_o, s.v_T, s.pi_t) for s in samples]


# ---------------------------------------------------------------------------
# Experiment bodies: each returns (schema, rows, passed, summary)


def _run_dist(cfg: ExperimentConfig) -> tuple:
    from .seeding import sample_uniforms

    seed = cfg.seed
    rows = []
    worst_pair = 0.0
    cayley_inv = CAYLEY.inverse()
    u = [sample_uniforms(seed, i, 0) for i in range(400)]
    for i in range(100):
        w1 = complex(0.05 + 6.0 * u[4 * i], -6.0 + 12.0 * u[4 * i + 1])
        w2 = complex(0.05 + 6.0 * u[4 * i + 2], -6.0 + 12.0 * u[4 * i + 3])
        val = region_distance(RIGHT_HALF_PLANE, w1, w2)
        ref = disk_distance(apply_mobius(cayley_inv, w1), apply_mobius(cayley_inv, w2))
        err = abs(val - ref)
        worst_pair = max(worst_pair, err)
        rows.append(("halfplane_vs_pullback", w1.real, w1.imag, w2.real, w2.imag, val, ref, err))
    worst_quad = 0.0
    v = [sample_uniforms(seed, i, 1) for i in range(60)]
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
    schema = ["check", "re1", "im1", "re2", "im2", "value", "reference", "abs_err"]
    passed = worst_pair <= 1e-10 and worst_quad <= 1e-8
    return schema, rows, passed, {"max_abs_err_halfplane": worst_pair, "max_abs_err_quadrature": worst_quad}


def _run_speeds(cfg: ExperimentConfig) -> tuple:
    model = make_model(cfg.domain)
    samples = [speeds(model, t) for t in cfg.t_grid.values()]
    # hyperbolic Pythagoras, cosh 2v = cosh 2v_o cosh 2v_T, read in logs, which
    # cannot overflow: with L(x) = -2 log cosh x, L(2v) - L(2v_o) - L(2v_T) = 0.
    # The residual is taken relative to |L(2v)|, but to no less than the least
    # normal float: below it (v under about 1e-154) L keeps subnormal digits only.
    worst = 0.0
    for s in samples:
        big = _minus_two_log_cosh(2.0 * s.v)
        residual = abs(big - _minus_two_log_cosh(2.0 * s.v_o) - _minus_two_log_cosh(2.0 * s.v_T))
        worst = max(worst, residual / max(-big, sys.float_info.min))
    ok = worst <= 1e-14
    summary = {"n_rows": len(samples), "invariants_ok": ok, "pythagoras_residual": worst}
    return _SPEEDS_SCHEMA, _speeds_rows(samples), ok, summary


def _run_thm1(cfg: ExperimentConfig) -> tuple:
    model = make_model(cfg.domain)
    grid = cfg.t_grid.values()
    samples = [speeds(model, t) for t in grid]
    # each orthogonal speed, the origin's first, is checked by the sign of its
    # t-derivative, with no slack; at t = 0 the derivative may vanish (on the
    # half-plane it is exactly 0).  The origin's pi_t = tanh(v_o) rises exactly
    # where v_o does, so the one rate checks the foot too.
    violations, least_rate = {}, {}
    for label, z in [("orthogonal", 0j)] + [(_base_label(z), z) for z in cfg.base_points]:
        rates = [orthogonal_rate(model, z, t) for t in grid if t > 0.0]
        violations[label] = sum(not rate > 0.0 for rate in rates)
        least_rate[label] = min(rates)
    passed = all(v == 0 for v in violations.values())
    return _SPEEDS_SCHEMA, _speeds_rows(samples), passed, {"violations": violations, "least_rate": least_rate}


def _run_thm2(cfg: ExperimentConfig) -> tuple:
    lo, hi, count = cfg.dip_a0_log10_start, cfg.dip_a0_log10_stop, cfg.dip_a0_count
    a0_grid = [10.0 ** (lo + (hi - lo) * k / (count - 1)) for k in range(count)]
    dip = dip_search(cfg.dip_R, a0_grid)
    etas = [slit_inequality_on_K(R, cfg.k_samples) for R in cfg.k_radii]
    summary = {
        "best_a0": dip.a0,
        "dip": dip.dip,
        "min_dip_required": cfg.min_dip,
        "eta_by_R": {str(e.R): e.min_gap for e in etas},
        "dip_margin": dip.dip - cfg.min_dip,
        "eta_margin": min(e.min_gap for e in etas),
    }
    passed = summary["dip_margin"] >= 0.0 and summary["eta_margin"] > 0.0
    return ["a0", "delta"], dip.curve, passed, summary


def _run_thm3(cfg: ExperimentConfig) -> tuple:
    rows = theorem3_table(cfg.table_n_lo, cfg.table_n_hi, cfg.table_alpha)
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
    table = [(r.n, r.t_n, r.q_total, r.upper_ratio, r.lower_ratio) for r in rows]
    return ["n", "t_n", "Q", "upper_ratio", "lower_ratio"], table, passed, summary


def _run_thm4(cfg: ExperimentConfig) -> tuple:
    report = theorem4_scan(make_model(cfg.domain), make_model(cfg.domain_tilde), cfg.t_grid.values())
    summary = {
        "tail_min_diff": report.tail_min_diff,
        "tail_min_ratio": report.tail_min_ratio,
        "bound": -LOG2,
        "diff_margin": report.tail_min_diff + LOG2 + cfg.diff_slack,
        "ratio_margin": report.tail_min_ratio - 0.25 + cfg.ratio_slack,
    }
    passed = summary["diff_margin"] >= 0.0 and summary["ratio_margin"] >= 0.0
    rows = [(r.t, r.v_o, r.v_o_tilde, r.diff, r.ratio) for r in report.rows]
    return ["t", "v_o", "v_o_tilde", "diff", "ratio"], rows, passed, summary


def _run_hm(cfg: ExperimentConfig) -> tuple:
    from .harmonic import (
        ArcOnCircle,
        disk_arc_measure,
        geodesic_cut_measure,
        mc_disk_arc,
        projection_bound_check,
        semidisk_bisection_check,
    )

    seed, n, sigma = cfg.seed, cfg.n_samples, cfg.mc_sigma
    rows = []  # each row ends with its own verdict

    arc = ArcOnCircle(0.0, math.pi / 2.0)
    est = mc_disk_arc(0j, arc, n, seed=seed)
    ref = disk_arc_measure(0j, arc)
    ok = abs(est.value - ref) <= sigma * est.std_error
    rows.append(("arc_calibration", 0.25, est.value, ref, est.std_error, est.n_samples, seed, ok))

    worst = 0.0
    for k in range(1, 10):
        pi_t = k / 10.0
        cut, closed = geodesic_cut_measure(pi_t)
        geo = disk_arc_measure(0j, cut)
        worst = max(worst, abs(geo - closed))
    ok = worst <= 1e-10
    rows.append(("geodesic_cut_agreement", math.nan, worst, 0.0, 0.0, 9, seed, ok))

    model = make_model(cfg.domain)
    truncated = 0
    for t in cfg.projection_ts:
        res = projection_bound_check(model, t, n, seed=seed, chunk=cfg.mc_chunk, sigma=sigma)
        truncated += res.estimate.truncated
        rows.append(
            ("projection_bound", t, res.estimate.value, res.lower_bound, res.estimate.std_error, n, seed, res.passed)
        )

    left, right = semidisk_bisection_check(cfg.semidisk_t0, n, seed=seed, chunk=cfg.mc_chunk)
    # one walk per sample serves both halves: count its truncations once
    truncated += left.truncated
    joint = math.sqrt(left.std_error**2 + right.std_error**2 + 2.0 * left.value * right.value / n)
    ok = abs(left.value - right.value) <= sigma * joint
    rows.append(("semidisk_bisection", cfg.semidisk_t0, left.value, right.value, joint, n, seed, ok))

    schema = ["check", "param", "value", "reference", "std_error", "n", "seed", "passed"]
    return schema, rows, all(row[-1] for row in rows), {"n_checks": len(rows), "truncated_walks": truncated}


#: Each experiment's runner and the config keys it cannot run without.
_RUNNERS = {
    "dist": (_run_dist, ("seed",)),
    "speeds": (_run_speeds, ("domain", "t_grid")),
    "thm1": (_run_thm1, ("domain", "t_grid")),
    "thm2": (_run_thm2, ()),
    "thm3": (_run_thm3, ()),
    "thm4": (_run_thm4, ("domain", "domain_tilde", "t_grid")),
    "hm": (_run_hm, ("domain", "seed")),
}
EXPERIMENTS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig, out_dir: Path) -> RunReport:
    """Run an experiment, then write its CSV and JSON report into out_dir."""
    schema, rows, passed, summary = _RUNNERS[cfg.experiment][0](cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(rows, schema, out_dir / f"{cfg.experiment}.csv")
    report = RunReport(cfg.experiment, passed, summary, {"config": cfg.raw, "seed": cfg.seed, "version": __version__})
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
    except (HypspeedsError, OSError, ArithmeticError, KeyError, TypeError, ValueError) as exc:
        print(f"hypspeeds: error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.experiment}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

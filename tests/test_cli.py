"""Experiment runner: configs, CSV/JSON emission, exit codes, reproducibility."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import pytest

from hypspeeds.cli import (
    CONFIG_KEYS,
    EXPERIMENTS,
    MAX_GRID_ROWS,
    TGrid,
    _RUNNERS,
    emit_csv,
    main,
    parse_config,
    parse_domain,
    run,
)
from hypspeeds.domains import SlitPlane, StripDom
from hypspeeds.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


HUGE_T_GRID = {"start": 0, "stop": 1e300, "step": 1e299}


def write_config(tmp_path: Path, data: dict) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_parse_domain_variants():
    assert parse_domain({"kind": "strip", "y_low": -1, "y_high": 1}) == StripDom(-1.0, 1.0)
    assert parse_domain({"kind": "slit_plane", "slits": [[0, 1]]}) == SlitPlane(((0.0, 1.0),))
    with pytest.raises(ConfigError):
        parse_domain({"kind": "donut"})
    with pytest.raises(ConfigError):
        parse_domain({"y_low": -1})


def test_tgrid_validation():
    assert TGrid(0.0, 1.0, 0.5).values() == [0.0, 0.5, 1.0]
    with pytest.raises(ConfigError):
        TGrid(0.0, 1.0, -0.1)
    with pytest.raises(ConfigError):
        TGrid(1.0, 0.0, 0.1)


def test_tgrid_row_cap():
    # the grid would be built whole; these are refused before any row exists
    for stop, step in ((1e300, 1.0), (float(MAX_GRID_ROWS), 1.0), (1.0, 1e-300)):
        with pytest.raises(ConfigError):
            TGrid(0.0, stop, step)
    assert TGrid(0.0, MAX_GRID_ROWS - 1.0, 1.0).stop == MAX_GRID_ROWS - 1.0


def test_parse_config_requires_seed_for_sampling():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "hm", "domain": {"kind": "strip", "y_low": -1, "y_high": 1}})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "unknown"})


# a config for each experiment holding every key it requires
FULL_CONFIGS = {
    "dist": {"seed": 1},
    "speeds": {"domain": {"kind": "strip", "y_low": -1, "y_high": 1}, "t_grid": {"start": 0, "stop": 1, "step": 0.5}},
    "thm1": {"domain": {"kind": "strip", "y_low": -1, "y_high": 1}, "t_grid": {"start": 0, "stop": 1, "step": 0.5}},
    "thm2": {},
    "thm3": {},
    "thm4": {
        "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
        "domain_tilde": {"kind": "strip", "y_low": -2, "y_high": 2},
        "t_grid": {"start": 10, "stop": 20, "step": 10},
    },
    "hm": {"domain": {"kind": "strip", "y_low": -1, "y_high": 1}, "seed": 1},
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_parse_config_requires_each_needed_key(experiment):
    data = dict(FULL_CONFIGS[experiment], experiment=experiment)
    assert parse_config(data).experiment == experiment
    for key in _RUNNERS[experiment][1]:
        with pytest.raises(ConfigError, match=key):
            parse_config({k: v for k, v in data.items() if k != key})


def _misspelled(path: str) -> dict:
    """A one-key config with the last part of `path` misspelled."""
    *section, name = path.split(".")
    bad = name.replace("_", "-") if "_" in name else name.swapcase()
    return {section[0]: {bad: 1}} if section else {bad: 1}


@pytest.mark.parametrize("path", sorted(CONFIG_KEYS))
def test_misspelled_key_exits_two(path, tmp_path):
    # thm3 needs no key, so a dropped misspelling would pass
    data = _misspelled(path)
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(dict(data, experiment="thm3"))
    assert main(["thm3", "--config", str(write_config(tmp_path, data)), "--out", str(tmp_path)]) == 2


def test_misspelled_threshold_or_section_exits_two(tmp_path, capsys):
    dip = {"R": 100.0, "a0_log10_start": 3.0, "a0_log10_stop": 4.0, "a0_count": 5, "k_radii": [10.0], "k_samples": 50}
    for thresholds, code in (({"min_dip": 10.0}, 1), ({"min-dip": 10.0}, 2)):
        cfg_path = write_config(tmp_path, {"dip": dip, "thresholds": thresholds})
        assert main(["thm2", "--config", str(cfg_path), "--out", str(tmp_path)]) == code
    assert "PASS" not in capsys.readouterr().out
    strip = {"kind": "strip", "y_low": -1, "y_high": 1}
    grid = {"start": 0.0, "stop": 1.0, "step": 0.5}
    cfg_path = write_config(tmp_path, {"domain": strip, "t_grid": grid, "tolerance": {"violation_slack": -1}})
    assert main(["thm1", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


def test_readme_config_table_matches_schema():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            rows[cells[0].strip("`")] = cells
    assert set(rows) == set(CONFIG_KEYS)
    for path, (_, _, default, _, required_by) in rows.items():
        needs = [exp for exp, (_, keys) in _RUNNERS.items() if path in keys]
        assert [e.strip() for e in required_by.split(",") if e.strip()] == needs, path
        declared = CONFIG_KEYS[path].default
        assert (default == "—") == (declared is None), path
        try:
            number = float(default)
        except ValueError:  # no default, a list or a fraction
            continue
        assert number == declared, path


def test_emit_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([(1, 0.5, "x")], ["a", "b", "c"], path)
    assert path.read_text(encoding="utf-8") == "a,b,c\n1,0.5,x\n"
    emit_csv([], ["a", "b"], path)
    assert path.read_text(encoding="utf-8") == "a,b\n"


def test_emit_csv_significant_digits(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([(2.0**64, 1.0 / 3.0)], ["x", "y"], path)
    body = path.read_text(encoding="utf-8").splitlines()[1]
    assert body == "1.84467440737e+19,0.333333333333"


def test_thm1_run_passes(tmp_path):
    cfg = parse_config(
        {
            "experiment": "thm1",
            "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
            "t_grid": {"start": 0.0, "stop": 5.0, "step": 0.25},
            "base_points": [[0.3, 0.0]],
        }
    )
    report = run(cfg, tmp_path)
    assert report.passed
    assert (tmp_path / "thm1.csv").exists()
    header = (tmp_path / "thm1.csv").read_text().splitlines()[0]
    assert header == "t,v,v_o,v_T,pi_t"
    payload = json.loads((tmp_path / "thm1_report.json").read_text())
    assert payload["passed"] is True
    assert payload["provenance"]["version"]


def test_thm1_takes_speeds_once_per_grid_point(tmp_path, monkeypatch):
    # thm1.csv reads one list of samples
    import hypspeeds.cli
    import hypspeeds.semigroup

    calls = []
    speeds = hypspeeds.semigroup.speeds

    def counted(m, t):
        calls.append(t)
        return speeds(m, t)

    monkeypatch.setattr(hypspeeds.cli, "speeds", counted)
    monkeypatch.setattr(hypspeeds.semigroup, "speeds", counted)
    data = json.loads((CONFIGS / "thm1_strip.json").read_text(encoding="utf-8"))
    cfg = parse_config(dict(data, experiment="thm1"))
    assert run(cfg, tmp_path).passed
    assert calls == cfg.t_grid.values()


def test_thm1_small_times_without_slack(tmp_path):
    # v_o is about t^2/4 here; read as the difference of two rounded points
    # of H it was 0 on every row, and the origin-orbit scans flagged all 10 pairs
    cfg = parse_config(
        {
            "experiment": "thm1",
            "domain": {"kind": "half_plane", "boundary_height": -1, "side": "above"},
            "t_grid": {"start": 0, "stop": 1e-8, "step": 1e-9},
            "base_points": [[0.3, 0]],
            "tolerances": {"violation_slack": 0},
        }
    )
    report = run(cfg, tmp_path)
    assert report.summary["violations"]["orthogonal"] == 0
    # the base point's speed, read by a disk projection, went flat and flagged
    # 9 of 10 pairs; its rate is t / (2 (X^2 + t^2)) here, X = Re M(0.3) = 13/7
    assert report.passed


@pytest.mark.parametrize(
    "domain",
    [
        {"kind": "half_plane", "boundary_height": -1},
        {"kind": "strip", "y_low": -1, "y_high": 2},
        {"kind": "strip", "y_low": -1, "y_high": 1},
    ],
    ids=["half_plane", "asymmetric_strip", "symmetric_strip"],
)
def test_thm1_far_out_passes(tmp_path, domain):
    # the disk projection of the base points' orbits rounded onto the unit
    # circle, and the run exited 2; their rates are read in H.  On the
    # symmetric strip pi_t rounds to just below 1 from t = 20 on, and the
    # origin orbit's grid differences, read with no slack, flagged 99 pairs
    config = {"domain": domain, "t_grid": {"start": 0, "stop": 1e8, "step": 1e6}, "tolerances": {"violation_slack": 0}}
    cfg_path = write_config(tmp_path, config)
    assert main(["thm1", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "thm1_report.json").read_text(encoding="utf-8"))["summary"]
    assert set(summary["violations"].values()) == {0}
    assert min(summary["least_rate"].values()) > 0.0


def test_thm1_labels_each_base_point(tmp_path):
    # the shipped configs' base points keep their labels, and the default
    # -0.4j, whose real part is -0.0, prints as the shipped [0, -0.4]
    data = json.loads((CONFIGS / "thm1_slit.json").read_text(encoding="utf-8"))
    grid = {"start": 0.0, "stop": 1.0, "step": 0.5}
    labels = ["orthogonal", "generalized@0.3+0j", "generalized@0-0.4j", "generalized@0.2+0.5j"]
    for spec in (data, {k: v for k, v in data.items() if k != "base_points"}):
        summary = run(parse_config(dict(spec, experiment="thm1", t_grid=grid)), tmp_path).summary
        assert list(summary["violations"]) == list(summary["least_rate"]) == labels


# the shipped thm3 report's stage ratios, to the last bit; thm3.csv prints
# 12 digits and cannot see a change in the last
PINNED_STAGE_RATIOS = {
    "2": 0.7654219832844824,
    "3": 1.0342349895688558,
    "4": 0.9964982628117366,
    "5": 1.0000928759338548,
    "6": 0.9999999997676532,
}


def test_thm3_report_stage_ratios_are_pinned(tmp_path):
    data = json.loads((CONFIGS / "thm3_table.json").read_text(encoding="utf-8"))
    assert run(parse_config(dict(data, experiment="thm3")), tmp_path).passed
    payload = json.loads((tmp_path / "thm3_report.json").read_text(encoding="utf-8"))
    assert payload["summary"]["stage_ratios"] == PINNED_STAGE_RATIOS


def test_thm3_run_table(tmp_path):
    cfg = parse_config({"experiment": "thm3"})
    report = run(cfg, tmp_path)
    assert report.passed
    lines = (tmp_path / "thm3.csv").read_text().splitlines()
    assert lines[0] == "n,t_n,Q,upper_ratio,lower_ratio"
    assert len(lines) == 6  # header + n in [2, 6]
    assert report.summary["trend_exceptions"] == []


def test_speeds_run_and_csv_schema(tmp_path):
    cfg = parse_config(
        {
            "experiment": "speeds",
            "domain": {"kind": "slit_plane", "slits": [[0, 1]]},
            "t_grid": {"start": 0.0, "stop": 3.0, "step": 0.5},
        }
    )
    report = run(cfg, tmp_path)
    assert report.passed
    lines = (tmp_path / "speeds.csv").read_text().splitlines()
    assert lines[0] == "t,v,v_o,v_T,pi_t"
    assert len(lines) == 8


def test_speeds_verdict_reads_the_pythagoras_identity(tmp_path, monkeypatch):
    # hyperbolic Pythagoras holds to a few ulps, from times so small that
    # cosh 2v - 1 is subnormal out to the shipped grid
    import hypspeeds.cli

    data = json.loads((CONFIGS / "speeds_slit.json").read_text(encoding="utf-8"))
    for spec in (data, dict(data, t_grid={"start": 0.0, "stop": 1e-160, "step": 1e-162})):
        report = run(parse_config(dict(spec, experiment="speeds")), tmp_path)
        assert report.passed and report.summary["pythagoras_residual"] <= 2e-15
    # v_T off by 1e-10 relative kept every triangle inequality within 1e-12
    speeds = hypspeeds.cli.speeds

    def skewed(m, t):
        s = speeds(m, t)
        return dataclasses.replace(s, v_T=s.v_T * (1.0 + 1e-10))

    monkeypatch.setattr(hypspeeds.cli, "speeds", skewed)
    report = run(parse_config(dict(data, experiment="speeds")), tmp_path)
    assert not report.passed and report.summary["invariants_ok"] is False


@pytest.mark.parametrize(
    "domain, stop",
    [
        ({"kind": "slit_plane", "slits": [[0, 1]]}, 1e8),
        ({"kind": "strip", "y_low": -1, "y_high": 2}, 1e3),
        ({"kind": "half_plane", "boundary_height": -1}, 1e8),
    ],
    ids=["slit", "asymmetric_strip", "half_plane"],
)
def test_speeds_far_out_exits_zero(tmp_path, domain, stop):
    # v_o must stay below v out to the end of each grid, where 1 - pi_t is
    # 1.4e-4 (slit), 2e-8 (half-plane) or below the spacing of doubles (strip)
    cfg_path = write_config(tmp_path, {"domain": domain, "t_grid": {"start": 0.0, "stop": stop, "step": stop / 10}})
    assert main(["speeds", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


def test_main_exit_codes(tmp_path):
    # malformed grid -> 2
    cfg_path = write_config(
        tmp_path,
        {
            "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
            "t_grid": {"start": 0.0, "stop": 1.0, "step": -0.5},
        },
    )
    assert main(["thm1", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    # unsupported domain for the experiment -> 2
    cfg_path = write_config(
        tmp_path,
        {
            "domain": {"kind": "rectangle_chain", "n_max": 3},
            "t_grid": {"start": 0.0, "stop": 1.0, "step": 0.5},
        },
    )
    assert main(["speeds", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    # assertion failure -> 1 (impossible dip threshold)
    cfg_path = write_config(
        tmp_path,
        {
            "dip": {"R": 100.0, "a0_log10_start": 3.0, "a0_log10_stop": 4.0, "a0_count": 5, "k_radii": [10.0], "k_samples": 50},
            "thresholds": {"min_dip": 10.0},
        },
    )
    assert main(["thm2", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1

    # too few arc samples or dip abscissae -> 2
    for dip in ({"k_samples": 0}, {"k_samples": 1}, {"a0_count": 1}):
        cfg_path = write_config(tmp_path, {"dip": dip})
        assert main(["thm2", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2, dip

    # non-finite numbers would switch a check off; malformed sections and
    # points would crash -> 2
    strip = {"kind": "strip", "y_low": -1, "y_high": 1}
    grid = {"start": 0.0, "stop": 1.0, "step": 0.5}
    for experiment, bad in (
        ("thm1", {"domain": strip, "t_grid": grid, "tolerances": {"violation_slack": math.nan}}),
        ("thm1", {"domain": strip, "t_grid": grid, "tolerances": {"violation_slack": math.inf}}),
        ("thm2", {"thresholds": {"min_dip": -math.inf}}),
        ("thm4", {"domain": strip, "domain_tilde": strip, "t_grid": grid, "seed": 1, "thresholds": {"diff_slack": math.inf}}),
        ("hm", {"domain": strip, "seed": 1, "n_samples": 100, "tolerances": {"mc_sigma": math.inf}}),
        ("thm1", {"domain": strip, "t_grid": grid, "n_samples": math.inf}),
        ("thm2", {"dip": []}),
        ("thm3", {"table": [2, 6]}),
        ("thm1", {"domain": strip, "t_grid": grid, "base_points": [[0.3]]}),
        ("thm1", {"domain": strip, "t_grid": grid, "base_points": [[0.3, 0, 5]]}),
        # malformed list keys and domain specs, unknown fields, oversized grids
        ("thm1", {"domain": strip, "t_grid": grid, "base_points": 5}),
        ("speeds", {"domain": {"kind": "slit_plane", "slits": [[0, 1, 2]]}, "t_grid": grid}),
        ("speeds", {"domain": {"kind": "slit_plane", "slits": 5}, "t_grid": grid}),
        ("speeds", {"domain": dict(strip, side="above"), "t_grid": grid}),
        ("speeds", {"domain": {"kind": "strip", "y_low": -1}, "t_grid": grid}),
        ("speeds", {"domain": {"kind": "rectangle_chain", "n_max": "six"}, "t_grid": grid}),
        ("speeds", {"domain": strip, "t_grid": dict(grid, end=2.0)}),
        ("speeds", {"domain": strip, "t_grid": {"start": 0, "stop": 1e300, "step": 1}}),
        ("thm2", {"dip": {"k_radii": 5}}),
        ("hm", {"domain": strip, "seed": 1, "hm": {"projection_ts": "1"}}),
        ("dist", {"seed": None}),
        # a fraction where an integer belongs was truncated: 2.5 abscissae ran 2
        ("thm2", {"dip": {"a0_count": 2.5}}),
        # the dip abscissae are built whole, like a time grid
        ("thm2", {"dip": {"a0_count": MAX_GRID_ROWS + 1}}),
        # two base points printing to one label shared one scan entry
        ("thm1", {"domain": strip, "t_grid": grid, "base_points": [[0.1234567, 0], [0.1234568, 0], [0.2, 0.5]]}),
        # one point twice: -0.0 printed as -0, so the two labels differed
        ("thm1", {"domain": strip, "t_grid": grid, "base_points": [[-0.0, -0.4], [0, -0.4]]}),
        ("thm3", {"table": {"n_lo": 2.9}}),
        # a string where a number belongs
        ("dist", {"seed": "31"}),
        ("thm2", {"thresholds": {"min_dip": "0.01"}}),
        # an integer beyond the largest float ended in an OverflowError traceback
        ("thm2", {"thresholds": {"min_dip": 10**400}}),
        # an empty list left its check vacuous and printed PASS
        ("thm2", {"dip": {"k_radii": []}}),
        ("hm", {"domain": strip, "seed": 1, "hm": {"projection_ts": []}}),
        ("thm1", {"domain": strip, "t_grid": grid, "base_points": []}),
        # a grid of one time gave thm1 no pair to scan and printed PASS
        ("thm1", {"domain": strip, "t_grid": {"start": 0, "stop": 0.05, "step": 0.1}}),
        # the streams read 64 bits of the seed: 2^64 + 1 ran as 1, -1 as 2^64 - 1
        ("dist", {"seed": 2**64 + 1}),
        ("dist", {"seed": -1}),
        # a boolean read as 1 or 0: a violation_slack of true ran with slack 1.0 and printed PASS
        ("thm1", {"domain": strip, "t_grid": grid, "tolerances": {"violation_slack": True}}),
        ("dist", {"seed": True}),
        ("thm2", {"thresholds": {"min_dip": False}}),
    ):
        with pytest.raises(ConfigError):
            parse_config(dict(bad, experiment=experiment))
        cfg_path = write_config(tmp_path, bad)
        assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2, bad

    # passing run -> 0
    cfg_path = write_config(
        tmp_path,
        {
            "dip": {"R": 100.0, "a0_log10_start": 3.0, "a0_log10_stop": 4.0, "a0_count": 5, "k_radii": [10.0], "k_samples": 50},
        },
    )
    assert main(["thm2", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0


def test_thm4_run(tmp_path):
    cfg = parse_config(
        {
            "experiment": "thm4",
            "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
            "domain_tilde": {"kind": "strip", "y_low": -2, "y_high": 2},
            "t_grid": {"start": 10.0, "stop": 100.0, "step": 10.0},
            "seed": 5,
        }
    )
    report = run(cfg, tmp_path)
    assert report.passed
    header = (tmp_path / "thm4.csv").read_text().splitlines()[0]
    assert header == "t,v_o,v_o_tilde,diff,ratio"


# each shipped thm2 and thm4 config, and changes of it that fail one condition
MARGIN_RUNS = [
    ("thm2_dip", {}),
    ("thm2_dip", {"thresholds": {"min_dip": 10.0}}),
    ("thm2_dip", {"dip": {"k_radii": [2.0, 100.0]}}),
    ("thm4_strips", {}),
    ("thm4_strips", {"thresholds": {"diff_slack": -300.0}}),
    ("thm4_strips", {"thresholds": {"ratio_slack": -1e174}}),
]


@pytest.mark.parametrize("stem, change", MARGIN_RUNS)
def test_verdict_is_pass_exactly_when_every_margin_holds(stem, change, tmp_path):
    experiment = stem.split("_")[0]
    data = json.loads((CONFIGS / f"{stem}.json").read_text(encoding="utf-8"))
    for section, values in change.items():
        data[section] = dict(data[section], **values)
    report = run(parse_config(dict(data, experiment=experiment)), tmp_path)
    summary = report.summary
    if experiment == "thm2":
        assert summary["dip_margin"] == summary["dip"] - summary["min_dip_required"]
        assert summary["eta_margin"] == min(summary["eta_by_R"].values())
        holds = summary["dip_margin"] >= 0.0 and summary["eta_margin"] > 0.0
    else:
        slack = data["thresholds"]
        assert summary["diff_margin"] == summary["tail_min_diff"] - summary["bound"] + slack["diff_slack"]
        assert summary["ratio_margin"] == summary["tail_min_ratio"] - 0.25 + slack["ratio_slack"]
        holds = summary["diff_margin"] >= 0.0 and summary["ratio_margin"] >= 0.0
    assert report.passed is holds is (change == {})
    assert json.loads((tmp_path / f"{experiment}_report.json").read_text())["summary"] == summary


def test_dist_run(tmp_path):
    cfg = parse_config({"experiment": "dist", "seed": 31})
    report = run(cfg, tmp_path)
    assert report.passed
    assert report.summary["max_abs_err_halfplane"] <= 1e-10
    assert report.summary["max_abs_err_quadrature"] <= 1e-8
    # --seed goes through the config schema: the largest 64-bit seed runs,
    # and one beyond either end of the range exits 2
    cfg_path = write_config(tmp_path, {"seed": 1})
    for seed, code in ((2**64 - 1, 0), (2**64, 2), (2**64 + 1, 2), (-1, 2)):
        assert main(["dist", "--config", str(cfg_path), "--out", str(tmp_path), "--seed", str(seed)]) == code


def test_rerun_is_byte_identical(tmp_path):
    data = {
        "experiment": "hm",
        "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
        "seed": 99,
        "n_samples": 4000,
        "hm": {"projection_ts": [1.0], "semidisk_t0": 0.5},
    }
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    run(parse_config(data), out1)
    run(parse_config(data), out2)
    # a different chunking (the parallel-partition knob) must not change bytes
    data3 = dict(data, mc_chunk=333)
    run(parse_config(data3), out3)
    csv1 = (out1 / "hm.csv").read_bytes()
    assert csv1 == (out2 / "hm.csv").read_bytes()
    assert csv1 == (out3 / "hm.csv").read_bytes()


def test_mc_chunk_reaches_every_walk(tmp_path, monkeypatch):
    import hypspeeds.harmonic as harmonic

    seen = []
    walk = harmonic._walk

    def recording_walk(absorb, z0, n, seed, chunk, max_steps, classes):
        seen.append(chunk)
        return walk(absorb, z0, n, seed, chunk, max_steps, classes)

    monkeypatch.setattr(harmonic, "_walk", recording_walk)
    data = {
        "experiment": "hm",
        "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
        "seed": 99,
        "n_samples": 500,
        "mc_chunk": 333,
        "hm": {"projection_ts": [1.0, 5.0], "semidisk_t0": 0.5},
    }
    run(parse_config(data), tmp_path)
    # two projection bounds and the semidisk bisection
    assert seen == [333, 333, 333]


def test_hm_report_counts_truncated_walks(tmp_path, monkeypatch):
    import hypspeeds.harmonic as harmonic

    data = {
        "experiment": "hm",
        "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
        "seed": 99,
        "n_samples": 500,
        "hm": {"projection_ts": [1.0, 5.0], "semidisk_t0": 0.5},
    }
    assert run(parse_config(data), tmp_path / "full").summary["truncated_walks"] == 0

    cut = []
    walk = harmonic._walk

    def short_walk(absorb, z0, n, seed, chunk, max_steps, classes):
        counts, truncated = walk(absorb, z0, n, seed, chunk, 3, classes)
        cut.append(truncated)
        return counts, truncated

    monkeypatch.setattr(harmonic, "_walk", short_walk)
    report = run(parse_config(data), tmp_path / "cut")
    payload = json.loads((tmp_path / "cut" / "hm_report.json").read_text())
    # two projection bounds and one semidisk walk, whose two halves share it
    assert len(cut) == 3 and min(cut) > 0
    assert report.summary["truncated_walks"] == payload["summary"]["truncated_walks"] == sum(cut)


def test_mc_sigma_reaches_the_projection_rows(tmp_path, monkeypatch):
    import hypspeeds.harmonic as harmonic

    seen = []
    check = harmonic.projection_bound_check

    def recording_check(*args, **kwargs):
        seen.append(kwargs.get("sigma"))
        return check(*args, **kwargs)

    monkeypatch.setattr(harmonic, "projection_bound_check", recording_check)
    data = {
        "experiment": "hm",
        "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
        "seed": 99,
        "n_samples": 500,
        "tolerances": {"mc_sigma": 2.5},
        "hm": {"projection_ts": [1.0, 5.0], "semidisk_t0": 0.5},
    }
    run(parse_config(data), tmp_path)
    # each projection row was checked at 3 sigma whatever the config said
    assert seen == [2.5, 2.5]


def test_mc_sigma_must_be_positive(tmp_path):
    # at -3 the arc and semidisk rows failed while the projection rows
    # passed, and the run printed FAIL and exited 1
    base = {"domain": {"kind": "strip", "y_low": -1, "y_high": 1}, "seed": 1, "n_samples": 100}
    assert parse_config(dict(base, experiment="hm", tolerances={"mc_sigma": 0.5})).mc_sigma == 0.5
    for sigma in (0, -3.0):
        with pytest.raises(ConfigError, match="must be positive"):
            parse_config(dict(base, experiment="hm", tolerances={"mc_sigma": sigma}))
        cfg_path = write_config(tmp_path, dict(base, tolerances={"mc_sigma": sigma}))
        assert main(["hm", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "experiment, data",
    [
        # 10.0 ** 400 for the last dip abscissa
        ("thm2", {"dip": {"a0_log10_stop": 400}}),
        # 2.0 ** (2^n * 1e300) for the table's upper bound
        ("thm3", {"table": {"alpha": -1e300}}),
        # t/b0 overflows in the slit's H step
        ("speeds", {"domain": {"kind": "slit_plane", "slits": [[0, 1e-300]]}, "t_grid": HUGE_T_GRID}),
        # Re u_t underflows to 0 in the half-plane's H step
        ("speeds", {"domain": {"kind": "half_plane", "boundary_height": -1e-300}, "t_grid": HUGE_T_GRID}),
    ],
    ids=["thm2", "thm3", "speeds_slit", "speeds_half_plane"],
)
def test_finite_config_past_float_range_exits_two(tmp_path, capsys, experiment, data):
    # an OverflowError or ZeroDivisionError traceback exited 1, the code of a
    # failed assertion, and the slit wrote NaN rows and printed FAIL
    cfg_path = write_config(tmp_path, data)
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("hypspeeds: error:")
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_slit_plane_whose_w0_overflows_exits_two_naming_w0(tmp_path, capsys):
    # to_h(0) overflowed to NaN, and speeds then blamed t=0.0
    cfg_path = write_config(
        tmp_path, {"domain": {"kind": "slit_plane", "slits": [[-1e300, 1e-10]]}, "t_grid": {"start": 0, "stop": 1, "step": 0.5}}
    )
    assert main(["speeds", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hypspeeds: error:") and "W0" in err and "t=0.0" not in err


def test_hm_on_a_far_strip_tail_exits_two_naming_t(tmp_path, capsys):
    # h^{-1}(25) rounds onto 1: the tail has no length to walk against
    strip = {"kind": "strip", "y_low": -1, "y_high": 1}
    cfg_path = write_config(tmp_path, {"domain": strip, "seed": 1, "n_samples": 100, "hm": {"projection_ts": [25.0]}})
    assert main(["hm", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "t=25.0" in capsys.readouterr().err
    # the run raised before anything was written
    assert not (tmp_path / "hm.csv").exists()
    assert not (tmp_path / "hm_report.json").exists()


def test_mc_chunk_must_be_positive():
    base = {"experiment": "hm", "domain": {"kind": "strip", "y_low": -1, "y_high": 1}, "seed": 1}
    assert parse_config(dict(base, mc_chunk=1)).mc_chunk == 1
    for chunk in (0, -4):
        with pytest.raises(ConfigError):
            parse_config(dict(base, mc_chunk=chunk))


def test_experiments_registry_complete():
    assert set(EXPERIMENTS) == {"dist", "speeds", "thm1", "thm2", "thm3", "thm4", "hm"}


# sha256 of each shipped config's CSV; an intended change to a printed digit
# must update its digest here and say why.  hm_strip: the closed-form
# geodesic cut moved geodesic_cut_agreement's value from 2.22044604925e-16 to 0.
PINNED_CSVS = {
    "dist": "b5f41491422745926220434ced32654f24a727b9d2b413f76f423ffe77a89438",
    "speeds_slit": "28220e9d325c812a8b15c1a81a22cbd17b07ec557fef6e9293ad96679d1b84f6",
    "thm1_slit": "ab24d2406678fc8fb6caa2d40729206ec200cdd3474944a4bb79f73d0c5e0f72",
    "thm1_strip": "482f1e818a778d5579ab57efea93973551cdcc2cb7666695d28d87cfe15caab4",
    "thm2_dip": "94ef33cc8b3c4f093d58db5229535f99a360684c6c39094f0b0b4830a6570af2",
    "thm3_table": "1dd926f2dc629350cd87752b077e3b26ef1f8dd81ab3248fe12f8d620a01fd75",
    "thm4_strips": "839b140e34cee0309038ff35e09bbd50fce9baf96f7a341d7448818e5d886c67",
    "hm_strip": "5a51a877d131b5137b2ca7195e40dc8fc05d52d8c79584147bb7875a43bb9ab5",
}


@pytest.mark.parametrize("stem", PINNED_CSVS)
def test_shipped_config_csv_is_pinned(stem, tmp_path):
    experiment = stem.split("_")[0]
    data = json.loads((CONFIGS / f"{stem}.json").read_text(encoding="utf-8"))
    data["experiment"] = experiment
    assert run(parse_config(data), tmp_path).passed
    digest = hashlib.sha256((tmp_path / f"{experiment}.csv").read_bytes()).hexdigest()
    assert digest == PINNED_CSVS[stem]


BENCH_CONFIGS = ROOT / "bench" / "configs"


@pytest.mark.parametrize("path", sorted(BENCH_CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_bench_config_parses_and_matches_the_shipped_one(path):
    # the benchmark runs its own copies: a key they set must stay accepted,
    # or the benchmark would exit 2 while every other test passes
    assert path.read_bytes() == (CONFIGS / path.name).read_bytes()
    experiment = path.stem.split("_")[0]
    data = json.loads(path.read_text(encoding="utf-8"))
    assert parse_config(dict(data, experiment=experiment)).experiment == experiment

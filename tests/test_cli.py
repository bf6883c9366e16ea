"""Experiment runner: configs, CSV/JSON emission, exit codes, reproducibility."""

import json
from pathlib import Path

import pytest

from hypspeeds.cli import EXPERIMENTS, TGrid, emit_csv, main, parse_config, parse_domain, run
from hypspeeds.domains import SlitPlane, StripDom
from hypspeeds.errors import ConfigError


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


def test_parse_config_requires_seed_for_sampling():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "hm", "domain": {"kind": "strip", "y_low": -1, "y_high": 1}})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "unknown"})


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


def test_dist_run(tmp_path):
    cfg = parse_config({"experiment": "dist", "seed": 31})
    report = run(cfg, tmp_path)
    assert report.passed
    assert report.summary["max_abs_err_halfplane"] <= 1e-10
    assert report.summary["max_abs_err_quadrature"] <= 1e-8


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


def test_mc_chunk_must_be_positive():
    base = {"experiment": "hm", "domain": {"kind": "strip", "y_low": -1, "y_high": 1}, "seed": 1}
    assert parse_config(dict(base, mc_chunk=1)).mc_chunk == 1
    for chunk in (0, -4):
        with pytest.raises(ConfigError):
            parse_config(dict(base, mc_chunk=chunk))


def test_experiments_registry_complete():
    assert set(EXPERIMENTS) == {"dist", "speeds", "thm1", "thm2", "thm3", "thm4", "hm"}

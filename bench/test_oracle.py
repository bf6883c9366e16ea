"""Tests of the benchmark's oracle and checks; they need only mpmath.

Run with ``python3 -m pytest bench``.  The reference values below come from
closed forms derived apart from ``oracle.py``; the rejection tests show that
each check fails once a value moves by twice its stated tolerance.
"""

import mpmath as mp
import pytest

import checks
import oracle

DOMAINS = [
    ("slit", 0.0, 1.0),
    ("slit", -2.0, 0.5),
    ("half_plane", -1.0, "above"),
    ("half_plane", 0.7, "below"),
    ("strip", -1.0, 2.0),
    ("strip", -1.0, 1.0),
]
TIMES = [0.01, 0.5, 3.0, 40.0, 1e4]
BASE_POINTS = [0j, 0.3 + 0j, -0.4j, 0.2 + 0.5j]


@pytest.mark.parametrize("dom", DOMAINS)
def test_maps_round_trip_and_send_the_axis_end_to_infinity(dom):
    for w in (0j, 1.5 - 0.2j, -3 + 0.1j):
        assert abs(oracle.from_h(dom, oracle.to_h(dom, w)) - w) < mp.mpf("1e-40")
        assert oracle.to_h(dom, w).real > 0
    assert abs(oracle.to_h(dom, 1e6)) > abs(oracle.to_h(dom, 1e3)) > abs(oracle.to_h(dom, 1))


def test_half_plane_and_symmetric_strip_closed_forms():
    # axis distances: asinh(t / (2 gap)) in a half-plane, pi t / (2 width) in a symmetric strip
    for t in TIMES:
        half = oracle.speeds(("half_plane", -1.0, "above"), t)
        assert abs(half["v"] - mp.asinh(mp.mpf(t) / 2)) < mp.mpf("1e-40")
        strip = oracle.speeds(("strip", -1.0, 1.0), t)
        assert abs(strip["v"] - mp.pi * t / 4) < mp.mpf("1e-40") * max(1, t)
        assert abs(strip["v_o"] - strip["v"]) < mp.mpf("1e-40") * max(1, t)
        assert abs(strip["v_T"]) < mp.mpf("1e-40")


@pytest.mark.parametrize("dom", DOMAINS)
def test_speeds_obey_the_hyperbolic_pythagorean_theorem(dom):
    # the orbit point, its foot and 0 form a right triangle: cosh 2v = cosh 2v_o cosh 2v_T
    for t in TIMES[:4]:
        s = oracle.speeds(dom, t)
        lhs = mp.cosh(2 * s["v"])
        assert abs(lhs - mp.cosh(2 * s["v_o"]) * mp.cosh(2 * s["v_T"])) < mp.mpf("1e-35") * lhs
        # atanh and log(1 - x^2) lose about -log10(1 - pi_t) of the 50 digits near pi_t = 1
        tol = mp.mpf("1e-45") / (1 - s["pi_t"])
        assert abs(s["v_o"] - mp.atanh(s["pi_t"])) < tol * max(1, s["v_o"])
        assert abs(s["log_one_minus_pi_sq"] - mp.log(1 - s["pi_t"] ** 2)) < tol * max(1, abs(s["log_one_minus_pi_sq"]))


@pytest.mark.parametrize("dom", DOMAINS)
def test_generalized_speed_at_the_origin_is_the_orthogonal_speed(dom):
    for t in TIMES:
        assert abs(oracle.generalized_speed(dom, 0j, t) - oracle.speeds(dom, t)["v_o"]) < mp.mpf("1e-35") * max(1, t)


@pytest.mark.parametrize("dom", DOMAINS)
def test_generalized_speed_is_increasing(dom):
    for z in BASE_POINTS:
        values = [oracle.generalized_speed(dom, z, t) for t in TIMES]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_harmonic_measures():
    assert abs(oracle.radial_slit_hit(0) - 1) < mp.mpf("1e-40")
    assert abs(oracle.radial_slit_hit(1)) < mp.mpf("1e-40")
    # (1 - r)/(1 + r) = sin(pi/4) at r = 3 - 2 sqrt 2, where the slit takes half the measure
    assert abs(oracle.radial_slit_hit(3 - 2 * mp.sqrt(2)) - mp.mpf(1) / 2) < mp.mpf("1e-40")
    assert abs(oracle.disk_arc_measure(0, 0, mp.pi / 2) - mp.mpf(1) / 4) < mp.mpf("1e-30")
    for t0 in (0.1, 0.5, 0.9):
        # both diameter halves from -i t0 in the lower half-disk: 1/2 - (2/pi) atan t0 each
        assert abs(oracle.semidisk_half_measure(t0) - (mp.mpf(1) / 2 - 2 * mp.atan(t0) / mp.pi)) < mp.mpf("1e-40")
    # the arctan bound at pi_t is the geodesic cut measure over 2: (1/pi) atan(...) / 2
    assert abs(oracle.arctan_lower_bound(0.5) - mp.atan(mp.mpf(0.75)) / (2 * mp.pi)) < mp.mpf("1e-40")


def test_slit_gap_is_positive_far_out():
    # the dip of thm2: rho(-a0, -1) > rho(-a0, 1) for a0 well beyond the slit's end
    assert oracle.slit_gap(1000) > 0.4


# ---------------------------------------------------------------------------
# Rejection at the stated tolerances


def test_speed_check_rejects_a_value_moved_by_twice_its_tolerance():
    ref = oracle.speeds(("slit", 0.0, 1.0), 7.0)["v_o"]
    assert oracle.speed_close(float(ref * (1 + oracle.SPEED_RTOL / 2)), ref)
    assert not oracle.speed_close(float(ref * (1 + 2 * oracle.SPEED_RTOL)), ref)
    assert not oracle.speed_close(float(ref * (1 - 2 * oracle.SPEED_RTOL)), ref)
    assert oracle.speed_close(0.0, mp.mpf("1e-52"))
    assert not oracle.speed_close(2 * oracle.SPEED_ATOL, 0)


def test_sigma_checks_reject_beyond_k_sigma():
    assert oracle.within_sigma(0.25 + 4.9e-3, mp.mpf(0.25), 1e-3, 5.0)
    assert not oracle.within_sigma(0.25 + 5.1e-3, mp.mpf(0.25), 1e-3, 5.0)
    assert not oracle.within_sigma(0.25 - 5.1e-3, mp.mpf(0.25), 1e-3, 5.0)
    assert oracle.at_least(0.2 - 4.9e-3, mp.mpf(0.2), 1e-3, 5.0)
    assert not oracle.at_least(0.2 - 5.1e-3, mp.mpf(0.2), 1e-3, 5.0)


def _speed_csv_rows(dom, ts, scale=None):
    rows = []
    for t in ts:
        s = oracle.speeds(dom, t)
        row = {"t": repr(t)}
        for key in ("v", "v_o", "v_T", "pi_t"):
            value = float(s[key])
            if scale and key == scale[0] and t == ts[scale[2]]:
                value *= scale[1]
            row[key] = f"{value:.12g}"
        rows.append(row)
    return rows


def test_speed_rows_pass_exact_values_and_reject_perturbed_ones():
    dom, ts = ("slit", 0.0, 1.0), [0.1 * k for k in range(1, 40)]
    assert checks.speed_rows(_speed_csv_rows(dom, ts), dom) == []
    for key in ("v", "v_o", "v_T"):
        bad = _speed_csv_rows(dom, ts, (key, 1 + 2 * oracle.SPEED_RTOL, 17))
        assert any(key in p for p in checks.speed_rows(bad, dom)), key


def test_speed_rows_reject_a_non_increasing_orthogonal_speed():
    dom, ts = ("strip", -1.0, 1.0), [1.0, 2.0, 3.0]
    rows = _speed_csv_rows(dom, ts)
    rows[2]["v_o"] = rows[1]["v_o"]
    assert "v_o is not strictly increasing" in checks.speed_rows(rows, dom)


def test_csv_distance_check_rejects_a_value_moved_by_twice_its_tolerance():
    ref = oracle.h_distance(mp.mpc(1, 2), mp.mpc(3, -1))
    assert checks._close(float(ref), ref)
    assert not checks._close(float(ref + 2 * checks.CSV_ATOL * max(1, ref)), ref)


def test_thm3_trend_check_rejects_a_broken_oscillation():
    rows = [
        {"n": "2", "t_n": "16", "Q": "8.3", "upper_ratio": "1.6", "lower_ratio": "0.4"},
        {"n": "3", "t_n": "256", "Q": "24.8", "upper_ratio": "0.96", "lower_ratio": "0.24"},
        {"n": "4", "t_n": "65536", "Q": "1644", "upper_ratio": "2.4", "lower_ratio": "0.6"},
        {"n": "5", "t_n": "4294967296", "Q": "67186", "upper_ratio": "0.16", "lower_ratio": "0.04"},
    ]
    assert checks.check_thm3(rows, None) == []
    rows[3]["upper_ratio"], rows[3]["lower_ratio"] = "1.6", "0.4"
    assert "upper_ratio does not fall along odd n" in checks.check_thm3(rows, None)

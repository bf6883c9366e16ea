"""Orbits, speeds, monotonicity scanning, and the slit dip machinery."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from hypspeeds.conformal import map_forward, slit_sqrt_forward
from hypspeeds.domains import HalfPlaneDom, SlitPlane, StripDom
from hypspeeds.errors import DomainError, ParameterError
from hypspeeds.hyperbolic import RIGHT_HALF_PLANE, disk_distance, region_density, region_distance
from hypspeeds.semigroup import (
    _slit_gap,
    dip_search,
    generalized_speed,
    log_one_minus_pi_sq,
    make_model,
    monotonicity_scan,
    orbit,
    slit_inequality_on_K,
    speed_difference_identity,
    speeds,
    theorem4_scan,
)

LOG2 = math.log(2.0)

MODELS = {
    "half_plane": HalfPlaneDom(-1.0, "above"),
    "strip": StripDom(-1.0, 1.0),
    "slit": SlitPlane(((0.0, 1.0),)),
}


def random_disk_points(rng, n, rmax=0.85):
    r = rmax * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    return r * np.exp(1j * ang)


# ---------------------------------------------------------------------------
# orbits


@pytest.mark.parametrize("name", MODELS)
def test_orbit_identity_at_zero(name):
    m = make_model(MODELS[name])
    rng = np.random.default_rng(3)
    for z in random_disk_points(rng, 20):
        assert orbit(m, z, 0.0) == z


@pytest.mark.parametrize("name", MODELS)
def test_orbit_linearizes(name):
    m = make_model(MODELS[name])
    rng = np.random.default_rng(5)
    for z in random_disk_points(rng, 100):
        t = float(rng.uniform(0.0, 5.0))
        w0 = map_forward(m.koenigs, z)
        w1 = map_forward(m.koenigs, orbit(m, z, t))
        assert abs(w1 - w0 - t) <= 1e-9 * max(1.0, abs(w0) + t)


@pytest.mark.parametrize("name", MODELS)
def test_semigroup_law(name):
    m = make_model(MODELS[name])
    rng = np.random.default_rng(7)
    zs = random_disk_points(rng, 1000, rmax=0.8)
    ss = rng.uniform(0.0, 3.0, 1000)
    ts = rng.uniform(0.0, 3.0, 1000)
    for z, s, t in zip(zs, ss, ts):
        once = orbit(m, z, s + t)
        twice = orbit(m, orbit(m, z, s), t)
        assert abs(once - twice) <= 1e-9


def test_strip_orbit_real_increasing():
    m = make_model(StripDom(-1.0, 1.0))
    prev = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        z = orbit(m, 0j, t)
        assert abs(z.imag) <= 1e-12
        assert z.real > prev
        prev = z.real


def test_orbit_rejects_negative_time():
    m = make_model(StripDom(-1.0, 1.0))
    with pytest.raises(DomainError):
        orbit(m, 0j, -1.0)


# ---------------------------------------------------------------------------
# speeds


def test_speeds_zero_time():
    m = make_model(StripDom(-1.0, 1.0))
    s = speeds(m, 0.0)
    assert (s.v, s.v_o, s.v_T, s.pi_t) == (0.0, 0.0, 0.0, 0.0)


def test_strip_tangential_speed_vanishes():
    m = make_model(StripDom(-1.0, 1.0))
    for t in (0.5, 5.0, 50.0):
        assert speeds(m, t).v_T == 0.0


@pytest.mark.parametrize("name", MODELS)
def test_speed_sample_invariants(name):
    m = make_model(MODELS[name])
    for t in (0.1, 1.0, 10.0, 100.0):
        s = speeds(m, t)
        assert s.v_o <= s.v + 1e-12
        assert s.v_T <= s.v + 1e-12
        assert s.v <= s.v_o + s.v_T + 1e-12
        assert -1.0 < s.pi_t < 1.0


@pytest.mark.parametrize("name", MODELS)
def test_orthogonal_speed_formula(name):
    # v_o = (1/2) log((1+pi)/(1-pi)) wherever pi_t is resolvable
    m = make_model(MODELS[name])
    for t in (0.5, 2.0, 8.0):
        s = speeds(m, t)
        assert s.v_o == pytest.approx(0.5 * math.log((1.0 + s.pi_t) / (1.0 - s.pi_t)), abs=1e-10)


def test_strip_speed_matches_disk_route():
    # the stable strip path must agree with the definitional disk-side route
    m = make_model(StripDom(-1.0, 1.0))
    from hypspeeds.conformal import map_inverse
    from hypspeeds.hyperbolic import foot_on_diameter

    for t in (0.5, 2.0, 6.0):
        s = speeds(m, t)
        z_t = map_inverse(m.koenigs, complex(t))
        assert s.v == pytest.approx(disk_distance(0j, z_t), abs=1e-9)
        assert s.pi_t == pytest.approx(foot_on_diameter(z_t), abs=1e-9)


@pytest.mark.parametrize("t", (1e2, 1e4, 1e6, 1e8))
def test_slit_speeds_far_out_match_half_plane_closed_form(t):
    # sqrt(w + i) maps the slit plane onto the right half-plane with the
    # Denjoy-Wolff point at infinity, where the geodesic from W0 to it is the
    # horizontal ray Im W = Im W0 and the foot of W_t is explicit
    m = make_model(SlitPlane(((0.0, 1.0),)))
    w0 = cmath.sqrt(1j)
    w_t = cmath.sqrt(t + 1j)
    foot = abs(w_t - 1j * w0.imag) + 1j * w0.imag
    s = speeds(m, t)
    assert s.v == pytest.approx(region_distance(RIGHT_HALF_PLANE, w0, w_t), rel=1e-8, abs=0.0)
    assert s.v_o == pytest.approx(region_distance(RIGHT_HALF_PLANE, w0, foot), rel=1e-8, abs=0.0)
    assert s.v_T == pytest.approx(region_distance(RIGHT_HALF_PLANE, w_t, foot), rel=1e-8, abs=0.0)


@pytest.mark.parametrize("t", (1e6, 1e7, 9e7, 1e8))
def test_slit_foot_far_out_matches_mpmath(t):
    # in the right half-plane W = sqrt(w + i) the foot is explicit:
    # pi_t = (r - Re W0)/(r + Re W0) with r = |W_t - i Im W0|
    with mp.workdps(60):
        w0 = mp.sqrt(mp.mpc(0, 1))
        r = abs(mp.sqrt(mp.mpc(t, 1)) - 1j * w0.imag)
        ref = float((r - w0.real) / (r + w0.real))
        gap = float(2 * w0.real / (r + w0.real))
    s = speeds(make_model(SlitPlane(((0.0, 1.0),))), t)
    assert s.v_o < s.v
    assert s.pi_t == pytest.approx(ref, rel=1e-12, abs=0.0)
    # 1 - pi_t is about 1e-4 here: a cancelling foot loses its digits first
    assert 1.0 - s.pi_t == pytest.approx(gap, rel=1e-11, abs=0.0)


def _mp_to_h(d, w):
    """The H image of the real point w, in mpmath, for the three map kinds."""
    if isinstance(d, SlitPlane):
        ((a, b),) = d.slits
        return mp.sqrt((w - a) / b + 1j)
    if isinstance(d, HalfPlaneDom):
        return (w - 1j * d.boundary_height) / (1j if d.side == "above" else -1j)
    # -i exp(pi (w - i y_low)/width), through the midline so a symmetric strip's axis stays real
    width, mid = d.y_high - d.y_low, (d.y_low + d.y_high) / 2
    return mp.exp(mp.pi * (w - 1j * mid) / width)


def _mp_h_distance(p, q):
    # density 1/(2 Re W), matching 1/(1 - |z|^2) on the disk
    return mp.acosh(1 + abs(p - q) ** 2 / (2 * p.real * q.real)) / 2


FAR_MODELS = {
    "slit": SlitPlane(((0.0, 1.0),)),
    "half_plane_above": HalfPlaneDom(-1.0, "above"),
    "half_plane_below": HalfPlaneDom(2.0, "below"),
    "asymmetric_strip": StripDom(-1.0, 2.0),
    "symmetric_strip": StripDom(-1.0, 1.0),
}


@pytest.mark.parametrize("name", FAR_MODELS)
def test_speeds_match_mpmath_half_plane_route(name):
    # in H the diameter (-1, 1) is the ray Im W = Im W0 and the foot of W_t on
    # it is i Im W0 + |W_t - i Im W0|; pi_t is that foot pulled back by the
    # Moebius map M^{-1}(W) = (W - W0)/(W + conj W0)
    d = FAR_MODELS[name]
    m = make_model(d)
    for t in (0.1, 1.0, 10.0, 30.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        with mp.workdps(50):
            w0, w_t = _mp_to_h(d, mp.mpf(0)), _mp_to_h(d, mp.mpf(t))
            r = abs(w_t - 1j * w0.imag)
            foot = mp.mpc(r, w0.imag)
            ref = {
                "v": _mp_h_distance(w0, w_t),
                "v_o": _mp_h_distance(w0, foot),
                "v_T": _mp_h_distance(w_t, foot),
                "pi_t": ((foot - w0) / (foot + mp.conj(w0))).real,
                "log_gap": mp.log(4 * r * w0.real) - 2 * mp.log(r + w0.real),
            }
            ref = {key: float(value) for key, value in ref.items()}
        s = speeds(m, t)
        got = {"v": s.v, "v_o": s.v_o, "v_T": s.v_T, "pi_t": s.pi_t, "log_gap": log_one_minus_pi_sq(m, t)}
        for key, value in got.items():
            assert value == pytest.approx(ref[key], rel=1e-12, abs=0.0), (t, key)


# ---------------------------------------------------------------------------
# generalized speed


@pytest.mark.parametrize("name", MODELS)
def test_generalized_speed_at_origin_is_orthogonal(name):
    m = make_model(MODELS[name])
    for t in (0.5, 3.0, 20.0):
        assert generalized_speed(m, 0j, t) == pytest.approx(speeds(m, t).v_o, abs=1e-7)


def test_generalized_speed_zero_time():
    m = make_model(StripDom(-1.0, 1.0))
    assert generalized_speed(m, 0.3 + 0.2j, 0.0) == 0.0


def test_strip_generalized_speed_matches_disk_route():
    m = make_model(StripDom(-1.0, 1.0))
    from hypspeeds.hyperbolic import project_to_geodesic
    from hypspeeds.semigroup import _geodesic_to_one

    for z in (0.3 + 0j, -0.4j, 0.2 + 0.5j):
        for t in (0.5, 2.0, 5.0):
            fast = generalized_speed(m, z, t)
            phi = orbit(m, z, t)
            p = project_to_geodesic(phi, _geodesic_to_one(z))
            assert fast == pytest.approx(disk_distance(z, p), abs=1e-6)


# ---------------------------------------------------------------------------
# monotonicity scans


@pytest.mark.parametrize("name", MODELS)
def test_orthogonal_and_foot_strictly_increase(name):
    m = make_model(MODELS[name])
    grid = [0.25 * k for k in range(200)]
    assert monotonicity_scan(m, grid, "orthogonal").is_monotone
    assert monotonicity_scan(m, grid, "foot").is_monotone


def test_total_speed_monotone_on_strip():
    m = make_model(StripDom(-1.0, 1.0))
    grid = [0.5 * k for k in range(100)]
    assert monotonicity_scan(m, grid, "total").is_monotone


def test_total_speed_dips_on_far_slit_model():
    # a slit far down the axis forces rho(0, a0 - 1) > rho(0, a0 + 1)
    a0 = 2000.0
    m = make_model(SlitPlane(((a0, 1.0),)))
    grid = [a0 - 3.0 + 0.5 * k for k in range(13)]
    report = monotonicity_scan(m, grid, "total")
    assert not report.is_monotone
    assert min(v.delta for v in report.violations) < -0.01


def test_scan_validates_grid_and_quantity():
    m = make_model(StripDom(-1.0, 1.0))
    with pytest.raises(ParameterError):
        monotonicity_scan(m, [0.0, 0.0, 1.0], "orthogonal")
    with pytest.raises(ParameterError):
        monotonicity_scan(m, [0.0, 1.0], "sideways")
    with pytest.raises(ParameterError):
        monotonicity_scan(m, [0.0, 1.0], "generalized")


# ---------------------------------------------------------------------------
# nested-domain scan


def test_theorem4_identical_pair_is_flat():
    m = make_model(StripDom(-1.0, 1.0))
    rep = theorem4_scan(m, m, [1.0, 5.0, 10.0])
    assert all(r.diff == 0.0 for r in rep.rows)
    assert all(r.ratio == pytest.approx(1.0, abs=1e-12) for r in rep.rows)
    assert rep.tail_min_diff >= -LOG2


def test_theorem4_nested_strips():
    m = make_model(StripDom(-1.0, 1.0))
    mt = make_model(StripDom(-2.0, 2.0))
    rep = theorem4_scan(m, mt, [float(t) for t in range(10, 200, 10)])
    assert rep.tail_min_diff >= -LOG2 - 0.05
    assert rep.tail_min_ratio >= 0.25 - 0.05


def test_theorem4_strip_in_half_plane_diverges():
    m = make_model(StripDom(-1.0, 1.0))
    mt = make_model(HalfPlaneDom(-1.0, "above"))
    rep = theorem4_scan(m, mt, [10.0, 50.0, 100.0])
    assert rep.rows[-1].diff > rep.rows[0].diff > 0.0


def test_theorem4_inclusion_violation_detected():
    m_big = make_model(StripDom(-2.0, 2.0))
    m_small = make_model(StripDom(-1.0, 1.0))
    with pytest.raises(DomainError):
        theorem4_scan(m_big, m_small, [1.0, 2.0])


@pytest.mark.parametrize(
    "d, d_tilde",
    [
        (HalfPlaneDom(-1.0), StripDom(-1.0, 50.0)),
        (StripDom(-1.0, 1.0), SlitPlane(((100.0, 0.5),))),
        (SlitPlane(((0.0, 1.0),)), SlitPlane(((0.0, 2.0),))),
    ],
    ids=["half_plane_in_wide_strip", "strip_across_far_slit", "slit_in_deeper_slit"],
)
def test_theorem4_rejects_pairs_that_agree_near_the_origin(d, d_tilde):
    # each first domain leaves the second only far from the disk image of
    # |z| < 0.95, so sampling there cannot see it
    with pytest.raises(DomainError):
        theorem4_scan(make_model(d), make_model(d_tilde), [1.0, 2.0])


# ---------------------------------------------------------------------------
# slit comparisons


def test_image_density_inequality():
    lam_left = region_density(RIGHT_HALF_PLANE, slit_sqrt_forward(-1.0))
    lam_right = region_density(RIGHT_HALF_PLANE, slit_sqrt_forward(1.0))
    assert lam_left > lam_right


def test_k_gap_positive_and_growing():
    results = [slit_inequality_on_K(R, 400) for R in (10.0, 100.0, 1000.0)]
    gaps = [r.min_gap for r in results]
    assert all(g > 0.0 for g in gaps)
    assert gaps[0] < gaps[1] < gaps[2]


def test_k_gap_top_of_arc_closed_form():
    # at the top of the arc, z + i = i R, so the image is sqrt(R) e^{i pi/4}
    R = 50.0
    z_top = complex(0.0, R - 1.0)
    w = cmath.sqrt(R) * cmath.exp(1j * math.pi / 4)
    p_minus = 2**0.25 * cmath.exp(3j * math.pi / 8)
    p_plus = 2**0.25 * cmath.exp(1j * math.pi / 8)
    expected = region_distance(RIGHT_HALF_PLANE, w, p_minus) - region_distance(RIGHT_HALF_PLANE, w, p_plus)
    assert _slit_gap(z_top) == pytest.approx(expected, abs=1e-12)


def test_k_gap_requires_radius_above_one():
    with pytest.raises(ParameterError):
        slit_inequality_on_K(0.5)


def test_dip_search_basics():
    grid = [10.0 ** (3.0 + k / 10.0) for k in range(21)]
    res = dip_search(100.0, grid)
    assert res.dip >= 0.01
    assert all(delta > 0.0 for _, delta in res.curve)
    deltas = [delta for _, delta in res.curve]
    assert max(abs(b - a) for a, b in zip(deltas[:-1], deltas[1:])) < 0.05


def test_dip_search_validates_grid():
    with pytest.raises(ParameterError):
        dip_search(100.0, [])
    with pytest.raises(ParameterError):
        dip_search(100.0, [50.0, 2000.0])


def test_reflection_identity_for_mirrored_slit():
    # reflecting the slit to {Im = +1} and conjugating all points preserves
    # every distance, hence the gap, exactly
    for z in (2j, -3.0 + 0.5j, complex(5.0, 2.0)):
        w = slit_sqrt_forward(z.conjugate())
        p_minus = 2**0.25 * cmath.exp(3j * math.pi / 8)
        p_plus = 2**0.25 * cmath.exp(1j * math.pi / 8)
        mirrored_gap = region_distance(RIGHT_HALF_PLANE, w, p_minus) - region_distance(
            RIGHT_HALF_PLANE, w, p_plus
        )
        assert mirrored_gap == pytest.approx(_slit_gap(z.conjugate()), abs=1e-14)


def test_dip_matches_koenigs_route():
    # the half-plane route and the Koenigs-model route must agree
    from hypspeeds.conformal import build_koenigs, domain_distance

    a0 = 1500.0
    k = build_koenigs(SlitPlane(((a0, 1.0),)))
    dip_direct = _slit_gap(complex(-a0))
    dip_model = domain_distance(k, 0j, complex(a0 - 1.0)) - domain_distance(k, 0j, complex(a0 + 1.0))
    assert dip_model == pytest.approx(dip_direct, abs=1e-9)


# ---------------------------------------------------------------------------
# the orthogonal-speed difference identity


def test_speed_difference_identity_trivial():
    assert speed_difference_identity(0.4, 0.4) == pytest.approx(0.0, abs=1e-15)


def test_speed_difference_identity_matches_direct():
    def v_o(x):
        return 0.5 * math.log((1.0 + x) / (1.0 - x))

    for p, pt in ((0.9, 0.5), (0.3, 0.7), (0.99, 0.01)):
        assert speed_difference_identity(p, pt) == pytest.approx(v_o(p) - v_o(pt), abs=1e-12)


def test_speed_difference_identity_limit_sign():
    assert speed_difference_identity(0.5, 1.0 - 1e-9) < -5.0
    with pytest.raises(DomainError):
        speed_difference_identity(0.5, 1.0)

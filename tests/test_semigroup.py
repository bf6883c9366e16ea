"""Orbits, speeds, monotonicity scanning, and the slit dip machinery."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from hypspeeds.conformal import _h_distance, _h_to_disk, slit_sqrt_forward
from hypspeeds.domains import HalfPlaneDom, SlitPlane, StripDom, contains, dist_to_boundary
from hypspeeds.errors import DomainError, HypspeedsError, NumericError, ParameterError
from hypspeeds.hyperbolic import RIGHT_HALF_PLANE, disk_distance, region_density, region_distance
from hypspeeds.semigroup import (
    _log_sech,
    _pythagoras_residual,
    _slit_gap,
    dip_search,
    generalized_speed,
    make_model,
    monotonicity_scan,
    orbit,
    orthogonal_rate,
    slit_inequality_on_K,
    speeds,
    theorem4_scan,
)

LOG2 = math.log(2.0)

MODELS = {
    "half_plane": HalfPlaneDom(-1.0, "above"),
    "strip": StripDom(-1.0, 1.0),
    "slit": SlitPlane(((0.0, 1.0),)),
}


def M(m, z):
    """The Moebius map M(z) = i Im W0 + Re W0 (1 + z)/(1 - z), as an H point (log|W|, W/|W|)."""
    big_w = 1j * m.w0.imag + m.w0.real * (1.0 + z) / (1.0 - z)
    return math.log(abs(big_w)), big_w / abs(big_w)


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
        # h = from_h o M
        w0 = m.from_h(*M(m, z))
        w1 = m.from_h(*M(m, orbit(m, z, t)))
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


@pytest.mark.parametrize("name", MODELS)
def test_non_finite_points_and_times_raise(name):
    d = MODELS[name]
    m = make_model(d)
    for w in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(0.0, math.inf), complex(-math.inf, 0.0)):
        assert not contains(d, w)
        with pytest.raises(DomainError):
            dist_to_boundary(d, w)
    with pytest.raises(DomainError):
        orbit(m, complex(math.nan, 0.0), 1.0)
    for t in (math.nan, math.inf):
        for call in (
            lambda: orbit(m, 0.3, t),
            lambda: speeds(m, t),
            lambda: generalized_speed(m, 0.3, t),
            lambda: orthogonal_rate(m, 0.3, t),
        ):
            with pytest.raises(DomainError):
                call()


@pytest.mark.parametrize(
    "d, t",
    [(StripDom(-1.0, 1.0), 1e308), (StripDom(-1e-300, 2e-300), 1e12)],
    ids=["strip", "thin_strip"],
)
def test_orbit_whose_h_point_overflows_raises(d, t):
    # log|W| overflowed to inf, and the pullback M^{-1} returned nan+nanj
    m = make_model(d)
    for z in (0j, 0.3 + 0j):
        with pytest.raises(NumericError):
            orbit(m, z, t)


def test_orbit_whose_h_point_rounds_onto_the_boundary_raises():
    # Re W_t / |W_t| is subnormal at these times, the rule every speed and rate
    # refuses by; orbit checked log|W_t| only and returned 1 - 5e-308j, whose
    # modulus rounds to 1
    m = make_model(HalfPlaneDom(-1.0))
    for t in (4e307, 1e308):
        with pytest.raises(NumericError):
            orbit(m, 0.3j, t)


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
    from hypspeeds.hyperbolic import foot_on_diameter

    for t in (0.5, 2.0, 6.0):
        s = speeds(m, t)
        z_t = _h_to_disk(m, m.to_h(complex(t)))
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
    # density 1/(2 Re W), matching 1/(1 - |z|^2) on the disk; the asinh form
    # keeps the digits of small distances that acosh(1 + x) loses
    return mp.asinh(abs(p - q) / (2 * mp.sqrt(p.real * q.real)))


def _mp_from_h(d, big_w):
    """The inverse of ``_mp_to_h``."""
    if isinstance(d, SlitPlane):
        ((a, b),) = d.slits
        return b * (big_w * big_w - 1j) + a
    if isinstance(d, HalfPlaneDom):
        return big_w * (1j if d.side == "above" else -1j) + 1j * d.boundary_height
    width, mid = d.y_high - d.y_low, (d.y_low + d.y_high) / 2
    return width / mp.pi * mp.log(big_w) + 1j * mid


ADVANCE_MODELS = {
    "half_plane_above": HalfPlaneDom(-1.0, "above"),
    "half_plane_below": HalfPlaneDom(2.0, "below"),
    "strip": StripDom(-1.0, 2.0),
    "slit": SlitPlane(((3.0, 2.0),)),
}


@pytest.mark.parametrize("name", ADVANCE_MODELS)
def test_advance_is_the_translation(name):
    d = ADVANCE_MODELS[name]
    m = make_model(d)
    # the origin, and the disk points of four domain points
    for z in [0j] + [_h_to_disk(m, m.to_h(w)) for w in (0j, 0.7 + 0.4j, -3.0 + 0.5j, -3.0 - 0.9j)]:
        # the float start W_p = W0 + d that advance forms, with d = M(z) - W0
        start = m.w0 + 2.0 * m.w0.real * z / (1.0 - z)
        p = (math.log(abs(start)), start / abs(start))
        # far enough out nothing cancels, and the round trip through the domain is the reference
        for t in (10.0 ** (k / 2) for k in range(0, 601)):
            (lq, uq), (lr, ur) = m.advance(z, t)[0], m.to_h(m.from_h(*p) + t)
            assert abs(lq - lr) <= 1e-13 * max(1.0, abs(lr)) and abs(uq - ur) <= 1e-13, (z, t)
        # ell = log(Re W_q / Re W_p) and kappa = Im(W_q - W_p) / Re W_q, in full precision at
        # every t; the reference keeps the digits of w that w + t would round away.  It starts
        # from the float W_p itself: M(z) in mpmath can differ from it where the float rounds
        # Im W_p to 0, as on the asymmetric strip at w = -3 + 0.5i
        for t in (10.0 ** (k / 4) for k in range(-56, 1201)):
            _, ell, kappa = m.advance(z, t)
            with mp.workdps(40 + max(0, int(math.log10(t)))):
                big_w = mp.mpc(start)
                big_wq = _mp_to_h(d, _mp_from_h(d, big_w) + t)
                ref_ell = float(mp.log(big_wq.real / big_w.real))
                ref_kappa = float((big_wq - big_w).imag / big_wq.real)
            if isinstance(d, HalfPlaneDom):
                assert ell == 0.0, (z, t)
            else:
                assert ell == pytest.approx(ref_ell, rel=1e-15, abs=0.0), (z, t)
            assert kappa == pytest.approx(ref_kappa, rel=1e-15, abs=0.0), (z, t)


SMALL_T_MODELS = {
    "slit": SlitPlane(((0.0, 1.0),)),
    "slit_deep": SlitPlane(((3.0, 2.0),)),
    "half_plane": HalfPlaneDom(-1.0),
    "asymmetric_strip": StripDom(-1.0, 2.0),
    "symmetric_strip": StripDom(-1.0, 1.0),
}


@pytest.mark.parametrize("name", SMALL_T_MODELS)
def test_small_t_speeds_match_mpmath(name):
    # near t = 0 the speeds are read from the step W_t - W0, not from two
    # rounded points of H: v_o is about t^2/4 on the half-plane, down to 1e-29
    # here, and the reference's foot differs from W0 by that much, so the
    # reference works at 100 digits
    d = SMALL_T_MODELS[name]
    m = make_model(d)
    for t in (10.0 ** (k / 2) for k in range(-28, 1)):
        with mp.workdps(100):
            w0, w_t = _mp_to_h(d, mp.mpf(0)), _mp_to_h(d, mp.mpf(t))
            foot = mp.mpc(abs(w_t - 1j * w0.imag), w0.imag)
            ref = {"v": _mp_h_distance(w0, w_t), "v_o": _mp_h_distance(w0, foot), "v_T": _mp_h_distance(w_t, foot)}
            ref = {key: float(value) if value >= 1e-30 else 0.0 for key, value in ref.items()}
        s = speeds(m, t)
        for key, value in ref.items():
            assert getattr(s, key) == pytest.approx(value, rel=1e-13, abs=0.0), (t, key)


def _scaled(d, lam):
    if isinstance(d, HalfPlaneDom):
        return HalfPlaneDom(lam * d.boundary_height, d.side)
    if isinstance(d, StripDom):
        return StripDom(lam * d.y_low, lam * d.y_high)
    return SlitPlane(tuple((lam * a, lam * b) for a, b in d.slits))


SCALED_DOMAINS = {
    "half_plane": HalfPlaneDom(-1.0),
    "strip": StripDom(-1.0, 2.0),
    "slit": SlitPlane(((2.0, 1.0),)),
    "symmetric_strip": StripDom(-1.0, 1.0),
}


@pytest.mark.parametrize(
    "name, lam",
    [pytest.param(name, lam, id=name) for name, lam in (("half_plane", 1e4), ("strip", 1e-3), ("slit", 1e3))]
    + [pytest.param(name, lam, id=f"{name}-{lam:g}") for name in SCALED_DOMAINS for lam in (1e100, 1e-100)],
)
def test_speeds_scale_with_the_domain(name, lam):
    # w -> lam w maps the domain onto the scaled one and its orbit at time t onto
    # the scaled orbit at time lam t, so no oracle is needed; the orthogonal
    # rate, a derivative in t, scales by 1/lam
    d = SCALED_DOMAINS[name]
    m, m_scaled = make_model(d), make_model(_scaled(d, lam))
    for t in (10.0**k for k in range(-12, 301)):
        if lam * t > 1e300:
            break
        s, s_scaled = speeds(m, t), speeds(m_scaled, lam * t)
        for key, rel in (("v", 1e-14), ("v_o", 1e-14), ("v_T", 5e-14)):
            assert getattr(s_scaled, key) == pytest.approx(getattr(s, key), rel=rel, abs=0.0), (t, key)
        for z in (0j, 0.3 + 0j, -0.4j, 0.2 + 0.5j):
            rate = orthogonal_rate(m, z, t)
            assert rate > 0.0, (t, z)
            assert lam * orthogonal_rate(m_scaled, z, lam * t) == pytest.approx(rate, rel=2e-13, abs=0.0), (t, z)


@pytest.mark.parametrize(
    "d, d_mirror",
    [
        (HalfPlaneDom(-1.0), HalfPlaneDom(1.0, "below")),
        (HalfPlaneDom(-1e4), HalfPlaneDom(1e4, "below")),
        (StripDom(-1.0, 2.0), StripDom(-2.0, 1.0)),
    ],
    ids=["half_plane", "far_half_plane", "strip"],
)
def test_speeds_are_mirror_symmetric(d, d_mirror):
    # w -> conj(w) maps the domain onto its mirror image, fixes the real orbit
    # of 0 and carries the orbit of z to that of conj(z), so the speeds and the
    # rates agree exactly, with no oracle
    m, m_mirror = make_model(d), make_model(d_mirror)
    for t in (10.0 ** (k / 2) for k in range(-24, 601)):
        assert speeds(m_mirror, t) == speeds(m, t), t
        for z in (0.3 + 0j, -0.4j, 0.2 + 0.5j):
            assert orthogonal_rate(m_mirror, z.conjugate(), t) == orthogonal_rate(m, z, t), (z, t)


FAR_MODELS = {
    "slit": SlitPlane(((0.0, 1.0),)),
    "slit_deep": SlitPlane(((3.0, 2.0),)),
    "half_plane_above": HalfPlaneDom(-1.0, "above"),
    "half_plane_below": HalfPlaneDom(2.0, "below"),
    "asymmetric_strip": StripDom(-1.0, 2.0),
    "symmetric_strip": StripDom(-1.0, 1.0),
}


@pytest.mark.parametrize("name", FAR_MODELS)
def test_speeds_match_mpmath_half_plane_route(name):
    # in H the diameter (-1, 1) is the ray Im W = Im W0 and the foot of W_t on
    # it is i Im W0 + |W_t - i Im W0|; pi_t is that foot pulled back by the
    # Moebius map M^{-1}(W) = (W - W0)/(W + conj W0).  Far out on the slit,
    # W_t - foot cancels in its real part, so the reference works at more digits
    d = FAR_MODELS[name]
    m = make_model(d)
    for t in (0.1, 1.0, 10.0, 30.0, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e100, 1e200, 1e300):
        with mp.workdps(50 + max(0, int(math.log10(t)))):
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
        # log(1 - pi_t^2) = -2 log cosh(v_o), stable where pi_t rounds to 1
        got = {"v": s.v, "v_o": s.v_o, "v_T": s.v_T, "pi_t": s.pi_t, "log_gap": 2.0 * _log_sech(s.v_o)}
        for key, value in got.items():
            rel = 2e-15 if key in ("v", "v_o", "v_T") else 1e-12
            assert value == pytest.approx(ref[key], rel=rel, abs=0.0), (t, key)


# slits whose tip lies from 1e3 to 1e300 times its depth down the axis
TIP_SLITS = [
    (ratio * b0, b0)
    for ratio in (1e3, 1e6, 1e9, 1e12, 1e15, 1e50, 1e100, 1e200, 1e300)
    for b0 in (1e-100, 1.0, 1e100)
    if ratio * b0 < math.inf
]
TIP_TIMES = (0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 10.0)


@pytest.mark.parametrize("a0, b0", TIP_SLITS)
def test_slit_speeds_are_the_canonical_distance_translated(a0, b0):
    # w -> (w - a0)/b0 maps the plane slit at (a0, b0) onto the canonical slit
    # plane, 0 onto -a0/b0 and the orbit point t onto (t - a0)/b0, so v(t) is a
    # distance between two points there, each rounded once by to_h.  Forming
    # W_t^2 as W0^2 + t/b0 cancelled a0/b0 where the orbit passes the tip, and
    # v was off by up to 0.32
    canonical, m = make_model(SlitPlane(((0.0, 1.0),))), make_model(SlitPlane(((a0, b0),)))
    for t in (f * a0 for f in TIP_TIMES):
        try:
            ref = _h_distance(canonical.to_h(complex(-a0 / b0)), canonical.to_h(complex((t - a0) / b0)))
        except NumericError:
            continue
        assert speeds(m, t).v == pytest.approx(ref, rel=1e-15, abs=0.0), t


@pytest.mark.parametrize("a0, b0", TIP_SLITS)
def test_slit_speeds_and_rates_across_the_tip_match_mpmath(a0, b0):
    # the orbit passes the tip at t = a0, where the paper's total speed dips.
    # The speeds hold 2e-15 (the worst is 3.4e-16); a rate carries the factor
    # e^(-2 log|W_t| - log 2 b0) of velocity, which costs that many ulps: the
    # worst is 9.0e-14, on b0 = 1e100 with a0/b0 = 1e200
    d = SlitPlane(((a0, b0),))
    m = make_model(d)
    for t in (f * a0 for f in TIP_TIMES):
        with mp.workdps(60 + int(math.log10(a0 / b0))):
            w0, w_t = _mp_to_h(d, mp.mpf(0)), _mp_to_h(d, mp.mpf(t))
            foot = mp.mpc(abs(w_t - 1j * w0.imag), w0.imag)
            ref = {"v": _mp_h_distance(w0, w_t), "v_o": _mp_h_distance(w0, foot), "v_T": _mp_h_distance(w_t, foot)}
            rates = {}
            for z in (0j, 0.3 + 0j, -0.4j, 0.2 + 0.5j):
                zz = mp.mpc(z)
                w_p = 1j * w0.imag + w0.real * (1 + zz) / (1 - zz)
                w_q = mp.sqrt(w_p * w_p + mp.mpf(t) / b0)
                rates[z] = float(mp.re(1 / (2 * b0 * w_q * (w_q - 1j * w_p.imag))) / 2)
        s = speeds(m, t)
        for key, value in ref.items():
            assert getattr(s, key) == pytest.approx(float(value), rel=2e-15, abs=0.0), (t, key)
        for z, rate in rates.items():
            assert orthogonal_rate(m, z, t) == pytest.approx(rate, rel=2e-13, abs=0.0), (t, z)


def test_far_slit_plane_has_finite_speeds():
    # 0 is at distance 1 from the slit, which a relative cut tolerance refused
    m = make_model(SlitPlane(((1e12, 1.0),)))
    for t in (0.0, 1.0, 1e6, 1e12, 1e13, 1e20):
        s = speeds(m, t)
        assert all(math.isfinite(x) for x in (s.v, s.v_o, s.v_T, s.pi_t)), t
        assert s.v_o <= s.v and s.v_T <= s.v, t


@pytest.mark.parametrize(
    "d",
    [SlitPlane(((0.0, 1e-300),)), HalfPlaneDom(-1e-300), HalfPlaneDom(-1e-10), StripDom(-1e-300, 1e-300)],
    ids=["slit", "half_plane", "subnormal_half_plane", "strip"],
)
def test_speeds_whose_orbit_point_leaves_h_raise(d):
    # the slit's t/b0 overflowed into NaN speeds, the half-plane's Re u_t
    # underflowed to 0 and raised a bare ZeroDivisionError, a subnormal
    # Re u_t = 1e-310 overflowed the tangential asinh to v_T = inf, and the
    # strip read v = inf
    with pytest.raises(NumericError):
        speeds(make_model(d), 1e300)


# seven scales s from 1e-300 to 1e300, with slit tips from far left to far right
SWEEP_DOMAINS = [
    d
    for s in (10.0**e for e in range(-300, 301, 100))
    for d in [HalfPlaneDom(-s), HalfPlaneDom(s, "below"), StripDom(-s, 2.0 * s), StripDom(-s, s)]
    + [SlitPlane(((a0, s),)) for a0 in (-1e300, -s, 0.0, s, 1e300)]
]


def test_speeds_and_rates_over_the_whole_range():
    # every call returns finite numbers or raises a typed error, with no
    # allowlist: speeds must satisfy hyperbolic Pythagoras, cosh 2v =
    # cosh 2v_o cosh 2v_T, as the speeds experiment's verdict reads it,
    # and a rate must be nonnegative, since the orthogonal speed increases
    for d in SWEEP_DOMAINS:
        try:
            m = make_model(d)
        except HypspeedsError:
            continue
        for t in [0.0] + [10.0**k for k in range(-300, 309, 8)]:
            try:
                s = speeds(m, t)
            except HypspeedsError:
                pass
            else:
                assert all(math.isfinite(x) for x in (s.v, s.v_o, s.v_T, s.pi_t)), (d, t)
                assert _pythagoras_residual(s) <= 1e-14, (d, t)
            for z in (0j, 0.3 + 0j, 0.2 + 0.5j, -0.4j):
                try:
                    rate = orthogonal_rate(m, z, t)
                except HypspeedsError:
                    continue
                assert math.isfinite(rate) and rate >= 0.0, (d, z, t)


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


@pytest.mark.parametrize("d", [StripDom(-1.0, 1.0), StripDom(-2.5, 2.5)])
def test_symmetric_strip_generalized_speed_matches_mpmath(d):
    # with W0 = 1, the disk point z sits at W = (1 + z)/(1 - z) in H, the orbit
    # multiplies W by e^(pi t / width), and the speed is rho_H from W to the
    # foot of that image on the ray Im = Im W; near t = 0 and near the unit
    # circle the closed form must not cancel
    m = make_model(d)
    width = d.y_high - d.y_low
    for z in (0.3 + 0j, -0.4j, 0.2 + 0.5j, 0.3 + 0.9j, 0.9999j, 0.99999j):
        for t in (1e-8, 1e-6, 1e-3, 0.5, 30.0, 1e3, 1e5):
            with mp.workdps(50):
                w = (1 + mp.mpc(z)) / (1 - mp.mpc(z))
                w_t = w * mp.exp(mp.pi * t / width)
                ref = float(abs(mp.log(abs(w_t - 1j * w.imag) / w.real)) / 2)
            assert generalized_speed(m, z, t) == pytest.approx(ref, rel=1e-9, abs=0.0), (z, t)


@pytest.mark.parametrize("name", SMALL_T_MODELS)
def test_orthogonal_rate_matches_mpmath(name):
    # the t-derivative of (1/2) log|W_q - i Im W_p|, with W_p = M(z) and W_q
    # the translate of W_p by t through the domain, taken by mpmath.  On the
    # half-plane the rate is t / (2 (Re W_p^2 + t^2)), and near t = 0 a
    # W_q - i Im W_p read from the rounded W_q kept few of its digits
    d = SMALL_T_MODELS[name]
    m = make_model(d)
    for z in (0j, 0.3 + 0j, -0.4j, 0.2 + 0.5j):
        for t in (10.0 ** (k / 2) for k in range(-24, 17)):
            with mp.workdps(50):
                w0, zz = _mp_to_h(d, mp.mpf(0)), mp.mpc(z)
                w_p = 1j * w0.imag + w0.real * (1 + zz) / (1 - zz)
                w = _mp_from_h(d, w_p)
                ref = float(mp.diff(lambda tt: mp.log(abs(_mp_to_h(d, w + tt) - 1j * w_p.imag)) / 2, t))
            assert orthogonal_rate(m, z, t) == pytest.approx(ref, rel=1e-12, abs=0.0), (z, t)


@pytest.mark.parametrize("name", SMALL_T_MODELS)
def test_velocity_matches_the_mpmath_derivative_of_from_h(name):
    # velocity(p) is dW/dw over |W|, that is u / (W from_h'(W)); the
    # derivative is taken along W (1 + s) at s = 0, so that its step scales
    # with W however far out the point lies.  On a strip from_h is about log W,
    # and its step cancels against it in as many digits as log|W| has.
    # orthogonal_rate reads velocity, and this checks it apart from the rate
    d = SMALL_T_MODELS[name]
    m = make_model(d)
    for z in [0j] + [_h_to_disk(m, m.to_h(w)) for w in (0.7 + 0.4j, -3.0 + 0.5j)]:
        for q in [m.advance(z, t)[0] for t in (0.0, 1e-6, 1.0, 1e6, 1e100, 1e300)]:
            with mp.workdps(50 + int(math.log10(1.0 + abs(q[0])))):
                big_w = mp.exp(q[0]) * mp.mpc(q[1])
                ref = complex(mp.mpc(q[1]) / mp.diff(lambda s: _mp_from_h(d, big_w * (1 + s)), 0))
            assert abs(m.velocity(q) - ref) <= 1e-12 * abs(ref), (z, q)


@pytest.mark.parametrize("b0", [1.0, 1e10])
def test_orthogonal_rate_on_a_far_right_slit_matches_mpmath(b0):
    # on the plane slit along {Re w <= 1e300, Im w = -b0}, Re W_p is about 1e-150
    # and |W_p| about 1e150, so the step over Re W_p would overflow if squared.
    # The reference is the closed form (1/2) Re(W_q' / (W_q - i Im W_p)), with
    # W_q^2 = W_p^2 + t/b0 and W_q' = 1/(2 b0 W_q); W_p^2 + t/b0 cancels through
    # 300 digits
    m = make_model(SlitPlane(((1e300, b0),)))
    for z in (0j, 0.3 + 0j, -0.4j, 0.2 + 0.5j):
        for t in (1e-12, 1e-3, 1.0, 1e100, 1e154, 1e200, 1e250, 1e299, 1e304, 5e299, 9.9e299, 1e300, 1.01e300, 2e300):
            with mp.workdps(1400):
                w0, zz = mp.sqrt(-mp.mpf(1e300) / b0 + 1j), mp.mpc(z)
                w_p = 1j * w0.imag + w0.real * (1 + zz) / (1 - zz)
                w_q = mp.sqrt(w_p * w_p + mp.mpf(t) / b0)
                ref = float(mp.re(1 / (2 * b0 * w_q * (w_q - 1j * w_p.imag))) / 2)
            assert orthogonal_rate(m, z, t) == pytest.approx(ref, rel=1e-12, abs=0.0), (z, t)


def test_orthogonal_rate_at_zero_time():
    # on the half-plane the orbit starts orthogonal to the ray Im W = Im W_p,
    # so the foot does not move at t = 0; on the strip W' = (pi/width) W
    assert orthogonal_rate(make_model(HalfPlaneDom(-1.0)), 0.3 + 0.2j, 0.0) == 0.0
    assert orthogonal_rate(make_model(StripDom(-1.0, 1.0)), 0.3, 0.0) == pytest.approx(math.pi / 4, rel=1e-15)


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
    with pytest.raises(ParameterError):
        monotonicity_scan(m, [2.0, 1.0, 0.0], "orthogonal")


# ---------------------------------------------------------------------------
# nested-domain scan


def test_theorem4_identical_pair_is_flat():
    m = make_model(StripDom(-1.0, 1.0))
    rep = theorem4_scan(m, m, [1.0, 5.0, 10.0])
    assert all(r.diff == 0.0 for r in rep.rows)
    assert all(r.ratio == pytest.approx(1.0, abs=1e-12) for r in rep.rows)
    assert rep.tail_min_diff >= -LOG2


@pytest.mark.parametrize(
    "d, d_tilde",
    [(StripDom(-1.0, 1.0), StripDom(-2.0, 2.0)), (HalfPlaneDom(-1.0), SlitPlane(((0.0, 1.0),)))],
    ids=["thm4_strips", "half_plane_in_slit"],
)
def test_theorem4_rows_read_one_foot_per_point(d, d_tilde):
    m, mt = make_model(d), make_model(d_tilde)
    grid = [0.0, 1e-3, 0.5, 10.0, 1e3, 1e6, 1e8]
    for row in theorem4_scan(m, mt, grid).rows:
        assert row.v_o == speeds(m, row.t).v_o
        assert row.v_o_tilde == speeds(mt, row.t).v_o
        arg = 2.0 * (_log_sech(speeds(mt, row.t).v_o) - _log_sech(speeds(m, row.t).v_o))
        assert row.ratio == (math.inf if arg > 700.0 else math.exp(arg))


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


def test_theorem4_scan_validates_grid():
    m = make_model(StripDom(-1.0, 1.0))
    mt = make_model(StripDom(-2.0, 2.0))
    # an empty grid has no tail to take minima over; a decreasing one would
    # take them over its earliest times
    for grid in ([], [100.0, 10.0, 1.0, 0.5], [1.0, 1.0, 2.0]):
        with pytest.raises(ParameterError):
            theorem4_scan(m, mt, grid)


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
    # a NaN radius would make every gap NaN and leave the minimum at +inf
    for R in (0.5, 1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            slit_inequality_on_K(R)


def test_k_gap_refuses_non_integer_sample_counts(monkeypatch):
    # a fraction or a NaN raised a bare TypeError; each is now refused, with
    # a bool, before any gap is taken
    import hypspeeds.semigroup as semigroup

    def no_work(*args):
        raise AssertionError("a gap was taken before the sample count was checked")

    monkeypatch.setattr(semigroup, "_slit_gap", no_work)
    for n_samples in (2.5, math.nan, True, 400.0, 1):
        with pytest.raises(ParameterError, match="samples"):
            slit_inequality_on_K(100.0, n_samples)


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
    for a0 in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            dip_search(100.0, [2000.0, a0])


def test_dip_search_requires_radius_above_one():
    # a NaN radius passed the grid check and gave a dip of 0.434
    for R in (0.5, 1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            dip_search(R, [1e3, 1e4])


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
    a0 = 1500.0
    m = make_model(SlitPlane(((a0, 1.0),)))
    dip_direct = _slit_gap(complex(-a0))
    p = m.to_h(0j)
    dip_model = _h_distance(p, m.to_h(complex(a0 - 1.0))) - _h_distance(p, m.to_h(complex(a0 + 1.0)))
    assert dip_model == pytest.approx(dip_direct, abs=1e-9)


def test_dip_is_the_drop_of_the_total_speed_across_the_tip():
    # translated by a0, rho(-a0, -1) - rho(-a0, 1) in the canonical slit plane
    # is v(a0 - 1) - v(a0 + 1) on the plane slit at (a0, 1), and a0 -+ 1 are
    # exact here.  Forming W_t^2 as W0^2 + t cancelled a0 at the tip: the two
    # differed by 8.4e-8 at a0 = 1e12 and by 0.115 at 1e15
    for a0 in (10.0 ** (k / 2) for k in range(6, 31)):
        m = make_model(SlitPlane(((a0, 1.0),)))
        drop = speeds(m, a0 - 1.0).v - speeds(m, a0 + 1.0).v
        assert drop == pytest.approx(dip_search(100.0, [a0]).dip, rel=0.0, abs=1e-14), a0

"""Riemann map chains: normalization, round trips, distance routes.

Each check reads the map through the primitives the package runs: h is
from_h o M, h^{-1} is M^{-1} o to_h, and the domain's distances and density
are those of H.
"""

import cmath
import math

import numpy as np
import pytest

from hypspeeds.conformal import _h_distance, _h_to_disk, build_koenigs, slit_sqrt_forward
from hypspeeds.domains import HalfPlaneDom, RectangleChain, SlitPlane, StripDom
from hypspeeds.errors import ConstructionError, DomainError, NumericError, UnsupportedDomainError
from hypspeeds.hyperbolic import RIGHT_HALF_PLANE, integrate_density_along, region_distance
from hypspeeds.quasihyperbolic import rho_bounds
from hypspeeds.semigroup import orbit

SUPPORTED = (
    HalfPlaneDom(-1.0, "above"),
    HalfPlaneDom(0.5, "below"),
    StripDom(-1.0, 1.0),
    StripDom(-0.5, 2.0),
    SlitPlane(((0.0, 1.0),)),
    SlitPlane(((3.0, 2.0),)),
)


def M(k, z):
    """The Moebius map M(z) = i Im W0 + Re W0 (1 + z)/(1 - z), as an H point (log|W|, W/|W|)."""
    big_w = 1j * k.w0.imag + k.w0.real * (1.0 + z) / (1.0 - z)
    return math.log(abs(big_w)), big_w / abs(big_w)


def h(k, z):
    """The Koenigs map h = from_h o M."""
    return k.from_h(*M(k, complex(z)))


def h_inv(k, w):
    """Its inverse M^{-1} o to_h."""
    return _h_to_disk(k, k.to_h(complex(w)))


def rho(k, w1, w2):
    """The hyperbolic distance of the domain, read in H."""
    return _h_distance(k.to_h(w1), k.to_h(w2))


def density(k, w):
    """The hyperbolic density of the domain, |dW/dw| / (2 Re W) = |velocity(p)| / (2 Re u_p)."""
    p = k.to_h(w)
    return abs(k.velocity(p)) / (2.0 * p[1].real)


def random_disk_points(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    return r * np.exp(1j * ang)


# ---------------------------------------------------------------------------
# slit square root


def test_slit_sqrt_image_of_unit_points():
    assert slit_sqrt_forward(-1.0) == pytest.approx(2**0.25 * cmath.exp(3j * math.pi / 8), abs=1e-14)
    assert slit_sqrt_forward(1.0) == pytest.approx(2**0.25 * cmath.exp(1j * math.pi / 8), abs=1e-14)


def test_slit_sqrt_simple_values():
    assert slit_sqrt_forward(4.0 - 1j) == pytest.approx(2.0 + 0j, abs=1e-14)
    assert slit_sqrt_forward(0j) == pytest.approx(cmath.exp(1j * math.pi / 4), abs=1e-14)


def test_slit_sqrt_positive_real_part():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if z.imag == -1.0 and z.real <= 0.0:
            continue
        assert slit_sqrt_forward(z).real > 0.0


def test_slit_sqrt_rejects_cut():
    with pytest.raises(DomainError):
        slit_sqrt_forward(-2.0 - 1j)
    with pytest.raises(DomainError):
        slit_sqrt_forward(complex(-2.0, -1.0 + 1e-14))


def test_slit_cut_tolerance_is_absolute():
    # a relative tolerance, 1e-12 max(1, |Re u|), refused 0 in this plane as
    # lying on the slit, though the slit is at distance 1 from it
    k = build_koenigs(SlitPlane(((1e12, 1.0),)))
    assert math.isfinite(abs(k.w0)) and k.w0.real > 0.0
    # within 1e-12 of the cut in units of b0 the branch could flip: refused
    # however far left, while 2e-12 off it is a point of the domain
    k = build_koenigs(SlitPlane(((3.0, 2.0),)))
    for x in (-5.0, -1e6, -1e12):
        with pytest.raises(DomainError):
            k.to_h(complex(x, -2.0 + 2.0 * 0.5e-12))
        assert k.to_h(complex(x, -2.0 + 2.0 * 2e-12))[1].real > 0.0


def test_non_finite_w0_is_refused():
    # sqrt((0 + 1e300)/1e-10 + i) overflows, and W0 read NaN
    with pytest.raises(ConstructionError, match="W0"):
        build_koenigs(SlitPlane(((-1e300, 1e-10),)))


# ---------------------------------------------------------------------------
# construction and normalization


@pytest.mark.parametrize("dom", SUPPORTED, ids=lambda d: f"{type(d).__name__}")
def test_normalization_origin(dom):
    k = build_koenigs(dom)
    assert abs(h(k, 0j)) <= 1e-10


@pytest.mark.parametrize("dom", SUPPORTED, ids=lambda d: f"{type(d).__name__}")
def test_round_trip(dom):
    k = build_koenigs(dom)
    rng = np.random.default_rng(11)
    for z in random_disk_points(rng, 300):
        w = h(k, z)
        assert abs(h_inv(k, w) - z) <= 1e-10


@pytest.mark.parametrize("dom", SUPPORTED, ids=lambda d: f"{type(d).__name__}")
def test_round_trip_from_domain_side(dom):
    k = build_koenigs(dom)
    rng = np.random.default_rng(13)
    for _ in range(100):
        w = h(k, 0.85 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()))
        assert abs(h(k, h_inv(k, w)) - w) <= 1e-10 * max(1.0, abs(w))


@pytest.mark.parametrize("dom", SUPPORTED, ids=lambda d: f"{type(d).__name__}")
def test_denjoy_wolff_pullbacks_approach_one(dom):
    # |h^{-1}(x)| climbs monotonically to 1 (strips saturate to 1.0 in float)
    k = build_koenigs(dom)
    mods, args = [], []
    for x in (10.0, 100.0, 1000.0):
        z = h_inv(k, complex(x))
        mods.append(abs(z))
        args.append(abs(cmath.phase(z)))
    assert mods[0] <= mods[1] <= mods[2] <= 1.0 + 1e-12
    assert mods[0] < 1.0
    assert 1.0 - mods[2] < 0.5 * (1.0 - mods[0])
    assert args[2] < 0.1
    assert args[2] <= args[1] + 1e-12


def test_strip_orbit_is_real():
    k = build_koenigs(StripDom(-1.0, 1.0))
    for t in (0.5, 2.0, 10.0):
        z = h_inv(k, complex(t))
        assert abs(z.imag) <= 1e-12
        assert 0.0 < z.real < 1.0


def test_unsupported_domains():
    with pytest.raises(UnsupportedDomainError):
        build_koenigs(RectangleChain(3))
    with pytest.raises(UnsupportedDomainError):
        build_koenigs(SlitPlane(((0.0, 1.0), (10.0, 1.0))))


def test_domain_must_contain_origin():
    from hypspeeds.errors import ConstructionError

    with pytest.raises(ConstructionError):
        build_koenigs(HalfPlaneDom(1.0, "above"))


# ---------------------------------------------------------------------------
# distances


def test_domain_distance_trivial():
    k = build_koenigs(StripDom(-1.0, 1.0))
    assert rho(k, 0.5 + 0.1j, 0.5 + 0.1j) == 0.0


@pytest.mark.parametrize("w", (1.0 + 0j, 0.5j, -1.0 + 0j))
def test_domain_distance_near_the_boundary_of_h_is_refused(w):
    # to_h sends 0 and w within about 5e-301 of the imaginary axis, where
    # the root of Re W1 Re W2 underflowed and the distance divided by zero;
    # mpmath gives 0.481, 0.203 and 0.481
    k = build_koenigs(SlitPlane(((1e300, 1.0),)))
    with pytest.raises(NumericError, match="under the normal range"):
        rho(k, 0j, w)


def test_upper_half_plane_distance_value():
    from hypspeeds.hyperbolic import HalfPlane

    # rho(i, 2i) in the upper half-plane: integral of dy/(2y) from 1 to 2
    assert region_distance(HalfPlane(0j, 1j), 1j, 2j) == pytest.approx(0.5 * math.log(2.0), abs=1e-14)
    # same configuration reached through the Koenigs handle of {Im > -1}
    k = build_koenigs(HalfPlaneDom(-1.0, "above"))
    val = rho(k, 0j, 1.0j)
    lam0 = 1.0 / (2.0 * 1.0)
    lam1 = 1.0 / (2.0 * 2.0)
    assert val == pytest.approx(math.asinh(math.sqrt(1.0 * lam0 * lam1)), abs=1e-10)


def test_slit_distance_two_routes():
    a0, b0 = 3.0, 2.0
    k = build_koenigs(SlitPlane(((a0, b0),)))
    for x in (1.0, 5.0, 20.0):
        route_model = rho(k, 0j, complex(x))
        u0 = slit_sqrt_forward((0.0 - a0) / b0)
        ux = slit_sqrt_forward((x - a0) / b0)
        route_half_plane = region_distance(RIGHT_HALF_PLANE, u0, ux)
        assert route_model == pytest.approx(route_half_plane, abs=1e-9)


def test_strip_distance_matches_segment_quadrature():
    # the real axis is a geodesic of the symmetric strip, so the straight
    # segment carries the distance
    k = build_koenigs(StripDom(-1.0, 1.0))
    for x1, x2 in ((0.0, 1.0), (1.0, 3.0)):
        ref = integrate_density_along([complex(x1), complex(x2)], lambda w: density(k, w))
        assert rho(k, complex(x1), complex(x2)) == pytest.approx(ref, abs=1e-8)


def test_half_plane_distance_matches_arc_quadrature():
    # geodesics of {Im > -1} between real points are half-circles centered on
    # the boundary line; integrate the pulled-back density along the exact arc
    from scipy.integrate import quad

    k = build_koenigs(HalfPlaneDom(-1.0, "above"))
    for x1, x2 in ((0.0, 1.0), (1.0, 3.0)):
        center = complex(0.5 * (x1 + x2), -1.0)
        radius = math.hypot(0.5 * (x2 - x1), 1.0)

        def integrand(theta):
            p = center + radius * cmath.exp(1j * theta)
            return density(k, p) * radius

        th1 = cmath.phase(complex(x2) - center)
        th2 = cmath.phase(complex(x1) - center)
        ref, _ = quad(integrand, min(th1, th2), max(th1, th2), epsabs=1e-12, limit=200)
        assert rho(k, complex(x1), complex(x2)) == pytest.approx(ref, abs=1e-8)


def test_axis_distance_strip_large_t_linear_growth():
    k = build_koenigs(StripDom(-1.0, 1.0))
    v1 = rho(k, 0j, complex(400.0))
    v2 = rho(k, 0j, complex(800.0))
    assert v2 - 2.0 * v1 == pytest.approx(0.0, abs=1e-9)


def test_domain_monotonicity_of_distance():
    nested = (StripDom(-1.0, 1.0), StripDom(-2.0, 2.0), HalfPlaneDom(-2.0, "above"))
    ks = [build_koenigs(d) for d in nested]
    rng = np.random.default_rng(23)
    for _ in range(20):
        x1 = rng.uniform(-2.0, 2.0)
        x2 = x1 + rng.uniform(0.5, 4.0)
        vals = [rho(k, complex(x1), complex(x2)) for k in ks]
        assert vals[0] >= vals[1] >= vals[2]


def test_quasihyperbolic_sandwich_symmetric_strip():
    d = StripDom(-1.0, 1.0)
    k = build_koenigs(d)
    rng = np.random.default_rng(29)
    for _ in range(50):
        x1 = rng.uniform(-3.0, 3.0)
        x2 = x1 + 10.0 ** rng.uniform(-2.0, 5.0)
        dist = rho(k, complex(x1), complex(x2))
        bounds = rho_bounds(d, x1, x2)
        assert bounds.lower - 1e-12 <= dist <= bounds.upper + 1e-12


def test_quasihyperbolic_upper_bound_half_plane_and_slit():
    for dom in (HalfPlaneDom(-1.0, "above"), SlitPlane(((0.0, 1.0),))):
        k = build_koenigs(dom)
        for x1, x2 in ((0.0, 2.0), (1.0, 30.0)):
            assert rho(k, complex(x1), complex(x2)) <= rho_bounds(dom, x1, x2).upper + 1e-12


def test_inverse_rejects_boundary_proximity():
    # to_h refuses the slit's neighbourhood; the orbit refuses the unit circle's
    k = build_koenigs(SlitPlane(((0.0, 1.0),)))
    with pytest.raises(DomainError):
        h_inv(k, complex(-5.0, -1.0 + 1e-13))
    with pytest.raises(DomainError):
        orbit(k, complex(1.0 - 1e-14, 0.0), 1.0)

"""Disk geometry: distances, Moebius maps, geodesics, projections, densities."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypspeeds.conformal import build_koenigs
from hypspeeds.domains import SlitPlane
from hypspeeds.errors import ConstructionError, DomainError, NumericError
from hypspeeds.hyperbolic import (
    CAYLEY,
    Diameter,
    Disk,
    HalfPlane,
    MoebiusMap,
    OrthoCircle,
    RIGHT_HALF_PLANE,
    UNIT_DISK,
    apply_mobius,
    density_of,
    disk_distance,
    foot_on_diameter,
    geodesic_through,
    integrate_density_along,
    project_to_geodesic,
    region_density,
    region_distance,
)


def random_disk_points(rng, n, rmax=0.95):
    r = rmax * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    return r * np.exp(1j * ang)


def golden_min(f, lo, hi, tol=1e-13):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    x0 = 0.5 * (a + b)
    # parabolic polish: kills the flat-region noise of pure golden section
    h = 1e-5
    f_m, f_0, f_p = f(x0 - h), f(x0), f(x0 + h)
    curv = f_p - 2.0 * f_0 + f_m
    if curv > 0.0:
        x0 -= 0.5 * h * (f_p - f_m) / curv
    return x0


# ---------------------------------------------------------------------------
# disk distance


def test_distance_coincident_is_zero():
    assert disk_distance(0j, 0j) == 0.0
    assert disk_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0.0


def test_distance_half_radius_closed_form_and_quadrature():
    expected = 0.5 * math.log(3.0)
    assert disk_distance(0j, 0.5) == pytest.approx(expected, abs=1e-15)
    quad_val = integrate_density_along([0j, 0.5 + 0j], density_of(UNIT_DISK))
    assert quad_val == pytest.approx(expected, abs=1e-9)


def test_distance_rotation_symmetry():
    assert disk_distance(0.3j, 0.7j) == pytest.approx(disk_distance(-0.3j, -0.7j), abs=1e-15)


def test_distance_symmetry_sampled():
    rng = np.random.default_rng(101)
    zs = random_disk_points(rng, 1000)
    ws = random_disk_points(rng, 1000)
    for z, w in zip(zs, ws):
        assert abs(disk_distance(z, w) - disk_distance(w, z)) <= 1e-14


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(202)
    zs = random_disk_points(rng, 1000)
    ws = random_disk_points(rng, 1000)
    us = random_disk_points(rng, 1000)
    for z, w, u in zip(zs, ws, us):
        assert disk_distance(z, w) <= disk_distance(z, u) + disk_distance(u, w) + 1e-13


def test_moebius_invariance_sampled():
    rng = np.random.default_rng(303)
    zs = random_disk_points(rng, 1000)
    ws = random_disk_points(rng, 1000)
    anchors = random_disk_points(rng, 1000, rmax=0.8)
    angs = 2.0 * math.pi * rng.random(1000)
    for z, w, a, t in zip(zs, ws, anchors, angs):
        a, rot = complex(a), cmath.exp(1j * t)
        m = MoebiusMap(rot, a, a.conjugate() * rot, 1.0)  # the automorphism sending 0 to a
        d0 = disk_distance(z, w)
        d1 = disk_distance(apply_mobius(m, z), apply_mobius(m, w))
        assert abs(d0 - d1) <= 1e-12


def test_boundary_points_rejected():
    with pytest.raises(DomainError):
        disk_distance(1.0 + 0j, 0j)
    with pytest.raises(DomainError):
        disk_distance(0j, complex(1.0 - 1e-13, 0.0))
    with pytest.raises(DomainError):
        disk_distance(1.5 + 0j, 0j)
    with pytest.raises(DomainError):
        disk_distance(complex(math.nan, 0.0), 0j)


# ---------------------------------------------------------------------------
# Moebius maps


def test_apply_mobius_identity_and_cayley():
    ident = MoebiusMap(1, 0, 0, 1)
    assert apply_mobius(ident, 0.3 + 0.4j) == 0.3 + 0.4j
    assert apply_mobius(CAYLEY, 0j) == 1.0 + 0j
    # the pole and non-finite points have no finite image
    for z in (1.0 + 0j, complex(math.inf, 0.0), complex(math.inf, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(DomainError):
            apply_mobius(CAYLEY, z)


def test_isometry_of_specific_automorphism():
    m = MoebiusMap(1.0, -0.5, -0.5, 1.0)  # z -> (z - 0.5)/(1 - 0.5 z)
    rng = np.random.default_rng(7)
    for z, w in zip(random_disk_points(rng, 50), random_disk_points(rng, 50)):
        assert disk_distance(apply_mobius(m, z), apply_mobius(m, w)) == pytest.approx(
            disk_distance(z, w), abs=1e-12
        )


def test_degenerate_moebius_rejected():
    with pytest.raises(ConstructionError):
        MoebiusMap(1.0, 2.0, 2.0, 4.0)


def test_moebius_inverse_round_trip():
    m = MoebiusMap(2.0, 1j, 0.5, 1.0)
    z = 0.1 - 0.2j
    assert apply_mobius(m.inverse(), apply_mobius(m, z)) == pytest.approx(z, abs=1e-14)


# ---------------------------------------------------------------------------
# densities and the sinh^2 identity


def test_density_examples():
    assert region_density(HalfPlane(0j, 1j), 1j) == pytest.approx(0.5, abs=1e-15)
    assert region_density(RIGHT_HALF_PLANE, 2.0 + 0j) == pytest.approx(0.25, abs=1e-15)
    assert region_density(UNIT_DISK, 0j) == pytest.approx(1.0, abs=1e-15)


def test_density_rejects_exterior_points():
    with pytest.raises(DomainError):
        region_density(HalfPlane(0j, 1j), -1j)
    with pytest.raises(DomainError):
        region_density(UNIT_DISK, 2.0 + 0j)
    with pytest.raises(DomainError):
        region_density(RIGHT_HALF_PLANE, 0j)


def test_region_distance_matches_disk_distance_on_radii():
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        assert region_distance(UNIT_DISK, 0j, r) == pytest.approx(disk_distance(0j, r), abs=1e-12)


def test_region_distance_half_plane_values():
    assert region_distance(RIGHT_HALF_PLANE, 1.0, 2.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-14)
    p_minus = 2**0.25 * cmath.exp(3j * math.pi / 8)
    p_plus = 2**0.25 * cmath.exp(1j * math.pi / 8)
    expected = math.asinh(math.sqrt(math.tan(math.pi / 8)))
    assert region_distance(RIGHT_HALF_PLANE, p_minus, p_plus) == pytest.approx(expected, abs=1e-12)


def test_region_distance_consistency_sampled():
    rng = np.random.default_rng(11)
    for z, w in zip(random_disk_points(rng, 200), random_disk_points(rng, 200)):
        assert region_distance(UNIT_DISK, z, w) == pytest.approx(disk_distance(z, w), abs=1e-12)


def test_region_distance_general_disk():
    d = Disk(1.0 + 2.0j, 3.0)
    # push two points through the affine map onto the unit disk
    z, w = 1.5 + 2.2j, 0.4 + 1.1j
    ref = disk_distance((z - d.center) / d.radius, (w - d.center) / d.radius)
    assert region_distance(d, z, w) == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# feet and geodesics


def test_foot_trivial_cases():
    assert foot_on_diameter(0.37 + 0j) == 0.37
    assert foot_on_diameter(0.4j) == 0.0
    assert foot_on_diameter(-0.25 + 0j) == -0.25


def test_foot_matches_minimization_oracle():
    rng = np.random.default_rng(13)
    for z in random_disk_points(rng, 60, rmax=0.9):
        if abs(z.imag) < 1e-3:
            continue
        x_star = golden_min(lambda x: disk_distance(z, complex(x)), -0.999, 0.999)
        assert foot_on_diameter(z) == pytest.approx(x_star, abs=1e-8)


def test_foot_lies_inside_interval():
    rng = np.random.default_rng(17)
    for z in random_disk_points(rng, 200):
        assert -1.0 < foot_on_diameter(z) < 1.0


def test_ortho_circle_invariant_enforced():
    with pytest.raises(ConstructionError):
        OrthoCircle(2.0 + 0j, 1.0)


def test_geodesic_through_origin_is_diameter():
    g = geodesic_through(0.3 + 0.3j, -0.15 - 0.15j)
    assert isinstance(g, Diameter)


def test_geodesic_through_contains_both_points():
    rng = np.random.default_rng(19)
    for z, w in zip(random_disk_points(rng, 50), random_disk_points(rng, 50)):
        if abs(z.real * w.imag - z.imag * w.real) < 1e-3:
            continue
        g = geodesic_through(z, w)
        assert abs(abs(z - g.center) - g.radius) <= 1e-10
        assert abs(abs(w - g.center) - g.radius) <= 1e-10
        assert abs(g.center) ** 2 == pytest.approx(1.0 + g.radius**2, rel=1e-10)


# ---------------------------------------------------------------------------
# projections


def _transport_project(z, g: OrthoCircle):
    """Closed-form projection oracle: move the geodesic to a diameter by a
    disk automorphism, take the foot there, map back."""
    w0 = g.center * (1.0 - g.radius / abs(g.center))  # point of g nearest 0
    m = MoebiusMap(1.0, -w0, -w0.conjugate(), 1.0)
    u_lo, u_hi = g.disk_param_range()
    q = apply_mobius(m, g.point_at(0.5 * (u_lo + u_hi) + 0.4))
    ang = cmath.phase(q) % math.pi
    foot = foot_on_diameter(apply_mobius(m, z) * cmath.exp(-1j * ang))
    return apply_mobius(m.inverse(), foot * cmath.exp(1j * ang))


def test_project_point_on_geodesic_is_fixed():
    g = OrthoCircle(1.25, 0.75)
    p = g.point_at(math.pi)
    assert project_to_geodesic(p, g) == p


def test_project_on_real_diameter_matches_foot():
    rng = np.random.default_rng(23)
    g = Diameter(0.0)
    for z in random_disk_points(rng, 100):
        p = project_to_geodesic(z, g)
        assert p.imag == 0.0
        assert p.real == pytest.approx(foot_on_diameter(z), abs=1e-12)


def test_project_matches_transport_oracle():
    rng = np.random.default_rng(29)
    g = OrthoCircle(1.25, 0.75)
    assert project_to_geodesic(0j, g) == pytest.approx(0.5 + 0j, abs=1e-8)
    for z in random_disk_points(rng, 25, rmax=0.85):
        p_num = project_to_geodesic(z, g)
        p_ref = _transport_project(z, g)
        assert p_num == pytest.approx(p_ref, abs=1e-7)


def test_projection_is_contracting():
    rng = np.random.default_rng(31)
    g = OrthoCircle(1.45, 1.05)
    for z, w in zip(random_disk_points(rng, 40, 0.9), random_disk_points(rng, 40, 0.9)):
        pz = project_to_geodesic(z, g)
        pw = project_to_geodesic(w, g)
        if pz == pw:
            continue
        assert disk_distance(pz, pw) <= disk_distance(z, w) + 1e-7


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_density_degenerate_path():
    assert integrate_density_along([0.5 + 0j], density_of(UNIT_DISK)) == 0.0
    assert integrate_density_along([], density_of(UNIT_DISK)) == 0.0


def test_integrate_density_half_plane_segment():
    val = integrate_density_along([1.0 + 0j, 2.0 + 0j], density_of(RIGHT_HALF_PLANE))
    assert val == pytest.approx(0.5 * math.log(2.0), abs=1e-9)


def test_integrate_density_boundary_touch_rejected():
    with pytest.raises(DomainError):
        integrate_density_along([0j, 1.0 + 0j], density_of(UNIT_DISK))


def quad_along(path, density):
    """Independent oracle: scipy's adaptive quadrature, segment by segment."""
    total = 0.0
    for p, q in zip(path[:-1], path[1:]):
        step = q - p

        def integrand(t, p=p, step=step):
            return density(p + t * step) * abs(step)

        val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += val
    return total


SLIT = build_koenigs(SlitPlane(((0.0, 1.0),)))


def slit_density(w):
    # |dW/dw| / (2 Re W), with velocity dW/dw in units of |W|
    p = SLIT.to_h(w)
    return abs(SLIT.velocity(p)) / (2.0 * p[1].real)


@pytest.mark.parametrize(
    "density, path",
    [
        (density_of(UNIT_DISK), [0j, 0.85 + 0j]),
        (density_of(UNIT_DISK), [-0.2j, -0.95j]),
        (density_of(UNIT_DISK), [-0.6 + 0.1j, 0.3 + 0.7j]),
        (density_of(UNIT_DISK), [0.9 + 0.3j, -0.3 + 0.9j]),
        (density_of(UNIT_DISK), [0.8j, -0.5 + 0.2j, 0.1 - 0.7j, 0.85 + 0j]),
        (density_of(RIGHT_HALF_PLANE), [0.01 + 2.0j, 3.0 - 1.0j]),
        (slit_density, [0j, 2.0 + 1.0j, -1.0 + 1.0j, -3.0 - 0.5j]),
        (slit_density, [-2.0 - 0.9j, 1.0 - 1.0j, 1.0 - 1.1j, -2.0 - 1.2j]),
    ],
    ids=[
        "disk-radial",
        "disk-radial-deep",
        "disk-chord",
        "disk-chord-near-boundary",
        "disk-polyline",
        "half-plane",
        "slit-around-tip",
        "slit-along-both-sides",
    ],
)
def test_integrate_density_matches_scipy_quad(density, path):
    assert integrate_density_along(path, density) == pytest.approx(quad_along(path, density), rel=0.0, abs=1e-12)


def test_integrate_density_boundary_vertex_inside_polyline_rejected():
    # no Gauss-Kronrod node is an endpoint, so only the vertex check sees it
    with pytest.raises(DomainError):
        integrate_density_along([-0.5 + 0j, 1j, 0.5 + 0j], density_of(UNIT_DISK))
    with pytest.raises(DomainError):
        integrate_density_along([2.0 + 1.0j, 1j], density_of(RIGHT_HALF_PLANE))


def test_integrate_density_budget_exhausted_raises():
    # 1/|z - c| with c on the path but not at a node: the integral diverges
    # and bisection never meets the tolerance
    c = 0.3 + 0j
    with pytest.raises(NumericError):
        integrate_density_along([0j, 1.0 + 0j], lambda z: 1.0 / abs(z - c))
    with pytest.raises(NumericError):
        integrate_density_along([0.5j, -0.5 + 0j, 0.5 + 0j], lambda z: 1.0 / abs(z - c))


def test_general_pair_distance_vs_arc_quadrature():
    # independent oracle: adaptive quadrature along the exact geodesic arc
    z, w = 0.5 + 0.2j, -0.3 + 0.4j
    g = geodesic_through(z, w)
    phase_c = cmath.phase(g.center)
    u1 = (cmath.phase(z - g.center) - phase_c) % (2.0 * math.pi)
    u2 = (cmath.phase(w - g.center) - phase_c) % (2.0 * math.pi)
    lo, hi = min(u1, u2), max(u1, u2)
    lam = density_of(UNIT_DISK)

    def integrand(u):
        return lam(g.point_at(u)) * g.radius

    ref, _ = quad(integrand, lo, hi, epsabs=1e-12, limit=200)
    assert disk_distance(z, w) == pytest.approx(ref, abs=1e-9)

"""Harmonic measure: closed forms, geodesic cuts, and first-hit Monte Carlo."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypspeeds.domains import HalfPlaneDom, SlitPlane, StripDom
from hypspeeds.errors import DomainError, ParameterError
from hypspeeds.harmonic import (
    ArcOnCircle,
    _dist_to_segments,
    _polyline_segments,
    _simplify_polyline,
    disk_arc_measure,
    discretize_orbit_tail,
    geodesic_cut_measure,
    mc_disk_arc,
    mc_first_hit,
    projection_bound_check,
    semidisk_bisection_check,
    theorem4_scan,
)
from hypspeeds.semigroup import make_model

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# arcs and closed forms


def test_arc_validation():
    with pytest.raises(DomainError):
        ArcOnCircle(1.0, 1.0)
    with pytest.raises(DomainError):
        ArcOnCircle(0.0, 7.0)
    assert ArcOnCircle(0.0, math.pi).length == math.pi


def test_arc_measure_from_center():
    assert disk_arc_measure(0j, ArcOnCircle(0.0, math.pi)) == pytest.approx(0.5, abs=1e-14)
    assert disk_arc_measure(0j, ArcOnCircle(1.0, 1.0 + math.pi / 2)) == pytest.approx(0.25, abs=1e-14)


def test_arc_measure_full_circle_normalized():
    assert disk_arc_measure(0.5 + 0j, ArcOnCircle(0.0, 2.0 * math.pi)) == 1.0


def test_arc_measure_matches_poisson_quadrature():
    arc = ArcOnCircle(0.3, 2.1)
    for z in (0.4 + 0.1j, -0.2 + 0.6j, 0.75j):

        def poisson(theta):
            u = complex(math.cos(theta), math.sin(theta))
            return (1.0 - abs(z) ** 2) / abs(u - z) ** 2 / (2.0 * math.pi)

        ref, _ = quad(poisson, arc.theta1, arc.theta2, epsabs=1e-13, limit=200)
        assert disk_arc_measure(z, arc) == pytest.approx(ref, abs=1e-12)


def test_geodesic_cut_values_and_limits():
    _, val = geodesic_cut_measure(0.5)
    assert val == pytest.approx(math.atan(0.75) / math.pi, abs=1e-14)
    _, near_zero = geodesic_cut_measure(1e-6)
    assert near_zero == pytest.approx(0.5, abs=1e-6)
    _, near_one = geodesic_cut_measure(1.0 - 1e-6)
    assert near_one == pytest.approx(0.0, abs=1e-6)


def test_geodesic_cut_arc_agrees_with_formula():
    for k in range(1, 10):
        arc, val = geodesic_cut_measure(k / 10.0)
        assert disk_arc_measure(0j, arc) == pytest.approx(val, abs=1e-10)


def test_geodesic_cut_endpoint_geometry():
    pi_t = 0.5
    arc, _ = geodesic_cut_measure(pi_t)
    assert math.cos(arc.theta2) == pytest.approx(2.0 * pi_t / (1.0 + pi_t * pi_t), abs=1e-12)


def test_geodesic_cut_rejects_out_of_range():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            geodesic_cut_measure(bad)


# ---------------------------------------------------------------------------
# Monte Carlo: arcs


def test_mc_disk_arc_matches_closed_form():
    arc = ArcOnCircle(0.0, math.pi / 2)
    est = mc_disk_arc(0j, arc, 20_000, seed=123)
    assert est.std_error == pytest.approx(math.sqrt(est.value * (1 - est.value) / 20_000), abs=1e-12)
    assert abs(est.value - 0.25) <= 3.0 * est.std_error


def test_mc_disk_arc_off_center():
    arc = ArcOnCircle(-0.4, 1.1)
    z = 0.3 - 0.2j
    est = mc_disk_arc(z, arc, 40_000, seed=77)
    assert abs(est.value - disk_arc_measure(z, arc)) <= 3.5 * est.std_error


def test_mc_disk_arc_deterministic():
    arc = ArcOnCircle(0.0, 1.0)
    a = mc_disk_arc(0j, arc, 5_000, seed=9)
    b = mc_disk_arc(0j, arc, 5_000, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# Monte Carlo: first hit


def test_mc_first_hit_empty_obstacle():
    est = mc_first_hit([], 0j, 1000, seed=1)
    assert est.value == 0.0 and est.std_error == 0.0


def test_mc_first_hit_parameter_errors():
    with pytest.raises(ParameterError):
        mc_first_hit([0.5 + 0j], 0j, 100, seed=1)  # single vertex
    with pytest.raises(ParameterError):
        mc_first_hit([0.5, 1.0], 0.5 + 1e-6j, 100, seed=1)  # touching start
    with pytest.raises(ParameterError):
        mc_first_hit([0.5, 1.0], 0j, 100, eps=0.2, seed=1)  # eps too coarse
    with pytest.raises(ParameterError):
        mc_first_hit([1.5, 2.0], 0j, 100, seed=1)  # outside the disk


def test_mc_first_hit_chunk_invariance():
    obstacle = [0.5 + 0j, 1.0 + 0j]
    a = mc_first_hit(obstacle, 0j, 4_000, seed=21, chunk=4096)
    b = mc_first_hit(obstacle, 0j, 4_000, seed=21, chunk=257)
    assert a == b


def _brute_dist(p, verts):
    # every point against every nonzero segment, the arithmetic of the walk
    starts, steps = verts[:-1], np.diff(verts)
    keep = np.abs(steps) > 0.0
    starts, steps = starts[keep], steps[keep]
    rel = p[:, None] - starts
    t = np.clip((rel * np.conj(steps)).real / np.abs(steps) ** 2, 0.0, 1.0)
    return np.abs(rel - t * steps).min(axis=1)


def _spiral(count):
    s = np.linspace(0.0, 1.0, count + 1)
    return (0.1 + 0.85 * s) * np.exp(4.0j * s) - 0.05j


@pytest.mark.parametrize("count", (1, 2, 3, 7, 116, 234))
def test_dist_to_segments_matches_brute_force_bitwise(count):
    verts = _spiral(count)
    segments = _polyline_segments(verts)
    assert segments.starts.size >= count
    rng = np.random.default_rng(count)
    far = 0.99 * np.sqrt(rng.random(2000)) * np.exp(2j * math.pi * rng.random(2000))
    on = verts[:-1] + rng.random(verts.size - 1) * np.diff(verts)
    offsets = np.concatenate([rng.random(on.size) * 1e-4, np.full(on.size, 1e-13), np.zeros(on.size)])
    near = np.concatenate([on, on, on]) + offsets * np.exp(2j * math.pi * rng.random(offsets.size))
    for p in (far, near, verts):
        assert np.array_equal(_dist_to_segments(p, segments), _brute_dist(p, verts))


@pytest.mark.parametrize("t", (1.0, 5.0))
def test_dist_to_orbit_tail_matches_brute_force_bitwise(t):
    # simplified as the walk sees it: 234 segments at t = 1, 116 at t = 5
    tail = _simplify_polyline(discretize_orbit_tail(make_model(SlitPlane(((0.0, 1.0),))), t))
    segments = _polyline_segments(tail)
    assert segments.centers.size > 1
    rng = np.random.default_rng(int(t))
    far = 0.999 * np.sqrt(rng.random(5000)) * np.exp(2j * math.pi * rng.random(5000))
    near = tail + 1e-4 * rng.random(tail.size) * np.exp(2j * math.pi * rng.random(tail.size))
    for p in (far, near):
        assert np.array_equal(_dist_to_segments(p, segments), _brute_dist(p, tail))


def test_non_positive_chunk_rejected():
    # a negative chunk would run no walk at all and report zero hits
    for chunk in (0, -5):
        with pytest.raises(ParameterError):
            mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, 100, seed=1, chunk=chunk)
        with pytest.raises(ParameterError):
            semidisk_bisection_check(0.5, 100, seed=1, chunk=chunk)


def test_mc_first_hit_chunk_invariance_on_curved_tail():
    tail = discretize_orbit_tail(make_model(SlitPlane(((0.0, 1.0),))), 5.0)
    a = mc_first_hit(tail, 0j, 3_000, seed=21, chunk=4096)
    b = mc_first_hit(tail, 0j, 3_000, seed=21, chunk=257)
    assert a == b


def test_walks_cut_off_at_max_steps_are_counted():
    obstacle = [0.5 + 0j, 1.0 + 0j]
    full = mc_first_hit(obstacle, 0j, 2_000, seed=5)
    cut = mc_first_hit(obstacle, 0j, 2_000, seed=5, max_steps=3)
    assert full.truncated == 0
    assert 0 < cut.truncated <= 2_000
    # the same streams: a walk absorbed within 3 steps is absorbed alike in both runs
    assert cut.value <= full.value
    left, right = semidisk_bisection_check(0.5, 2_000, seed=5, max_steps=3)
    assert left.truncated == right.truncated > 0
    assert (left.value + right.value) * 2_000 + left.truncated <= 2_000


def test_mc_first_hit_obstacle_monotonicity():
    n = 30_000
    small = mc_first_hit([0.65 + 0j, 1.0 + 0j], 0j, n, seed=4)
    large = mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, n, seed=4)
    joint = math.sqrt(small.std_error**2 + large.std_error**2)
    assert small.value <= large.value + 3.0 * joint


def test_mc_first_hit_rotation_invariance():
    n = 30_000
    horiz = mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, n, seed=8)
    vert = mc_first_hit([0.5j, 1.0j], 0j, n, seed=88)
    joint = math.sqrt(horiz.std_error**2 + vert.std_error**2)
    assert abs(horiz.value - vert.value) <= 3.0 * joint


# ---------------------------------------------------------------------------
# semidisk bisection


def test_semidisk_bisection_symmetric():
    left, right = semidisk_bisection_check(0.5, 50_000, seed=15)
    joint = math.sqrt(left.std_error**2 + right.std_error**2 + 2.0 * left.value * right.value / 50_000)
    assert abs(left.value - right.value) <= 3.0 * joint
    assert left.value + right.value < 1.0


def test_semidisk_bisection_validation():
    with pytest.raises(DomainError):
        semidisk_bisection_check(1.5, 100)
    with pytest.raises(ParameterError):
        semidisk_bisection_check(1e-6, 100)


# ---------------------------------------------------------------------------
# orbit-tail obstacles and the projection bound


def test_discretize_orbit_tail_structure():
    m = make_model(StripDom(-1.0, 1.0))
    obst = discretize_orbit_tail(m, 1.0)
    assert obst[-1] == 1.0 + 0j
    gaps = np.abs(np.diff(obst))
    assert gaps[:-1].max() <= 1e-3
    assert abs(obst[0] - math.tanh(math.pi / 4.0)) <= 1e-9  # pullback of t = 1


def test_projection_bound_strip_small_n():
    m = make_model(StripDom(-1.0, 1.0))
    res = projection_bound_check(m, 1.0, 20_000, seed=9)
    assert res.passed
    assert res.estimate.value >= res.lower_bound


def test_projection_bound_near_zero_time():
    # both sides approach their maxima as t -> 0 (the bound tends to 1/4)
    m = make_model(StripDom(-1.0, 1.0))
    res = projection_bound_check(m, 0.3, 20_000, seed=9)
    assert res.passed
    assert res.lower_bound > 0.15


# ---------------------------------------------------------------------------
# nested-domain scan


def test_theorem4_identical_pair_is_flat():
    m = make_model(StripDom(-1.0, 1.0))
    rep = theorem4_scan(m, m, [1.0, 5.0, 10.0], seed=3)
    assert all(r.diff == 0.0 for r in rep.rows)
    assert all(r.ratio == pytest.approx(1.0, abs=1e-12) for r in rep.rows)
    assert rep.tail_min_diff >= -LOG2


def test_theorem4_nested_strips():
    m = make_model(StripDom(-1.0, 1.0))
    mt = make_model(StripDom(-2.0, 2.0))
    rep = theorem4_scan(m, mt, [float(t) for t in range(10, 200, 10)], seed=3)
    assert rep.tail_min_diff >= -LOG2 - 0.05
    assert rep.tail_min_ratio >= 0.25 - 0.05


def test_theorem4_strip_in_half_plane_diverges():
    m = make_model(StripDom(-1.0, 1.0))
    mt = make_model(HalfPlaneDom(-1.0, "above"))
    rep = theorem4_scan(m, mt, [10.0, 50.0, 100.0], seed=3)
    assert rep.rows[-1].diff > rep.rows[0].diff > 0.0


def test_theorem4_inclusion_violation_detected():
    m_big = make_model(StripDom(-2.0, 2.0))
    m_small = make_model(StripDom(-1.0, 1.0))
    with pytest.raises(DomainError):
        theorem4_scan(m_big, m_small, [1.0, 2.0], seed=3)

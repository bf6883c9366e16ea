"""Harmonic measure: closed forms, geodesic cuts, and first-hit Monte Carlo."""

import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_int, mpf_cos_sin_pi, mpf_shift, to_float
from scipy.integrate import quad

from hypspeeds.domains import HalfPlaneDom, SlitPlane, StripDom
from hypspeeds.errors import DomainError, ParameterError
from hypspeeds.harmonic import (
    _ARC_CHUNK,
    _ROOTS,
    _WINDOW,
    _WINDOW_PAIRS,
    ArcOnCircle,
    HMEstimate,
    _directions,
    _dist_to_segments,
    _obstacle_absorb,
    _polyline_segments,
    _simplify_polyline,
    disk_arc_measure,
    discretize_orbit_tail,
    geodesic_cut_measure,
    mc_disk_arc,
    mc_first_hit,
    projection_bound_check,
    semidisk_bisection_check,
)
from hypspeeds.seeding import sample_uniforms
from hypspeeds.semigroup import make_model


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


_CUT_POINTS = (
    1e-320,
    1e-200,
    1e-161,
    1e-9,
    *(k / 10.0 for k in range(1, 10)),
    1.0 - 1e-8,
    1.0 - 1e-9,
    1.0 - 1e-12,
    math.nextafter(1.0, 0.0),
)


def test_geodesic_cut_matches_mpmath():
    # the arc from the geodesic's endpoints overflowed at pi_t <= 1e-160 and
    # failed its own checks at 1e-9 and from 1 - 1e-8 up
    with mpmath.workdps(40):
        for p in _CUT_POINTS:
            q = mpmath.mpf(p)
            ref = mpmath.atan2((1 - q) * (1 + q), 2 * q) / mpmath.pi
            _, val = geodesic_cut_measure(p)
            assert abs(val - ref) <= 1e-15 * ref, p


def test_geodesic_cut_endpoints_lie_on_the_orthogonal_circle():
    # the geodesic crossing the axis at p lies on |z - c| = r, orthogonal to
    # the unit circle; exp(i theta2) must lie on it too
    with mpmath.workdps(40):
        for p in _CUT_POINTS:
            arc, _ = geodesic_cut_measure(p)
            assert arc.theta1 == -arc.theta2
            q = mpmath.mpf(p)
            c = (1 + q * q) / (2 * q)
            r = (1 - q) * (1 + q) / (2 * q)
            gap = abs(mpmath.expj(mpmath.mpf(arc.theta2)) - c)
            assert abs(gap - r) <= 1e-15 * r, p


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


def _disk_arc_unchunked(z, arc, n, seed):
    # every sample in one pass
    u = sample_uniforms(seed, np.arange(n, dtype=np.uint64), 0)
    pts = np.exp(2j * math.pi * u)
    if z != 0:
        pts = (pts + z) / (1.0 + z.conjugate() * pts)
    hits = int((np.mod(np.angle(pts) - arc.theta1, 2.0 * math.pi) <= arc.length).sum())
    value = hits / n
    return HMEstimate(value, math.sqrt(value * (1.0 - value) / n), n, seed)


@pytest.mark.parametrize("n", (_ARC_CHUNK - 1, _ARC_CHUNK, _ARC_CHUNK + 1, 1_000_000))
def test_mc_disk_arc_chunks_match_one_pass(n):
    arc = ArcOnCircle(0.0, math.pi / 2)
    for z in (0j, 0.3 + 0.2j):
        assert mc_disk_arc(z, arc, n, seed=31) == _disk_arc_unchunked(z, arc, n, 31)


ARC_CASES = [
    # wraps past 0, runs through pi, the full circle two ways, nearly full
    ArcOnCircle(-0.7, 0.4),
    ArcOnCircle(5.5, 7.0),
    ArcOnCircle(2.5, 3.8),
    ArcOnCircle(0.0, 2.0 * math.pi),
    ArcOnCircle(-math.pi, math.pi),
    ArcOnCircle(1.0, 1.0 + 2.0 * math.pi - 1e-3),
]


@pytest.mark.parametrize("arc", ARC_CASES, ids=lambda arc: f"{arc.theta1:.2f},{arc.theta2:.2f}")
def test_mc_disk_arc_preimage_matches_the_mapped_samples(arc):
    # the preimage test against the exp, Moebius map and angle of every sample
    for z in (0j, 0.3 + 0.2j, 0.999 + 0j, -0.999 + 0j, 0.999j, 0.999 * complex(math.cos(3.2), math.sin(3.2))):
        est = mc_disk_arc(z, arc, 20_000, seed=41)
        assert est == _disk_arc_unchunked(z, arc, 20_000, 41)


# ---------------------------------------------------------------------------
# the walk's jump directions


def _exact_direction(u53: int) -> complex:
    # exp(2 pi i u) for u = u53 2^-53, to 100 bits (30 digits), then rounded
    cos, sin = mpf_cos_sin_pi(mpf_shift(from_int(u53), -52), 100)
    return complex(to_float(cos), to_float(sin))


def _check_directions(u53: list[int], low11: np.ndarray) -> None:
    # the 11 bits below u must not move the direction
    bits = (np.asarray(u53, dtype=np.uint64) << np.uint64(11)) | low11
    direction = _directions(bits)
    exact = np.asarray([_exact_direction(u) for u in u53])
    assert np.abs(direction - exact).max() <= 2e-15
    assert np.abs(np.abs(direction) - 1.0).max() <= 2e-15


def test_directions_match_exp_on_every_table_row():
    assert _ROOTS.size == 4096
    rows = np.arange(4096)
    for low in (0, 1, 2**40, 2**41 - 1):
        u53 = [(int(j) << 41) | low for j in rows]
        _check_directions(u53, (rows * 0x5A5 % 2048).astype(np.uint64))


def test_directions_match_exp_on_random_words():
    rng = random.Random(18)
    u53 = [rng.getrandbits(53) for _ in range(100_000)]
    _check_directions(u53, np.asarray([rng.getrandbits(11) for _ in u53], dtype=np.uint64))


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


def test_mc_first_hit_rejects_non_finite_input():
    # a NaN start returned 0.0 with every walk truncated; a NaN vertex was
    # reported as an obstacle of zero length
    for z0 in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        for obstacle in ([], [0.5, 1.0]):
            with pytest.raises(DomainError):
                mc_first_hit(obstacle, z0, 100, seed=1)
    for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.5, -math.inf)):
        with pytest.raises(ParameterError, match="finite"):
            mc_first_hit([0.5, bad, 1.0], 0j, 100, seed=1)


def test_walk_rejects_non_positive_max_steps():
    # a walk of no steps absorbs nothing and would report 0 +- 0
    for max_steps in (0, -3, math.nan, 2.5):
        with pytest.raises(ParameterError):
            mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, 100, seed=1, max_steps=max_steps)
        with pytest.raises(ParameterError):
            semidisk_bisection_check(0.5, 100, seed=1, max_steps=max_steps)


def test_non_positive_sample_count_rejected(monkeypatch):
    # n = 0 divided by zero in semidisk_bisection_check, and a negative n
    # reached np.full in the walk; a NaN n refilled the lanes forever, True
    # reported n_samples=True and 2.5 failed inside numpy.  Each now stops
    # before any sample is drawn.
    import hypspeeds.harmonic as harmonic

    def no_draws(*args):
        raise AssertionError("a walk or a draw ran before the count was checked")

    monkeypatch.setattr(harmonic, "_walk", no_draws)
    monkeypatch.setattr(harmonic, "sample_uniforms", no_draws)
    for n in (0, -3, math.nan, 2.5, True):
        for estimate in (
            lambda: mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, n, seed=1),
            lambda: mc_first_hit([], 0j, n, seed=1),
            lambda: semidisk_bisection_check(0.5, n, seed=1),
            lambda: mc_disk_arc(0j, ArcOnCircle(0.0, 1.0), n, seed=1),
        ):
            with pytest.raises(ParameterError, match="need n > 0 samples"):
                estimate()


def _slit_tail(t):
    return discretize_orbit_tail(make_model(SlitPlane(((0.0, 1.0),))), t)


def test_walk_estimates_are_pinned():
    # exact values at fixed seeds: a change to any step's arithmetic or to
    # which walks draw which uniforms moves at least one of them
    cases = [
        (mc_first_hit([0.5, 1.0], 0j, 5000, seed=14), 1048, 0.00575617650875996),
        (mc_first_hit(_slit_tail(1.0), 0j, 3000, seed=11), 1193, 0.008935470308250686),
        (mc_first_hit(_slit_tail(5.0), 0.1j, 3000, seed=12, eps=1e-3), 551, 0.007069493669333097),
    ]
    left, right = semidisk_bisection_check(0.5, 5000, seed=15)
    cases += [(left, 1081, 0.005821641692856062), (right, 973, 0.005598764863789156)]
    left, right = semidisk_bisection_check(0.3, 5000, seed=16, eps=1e-3)
    cases += [(left, 1585, 0.006580440714724204), (right, 1563, 0.006555627201115085)]
    for est, hits, std_error in cases:
        assert est.value == hits / est.n_samples
        assert est.std_error == std_error
        assert est.truncated == 0


def _assert_chunk_invariant(run, n, lone_n):
    # 257 lanes refilled as walks end, 4096 and n + 1 lanes holding every
    # walk at once; with max_steps the cut-off walks end in staggered lanes
    whole = run(n, n + 1)
    assert run(n, 257) == run(n, 4096) == whole
    # one lane, every walk run alone: on the first lone_n samples, which
    # keep the suite fast
    assert run(lone_n, 1) == run(lone_n, 257)


def test_mc_first_hit_chunk_invariance():
    obstacle = [0.5 + 0j, 1.0 + 0j]
    for max_steps in (10_000, 3):

        def run(n, chunk):
            return mc_first_hit(obstacle, 0j, n, seed=21, chunk=chunk, max_steps=max_steps)

        _assert_chunk_invariant(run, 4_000, 400)


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


def _brute_absorb(p, verts, eps):
    # the absorb rule over every segment, 500 points at a time
    d_obs = np.concatenate([_brute_dist(p[i : i + 500], verts) for i in range(0, p.size, 500)])
    d_bnd = 1.0 - np.abs(p)
    return np.minimum(d_obs, d_bnd), np.where(d_obs <= eps, 1, 2 * (d_bnd <= eps))


@pytest.mark.parametrize("eps", (1e-4, 1e-2))
@pytest.mark.parametrize(
    "model, t",
    [
        (make_model(SlitPlane(((0.0, 1.0),))), 1.0),
        (make_model(SlitPlane(((0.0, 1.0),))), 5.0),
        # 700 segments after simplification
        (make_model(HalfPlaneDom(-1.0)), 0.5),
    ],
)
def test_obstacle_absorb_matches_brute_force_bitwise(model, t, eps):
    tail = _simplify_polyline(discretize_orbit_tail(model, t))
    absorb = _obstacle_absorb(_polyline_segments(tail), eps)
    rng = np.random.default_rng(int(10 * t))
    far = 0.9999 * np.sqrt(rng.random(3000)) * np.exp(2j * math.pi * rng.random(3000))
    on = tail[:-1] + rng.random(tail.size - 1) * np.diff(tail)
    offsets = np.concatenate([rng.random(on.size) * eps, np.full(on.size, 1e-13), np.zeros(on.size)])
    near = np.concatenate([on, on, on]) + offsets * np.exp(2j * math.pi * rng.random(offsets.size))
    # both distances under eps: the junction of the tail with the circle at 1
    junction = 1.0 - eps * np.sqrt(rng.random(500)) * np.exp(1j * math.pi * (rng.random(500) - 0.5))
    rim = (1.0 - eps * rng.random(1000)) * np.exp(2j * math.pi * rng.random(1000))
    for p in (far, near, junction, rim, tail):
        radius, cls = absorb(p)
        ref_radius, ref_cls = _brute_absorb(p, tail, eps)
        assert np.array_equal(radius, ref_radius)
        assert np.array_equal(cls, ref_cls)
    assert set(absorb(junction)[1]) == {1}


def test_walk_working_set_does_not_grow_with_the_obstacle():
    # 700 segments in 26 blocks: copying every walk's nearest block of
    # segments took this to a traced peak of about 25 MB
    tail = discretize_orbit_tail(make_model(HalfPlaneDom(-1.0)), 0.5)
    tracemalloc.start()
    try:
        est = mc_first_hit(tail, 0j, 8192, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert est.value == 0.474853515625
    assert est.std_error == 0.0055172808058563715


def _simplify_reference(verts, tol=1e-6):
    # one candidate chord per step
    if verts.size <= 2:
        return verts
    keep = [0]
    anchor = 0
    for j in range(2, verts.size):
        chord = verts[j] - verts[anchor]
        span = abs(chord)
        run = verts[anchor + 1 : j]
        if span == 0.0:
            dev = np.abs(run - verts[anchor]).max()
        else:
            rel = run - verts[anchor]
            t = np.clip((rel * chord.conjugate()).real / (span * span), 0.0, 1.0)
            dev = np.abs(rel - t * chord).max()
        if dev > tol:
            anchor = j - 1
            keep.append(anchor)
    keep.append(verts.size - 1)
    return verts[np.asarray(keep)]


def _simplify_cases():
    slit = make_model(SlitPlane(((0.0, 1.0),)))
    yield "slit tail t=1", discretize_orbit_tail(slit, 1.0)
    yield "slit tail t=5", discretize_orbit_tail(slit, 5.0)
    yield "half-plane tail t=0.5", discretize_orbit_tail(make_model(HalfPlaneDom(-1.0)), 0.5)
    yield "strip tail t=1", discretize_orbit_tail(make_model(StripDom(-1.0, 1.0)), 1.0)
    # a straight run long enough to narrow the window, then a kink
    line = np.linspace(0.0, 0.5, 2 * _WINDOW_PAIRS // _WINDOW)
    yield "long run", np.concatenate([line, 0.5 + 1j * line[1:]])
    yield "runs of one window", np.linspace(0.0, 1.0, 3 * _WINDOW + 2) + 0j
    rng = np.random.default_rng(7)
    for k in range(40):
        n = int(rng.integers(3, 400))
        scale = (1e-7, 1e-6, 1e-5)[k % 3]
        verts = np.cumsum(rng.normal(size=n) + 1j * rng.normal(size=n)) * scale
        # each vertex up to 4 times in a row: zero chords
        yield f"random {k}", np.repeat(verts, rng.integers(1, 5, size=n))


@pytest.mark.parametrize("name, verts", list(_simplify_cases()), ids=lambda x: x if isinstance(x, str) else "")
def test_simplify_polyline_matches_reference_loop(name, verts):
    assert np.array_equal(_simplify_polyline(verts), _simplify_reference(verts))


def test_non_positive_chunk_rejected():
    # a negative or NaN chunk would run no walk at all and report zero hits,
    # and a fraction failed inside numpy
    for chunk in (0, -5, math.nan, 2.5):
        with pytest.raises(ParameterError):
            mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, 100, seed=1, chunk=chunk)
        with pytest.raises(ParameterError):
            semidisk_bisection_check(0.5, 100, seed=1, chunk=chunk)


def test_non_positive_eps_rejected():
    # a NaN eps cut off every walk and reported 0 +- 0
    for eps in (0.0, -1e-4, math.nan):
        with pytest.raises(ParameterError):
            mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, 100, seed=1, eps=eps)
        with pytest.raises(ParameterError):
            semidisk_bisection_check(0.5, 100, seed=1, eps=eps)


def test_mc_first_hit_chunk_invariance_on_curved_tail():
    tail = discretize_orbit_tail(make_model(SlitPlane(((0.0, 1.0),))), 5.0)
    for max_steps in (10_000, 3):

        def run(n, chunk):
            return mc_first_hit(tail, 0j, n, seed=21, chunk=chunk, max_steps=max_steps)

        _assert_chunk_invariant(run, 3_000, 300)


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
    # pinned: a walk is checked for absorption 3 times, then cut off
    assert (cut.value, cut.truncated) == (2 / 2_000, 1983)
    assert (left.value, right.value, left.truncated) == (14 / 2_000, 17 / 2_000, 1901)
    for max_steps in (10_000, 3):

        def run(n, chunk):
            return semidisk_bisection_check(0.5, n, seed=5, chunk=chunk, max_steps=max_steps)

        _assert_chunk_invariant(run, 2_000, 400)


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
    # eps = 0 never absorbs: most walks would end truncated, as a 0 +- 0 estimate
    for eps in (0.0, -1e-4):
        with pytest.raises(ParameterError):
            semidisk_bisection_check(0.5, 200, seed=1, eps=eps)


# ---------------------------------------------------------------------------
# orbit-tail obstacles and the projection bound


def test_discretize_orbit_tail_structure():
    m = make_model(StripDom(-1.0, 1.0))
    obst = discretize_orbit_tail(m, 1.0)
    assert obst[-1] == 1.0 + 0j
    gaps = np.abs(np.diff(obst))
    assert gaps[:-1].max() <= 1e-3
    assert abs(obst[0] - math.tanh(math.pi / 4.0)) <= 1e-9  # pullback of t = 1


@pytest.mark.parametrize("t", (25.0, 30.0))
def test_far_strip_tail_that_rounds_onto_one_is_refused(t):
    # every vertex rounded onto 1, and the walk failed on a zero-length polyline
    with pytest.raises(DomainError, match=f"t={t}"):
        discretize_orbit_tail(make_model(StripDom(-1.0, 1.0)), t)


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

"""Harmonic measure: closed forms, geodesic cuts, and first-hit Monte Carlo."""

import contextlib
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_int, mpf_cos_sin_pi, mpf_shift, to_float
from scipy.integrate import quad

import hypspeeds.harmonic as harmonic
from hypspeeds.conformal import _h_to_disk
from hypspeeds.domains import HalfPlaneDom, SlitPlane, StripDom
from hypspeeds.errors import DomainError, ParameterError
from hypspeeds.harmonic import (
    _ARC_CHUNK,
    _ROOTS,
    _TAIL_STOP_RADIUS,
    ArcOnCircle,
    HMEstimate,
    _directions,
    _dist_to_segments,
    _obstacle_absorb,
    _polyline_segments,
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


def _arc_float_test(start, length, k):
    # the float test that defines a hit, on the draws u = k 2^-53
    u = np.asarray(k, dtype=np.uint64) * 2.0**-53
    u -= start
    return np.mod(u, 1.0, out=u) <= length


ARC_RUN_CASES = {
    "1e-12": (0.3 + 0.2j, ArcOnCircle(0.5, 0.5 + 1e-12)),
    "full": (0.3 + 0.2j, ArcOnCircle(0.0, 2.0 * math.pi)),
    "wraps": (0.3 + 0.2j, ArcOnCircle(-0.7, 0.4)),
    # Python's % rounds the start -1.6e-19 turns up to exactly 1.0
    "start=1": (0j, ArcOnCircle(-1e-18, 1.0)),
}


@pytest.mark.parametrize("case", ARC_RUN_CASES)
def test_arc_runs_are_the_float_test(case):
    z, arc = ARC_RUN_CASES[case]
    start, length = harmonic._arc_preimage(z, arc)
    assert (start + length > 1.0) == (case != "1e-12")
    assert (start == 1.0) == (case == "start=1")
    low, cut, up = harmonic._arc_runs(start, length)
    assert 0 <= low <= cut <= up <= 1 << 53
    # at the ends of both runs the integer rule reads what the float test reads
    ends = sorted({k for k in (cut - 1, cut, up - 1, up, low - 1, low) if 0 <= k < 1 << 53})
    assert list(_arc_float_test(start, length, ends)) == [k < low or cut <= k < up for k in ends]
    # and every total is the float test's count over the same draws
    n = 300_000
    draws = sample_uniforms(8, np.arange(n, dtype=np.uint64), 0) * 2.0**53
    hits = int(np.count_nonzero(_arc_float_test(start, length, draws)))
    assert mc_disk_arc(z, arc, n, seed=8).value == hits / n


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
    with _walk_constants(ABSORB_EPS=0.2), pytest.raises(ParameterError):
        mc_first_hit([0.5, 1.0], 0j, 100, seed=1)  # ABSORB_EPS too coarse
    with pytest.raises(ParameterError):
        mc_first_hit([1.5, 2.0], 0j, 100, seed=1)  # outside the disk


def test_mc_first_hit_rejects_non_finite_input():
    # a NaN start returned 0.0 with every walk truncated; a NaN vertex was
    # reported as an obstacle of zero length.  A start outside the disk
    # returned 0 +- 0 with no obstacle, and was called too close to the unit
    # circle with one.
    for z0 in (complex(math.nan, 0.0), complex(0.0, math.inf), 2.0, 1.5):
        for obstacle in ([], [0.5, 1.0]):
            with pytest.raises(DomainError):
                mc_first_hit(obstacle, z0, 100, seed=1)
    for bad in (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.5, -math.inf)):
        with pytest.raises(ParameterError, match="finite"):
            mc_first_hit([0.5, bad, 1.0], 0j, 100, seed=1)


def test_non_positive_sample_count_rejected(monkeypatch):
    # n = 0 divided by zero in semidisk_bisection_check, and a negative n
    # reached np.full in the walk; a NaN n refilled the lanes forever, True
    # reported n_samples=True and 2.5 failed inside numpy.  Each now stops
    # before any sample is drawn.
    import hypspeeds.harmonic as harmonic

    def no_draws(*args):
        raise AssertionError("a walk or a draw ran before the count was checked")

    monkeypatch.setattr(harmonic, "_walk", no_draws)
    # the arc draws its 53-bit words from its stream keys, as the walks do
    monkeypatch.setattr(harmonic, "sample_streams", no_draws)
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


@contextlib.contextmanager
def _walk_constants(**values):
    """Run the block with these module constants of ``harmonic`` set, as a
    study of the walks would set them, and restore them after it."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in values.items():
            patch.setattr(harmonic, name, value)
        yield


def test_walk_estimates_are_pinned():
    # exact values at fixed seeds: a change to any step's arithmetic or to
    # which walks draw which uniforms moves at least one of them
    cases = [
        (mc_first_hit([0.5, 1.0], 0j, 5000, seed=14), 1048, 0.00575617650875996),
        (mc_first_hit(_slit_tail(1.0), 0j, 3000, seed=11), 1193, 0.008935470308250686),
    ]
    left, right = semidisk_bisection_check(0.5, 5000, seed=15)
    cases += [(left, 1081, 0.005821641692856062), (right, 973, 0.005598764863789156)]
    with _walk_constants(ABSORB_EPS=1e-3):
        cases += [(mc_first_hit(_slit_tail(5.0), 0.1j, 3000, seed=12), 551, 0.007069493669333097)]
        left, right = semidisk_bisection_check(0.3, 5000, seed=16)
    cases += [(left, 1585, 0.006580440714724204), (right, 1563, 0.006555627201115085)]
    for est, hits, std_error in cases:
        assert est.value == hits / est.n_samples
        assert est.std_error == std_error
        assert est.truncated == 0


def _assert_chunk_invariant(run, n, lone_n):
    # 257 lanes refilled as walks end, 4096 and n + 1 lanes holding every
    # walk at once; with MAX_STEPS = 3 the cut-off walks end in staggered lanes
    whole = run(n, n + 1)
    assert run(n, 257) == run(n, 4096) == whole
    # one lane, every walk run alone: on the first lone_n samples, which
    # keep the suite fast
    assert run(lone_n, 1) == run(lone_n, 257)


def test_mc_first_hit_chunk_invariance():
    def run(n, chunk):
        return mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, n, seed=21, chunk=chunk)

    for max_steps in (10_000, 3):
        with _walk_constants(MAX_STEPS=max_steps):
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


#: Centre of ``_circle_arc``, where every one of its segments lies within
#: ulps of one distance: no circle or chord capsule culls a block there.
_ARC_CENTRE = 0.1 - 0.2j


def _circle_arc():
    # 200 segments in 14 blocks
    return _ARC_CENTRE + 0.6 * np.exp(1j * np.linspace(0.3, 5.5, 201))


def _closed_squares():
    # four times round a square: 16 segments in 4 blocks, each block closed,
    # so each chord has zero length
    corners = 0.25 * (1 + 1j) * np.asarray([1, 1j, -1, -1j])
    return np.append(np.tile(corners, 4), corners[0])


def _staircase():
    # 64 dyadic segments in 8 blocks, each block 8 collinear segments of one
    # side, so every computed sag is 0 before its inflation
    sides = [(8 - j) * 2.0**-7 * (1, 1j, -1, -1j)[j % 4] for j in range(8)]
    return -0.5 - 0.5j + np.concatenate([[0.0], np.cumsum(np.repeat(sides, 8))])


def _obstacle(shape, size=None):
    make = {"spiral": _spiral, "tail": _slit_tail, "arc": _circle_arc, "squares": _closed_squares, "staircase": _staircase}
    return make[shape]() if size is None else make[shape](size)


def _pruning_cases(segments, shape):
    # what each shape is for: the capsule's worst case, a zero chord, zero sags
    if shape == "arc":
        return [_ARC_CENTRE + 1e-9 * np.exp(2j * math.pi * np.linspace(0.0, 1.0, 500)), np.asarray([_ARC_CENTRE])]
    if shape == "squares":
        assert (segments.chords[1] == 0).all() and (segments.chords[3] == 1).all()
    if shape == "staircase":
        assert (segments.sags == 1e-14).all()
    return []


@pytest.mark.parametrize(
    "shape, count",
    [pytest.param("spiral", c, id=str(c)) for c in (1, 2, 3, 7, 116, 234)]
    + [pytest.param(shape, c, id=shape) for shape, c in (("arc", 200), ("squares", 16), ("staircase", 64))],
)
def test_dist_to_segments_matches_brute_force_bitwise(shape, count):
    verts = _obstacle(shape, count if shape == "spiral" else None)
    segments = _polyline_segments(verts)
    # the packed layout holds blocks x size >= count segments, 4 rows each
    assert segments.packed.size // 4 >= count
    rng = np.random.default_rng(count)
    far = 0.99 * np.sqrt(rng.random(2000)) * np.exp(2j * math.pi * rng.random(2000))
    on = verts[:-1] + rng.random(verts.size - 1) * np.diff(verts)
    offsets = np.concatenate([rng.random(on.size) * 1e-4, np.full(on.size, 1e-13), np.zeros(on.size)])
    near = np.concatenate([on, on, on]) + offsets * np.exp(2j * math.pi * rng.random(offsets.size))
    for p in (far, near, verts, *_pruning_cases(segments, shape)):
        assert np.array_equal(_dist_to_segments(p, segments), _brute_dist(p, verts))


@pytest.mark.parametrize("t", (1.0, 5.0))
def test_dist_to_orbit_tail_matches_brute_force_bitwise(t):
    # as the walk sees it: 276 segments at t = 1, 142 at t = 5
    tail = discretize_orbit_tail(make_model(SlitPlane(((0.0, 1.0),))), t)
    segments = _polyline_segments(tail)
    assert segments.centers.size > 1
    rng = np.random.default_rng(int(t))
    far = 0.999 * np.sqrt(rng.random(5000)) * np.exp(2j * math.pi * rng.random(5000))
    near = tail + 1e-4 * rng.random(tail.size) * np.exp(2j * math.pi * rng.random(tail.size))
    for p in (far, near):
        assert np.array_equal(_dist_to_segments(p, segments), _brute_dist(p, tail))


@pytest.mark.parametrize(
    "shape, size",
    [("spiral", 116), ("spiral", 234), ("tail", 1.0), ("tail", 5.0)]
    + [(shape, None) for shape in ("arc", "squares", "staircase")],
)
def test_capped_dist_to_segments_matches_brute_force_bitwise(shape, size):
    # the walk's cap: every distance at most the cap is exact and every other value
    # exceeds it, where the root circle culls and where only the block circles would
    verts = _obstacle(shape, size)
    segments = _polyline_segments(verts)
    rng = np.random.default_rng(verts.size)
    far = 0.9999 * np.sqrt(rng.random(5000)) * np.exp(2j * math.pi * rng.random(5000))
    on = verts[:-1] + rng.random(verts.size - 1) * np.diff(verts)
    near = on + 1e-3 * rng.random(on.size) * np.exp(2j * math.pi * rng.random(on.size))
    p = np.concatenate([far, near, verts, *_pruning_cases(segments, shape)])
    cap = np.maximum(1.0 - np.abs(p), 1e-4)
    d, ref = _dist_to_segments(p, segments, cap), _brute_dist(p, verts)
    exact = ref <= cap
    assert np.array_equal(d[exact], ref[exact])
    assert (d[~exact] > cap[~exact]).all()
    root = np.abs(p - segments.root_center) - segments.root_radius
    least = (np.abs(p[:, None] - segments.centers) - segments.radii).min(axis=1)
    assert (root > cap).any()
    # each closed square has the root's circle, so no block circle culls there
    assert ((root <= cap) & (least > cap)).any() != (shape == "squares")
    assert exact.any()


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
        # 794 segments
        (make_model(HalfPlaneDom(-1.0)), 0.5),
    ],
)
def test_obstacle_absorb_matches_brute_force_bitwise(model, t, eps):
    tail = discretize_orbit_tail(model, t)
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
    # 794 segments in 28 blocks: copying every walk's nearest block of
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


def test_non_positive_chunk_rejected():
    # a negative or NaN chunk would run no walk at all and report zero hits,
    # and a fraction failed inside numpy
    for chunk in (0, -5, math.nan, 2.5):
        with pytest.raises(ParameterError):
            mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, 100, seed=1, chunk=chunk)
        with pytest.raises(ParameterError):
            semidisk_bisection_check(0.5, 100, seed=1, chunk=chunk)


def test_mc_first_hit_chunk_invariance_on_curved_tail():
    # 142 segments in 12 blocks at t = 5, 276 in 17 at t = 1
    for t, seed in ((5.0, 21), (1.0, 22)):
        tail = _slit_tail(t)

        def run(n, chunk):
            return mc_first_hit(tail, 0j, n, seed=seed, chunk=chunk)

        for max_steps in (10_000, 3):
            with _walk_constants(MAX_STEPS=max_steps):
                _assert_chunk_invariant(run, 3_000, 300)


def test_walks_cut_off_before_their_first_jump():
    # MAX_STEPS = 1: each walk is cut off at its step 0, also in the lanes
    # that restart on later passes
    with _walk_constants(MAX_STEPS=1):
        tail = mc_first_hit(_slit_tail(1.0), 0j, 500, seed=3, chunk=64)
        left, right = semidisk_bisection_check(0.5, 500, seed=3, chunk=64)
    for est in (tail, left, right):
        assert (est.value, est.truncated) == (0.0, 500)


def test_walks_cut_off_at_max_steps_are_counted():
    obstacle = [0.5 + 0j, 1.0 + 0j]
    full = mc_first_hit(obstacle, 0j, 2_000, seed=5)
    with _walk_constants(MAX_STEPS=3):
        cut = mc_first_hit(obstacle, 0j, 2_000, seed=5)
        left, right = semidisk_bisection_check(0.5, 2_000, seed=5)
    assert full.truncated == 0
    assert 0 < cut.truncated <= 2_000
    # the same streams: a walk absorbed within 3 steps is absorbed alike in both runs
    assert cut.value <= full.value
    assert left.truncated == right.truncated > 0
    assert (left.value + right.value) * 2_000 + left.truncated <= 2_000
    # pinned: a walk is checked for absorption 3 times, then cut off
    assert (cut.value, cut.truncated) == (2 / 2_000, 1983)
    assert (left.value, right.value, left.truncated) == (14 / 2_000, 17 / 2_000, 1901)

    def run(n, chunk):
        return semidisk_bisection_check(0.5, n, seed=5, chunk=chunk)

    for max_steps in (10_000, 3):
        with _walk_constants(MAX_STEPS=max_steps):
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


# ---------------------------------------------------------------------------
# orbit-tail obstacles and the projection bound


def test_discretize_orbit_tail_structure():
    # the symmetric strip's tail is the slit [pi_t, 1]: one segment
    m = make_model(StripDom(-1.0, 1.0))
    for t in (0.3, 1.0, 5.0):
        assert discretize_orbit_tail(m, t).size == 2
    obst = discretize_orbit_tail(m, 1.0)
    assert obst[-1] == 1.0 + 0j
    assert abs(obst[0] - math.tanh(math.pi / 4.0)) <= 1e-9  # pullback of t = 1


def _pullback(m, tau):
    """h^{-1}(tau) = M^{-1}(to_h(tau))."""
    return _h_to_disk(m, m.to_h(complex(tau)))


def _tail_sample(m, t, count=20_000):
    """Tail points at ``count`` log-spaced times from t to where the tail
    comes within ``_TAIL_STOP_RADIUS`` of 1, beyond which it closes straight."""
    lo, hi = math.log(t), math.log(t)
    while abs(_pullback(m, math.exp(hi)) - 1.0) > _TAIL_STOP_RADIUS:
        hi += 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(_pullback(m, math.exp(mid)) - 1.0) > _TAIL_STOP_RADIUS:
            lo = mid
        else:
            hi = mid
    taus = np.exp(np.linspace(math.log(t), hi, count))
    return np.asarray([_pullback(m, tau) for tau in taus])


@pytest.mark.parametrize(
    "domain, t",
    [
        pytest.param(SlitPlane(((0.0, 1.0),)), 1.0, id="slit-1"),
        pytest.param(SlitPlane(((0.0, 1.0),)), 5.0, id="slit-5"),
        pytest.param(HalfPlaneDom(-1.0), 0.5, id="half-plane-0.5"),
        pytest.param(HalfPlaneDom(-1.0), 1.0, id="half-plane-1"),
    ],
)
def test_discretize_orbit_tail_follows_the_tail(domain, t):
    # every point of a dense sample of the tail lies within about
    # _TAIL_TOL = 1e-6 of the polyline, not only the points it was built from
    m = make_model(domain)
    tail = discretize_orbit_tail(m, t)
    assert tail[0] == _pullback(m, t)
    assert tail[-1] == 1.0 + 0j
    gaps = _dist_to_segments(_tail_sample(m, t), _polyline_segments(tail))
    assert gaps.max() <= 1.05e-6


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


def test_projection_bound_reads_sigma():
    # 1 hit of 50 walks: the bound lies between the limits at 1 and 3 sigma
    m = make_model(StripDom(-1.0, 1.0))
    res = projection_bound_check(m, 1.0, 50, seed=62)
    est = res.estimate
    assert est.value == 1 / 50
    assert est.upper_limit(1.0) < res.lower_bound <= est.upper_limit(3.0)
    # the same walks: only the allowance moves
    assert res.passed
    assert not projection_bound_check(m, 1.0, 50, seed=62, sigma=1.0).passed


def test_projection_bound_at_zero_hits_reads_the_exact_limit():
    # this tail drew 0 hits in 1000 walks, and its plug-in error of 0 failed a
    # bound of 2.2e-10 that 0 hits cannot refute
    res = projection_bound_check(make_model(StripDom(-1.0, 2.0)), 20.0, 1000, seed=1)
    assert res.estimate.value == res.estimate.std_error == 0.0
    assert 0.0 < res.lower_bound < 1e-9
    assert res.passed


def test_zero_hits_still_refute_a_bound_above_the_exact_limit():
    # 0 of 2000 puts the rate below 1 - alpha^(1/2000) = 3.3e-3 at 3 sigma
    est = HMEstimate(0.0, 0.0, 2000, 1)
    alpha = 0.5 * math.erfc(3.0 / math.sqrt(2.0))
    assert est.upper_limit(3.0) == pytest.approx(1.0 - alpha ** (1.0 / 2000), rel=1e-12, abs=0.0)
    assert est.upper_limit(3.0) < 0.01
    # one hit raises the limit, where value + 3 std errors fell to 2.6e-3,
    # and still refutes 0.01
    one = HMEstimate(1 / 2000, math.sqrt(1999) / 2000**1.5, 2000, 1)
    assert est.upper_limit(3.0) < one.upper_limit(3.0) < 0.01
    assert one.value + 3.0 * one.std_error < est.upper_limit(3.0)


def _binomial_terms(n, p, last=None):
    # P(X = j) for j = 0 .. last (default n) at the working precision, by the term ratio
    p = mpmath.mpf(p)
    terms = [(1 - p) ** n]
    for j in range(n if last is None else last):
        terms.append(terms[-1] * (n - j) * p / ((j + 1) * (1 - p)))
    return terms


def _exact_upper_limit(hits, n, sigma, start):
    # 50-digit Newton on P(X <= hits | n, p) = alpha from the float limit:
    # d/dp P(X <= k) = -(n - k) P(X = k) / (1 - p)
    with mpmath.workdps(50):
        alpha = mpmath.erfc(mpmath.mpf(sigma) / mpmath.sqrt(2)) / 2
        p = mpmath.mpf(start)
        for _ in range(4):
            terms = _binomial_terms(n, p, hits)
            p += (mpmath.fsum(terms) - alpha) * (1 - p) / ((n - hits) * terms[-1])
        return p


@pytest.mark.parametrize("n", (1000, 100_000))
def test_upper_limit_rises_with_the_hits(n):
    # the plug-in limit read 6.6e-3, 4.0e-3, 6.2e-3 and 8.2e-3 at 0 .. 3 hits of 1000
    hits = list(range(40)) + [n // 10, n // 2, n - 2, n - 1, n]
    limits = [HMEstimate(k / n, math.sqrt(k * (n - k)) / n**1.5, n, 0).upper_limit(3.0) for k in hits]
    assert all(a < b for a, b in zip(limits, limits[1:]))
    assert limits[0] > 0.0 and limits[-2] < limits[-1] == 1.0


@pytest.mark.parametrize(
    "hits, n, sigma",
    [(0, 1000, 3.0), (1, 1000, 3.0), (2, 1000, 3.0), (3, 1000, 3.0), (20, 1000, 3.0), (500, 1000, 3.0)]
    + [(998, 1000, 3.0), (999, 1000, 3.0), (0, 1, 3.0), (1, 2, 3.0), (17, 35, 1.0), (40, 1000, 0.0)]
    + [(1, 100_000, 3.0), (2, 100_000, 3.0), (30, 100_000, 3.0), (13_330, 100_000, 3.0)],
)
def test_upper_limit_matches_mpmath(hits, n, sigma):
    # the Clopper-Pearson limit against binomial sums at 50 digits;
    # mpmath's betainc does not converge at the larger hit counts
    limit = HMEstimate(hits / n, 0.0, n, 0).upper_limit(sigma)
    assert limit == pytest.approx(float(_exact_upper_limit(hits, n, sigma, limit)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sigma", (-1.0, -1e-300, math.nan))
def test_upper_limit_refuses_a_negative_sigma(sigma):
    with pytest.raises(ParameterError, match="sigma"):
        HMEstimate(0.04, 0.0, 1000, 0).upper_limit(sigma)


def test_projection_bound_near_zero_time():
    # both sides approach their maxima as t -> 0 (the bound tends to 1/4)
    m = make_model(StripDom(-1.0, 1.0))
    res = projection_bound_check(m, 0.3, 20_000, seed=9)
    assert res.passed
    assert res.lower_bound > 0.15

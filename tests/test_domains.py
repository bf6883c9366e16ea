"""Domain descriptors: membership, boundary distance, structural invariants."""

import hashlib
import math
import random

import mpmath as mp
import numpy as np
import pytest

from hypspeeds.domains import (
    HalfPlaneDom,
    RectangleChain,
    SlitPlane,
    StripDom,
    contains,
    dist_to_boundary,
    includes,
    slit_plane,
    stage_abscissa,
    stage_height,
)
from hypspeeds.errors import ConstructionError, DomainError, UnsupportedDomainError
from hypspeeds.quasihyperbolic import quasihyperbolic_axis

THREE_SLITS = SlitPlane(((-2.0, 0.5), (1.0, 1.5), (7.0, 0.75)))
ALL_SAMPLES = {
    "half_plane": (HalfPlaneDom(-1.0, "above"), [0j, 5.0 + 3.0j, -2.0 - 0.5j]),
    "half_plane_below": (HalfPlaneDom(2.0, "below"), [0j, 3.0 + 1.9995j, -4.0 - 50.0j]),
    "strip": (StripDom(-1.0, 1.0), [0j, 4.0 + 0.5j, -3.0 - 0.9j]),
    "slit": (SlitPlane(((0.0, 1.0),)), [0j, -5.0 + 2.0j, 3.0 - 4.0j]),
    "three_slits": (THREE_SLITS, [0j, 1.0002 - 1.5j, -4.0 - 0.4995j, 7.0 - 0.7j, 2.0 + 1.0j]),
    "chain": (RectangleChain(4), [0j, 3.0 + 1.5j, 20.0 - 2.0j]),
}


# ---------------------------------------------------------------------------
# construction


def test_strip_must_contain_axis():
    with pytest.raises(ConstructionError):
        StripDom(0.5, 2.0)
    with pytest.raises(ConstructionError):
        StripDom(-1.0, -0.5)


@pytest.mark.parametrize("y_low, y_high", [(-1.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
def test_strip_edges_must_be_finite(y_low, y_high):
    # an infinite edge made every speed of the strip's semigroup NaN
    with pytest.raises(ConstructionError):
        StripDom(y_low, y_high)


def test_half_plane_side_validation():
    with pytest.raises(ConstructionError):
        HalfPlaneDom(0.0, "left")


def test_rectangle_chain_range():
    with pytest.raises(ConstructionError):
        RectangleChain(0)
    with pytest.raises(ConstructionError):
        RectangleChain(7)
    # a fraction was built and raised a bare TypeError at its first query;
    # True was built as one stage
    for n_max in (5.5, math.nan, True):
        with pytest.raises(ConstructionError, match="integer"):
            RectangleChain(n_max)
    assert RectangleChain(3).n_max == 3


def test_slit_plane_validation():
    with pytest.raises(ConstructionError):
        slit_plane([])  # the full plane is not a Koenigs domain
    with pytest.raises(ConstructionError):
        slit_plane([(0.0, -1.0)])
    with pytest.raises(ConstructionError):
        slit_plane([(0.0, 1.0), (1.5, 1.0)])  # violates a0 + b0 < a1 - b1
    d = slit_plane([(0.0, 1.0), (5.0, 2.0)])
    assert d.slits == ((0.0, 1.0), (5.0, 2.0))


def test_stage_values():
    assert [stage_abscissa(n) for n in range(4)] == [2.0, 4.0, 16.0, 256.0]
    assert stage_abscissa(6) == 2.0**64
    assert stage_height(1) == 2.0  # 4^(1/2)
    assert stage_height(2) == pytest.approx(16.0 ** (1.0 / 3.0), rel=1e-15)
    assert stage_height(3) == 16.0  # 256^(1/2)


# ---------------------------------------------------------------------------
# membership


def test_slit_membership_examples():
    d = SlitPlane(((0.0, 1.0),))
    assert contains(d, 0j)
    assert not contains(d, -1.0 - 1.0j)  # on the slit
    assert contains(d, 1.0 - 1.0j)  # right of the slit end
    assert contains(d, -1.0 - 1.00001j)


def test_chain_membership_examples():
    d = RectangleChain(2)
    assert not contains(d, 3.0 + 2.0j)  # |Im| = h_1 exactly: boundary
    assert contains(d, 3.0 + 1.99j)
    assert contains(d, -100.0 + 0.99j)
    assert not contains(d, -100.0 + 1.01j)
    # junction at t_1 = 4 takes the smaller height
    assert contains(d, 4.0 + 1.99j)
    assert not contains(d, 4.0 + 2.01j)


def test_chain_query_beyond_truncation():
    d = RectangleChain(2)
    with pytest.raises(DomainError):
        contains(d, 17.0 + 0j)
    with pytest.raises(DomainError):
        dist_to_boundary(d, 16.0 + 0j)


def test_half_plane_membership():
    above = HalfPlaneDom(-1.0, "above")
    below = HalfPlaneDom(2.0, "below")
    assert contains(above, 0j) and not contains(above, -2.0j)
    assert contains(below, 0j) and not contains(below, 3.0j)


# ---------------------------------------------------------------------------
# inclusion

ABOVE, BELOW = "above", "below"
INCLUSIONS = [
    # half-plane in half-plane
    (HalfPlaneDom(-1.0), HalfPlaneDom(-2.0), True),
    (HalfPlaneDom(-1.0), HalfPlaneDom(-1.0), True),
    (HalfPlaneDom(-2.0), HalfPlaneDom(-1.0), False),
    (HalfPlaneDom(1.0, BELOW), HalfPlaneDom(2.0, BELOW), True),
    (HalfPlaneDom(2.0, BELOW), HalfPlaneDom(1.0, BELOW), False),
    (HalfPlaneDom(-1.0), HalfPlaneDom(1.0, BELOW), False),
    # half-plane in strip: never
    (HalfPlaneDom(-1.0), StripDom(-1.0, 50.0), False),
    (HalfPlaneDom(1.0, BELOW), StripDom(-50.0, 1.0), False),
    # half-plane in slit plane: the slit lies on or below the boundary line
    (HalfPlaneDom(-1.0), SlitPlane(((0.0, 1.0),)), True),
    (HalfPlaneDom(-1.0), SlitPlane(((0.0, 2.0),)), True),
    (HalfPlaneDom(-1.0), SlitPlane(((0.0, 0.5),)), False),
    (HalfPlaneDom(1.0, BELOW), SlitPlane(((0.0, 1.0),)), False),
    # strip in half-plane
    (StripDom(-1.0, 1.0), HalfPlaneDom(-1.0), True),
    (StripDom(-1.0, 1.0), HalfPlaneDom(-0.5), False),
    (StripDom(-1.0, 1.0), HalfPlaneDom(1.0, BELOW), True),
    (StripDom(-1.0, 2.0), HalfPlaneDom(1.0, BELOW), False),
    # strip in strip
    (StripDom(-1.0, 1.0), StripDom(-1.0, 1.0), True),
    (StripDom(-1.0, 1.0), StripDom(-2.0, 2.0), True),
    (StripDom(-2.0, 2.0), StripDom(-1.0, 1.0), False),
    (StripDom(-1.0, 2.0), StripDom(-2.0, 1.0), False),
    # strip in slit plane: the slit lies on or below the lower edge
    (StripDom(-1.0, 1.0), SlitPlane(((100.0, 1.0),)), True),
    (StripDom(-1.0, 1.0), SlitPlane(((-100.0, 2.0),)), True),
    (StripDom(-1.0, 1.0), SlitPlane(((100.0, 0.5),)), False),
    # slit plane in half-plane or strip: never
    (SlitPlane(((0.0, 1.0),)), HalfPlaneDom(-1.0), False),
    (SlitPlane(((0.0, 1.0),)), StripDom(-1.0, 1.0), False),
    # slit plane in slit plane: the larger slit covers the smaller one
    (SlitPlane(((0.0, 1.0),)), SlitPlane(((0.0, 1.0),)), True),
    (SlitPlane(((0.0, 1.0),)), SlitPlane(((-5.0, 1.0),)), True),
    (SlitPlane(((-5.0, 1.0),)), SlitPlane(((0.0, 1.0),)), False),
    (SlitPlane(((0.0, 1.0),)), SlitPlane(((0.0, 2.0),)), False),
]


@pytest.mark.parametrize("d, d_tilde, nested", INCLUSIONS)
def test_includes_table(d, d_tilde, nested):
    assert includes(d, d_tilde) is nested


def test_includes_agrees_with_membership_on_a_grid():
    # the grid holds every boundary height and points just off it, so each
    # non-nested pair has a witness in d outside d_tilde
    heights = sorted({0.5 * k for k in range(-4, 5)} | {-50.0, 50.0})
    ys = sorted({y + dy for y in heights for dy in (-0.25, 0.0, 0.25)} | {-100.0, 100.0})
    grid = [complex(x, y) for x in (-300.0, -100.0, -5.0, 0.0, 5.0, 150.0) for y in ys]
    for d, d_tilde, nested in INCLUSIONS:
        escapes = [z for z in grid if contains(d, z) and not contains(d_tilde, z)]
        assert (not escapes) is nested, (d, d_tilde, escapes[:3])


def test_includes_rejects_kinds_without_a_koenigs_map():
    strip = StripDom(-1.0, 1.0)
    for other in (RectangleChain(3), SlitPlane(((0.0, 1.0), (5.0, 1.0)))):
        with pytest.raises(UnsupportedDomainError):
            includes(other, strip)
        with pytest.raises(UnsupportedDomainError):
            includes(strip, other)


# ---------------------------------------------------------------------------
# boundary distance


def test_dist_examples():
    assert dist_to_boundary(StripDom(-1.0, 1.0), 0j) == 1.0
    assert dist_to_boundary(SlitPlane(((0.0, 1.0),)), 0j) == 1.0
    assert dist_to_boundary(HalfPlaneDom(-1.0, "above"), 0.5j) == 1.5


def test_dist_slit_point_to_half_line():
    d = SlitPlane(((0.0, 1.0),))
    # right of the tip: distance to the endpoint of the half-line
    assert dist_to_boundary(d, 3.0 - 1.0j + 0j) == pytest.approx(3.0, abs=1e-15)
    assert dist_to_boundary(d, 4.0 - 4.0j) == pytest.approx(5.0, abs=1e-15)
    # above the slit body
    assert dist_to_boundary(d, -7.0 + 1.0j) == pytest.approx(2.0, abs=1e-15)


def test_dist_outside_domain_rejected():
    with pytest.raises(DomainError):
        dist_to_boundary(StripDom(-1.0, 1.0), 2.0j)
    with pytest.raises(DomainError):
        dist_to_boundary(SlitPlane(((0.0, 1.0),)), -1.0 - 1.0j)


def test_chain_flat_zone_distance():
    # between t_{n-1} + h_n and t_n the boundary distance equals h_n
    for n_max, n in ((3, 2), (4, 3), (5, 4)):
        d = RectangleChain(n_max)
        t_prev, t_n = stage_abscissa(n - 1), stage_abscissa(n)
        h_n = stage_height(n)
        for x in np.linspace(t_prev + h_n, t_n, 7):
            assert dist_to_boundary(d, complex(x)) == pytest.approx(h_n, rel=1e-14)


def test_chain_transition_zone_distance():
    d = RectangleChain(3)
    # just right of the junction at t_1 = 4 the corner (4, h_1) dominates
    assert dist_to_boundary(d, 4.5 + 0j) == pytest.approx(math.hypot(0.5, 2.0), rel=1e-14)


def test_conjugation_symmetry():
    rng = np.random.default_rng(37)
    for d in (RectangleChain(4), StripDom(-2.0, 2.0)):
        for _ in range(200):
            x = rng.uniform(-5.0, 100.0)
            y = rng.uniform(-0.9, 0.9)
            z = complex(x, y)
            assert contains(d, z) == contains(d, z.conjugate())
            if contains(d, z):
                assert dist_to_boundary(d, z) == pytest.approx(
                    dist_to_boundary(d, z.conjugate()), rel=1e-14
                )


def test_positive_direction_convexity_sampled():
    rng = np.random.default_rng(41)
    for name, (d, seeds) in ALL_SAMPLES.items():
        for z0 in seeds:
            assert contains(d, z0), name
            for _ in range(30):
                z = z0 + complex(rng.uniform(0, 0.5), rng.uniform(-0.05, 0.05))
                if not contains(d, z):
                    continue
                for t in (1.0, 10.0, 100.0):
                    if isinstance(d, RectangleChain) and z.real + t >= stage_abscissa(d.n_max):
                        continue
                    assert contains(d, z + t), (name, z, t)


def test_dist_is_lipschitz_sampled():
    rng = np.random.default_rng(43)
    for name, (d, seeds) in ALL_SAMPLES.items():
        for z0 in seeds:
            for _ in range(20):
                step = complex(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3))
                z1 = z0 + step
                if not (contains(d, z0) and contains(d, z1)):
                    continue
                delta = abs(dist_to_boundary(d, z0) - dist_to_boundary(d, z1))
                assert delta <= abs(step) * (1.0 + 1e-9), name


def _mp_chain_distance(n_max, z):
    """Distance from z to the staircase's boundary in 50-digit mpmath, as the
    least distance to its segments: the lines Im = +-1 left of 2 (cut at
    Re = -1e6), each vertical step and ceiling, and the step at t_{n_max}."""
    segs = [((-1e6, 1.0), (2.0, 1.0))]
    for n in range(1, n_max + 2):
        t_prev, h_prev, h_n = stage_abscissa(n - 1), stage_height(n - 1), stage_height(n)
        segs.append(((t_prev, h_prev), (t_prev, h_n)))
        if n <= n_max:
            segs.append(((t_prev, h_n), (stage_abscissa(n), h_n)))
    segs += [((x1, -y1), (x2, -y2)) for (x1, y1), (x2, y2) in segs]
    with mp.workdps(50):
        px, py = mp.mpf(z.real), mp.mpf(z.imag)
        best = mp.inf
        for (x1, y1), (x2, y2) in segs:
            x1, y1, x2, y2 = (mp.mpf(v) for v in (x1, y1, x2, y2))
            dx, dy = x2 - x1, y2 - y1
            s = min(max(((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy), 0), 1)
            best = min(best, mp.hypot(px - x1 - s * dx, py - y1 - s * dy))
        return float(best)


def _chain_probe_points(n_max, rng):
    """Points one ulp around each corner of the staircase, and random points
    in each stage's rectangle."""
    def around(v):
        return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))

    corners = [(stage_abscissa(n), stage_height(n)) for n in range(n_max + 1)]
    corners += [(stage_abscissa(n), stage_height(n + 1)) for n in range(n_max)]
    points = [complex(x, sign * y) for cx, cy in corners for x in around(cx) for y in around(cy) for sign in (1, -1)]
    for n in range(n_max + 1):
        x_lo = stage_abscissa(n - 1) if n else -10.0
        h = stage_height(n)
        points += [complex(rng.uniform(x_lo, stage_abscissa(n)), rng.uniform(-h, h)) for _ in range(20)]
    d = RectangleChain(n_max)
    return [z for z in points if z.real < stage_abscissa(n_max) and contains(d, z)]


@pytest.mark.parametrize("n_max", range(2, 7))
def test_chain_distance_matches_mpmath_segments(n_max):
    # one ulp from a corner the true distance is one ulp of the height; a
    # projection onto the ceiling segment rounded to four times that
    d = RectangleChain(n_max)
    points = _chain_probe_points(n_max, random.Random(1500 + n_max))
    assert len(points) > 20 * (n_max + 1)  # the corner points are not all filtered out
    for z in points:
        assert dist_to_boundary(d, z) == pytest.approx(_mp_chain_distance(n_max, z), rel=4.5e-16, abs=0.0), z


# ---------------------------------------------------------------------------
# pinned domain layer

PIN_DOMAINS = [
    HalfPlaneDom(-1.0),
    HalfPlaneDom(2.0, "below"),
    StripDom(-1.0, 1.0),
    StripDom(-1.0, 2.0),
    SlitPlane(((0.0, 1.0),)),
    SlitPlane(((0.0, 1.0), (8.0, 2.0))),
    THREE_SLITS,
]
PIN_CHAINS = [RectangleChain(3), RectangleChain(6)]


def _outcome(f, *args):
    try:
        return f(*args)
    except (DomainError, UnsupportedDomainError) as exc:
        return type(exc).__name__


def domain_layer_sample():
    """contains, dist_to_boundary, quasihyperbolic_axis and includes on a
    fixed sample: boundary heights and slit tips, one ulp and a little off
    them, and the axis between features of every kind."""
    def near(v):
        return (v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf), v - 1e-9, v + 0.25, v - 0.25)

    ys = sorted({y for h in (-2.0, -1.5, -1.0, -0.75, -0.5, 0.0, 1.0, 2.0) for y in near(h)})
    xs = sorted({x for a in (-2.0, 0.0, 1.0, 7.0, 8.0) for x in near(a)} | {-50.0, 3.0, 40.0})
    points = [complex(x, y) for x in xs for y in ys]
    queries = [(contains(d, z), _outcome(dist_to_boundary, d, z)) for d in PIN_DOMAINS for z in points]
    axis = [-7.5, -2.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 9.5, 16.0, 300.0, 65536.0, 2.0**40]
    integrals = [
        _outcome(quasihyperbolic_axis, d, x1, x2)
        for d in PIN_DOMAINS + PIN_CHAINS
        for x1 in axis
        for x2 in axis
        if x1 != x2
    ]
    nested = [_outcome(includes, a, b) for a in PIN_DOMAINS[:5] for b in PIN_DOMAINS] + [
        includes(d, d_tilde) for d, d_tilde, _ in INCLUSIONS
    ]
    return queries, integrals, nested


# sha256 of repr(domain_layer_sample()): a refactor of the domain layer keeps it
PINNED_DOMAIN_LAYER = "8a64baca4a468badb95fe601df13e1d0d2a4be244c7585758d66bd893b6925b2"


def test_domain_layer_is_pinned():
    digest = hashlib.sha256(repr(domain_layer_sample()).encode()).hexdigest()
    assert digest == PINNED_DOMAIN_LAYER

"""Domain descriptors: membership, boundary distance, structural invariants."""

import math

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
    rectangle_chain,
    slit_plane,
    stage_abscissa,
    stage_height,
)
from hypspeeds.errors import ConstructionError, DomainError, UnsupportedDomainError

ALL_SAMPLES = {
    "half_plane": (HalfPlaneDom(-1.0, "above"), [0j, 5.0 + 3.0j, -2.0 - 0.5j]),
    "strip": (StripDom(-1.0, 1.0), [0j, 4.0 + 0.5j, -3.0 - 0.9j]),
    "slit": (SlitPlane(((0.0, 1.0),)), [0j, -5.0 + 2.0j, 3.0 - 4.0j]),
    "chain": (RectangleChain(4), [0j, 3.0 + 1.5j, 20.0 - 2.0j]),
}


# ---------------------------------------------------------------------------
# construction


def test_strip_must_contain_axis():
    with pytest.raises(ConstructionError):
        StripDom(0.5, 2.0)
    with pytest.raises(ConstructionError):
        StripDom(-1.0, -0.5)


def test_half_plane_side_validation():
    with pytest.raises(ConstructionError):
        HalfPlaneDom(0.0, "left")


def test_rectangle_chain_range():
    with pytest.raises(ConstructionError):
        rectangle_chain(0)
    with pytest.raises(ConstructionError):
        rectangle_chain(7)
    assert rectangle_chain(3).n_max == 3


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

"""Axis quasihyperbolic integrals, metric brackets, and the growth table."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hypspeeds.domains import (
    HalfPlaneDom,
    RectangleChain,
    SlitPlane,
    StripDom,
    dist_to_boundary,
    stage_abscissa,
    stage_height,
)
from hypspeeds.errors import ConstructionError, DomainError
from hypspeeds.quasihyperbolic import (
    GrowthRow,
    RhoBounds,
    axis_is_qh_geodesic,
    quasihyperbolic_axis,
    rho_bounds,
    stage_gap,
    stage_ratio,
    theorem3_table,
)

# empirical comparability window for the stage ratios (the asymptotic
# statement carries no constants, so these are desk-scale choices)
STAGE_RATIO_LO = 0.5
STAGE_RATIO_HI = 2.5


def test_strip_axis_integral_is_length():
    d = StripDom(-1.0, 1.0)
    for t in (0.5, 1.0, 4.0, 100.0):
        assert quasihyperbolic_axis(d, 0.0, t) == pytest.approx(t, rel=1e-15)


def test_half_plane_axis_integral():
    d = HalfPlaneDom(-1.0, "above")
    assert quasihyperbolic_axis(d, 0.0, 7.0) == pytest.approx(7.0, rel=1e-15)
    d2 = HalfPlaneDom(-2.0, "above")
    assert quasihyperbolic_axis(d2, 0.0, 7.0) == pytest.approx(3.5, rel=1e-15)


def test_single_slit_axis_integral_closed_form():
    d = SlitPlane(((0.0, 1.0),))
    # dist(x, slit) = hypot(x, 1) for x >= 0, so the integral is asinh
    for t in (1.0, 10.0, 1000.0):
        assert quasihyperbolic_axis(d, 0.0, t) == pytest.approx(math.asinh(t), rel=1e-12)


def test_coincident_points():
    assert quasihyperbolic_axis(StripDom(-1.0, 1.0), 3.0, 3.0) == 0.0
    b = rho_bounds(StripDom(-1.0, 1.0), 3.0, 3.0)
    assert b.lower == 0.0 and b.upper == 0.0


def test_orientation_symmetry():
    d = SlitPlane(((0.0, 1.0),))
    assert quasihyperbolic_axis(d, -2.0, 5.0) == quasihyperbolic_axis(d, 5.0, -2.0)


def test_rho_bounds_invariant():
    for lower, upper in ((2.0, 1.0), (-1.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ConstructionError):
            RhoBounds(lower=lower, upper=upper)
    b = rho_bounds(StripDom(-1.0, 1.0), 0.0, 4.0)
    assert b.lower == pytest.approx(1.0) and b.upper == pytest.approx(4.0)


def test_axis_geodesic_predicate():
    assert axis_is_qh_geodesic(StripDom(-1.0, 1.0))
    assert axis_is_qh_geodesic(RectangleChain(3))
    assert not axis_is_qh_geodesic(StripDom(-1.0, 2.0))
    assert not axis_is_qh_geodesic(HalfPlaneDom(-1.0, "above"))
    assert not axis_is_qh_geodesic(SlitPlane(((0.0, 1.0),)))


@pytest.mark.parametrize(
    "d, symmetric",
    [
        (StripDom(-2.5, 2.5), True),
        (StripDom(-1.0, math.nextafter(1.0, 2.0)), False),
        (StripDom(-3.0, 0.5), False),
        (HalfPlaneDom(2.0, "below"), False),
        (SlitPlane(((0.0, 1.0), (8.0, 2.0))), False),
        (SlitPlane(((-2.0, 0.5), (1.0, 1.5), (7.0, 0.75))), False),
    ]
    + [(RectangleChain(n), True) for n in range(1, 7)],
)
def test_axis_geodesic_table(d, symmetric):
    assert axis_is_qh_geodesic(d) is symmetric


def test_chain_flat_zone_value_exact():
    # on [t_{n-1} + h_n, t_n] the boundary distance is exactly h_n, so the
    # integral over that stretch is (t_n - t_{n-1} - h_n)/h_n
    d = RectangleChain(6)
    for n in (2, 3, 4, 5, 6):
        t_prev, t_n, h_n = stage_abscissa(n - 1), stage_abscissa(n), stage_height(n)
        got = quasihyperbolic_axis(d, t_prev + h_n, t_n)
        assert got == pytest.approx((t_n - t_prev - h_n) / h_n, rel=1e-12)


def test_chain_stage_vs_adaptive_quadrature():
    d = RectangleChain(3)
    ref, _ = quad(lambda x: 1.0 / dist_to_boundary(d, complex(x)), 4.0, 16.0, epsabs=1e-11, limit=300)
    assert quasihyperbolic_axis(d, 4.0, 16.0) == pytest.approx(ref, abs=1e-9)


def test_multi_slit_vs_adaptive_quadrature():
    d = SlitPlane(((0.0, 1.0), (8.0, 2.0)))
    ref, _ = quad(lambda x: 1.0 / dist_to_boundary(d, complex(x)), -3.0, 12.0, epsabs=1e-11, limit=400)
    assert quasihyperbolic_axis(d, -3.0, 12.0) == pytest.approx(ref, abs=1e-8)


def test_band_integrals_are_exact():
    # a half-plane or strip is one ray without a corner: one flat stretch
    for d, b in ((HalfPlaneDom(2.0, "below"), 2.0), (StripDom(-3.0, 0.5), 0.5)):
        for x1, x2 in ((0.0, 7.0), (-3.25, 11.5), (1e6, -2.5e5), (-1e-9, 3e-9)):
            lo, hi = min(x1, x2), max(x1, x2)
            assert quasihyperbolic_axis(d, x1, x2) == (hi - lo) / b


def test_chain_corner_stretches_are_exact():
    # from t_{n-1} to the crossover the corner of stage n - 1 is nearest: each
    # part of that stretch is one asinh difference, whatever other rays' cuts
    # fall inside (stages 2, 3 and 5 hold such cuts)
    d = RectangleChain(6)
    for n in range(1, 7):
        t_prev, h_prev, h_n = stage_abscissa(n - 1), stage_height(n - 1), stage_height(n)
        crossover = t_prev + math.sqrt(h_n * h_n - h_prev * h_prev)
        assert quasihyperbolic_axis(d, t_prev, crossover) == math.asinh((crossover - t_prev) / h_prev)
        parts = [t_prev + f * (crossover - t_prev) for f in (0.0, 0.01, 0.1, 0.3, 0.7)] + [crossover]
        for i, lo in enumerate(parts):
            for hi in parts[i + 1 :]:
                want = math.asinh((hi - t_prev) / h_prev) - math.asinh((lo - t_prev) / h_prev)
                assert quasihyperbolic_axis(d, lo, hi) == want, (n, lo, hi)


@pytest.mark.parametrize("seed", range(6))
def test_random_three_slit_planes_vs_adaptive_quadrature(seed):
    rng = np.random.default_rng(900 + seed)
    slits, a = [], rng.uniform(-5.0, 0.0)
    for _ in range(3):
        b = 10.0 ** rng.uniform(-0.5, 0.5)
        a += b + rng.uniform(0.05, 4.0)
        slits.append((a, b))
        a += b  # keeps a_k + b_k < a_{k+1} - b_{k+1}
    d = SlitPlane(tuple(slits))
    x1, x2 = slits[0][0] - rng.uniform(0.5, 5.0), slits[-1][0] + rng.uniform(0.5, 10.0)
    breaks = [s[0] for s in slits] + [
        aj + math.sqrt(bk * bk - bj * bj) for aj, bj in slits for _, bk in slits if bk > bj
    ]
    ref, _ = quad(
        lambda x: 1.0 / dist_to_boundary(d, complex(x)),
        x1,
        x2,
        points=[x for x in breaks if x1 < x < x2],
        epsabs=1e-12,
        limit=400,
    )
    assert quasihyperbolic_axis(d, x1, x2) == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize(
    "d", [HalfPlaneDom(-1.0, "above"), StripDom(-1.0, 2.0), SlitPlane(((0.0, 1.0),)), RectangleChain(3)]
)
def test_non_finite_endpoint_rejected(d):
    # a NaN endpoint returned 0, NaN or a finite number by kind
    nan, inf = math.nan, math.inf
    for x1, x2 in ((nan, 1.0), (0.0, nan), (nan, nan), (-inf, 1.0), (0.0, inf), (inf, inf)):
        with pytest.raises(DomainError):
            quasihyperbolic_axis(d, x1, x2)
        with pytest.raises(DomainError):
            rho_bounds(d, x1, x2)


def test_segment_beyond_truncation_rejected():
    with pytest.raises(DomainError):
        quasihyperbolic_axis(RectangleChain(2), 0.0, 17.0)


def test_segment_outside_half_plane_rejected():
    with pytest.raises(DomainError):
        quasihyperbolic_axis(HalfPlaneDom(1.0, "above"), 0.0, 5.0)


def test_coincident_points_off_the_axis_rejected():
    # a coincident pair returned 0 before the axis and truncation checks ran
    with pytest.raises(DomainError):
        quasihyperbolic_axis(HalfPlaneDom(1.0), 3.0, 3.0)
    with pytest.raises(DomainError):
        quasihyperbolic_axis(RectangleChain(2), 100.0, 100.0)
    with pytest.raises(DomainError):
        rho_bounds(HalfPlaneDom(1.0), 3.0, 3.0)


def test_additivity_exact():
    d = RectangleChain(6)
    points = [0.0, 2.0, 16.0, 256.0, 65536.0, 2.0**32, 2.0**64]
    total = quasihyperbolic_axis(d, points[0], points[-1])
    for mid in points[1:-1]:
        split = quasihyperbolic_axis(d, points[0], mid) + quasihyperbolic_axis(d, mid, points[-1])
        assert abs(split - total) <= 1e-12 * max(1.0, total)


def test_stage_ratios_bounded():
    d = RectangleChain(6)
    for n in range(2, 7):
        assert STAGE_RATIO_LO <= stage_ratio(d, n) <= STAGE_RATIO_HI


def test_growth_table_structure_and_trends():
    rows = theorem3_table(2, 6)
    assert [r.n for r in rows] == [2, 3, 4, 5, 6]
    assert rows[0].t_n == 16.0
    assert all(isinstance(r, GrowthRow) and r.lower_ratio == pytest.approx(r.upper_ratio / 4.0) for r in rows)
    odd = [r.upper_ratio for r in rows if r.n % 2 == 1]
    even = [r.lower_ratio for r in rows if r.n % 2 == 0]
    assert odd == sorted(odd, reverse=True)
    assert even == sorted(even)
    assert odd[-1] / odd[0] < 0.5
    assert even[-1] / even[0] > 10.0


def test_growth_table_q_additive_with_stage_gaps():
    rows = theorem3_table(2, 6)
    d = RectangleChain(6)
    q = quasihyperbolic_axis(d, 0.0, 2.0) + stage_gap(d, 1) + stage_gap(d, 2)
    assert rows[0].q_total == pytest.approx(q, rel=1e-14)


def test_growth_table_range_validation():
    with pytest.raises(DomainError):
        theorem3_table(1, 6)
    with pytest.raises(DomainError):
        theorem3_table(3, 2)


def test_growth_table_refuses_non_integer_stages(monkeypatch):
    # theorem3_table(2.5, 6) returned the rows n = 3..6 and (2, 5.5) raised a
    # bare TypeError; each is now refused before any stage is integrated
    import hypspeeds.quasihyperbolic as quasihyperbolic

    def no_work(*args):
        raise AssertionError("a stage was integrated before the stages were checked")

    monkeypatch.setattr(quasihyperbolic, "quasihyperbolic_axis", no_work)
    monkeypatch.setattr(quasihyperbolic, "stage_gap", no_work)
    for n_lo, n_hi in ((2.5, 6), (2, 5.5), (math.nan, 6), (2, math.nan), (True, 6), (2.0, 6)):
        with pytest.raises(DomainError, match="integers"):
            theorem3_table(n_lo, n_hi)


def test_bounds_bracket_strip_distance():
    # rho is exactly computable for the strip; check Q/4 <= rho <= Q
    from hypspeeds.conformal import _h_distance, build_koenigs

    d = StripDom(-1.5, 1.5)
    k = build_koenigs(d)
    rng = np.random.default_rng(47)
    for _ in range(50):
        x1 = rng.uniform(-4.0, 4.0)
        x2 = x1 + rng.uniform(0.2, 6.0)
        rho = _h_distance(k.to_h(complex(x1)), k.to_h(complex(x2)))
        b = rho_bounds(d, x1, x2)
        assert b.lower - 1e-12 <= rho <= b.upper + 1e-12


def test_bounds_bracket_half_plane_moderate_separation():
    from hypspeeds.conformal import _h_distance, build_koenigs

    d = HalfPlaneDom(-1.0, "above")
    k = build_koenigs(d)
    rng = np.random.default_rng(53)
    for _ in range(50):
        x1 = rng.uniform(-3.0, 3.0)
        x2 = x1 + 10.0 ** rng.uniform(-2.0, 5.0)
        rho = _h_distance(k.to_h(complex(x1)), k.to_h(complex(x2)))
        b = rho_bounds(d, x1, x2)
        assert b.lower - 1e-12 <= rho <= b.upper + 1e-12


@pytest.mark.parametrize(
    "d",
    [
        HalfPlaneDom(-1.0),
        HalfPlaneDom(0.5, "below"),
        SlitPlane(((0.0, 1.0),)),
        SlitPlane(((3.0, 2.0),)),
        StripDom(-1.0, 2.0),
        StripDom(-1.0, 1.0),
    ],
    ids=["half_plane", "half_plane_below", "slit", "far_slit", "asymmetric_strip", "strip"],
)
def test_bounds_bracket_exact_distance_far_apart(d):
    # off the geodesic axis Q/4 bounds nothing: on HalfPlaneDom(-1) it read
    # 5.0 at (0, 20), where rho = asinh(10) = 2.998
    from hypspeeds.conformal import _h_distance, build_koenigs

    k = build_koenigs(d)
    rng = np.random.default_rng(61)
    for _ in range(2000):
        x1 = rng.uniform(-5.0, 5.0)
        x2 = x1 + 10.0 ** rng.uniform(-2.0, 5.0)
        rho = _h_distance(k.to_h(complex(x1)), k.to_h(complex(x2)))
        b = rho_bounds(d, x1, x2)
        assert b.lower <= rho <= b.upper, (x1, x2, rho, b)

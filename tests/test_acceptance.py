"""Acceptance suite: one test per numbered criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math

import numpy as np

from hypspeeds.conformal import slit_sqrt_forward
from hypspeeds.domains import HalfPlaneDom, RectangleChain, SlitPlane, StripDom
from hypspeeds.harmonic import (
    ArcOnCircle,
    disk_arc_measure,
    geodesic_cut_measure,
    mc_disk_arc,
    mc_first_hit,
    projection_bound_check,
    semidisk_bisection_check,
)
from hypspeeds.hyperbolic import (
    CAYLEY,
    RIGHT_HALF_PLANE,
    UNIT_DISK,
    apply_mobius,
    density_of,
    disk_distance,
    geodesic_through,
    integrate_density_along,
    region_density,
    region_distance,
)
from hypspeeds.quasihyperbolic import quasihyperbolic_axis, stage_ratio, theorem3_table
from hypspeeds.semigroup import (
    dip_search,
    make_model,
    monotonicity_scan,
    orbit,
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

# Frozen fine-step random-walk reference for the radial-slit benchmark
# (obstacle [0.5, 1] on the real axis, start 0).  Regenerate with
# ``python tests/oracle_randomwalk.py``: Gaussian steps of size 0.01,
# 150000 walks, seed 11.
ORACLE_SLIT_HIT = 0.214273
ORACLE_SLIT_HIT_SE = 0.001059


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_disk_points(rng, n, rmax=0.85):
    r = rmax * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    return r * np.exp(1j * ang)


def test_criterion_1_metric_consistency():
    rng = np.random.default_rng(2024)
    cayley_inv = CAYLEY.inverse()
    worst_pair = 0.0
    for _ in range(100):
        w1 = complex(rng.uniform(0.05, 6.0), rng.uniform(-6.0, 6.0))
        w2 = complex(rng.uniform(0.05, 6.0), rng.uniform(-6.0, 6.0))
        val = region_distance(RIGHT_HALF_PLANE, w1, w2)
        ref = disk_distance(apply_mobius(cayley_inv, w1), apply_mobius(cayley_inv, w2))
        worst_pair = max(worst_pair, abs(val - ref))

    lam = density_of(UNIT_DISK)
    worst_quad = 0.0
    for k in range(10):
        ang = 2.0 * math.pi * rng.random()
        z1 = rng.uniform(0.0, 0.8) * complex(math.cos(ang), math.sin(ang))
        z2 = rng.uniform(0.0, 0.8) * complex(math.cos(ang), math.sin(ang))
        if z1 == z2:
            continue
        ref = integrate_density_along([z1, z2], lam)
        worst_quad = max(worst_quad, abs(disk_distance(z1, z2) - ref))
    from scipy.integrate import quad
    import cmath

    for k in range(10):
        z1, z2 = random_disk_points(rng, 2, rmax=0.8)
        if abs(z1.real * z2.imag - z1.imag * z2.real) < 1e-3:
            continue
        g = geodesic_through(z1, z2)
        base = cmath.phase(g.center)
        u1 = (cmath.phase(z1 - g.center) - base) % (2.0 * math.pi)
        u2 = (cmath.phase(z2 - g.center) - base) % (2.0 * math.pi)
        ref, _ = quad(
            lambda u: lam(g.point_at(u)) * g.radius, min(u1, u2), max(u1, u2), epsabs=1e-12, limit=200
        )
        worst_quad = max(worst_quad, abs(disk_distance(z1, z2) - ref))

    ok = worst_pair <= 1e-10 and worst_quad <= 1e-8
    report(1, ok, f"half-plane identity err {worst_pair:.2e} (tol 1e-10), quadrature err {worst_quad:.2e} (tol 1e-8)")


def test_criterion_2_orthogonal_speed_strictly_increasing():
    grid = [0.1 * k for k in range(1001)]
    base_points = (0.3 + 0j, -0.4j, 0.2 + 0.5j)
    total_violations = 0
    for name, dom in MODELS.items():
        m = make_model(dom)
        total_violations += len(monotonicity_scan(m, grid, "orthogonal").violations)
        total_violations += len(monotonicity_scan(m, grid, "foot").violations)
        for z in base_points:
            total_violations += len(monotonicity_scan(m, grid, "generalized", base_point=z).violations)
    ok = total_violations == 0
    report(2, ok, f"{total_violations} monotonicity violations on t in [0,100] step 0.1 across 3 models")


def test_criterion_3_total_speed_dip_evidence():
    a0_grid = [10.0 ** (3.0 + 2.0 * k / 40.0) for k in range(41)]
    dip = dip_search(100.0, a0_grid)
    etas = {R: slit_inequality_on_K(R, 1000).min_gap for R in (10.0, 100.0, 1000.0)}
    lam_left = region_density(RIGHT_HALF_PLANE, slit_sqrt_forward(-1.0))
    lam_right = region_density(RIGHT_HALF_PLANE, slit_sqrt_forward(1.0))
    ok = (
        dip.dip >= 0.01
        and all(v > 0.0 for v in etas.values())
        and etas[10.0] < etas[100.0] < etas[1000.0]
        and lam_left > lam_right
    )
    report(
        3,
        ok,
        f"dip {dip.dip:.4f} at a0={dip.a0:.3g} (>= 0.01), eta(R) {etas}, density gap "
        f"{lam_left:.6f} > {lam_right:.6f}",
    )


def test_criterion_4_growth_table_oscillation():
    rows = theorem3_table(2, 6, 7.0 / 12.0)
    odd = [r.upper_ratio for r in rows if r.n % 2 == 1]
    even = [r.lower_ratio for r in rows if r.n % 2 == 0]
    d = RectangleChain(6)
    ratios = [stage_ratio(d, n) for n in range(2, 7)]
    points = [0.0, 16.0, 65536.0, 2.0**64]
    total = quasihyperbolic_axis(d, points[0], points[-1])
    additive = all(
        abs(quasihyperbolic_axis(d, 0.0, mid) + quasihyperbolic_axis(d, mid, points[-1]) - total)
        <= 1e-12 * total
        for mid in points[1:-1]
    )
    ok = (
        odd == sorted(odd, reverse=True)
        and odd[-1] / odd[0] < 0.5
        and even == sorted(even)
        and even[-1] / even[0] > 10.0
        and all(0.5 <= r <= 2.5 for r in ratios)
        and additive
    )
    report(
        4,
        ok,
        f"upper(5)/upper(3)={odd[-1]/odd[0]:.3f} (<0.5), lower(6)/lower(2)={even[-1]/even[0]:.2f} (>10), "
        f"stage ratios {['%.3f' % r for r in ratios]} in [0.5,2.5], additivity {additive}",
    )


def test_criterion_5_arctan_cut_formula():
    worst = 0.0
    for k in range(1, 10):
        arc, closed = geodesic_cut_measure(k / 10.0)
        worst = max(worst, abs(disk_arc_measure(0j, arc) - closed))
    _, near_half = geodesic_cut_measure(1e-6)
    _, near_zero = geodesic_cut_measure(1.0 - 1e-6)
    ok = worst <= 1e-10 and abs(near_half - 0.5) <= 1e-6 and abs(near_zero) <= 1e-6
    report(
        5,
        ok,
        f"arc vs arctan err {worst:.2e} (tol 1e-10), limits {near_half:.8f}->1/2 and {near_zero:.2e}->0",
    )


def test_criterion_6_nested_domain_speed_bound():
    grid = [10.0 + 10.0 * k for k in range(100)]
    m_strip = make_model(StripDom(-1.0, 1.0))
    pairs = {
        "strip_in_strip": (m_strip, make_model(StripDom(-2.0, 2.0))),
        "strip_in_half_plane": (m_strip, make_model(HalfPlaneDom(-1.0, "above"))),
        "identical": (m_strip, m_strip),
    }
    details = []
    ok = True
    for name, (m, mt) in pairs.items():
        rep = theorem4_scan(m, mt, grid)
        ok = ok and rep.tail_min_diff >= -LOG2 - 0.05 and rep.tail_min_ratio >= 0.25 - 0.05
        details.append(f"{name}: min diff {rep.tail_min_diff:.4f}, min ratio {rep.tail_min_ratio:.3g}")
    report(6, ok, "; ".join(details) + f" (bounds {-LOG2:.4f}-0.05 and 0.2)")


def test_criterion_7_monte_carlo_calibration():
    n = 100_000
    arc = ArcOnCircle(0.0, math.pi / 2.0)
    est = mc_disk_arc(0j, arc, n, seed=20240808)
    arc_ok = abs(est.value - 0.25) <= 3.0 * est.std_error

    wos = mc_first_hit([0.5 + 0j, 1.0 + 0j], 0j, n, seed=20240808)
    joint = math.sqrt(wos.std_error**2 + ORACLE_SLIT_HIT_SE**2)
    slit_ok = abs(wos.value - ORACLE_SLIT_HIT) <= 3.0 * joint

    m = make_model(StripDom(-1.0, 1.0))
    proj_results = [projection_bound_check(m, t, n, seed=20240808) for t in (1.0, 5.0, 20.0)]
    proj_ok = all(r.passed for r in proj_results)

    left, right = semidisk_bisection_check(0.5, n, seed=20240808)
    joint_sd = math.sqrt(left.std_error**2 + right.std_error**2 + 2.0 * left.value * right.value / n)
    semi_ok = abs(left.value - right.value) <= 3.0 * joint_sd

    ok = arc_ok and slit_ok and proj_ok and semi_ok
    report(
        7,
        ok,
        f"arc {est.value:.5f}~0.25 ({arc_ok}), wos {wos.value:.5f} vs oracle {ORACLE_SLIT_HIT:.5f} "
        f"({slit_ok}), projection bound at t=1,5,20 ({proj_ok}), semidisk {left.value:.4f}~{right.value:.4f} "
        f"({semi_ok})",
    )


def test_criterion_8_dynamics_invariants():
    rng = np.random.default_rng(808)
    law_worst = 0.0
    identity_ok = True
    invariants_ok = True
    for name, dom in MODELS.items():
        m = make_model(dom)
        zs = random_disk_points(rng, 1000, rmax=0.8)
        ss = rng.uniform(0.0, 3.0, 1000)
        ts = rng.uniform(0.0, 3.0, 1000)
        for z, s, t in zip(zs, ss, ts):
            law_worst = max(law_worst, abs(orbit(m, z, s + t) - orbit(m, orbit(m, z, s), t)))
        for z in zs[:50]:
            identity_ok = identity_ok and orbit(m, z, 0.0) == z
        for t in [0.1 * k for k in range(1, 301)]:
            sample = speeds(m, t)
            invariants_ok = (
                invariants_ok
                and sample.v_o <= sample.v + 1e-12
                and sample.v_T <= sample.v + 1e-12
                and sample.v <= sample.v_o + sample.v_T + 1e-12
            )
    ok = law_worst <= 1e-9 and identity_ok and invariants_ok
    report(
        8,
        ok,
        f"semigroup law err {law_worst:.2e} (tol 1e-9), identity {identity_ok}, "
        f"speed invariants {invariants_ok}",
    )


def test_criterion_9_reproducibility(tmp_path):
    from hypspeeds.cli import parse_config, run

    data = {
        "experiment": "hm",
        "domain": {"kind": "strip", "y_low": -1, "y_high": 1},
        "seed": 424242,
        "n_samples": 20_000,
        "hm": {"projection_ts": [1.0, 5.0], "semidisk_t0": 0.5},
    }
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run(parse_config(dict(data)), out1)
    run(parse_config(dict(data)), out2)
    run(parse_config(dict(data, mc_chunk=1111)), out3)
    bytes1 = (out1 / "hm.csv").read_bytes()
    ok = bytes1 == (out2 / "hm.csv").read_bytes() == (out3 / "hm.csv").read_bytes()
    report(9, ok, f"hm.csv byte-identical across reruns and chunkings ({len(bytes1)} bytes)")

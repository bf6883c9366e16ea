"""Correctness checks run after timing.

Every check compares the program's output with ``oracle`` (mpmath, kept apart
from ``hypspeeds``) or with a property the method must have.  None compares
with a stored copy of an earlier output.  Each returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import mpmath as mp

import oracle

#: Absolute tolerance for CSV values recomputed from their printed inputs.
#: The CLI prints 12 significant digits, so a recomputation from the printed
#: coordinates differs by the rounding times the slope of the distance.
CSV_ATOL = 1e-9
#: Monte Carlo estimates of the in-process walks must lie within this many
#: standard errors of the closed form (one-sided for lower bounds); chance
#: alone exceeds 5 sigma about once in 1.7 million checks.
WALK_SIGMAS = 5.0


def _f(row: dict, key: str) -> float:
    return float(row[key])


def _close(value: float, reference, atol: float = CSV_ATOL) -> bool:
    return abs(mp.mpf(value) - reference) <= atol * max(1, abs(reference))


def _increasing(values: list) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# CLI outputs (one function per experiment, given the CSV rows and the config)


def check_dist(rows, cfg) -> list[str]:
    problems = []
    for i, r in enumerate(rows):
        a = mp.mpc(_f(r, "re1"), _f(r, "im1"))
        b = mp.mpc(_f(r, "re2"), _f(r, "im2"))
        if r["check"] == "halfplane_vs_pullback":
            ref = oracle.h_distance(a, b)
        elif r["check"] == "disk_vs_quadrature":
            ref = oracle.disk_distance(a, b)
        else:
            problems.append(f"row {i}: unknown check {r['check']!r}")
            continue
        if not _close(_f(r, "value"), ref):
            problems.append(f"row {i}: value {r['value']} against mpmath {mp.nstr(ref, 15)}")
    if len(rows) != 120:
        problems.append(f"expected 120 rows, got {len(rows)}")
    return problems


def speed_rows(rows, dom) -> list[str]:
    """thm1/speeds CSV rows (t, v, v_o, v_T, pi_t) against the oracle, and
    v_o strictly increasing in t."""
    problems = []
    for i, r in enumerate(rows):
        t = _f(r, "t")
        if t == 0.0:
            continue
        ref = oracle.speeds(dom, t)
        for key in ("v", "v_o", "v_T", "pi_t"):
            if not oracle.speed_close(_f(r, key), ref[key]):
                problems.append(f"t={t}: {key} {r[key]} against oracle {mp.nstr(ref[key], 15)}")
    if not _increasing([_f(r, "v_o") for r in rows]):
        problems.append("v_o is not strictly increasing")
    return problems


def _oracle_domain(d) -> tuple:
    from hypspeeds.domains import HalfPlaneDom, SlitPlane, StripDom

    if isinstance(d, StripDom):
        return ("strip", d.y_low, d.y_high)
    if isinstance(d, HalfPlaneDom):
        return ("half_plane", d.boundary_height, d.side)
    if isinstance(d, SlitPlane) and len(d.slits) == 1:
        return ("slit",) + d.slits[0]
    raise ValueError(f"no oracle for {d!r}")


def check_speeds(rows, cfg) -> list[str]:
    problems = speed_rows(rows, _oracle_domain(cfg.domain))
    if len(rows) != len(cfg.t_grid.values()):
        problems.append(f"expected {len(cfg.t_grid.values())} rows, got {len(rows)}")
    return problems


def check_thm2(rows, cfg) -> list[str]:
    problems = []
    for r in rows:
        ref = oracle.slit_gap(_f(r, "a0"))
        if not _close(_f(r, "delta"), ref):
            problems.append(f"a0={r['a0']}: delta {r['delta']} against mpmath {mp.nstr(ref, 15)}")
    if not max(_f(r, "delta") for r in rows) > 0.0:
        problems.append("no dip: every delta is <= 0")
    return problems


def check_thm3(rows, cfg) -> list[str]:
    problems = []
    odd = [r for r in rows if int(r["n"]) % 2 == 1]
    even = [r for r in rows if int(r["n"]) % 2 == 0]
    if not _increasing([-_f(r, "upper_ratio") for r in odd]):
        problems.append("upper_ratio does not fall along odd n")
    if not _increasing([_f(r, "lower_ratio") for r in even]):
        problems.append("lower_ratio does not rise along even n")
    for r in rows:
        n = int(r["n"])
        if _f(r, "t_n") != float(f"{2.0 ** (2 ** n):.12g}"):
            problems.append(f"n={n}: t_n {r['t_n']} is not 2^(2^{n})")
        if not _close(_f(r, "lower_ratio"), mp.mpf(_f(r, "upper_ratio")) / 4):
            problems.append(f"n={n}: lower_ratio is not upper_ratio/4")
    if not _increasing([_f(r, "Q") for r in rows]):
        problems.append("Q is not increasing in n")
    return problems


def check_thm4(rows, cfg) -> list[str]:
    problems = []
    dom, dom_t = _oracle_domain(cfg.domain), _oracle_domain(cfg.domain_tilde)
    for r in rows:
        t = _f(r, "t")
        ref, ref_t = oracle.speeds(dom, t), oracle.speeds(dom_t, t)
        for key, value in (("v_o", ref["v_o"]), ("v_o_tilde", ref_t["v_o"]), ("diff", ref["v_o"] - ref_t["v_o"])):
            if not oracle.speed_close(_f(r, key), value):
                problems.append(f"t={t}: {key} {r[key]} against oracle {mp.nstr(value, 15)}")
        log_ratio = ref_t["log_one_minus_pi_sq"] - ref["log_one_minus_pi_sq"]
        if r["ratio"] == "inf":
            if not log_ratio > 700:
                problems.append(f"t={t}: ratio inf but oracle log-ratio {mp.nstr(log_ratio, 6)}")
        elif not oracle.speed_close(_f(r, "ratio"), mp.exp(log_ratio)):
            problems.append(f"t={t}: ratio {r['ratio']} against oracle {mp.nstr(mp.exp(log_ratio), 15)}")
    tail = rows[len(rows) // 2 :]
    if not min(_f(r, "diff") for r in tail) >= -oracle.LOG2:
        problems.append("tail diff below -log 2")
    return problems


def check_hm(rows, cfg) -> list[str]:
    """Each Monte Carlo row within mc_sigma of its closed form."""
    problems = []
    k = cfg.mc_sigma
    dom = _oracle_domain(cfg.domain)
    n = cfg.n_samples
    for r in rows:
        kind, value, sigma = r["check"], _f(r, "value"), _f(r, "std_error")
        if kind == "arc_calibration":
            ok = oracle.within_sigma(value, oracle.disk_arc_measure(0, 0, mp.pi / 2), sigma, k)
        elif kind == "geodesic_cut_agreement":
            ok = value <= 1e-10
        elif kind == "projection_bound":
            ref = oracle.speeds(dom, _f(r, "param"))
            ok = oracle.at_least(value, oracle.arctan_lower_bound(ref["pi_t"]), sigma, k)
            ok = ok and _close(_f(r, "reference"), oracle.arctan_lower_bound(ref["pi_t"]))
            if dom[0] == "strip" and dom[1] == -dom[2]:
                # the orbit stays on the axis, so the tail is the radial slit [pi_t, 1]
                ok = ok and oracle.within_sigma(value, oracle.radial_slit_hit(ref["pi_t"]), sigma, k)
        elif kind == "semidisk_bisection":
            exact = oracle.semidisk_half_measure(_f(r, "param"))
            left, right = value, _f(r, "reference")
            ok = all(oracle.within_sigma(x, exact, math.sqrt(x * (1 - x) / n), k) for x in (left, right))
        else:
            ok = False
        if not ok:
            problems.append(f"{kind} at {r['param']}: value {r['value']} (sigma {r['std_error']}) fails its check")
    if len(rows) != 3 + len(cfg.projection_ts):
        problems.append(f"expected {3 + len(cfg.projection_ts)} rows, got {len(rows)}")
    return problems


CLI_CHECKS = {
    "dist": check_dist,
    "speeds": check_speeds,
    "thm1": check_speeds,
    "thm2": check_thm2,
    "thm3": check_thm3,
    "thm4": check_thm4,
    "hm": check_hm,
}


# ---------------------------------------------------------------------------
# In-process workloads


def orbit_speeds(sweeps, base_points, results) -> list[str]:
    problems = []
    it = iter(results)
    for label, dom, _, ts in sweeps:
        v_o, generalized = [], {z: [] for z in base_points}
        for t in ts:
            s = next(it)
            ref = oracle.speeds(dom, t)
            for key in ("v", "v_o", "v_T"):
                if not oracle.speed_close(getattr(s, key), ref[key]):
                    problems.append(f"{label} t={t!r}: {key}={getattr(s, key)!r} against oracle {mp.nstr(ref[key], 15)}")
            v_o.append(s.v_o)
            for z in base_points:
                g = next(it)
                ref_g = oracle.generalized_speed(dom, z, t)
                if not oracle.speed_close(g, ref_g):
                    problems.append(f"{label} z={z} t={t!r}: generalized {g!r} against oracle {mp.nstr(ref_g, 15)}")
                generalized[z].append(g)
        if not _increasing(v_o):
            problems.append(f"{label}: v_o is not strictly increasing")
        for z, values in generalized.items():
            if not _increasing(values):
                problems.append(f"{label}: generalized speed at {z} is not strictly increasing")
    return problems


def walk_mc(w, results) -> list[str]:
    problems = []
    k = WALK_SIGMAS
    for (label, param), res in zip(w.specs(), results):
        if label.startswith("radial_slit"):
            ok = oracle.within_sigma(res.value, oracle.radial_slit_hit(param), res.std_error, k)
        elif label == "semidisk":
            exact = oracle.semidisk_half_measure(param)
            ok = all(oracle.within_sigma(e.value, exact, e.std_error, k) for e in res)
        elif label == "disk_arc":
            ok = oracle.within_sigma(res.value, oracle.disk_arc_measure(w.ARC_Z, *w.ARC), res.std_error, k)
        else:
            z_t, est = res
            ref = oracle.speeds(("slit", 0.0, 1.0), param)
            ok = oracle.speed_close(abs(z_t), ref["abs_z_t"])
            ok = ok and oracle.at_least(est.value, oracle.beurling_lower_bound(ref["abs_z_t"]), est.std_error, k)
            ok = ok and oracle.at_least(est.value, oracle.arctan_lower_bound(ref["pi_t"]), est.std_error, k)
        if not ok:
            problems.append(f"{label}: {res!r} fails its check")
    return problems

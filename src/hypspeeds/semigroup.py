"""Orbits, the three speeds, the rate of the orthogonal speed, monotonicity
scans, the nested-domain scan, and the slit-plane dip search.

A semigroup is given by its normalized Koenigs map h, a ``KoenigsMap``: the
time-t map is h^{-1}(h(z) + t).  Speeds of the origin orbit:

    total       v(t)   = rho(0, phi_t(0))
    orthogonal  v_o(t) = rho(0, pi_t),  pi_t the foot of phi_t(0) on (-1, 1)
    tangential  v_T(t) = rho(phi_t(0), pi_t)

All three are read in the right half-plane H, where the Koenigs map sends 0
to W0 = to_h(0), phi_t(0) to W_t from ``advance(0, t)`` and the diameter
(-1, 1) to the horizontal ray Im W = Im W0.  The foot of W_t on that ray is
explicit, so every kind takes one closed-form route, and nothing passes
through the disk, where far orbit points crowd against the unit circle.
Every speed is read from the exact step that ``advance`` returns with W_t:
ell = log(Re W_t / Re W0) and kappa, with W_t - i Im W0 = Re W_t (1 + i kappa),
never from two rounded points, so one closed form holds at every t.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

from .conformal import KoenigsMap, _h_distance, _h_to_disk, build_koenigs
from .domains import DomainDescriptor, SlitPlane, StripDom, includes
from .errors import DomainError, ParameterError, _positive_int
from .hyperbolic import Diameter, OrthoCircle, disk_distance, project_to_geodesic, require_disk_point

_PREV_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SpeedSample:
    t: float
    v: float
    v_o: float
    v_T: float
    pi_t: float


def make_model(d: DomainDescriptor) -> KoenigsMap:
    """The semigroup with Koenigs domain d and Denjoy-Wolff point 1, given by
    its normalized Koenigs map."""
    return build_koenigs(d)


def _symmetric_strip(m: KoenigsMap) -> Optional[StripDom]:
    d = m.domain
    if isinstance(d, StripDom) and d.y_low == -d.y_high:
        return d
    return None


def _require_time(t: float) -> None:
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be finite and nonnegative, got {t}")


def orbit(m: KoenigsMap, z: complex, t: float) -> complex:
    """phi_t(z) = h^{-1}(h(z) + t), translated in H: M^{-1}(q) for q from
    ``advance(z, t)``, which raises NumericError where q has lost its digits."""
    _require_time(t)
    z = require_disk_point(z)
    if t == 0.0:
        return z
    return _h_to_disk(m, m.advance(z, t)[0])


def _speeds_in_h(m: KoenigsMap, z: complex, t: float) -> tuple[float, float, float]:
    """(s, v, v_T) for p = M(z) and q from advance(z, t): s/2 the signed H distance from
    p to the foot of q on the ray Im W = Im W_p, v that from p to q, v_T from q to the foot."""
    _, ell, kappa = m.advance(z, t)
    # W_q - i Im W_p = Re W_q (1 + i kappa) and Re W_q = e^ell Re W_p, so the foot is
    # e^s Re W_p with s = ell + log|1 + i kappa|, taken as log1p(h - 1) with h = |1 + i kappa|
    k = abs(kappa)
    s = ell + math.log1p(k * (k / (1.0 + math.hypot(1.0, k))))
    # sinh v = |W_q - W_p| / (2 sqrt(Re W_p Re W_q)) = a e^(ell/2) / 2; past about e^20, asinh(y) = log(2y)
    a = math.hypot(math.expm1(-ell), kappa)
    v = math.log(a) + 0.5 * ell if ell > 40.0 or a > 1e100 else math.asinh(0.5 * a * math.exp(0.5 * ell))
    return s, v, 0.5 * math.asinh(k)


def speeds(m: KoenigsMap, t: float) -> SpeedSample:
    """Total, orthogonal, and tangential speed of the origin orbit at time t.

    With s/2 the signed H distance from W0 to the foot of W_t on the ray
    Im W = Im W0: v_o = |s|/2, pi_t = tanh(s/2) (below 1 even where it
    rounds to 1), v_T the H distance from W_t to that foot, and v the H
    distance from W0 to W_t, all from ``advance(0, t)``.  Against mpmath on
    slits whose tip lies 1e3 to 1e300 depths out, at t from a0/2 to 10 a0, the
    worst relative error is 3.4e-16.  NumericError where log|W_t| overflows or
    the real part of W_t/|W_t| is 0 or subnormal: the speeds have lost their
    digits there.
    """
    _require_time(t)
    s, v, v_T = _speeds_in_h(m, 0j, t)
    return SpeedSample(t, v, 0.5 * abs(s), v_T, min(math.tanh(0.5 * s), _PREV_ONE))


def _geodesic_to_one(z: complex):
    """The geodesic through z with one endpoint at the boundary point 1."""
    if z.imag == 0.0:
        return Diameter(0.0)
    s = abs(z - 1.0) ** 2 / (2.0 * z.imag)
    return OrthoCircle(complex(1.0, s), abs(s))


def generalized_speed(m: KoenigsMap, z: complex, t: float) -> float:
    """Orthogonal speed seeded at z: rho(z, projection of phi_t(z) onto the
    geodesic through z ending at 1.  On the symmetric strip it is read in H,
    where that geodesic is the ray Im W = Im M(z); elsewhere in the disk."""
    z = require_disk_point(z)
    _require_time(t)
    if t == 0.0:
        return 0.0
    if _symmetric_strip(m) is not None:
        return 0.5 * abs(_speeds_in_h(m, z, t)[0])
    phi = orbit(m, z, t)
    p = project_to_geodesic(phi, _geodesic_to_one(z))
    return disk_distance(z, p)


def orthogonal_rate(m: KoenigsMap, z: complex, t: float) -> float:
    """d/dt of the orthogonal speed seeded at z, in closed form in H.

    With p = M(z), q from advance(z, t) and b = Im W_p, the foot of W_q on the
    ray Im W = b lies at signed distance (1/2) log(|W_q - i b| / Re W_p) from
    p, whose absolute value is ``generalized_speed``.  Its rate is
    (1/2) Re(W_q' / (W_q - i b)), where W_q' is dW/dw at q, the t-derivative
    of W_q, and W_q - i b = Re W_q (1 + i kappa) from ``advance``.  Far out,
    the factor e^(-log|W_q|) of ``velocity(q)`` costs about |log|W_q|| ulps:
    against mpmath over t = 1e-14 to 1e304, the worst relative errors are
    5.7e-14 on ``HalfPlaneDom(-1)`` (at t = 5.6e270) and 1.1e-13 on the slit
    [[0, 1]] (at t = 3.2e297).  On a slit the factor is e^(-2 log|W_q| -
    log 2 b0): across the tip, at t from a0/2 to 10 a0 on tips from 1e3 to 1e300
    times the depth b0 in {1e-100, 1, 1e100}, the worst is 9.0e-14.
    NumericError where q overflows H or rounds onto its boundary.

    The float rate reads 0.0 where the true rate is positive, by two routes.
    The factor e^(-log|W_q|) of ``velocity(q)`` times kappa leaves the float
    range: on ``HalfPlaneDom(-1e200)`` both are about 1e-200, every rate at
    t = 1, 5 and 10 reads 0.0 (the true rate is t / (2 (1e400 + t^2))), and
    ``thm1`` prints FAIL.  Or kappa itself underflows with t / Re W_p: on
    ``HalfPlaneDom(-1e100)`` at t = 1e-300.
    """
    z = require_disk_point(z)
    _require_time(t)
    q, _, kappa = m.advance(z, t)
    # divided by Re u_q first: 1 + i kappa is large exactly where Re u_q is small
    return 0.5 * (m.velocity(q) / q[1].real / complex(1.0, kappa)).real


def _log_sech(x: float) -> float:
    """-log cosh(x) for x >= 0, stable near 0 and finite for every finite x."""
    # cosh x = 1 + 2 sinh(x/2)^2 near 0, and e^x (1 + e^(-2x))/2 beyond
    if x < 1.0:
        return -math.log1p(2.0 * math.sinh(0.5 * x) ** 2)
    return math.log(2.0) - x - math.log1p(math.exp(-2.0 * x))


def _pythagoras_residual(s: SpeedSample) -> float:
    """Relative residual of hyperbolic Pythagoras, cosh 2v = cosh 2v_o cosh 2v_T.

    Read in logs, which cannot overflow: with L(x) = -log cosh x, L(2v) -
    L(2v_o) - L(2v_T) = 0.  The residual is taken relative to |L(2v)|, but to
    no less than the least normal float: below it (v under about 1e-154) L
    keeps subnormal digits only.
    """
    big = _log_sech(2.0 * s.v)
    return abs(big - _log_sech(2.0 * s.v_o) - _log_sech(2.0 * s.v_T)) / max(-big, sys.float_info.min)


# ---------------------------------------------------------------------------
# Monotonicity scanning


@dataclass(frozen=True)
class ScanViolation:
    t_lo: float
    t_hi: float
    delta: float


@dataclass
class ScanReport:
    quantity: str
    t_grid: list[float]
    values: list[float]
    violations: list[ScanViolation] = field(default_factory=list)

    @property
    def is_monotone(self) -> bool:
        return not self.violations


def _increasing(t_grid, least: int = 0) -> list[float]:
    """t_grid as floats.  Raises ParameterError unless it holds at least
    ``least`` times and strictly increases."""
    grid = [float(t) for t in t_grid]
    if len(grid) < least:
        raise ParameterError(f"scan grid must hold at least {least} times, got {len(grid)}")
    if not all(a < b for a, b in zip(grid[:-1], grid[1:])):
        raise ParameterError("scan grid must be strictly increasing")
    return grid


def monotonicity_scan(
    m: KoenigsMap,
    t_grid,
    quantity: str = "orthogonal",
    base_point: complex | None = None,
    slack: float = 1e-12,
) -> ScanReport:
    """Flag adjacent grid pairs where the chosen speed drops by more than `slack`.

    quantity: 'total', 'orthogonal', 'foot' (the projection pi_t itself), or
    'generalized' (requires base_point).  An empty violation list certifies
    strict increase on the grid up to numeric noise.
    """
    grid = _increasing(t_grid)
    if quantity == "generalized":
        if base_point is None:
            raise ParameterError("generalized speed needs a base point")
        values = [generalized_speed(m, base_point, t) for t in grid]
    else:
        picker = {
            "total": lambda s: s.v,
            "orthogonal": lambda s: s.v_o,
            "foot": lambda s: s.pi_t,
        }.get(quantity)
        if picker is None:
            raise ParameterError(f"unknown scan quantity {quantity!r}")
        values = [picker(speeds(m, t)) for t in grid]
    report = ScanReport(quantity=quantity, t_grid=grid, values=values)
    for (t0, v0), (t1, v1) in zip(zip(grid[:-1], values[:-1]), zip(grid[1:], values[1:])):
        delta = v1 - v0
        if delta <= -slack:
            report.violations.append(ScanViolation(t0, t1, delta))
    return report


# ---------------------------------------------------------------------------
# Nested-domain speed comparison


@dataclass(frozen=True)
class NestedSpeedRow:
    t: float
    v_o: float
    v_o_tilde: float
    diff: float
    ratio: float


@dataclass
class NestedSpeedReport:
    rows: list[NestedSpeedRow] = field(default_factory=list)
    tail_min_diff: float = math.inf
    tail_min_ratio: float = math.inf


def theorem4_scan(m: KoenigsMap, m_tilde: KoenigsMap, t_grid) -> NestedSpeedReport:
    """Compare orthogonal speeds of nested models: rows of v_o - v_o_tilde and
    the squared-gap ratio (1 - pi_tilde^2)/(1 - pi^2), with their minima over
    the tail, the second half of the rows.

    Raises ParameterError unless t_grid is nonempty and strictly increasing,
    and DomainError unless the first Koenigs domain lies inside the second,
    which ``includes`` decides exactly before scanning.
    """
    grid = _increasing(t_grid, least=1)
    d, d_tilde = m.domain, m_tilde.domain
    if not includes(d, d_tilde):
        raise DomainError(f"inclusion check failed: {d} is not contained in {d_tilde}")
    report = NestedSpeedReport()
    for t in grid:
        v = speeds(m, t).v_o
        v_t = speeds(m_tilde, t).v_o
        arg = 2.0 * (_log_sech(v_t) - _log_sech(v))
        ratio = math.inf if arg > 700.0 else math.exp(arg)
        report.rows.append(NestedSpeedRow(t=t, v_o=v, v_o_tilde=v_t, diff=v - v_t, ratio=ratio))
    tail = report.rows[len(report.rows) // 2 :]
    report.tail_min_diff = min(r.diff for r in tail)
    report.tail_min_ratio = min(r.ratio for r in tail)
    return report


# ---------------------------------------------------------------------------
# Slit-plane comparisons (evidence that the total speed can dip)

_CANONICAL_SLIT = build_koenigs(SlitPlane(((0.0, 1.0),)))
_SLIT_LEFT, _SLIT_RIGHT = _CANONICAL_SLIT.to_h(-1 + 0j), _CANONICAL_SLIT.to_h(1 + 0j)


def _slit_gap(z: complex) -> float:
    """rho(z, -1) - rho(z, 1) in the canonical slit plane, read in H."""
    p = _CANONICAL_SLIT.to_h(z)
    return _h_distance(p, _SLIT_LEFT) - _h_distance(p, _SLIT_RIGHT)


@dataclass(frozen=True)
class KGapResult:
    R: float
    n_samples: int
    min_gap: float
    argmin: complex


def slit_inequality_on_K(R: float, n_samples: int = 1000) -> KGapResult:
    """Minimum of rho(z,-1) - rho(z,1) over the upper arc of |z + i| = R.

    A positive minimum certifies that every point of the arc is hyperbolically
    farther from -1 than from 1 in the canonical slit plane.
    """
    if not 1.0 < R < math.inf:
        raise ParameterError(f"need finite R > 1, got {R}")
    if not (_positive_int(n_samples) and n_samples >= 2):
        raise ParameterError(f"need at least 2 samples on the arc, as an integer; got {n_samples!r}")
    theta_lo = math.asin(1.0 / R)
    best = math.inf
    best_z = 0j
    for k in range(n_samples):
        theta = theta_lo + (math.pi - 2.0 * theta_lo) * k / (n_samples - 1)
        z = complex(R * math.cos(theta), R * math.sin(theta) - 1.0)
        gap = _slit_gap(z)
        if gap < best:
            best, best_z = gap, z
    return KGapResult(R=R, n_samples=n_samples, min_gap=best, argmin=best_z)


@dataclass(frozen=True)
class DipResult:
    a0: float
    dip: float
    curve: tuple[tuple[float, float], ...]


def dip_search(R: float, a0_grid) -> DipResult:
    """Maximize Delta(a0) = rho(-a0, -1) - rho(-a0, 1) in the canonical slit plane.

    By translation this equals rho(0, a0-1) - rho(0, a0+1) in the plane slit
    along {Re z <= a0, Im z = -1}; a positive value exhibits a later orbit
    point that is hyperbolically closer to the start, i.e. a total-speed dip.
    """
    if not 1.0 < R < math.inf:
        raise ParameterError(f"need finite R > 1, got {R}")
    grid = [float(a) for a in a0_grid]
    if not grid:
        raise ParameterError("empty a0 grid")
    if not all(R < a < math.inf for a in grid):
        raise ParameterError("all grid points must be finite and exceed R")
    curve = tuple((a0, _slit_gap(complex(-a0))) for a0 in grid)
    a_best, d_best = max(curve, key=lambda row: row[1])
    return DipResult(a0=a_best, dip=d_best, curve=curve)

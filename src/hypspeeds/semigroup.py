"""Orbits, the three speeds, the rate of the orthogonal speed, monotonicity
scans, the nested-domain scan, and the slit-plane dip search.

A semigroup is given by its normalized Koenigs map h, a ``KoenigsMap``: the
time-t map is h^{-1}(h(z) + t).  Speeds of the origin orbit:

    total       v(t)   = rho(0, phi_t(0))
    orthogonal  v_o(t) = rho(0, pi_t),  pi_t the foot of phi_t(0) on (-1, 1)
    tangential  v_T(t) = rho(phi_t(0), pi_t)

All three are read in the right half-plane H, where the Koenigs map sends 0
to W0 = to_h(0), phi_t(0) to W_t = advance(W0, t) and the diameter (-1, 1) to
the horizontal ray Im W = Im W0.  The foot of W_t on that ray is explicit, so
every supported domain takes the same closed-form route, and nothing passes
through the disk, where far orbit points crowd against the unit circle.  Near
t = 0 the speeds are read from the step W_t - W0, not from two rounded points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .conformal import HPoint, KoenigsMap, _disk_to_h, _h_distance, _h_foot, _h_to_disk, build_koenigs
from .domains import DomainDescriptor, SlitPlane, StripDom, includes
from .errors import DomainError, NumericError, ParameterError, _positive_int
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
    """phi_t(z) = h^{-1}(h(z) + t), translated in H: M^{-1}(advance(M(z), t))."""
    _require_time(t)
    z = require_disk_point(z)
    if t == 0.0:
        return z
    q = m.advance(_disk_to_h(m, z), t)[0]
    if not math.isfinite(q[0]):
        raise NumericError(f"the orbit point at t={t} overflows H")
    return _h_to_disk(m, q)


def _advance_in_h(m: KoenigsMap, p: HPoint, t: float) -> tuple[HPoint, Optional[complex]]:
    """``m.advance(p, t)``, refused with NumericError where q has lost its digits."""
    q, delta = m.advance(p, t)
    # 2^-1022 is the smallest normal float: a subnormal Re u_q has lost digits, and a zero one divides by 0
    if not (math.isfinite(q[0]) and q[1].real >= 2.0**-1022):
        raise NumericError(f"the orbit point at t={t} overflows H or rounds onto its boundary")
    return q, delta


def _speeds_in_h(m: KoenigsMap, p: HPoint, t: float) -> tuple[float, float, float]:
    """(s, v, v_T) for p and q = advance(p, t): s/2 the signed H distance from p to
    the foot of q on the ray Im W = Im W_p, v that from p to q, v_T from q to the foot."""
    q, delta = _advance_in_h(m, p, t)
    if delta is None:
        s, v_T = _h_foot(p, q)
        return s, _h_distance(p, q), v_T
    # the step r = (W_q - W_p)/Re W_p carries every digit: |W_q - i Im W_p| = Re W_p |1 + r|
    r = delta / (math.exp(p[0]) * p[1].real)
    s = 0.5 * math.log1p(2.0 * r.real + abs(r) ** 2)
    return s, math.asinh(abs(r) / (2.0 * math.sqrt(1.0 + r.real))), 0.5 * math.asinh(abs(r.imag) / (1.0 + r.real))


def speeds(m: KoenigsMap, t: float) -> SpeedSample:
    """Total, orthogonal, and tangential speed of the origin orbit at time t.

    With s/2 the signed H distance from W0 to the foot of W_t on the ray
    Im W = Im W0: v_o = |s|/2, pi_t = tanh(s/2) (below 1 even where it
    rounds to 1), v_T the H distance from W_t to that foot, and v the H
    distance from W0 to W_t.  NumericError where log|W_t| overflows or the
    real part of W_t/|W_t| is 0 or subnormal: the speeds have lost their
    digits there.
    """
    _require_time(t)
    s, v, v_T = _speeds_in_h(m, m.to_h(0j), t)
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
        return 0.5 * abs(_speeds_in_h(m, _disk_to_h(m, z), t)[0])
    phi = orbit(m, z, t)
    p = project_to_geodesic(phi, _geodesic_to_one(z))
    return disk_distance(z, p)


def orthogonal_rate(m: KoenigsMap, z: complex, t: float) -> float:
    """d/dt of the orthogonal speed seeded at z, in closed form in H.

    With p = M(z), q = advance(p, t) and b = Im W_p, the foot of W_q on the
    ray Im W = b lies at signed distance (1/2) log(|W_q - i b| / Re W_p) from
    p, whose absolute value is ``generalized_speed``.  Its rate is
    (1/2) Re(W_q' conj(W_q - i b)) / |W_q - i b|^2, where W_q' is dW/dw at q,
    the t-derivative of W_q.  Near t = 0, W_q - i b is read as Re W_p plus the
    step of ``advance``: on the half-plane Re W_q' is 0, and W_q - i b taken
    from the rounded W_q would keep few digits of the product.  NumericError
    where q overflows H or rounds onto its boundary.
    """
    z = require_disk_point(z)
    _require_time(t)
    p = _disk_to_h(m, z)
    q, delta = _advance_in_h(m, p, t)
    velocity = m.velocity(q)  # W_q' / |W_q|
    if delta is None:
        # W_q - i b = |W_q| (u_q - i beta), with the beta of _h_foot
        gap = q[1] - 1j * math.exp(p[0] - q[0]) * p[1].imag
        return 0.5 * (velocity * gap.conjugate()).real / abs(gap) ** 2
    # W_q - i b = Re W_p (1 + r), with r the step over Re W_p as in _speeds_in_h
    gap = 1.0 + delta / (math.exp(p[0]) * p[1].real)
    return 0.5 * (velocity * gap.conjugate()).real * math.exp(q[0] - p[0]) / (p[1].real * abs(gap) ** 2)


def _minus_two_log_cosh(v_o: float) -> float:
    """-2 log cosh(v_o) = log(1 - pi_t^2), stable even where pi_t rounds to 1."""
    # cosh v = 1 + 2 sinh(v/2)^2 near 0, and e^v (1 + e^(-2v))/2 beyond
    if v_o < 1.0:
        return -2.0 * math.log1p(2.0 * math.sinh(0.5 * v_o) ** 2)
    return 2.0 * (math.log(2.0) - v_o - math.log1p(math.exp(-2.0 * v_o)))


def log_one_minus_pi_sq(m: KoenigsMap, t: float) -> float:
    """log(1 - pi_t^2) = -2 log cosh(v_o), stable even where pi_t rounds to 1."""
    return _minus_two_log_cosh(speeds(m, t).v_o)


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
        arg = _minus_two_log_cosh(v_t) - _minus_two_log_cosh(v)
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

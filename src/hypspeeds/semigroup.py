"""Orbits, the three speeds, monotonicity scans, the nested-domain scan, and
the slit-plane dip search.

A semigroup model wraps a normalized Koenigs map h: the time-t map is
h^{-1}(h(z) + t).  Speeds of the origin orbit:

    total       v(t)   = rho(0, phi_t(0))
    orthogonal  v_o(t) = rho(0, pi_t),  pi_t the foot of phi_t(0) on (-1, 1)
    tangential  v_T(t) = rho(phi_t(0), pi_t)

All three are read in the right half-plane H, where the Koenigs map sends 0
to W0 = to_h(0), phi_t(0) to W_t = to_h(t) and the diameter (-1, 1) to the
horizontal ray Im W = Im W0.  The foot of W_t on that ray is explicit, so
every supported domain takes the same closed-form route, and nothing passes
through the disk, where far orbit points crowd against the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .conformal import (
    HPoint,
    KoenigsMap,
    _h_distance,
    _h_foot,
    build_koenigs,
    map_forward,
    map_inverse,
    slit_sqrt_forward,
)
from .domains import DomainDescriptor, StripDom, includes
from .errors import DomainError, ParameterError
from .hyperbolic import (
    Diameter,
    OrthoCircle,
    RIGHT_HALF_PLANE,
    disk_distance,
    project_to_geodesic,
    region_distance,
    require_disk_point,
)

_PREV_ONE = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SpeedSample:
    t: float
    v: float
    v_o: float
    v_T: float
    pi_t: float


@dataclass(frozen=True)
class SemigroupModel:
    koenigs: KoenigsMap
    denjoy_wolff: complex = 1.0 + 0j


def make_model(d: DomainDescriptor) -> SemigroupModel:
    """Semigroup model with Koenigs domain d (Denjoy-Wolff point 1)."""
    return SemigroupModel(koenigs=build_koenigs(d))


def _symmetric_strip(m: SemigroupModel) -> Optional[StripDom]:
    d = m.koenigs.domain
    if isinstance(d, StripDom) and d.y_low == -d.y_high:
        return d
    return None


def orbit(m: SemigroupModel, z: complex, t: float) -> complex:
    """phi_t(z) = h^{-1}(h(z) + t)."""
    if t < 0.0:
        raise DomainError(f"orbit time must be nonnegative, got {t}")
    z = require_disk_point(z)
    if t == 0.0:
        return z
    return map_inverse(m.koenigs, map_forward(m.koenigs, z) + t)


def _origin_orbit_h(m: SemigroupModel, t: float) -> tuple[HPoint, HPoint]:
    """The H points of 0 and of phi_t(0) = h^{-1}(t)."""
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    k = m.koenigs
    return k.to_h(0j), k.to_h(complex(t))


def speeds(m: SemigroupModel, t: float) -> SpeedSample:
    """Total, orthogonal, and tangential speed of the origin orbit at time t.

    With s/2 the signed H distance from W0 to the foot of W_t on the ray
    Im W = Im W0: v_o = |s|/2, pi_t = tanh(s/2) (below 1 even where it
    rounds to 1), v_T the H distance from W_t to that foot, and v the H
    distance from W0 to W_t.
    """
    if t == 0.0:
        return SpeedSample(0.0, 0.0, 0.0, 0.0, 0.0)
    p0, p_t = _origin_orbit_h(m, t)
    s, v_T = _h_foot(p0, p_t)
    return SpeedSample(t, _h_distance(p0, p_t), 0.5 * abs(s), v_T, min(math.tanh(0.5 * s), _PREV_ONE))


def _geodesic_to_one(z: complex):
    """The geodesic through z with one endpoint at the boundary point 1."""
    if z.imag == 0.0:
        return Diameter(0.0)
    s = abs(z - 1.0) ** 2 / (2.0 * z.imag)
    return OrthoCircle(complex(1.0, s), abs(s))


def generalized_speed(m: SemigroupModel, z: complex, t: float) -> float:
    """Orthogonal speed seeded at z: rho(z, projection of phi_t(z) onto the
    geodesic through z ending at 1."""
    z = require_disk_point(z)
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    strip = _symmetric_strip(m)
    if strip is not None:
        # Half-plane picture: the base point sits on the ray arg = theta at
        # radius R, the geodesic to the Denjoy-Wolff point is the vertical
        # line Re = R cos(theta), and projecting the orbit point onto it is
        # explicit.  Exact for every t, no disk-coordinate saturation.
        w = map_forward(m.koenigs, z)
        width = strip.y_high - strip.y_low
        theta = math.pi * (w.imag - strip.y_low) / width
        s = math.pi * t / width
        c2 = math.cos(theta) ** 2
        log_height_ratio = s + 0.5 * math.log1p(c2 * math.exp(-2.0 * s) - 2.0 * c2 * math.exp(-s))
        return 0.5 * (log_height_ratio - math.log(math.sin(theta)))
    phi = orbit(m, z, t)
    p = project_to_geodesic(phi, _geodesic_to_one(z))
    return disk_distance(z, p)


def log_one_minus_pi_sq(m: SemigroupModel, t: float) -> float:
    """log(1 - pi_t^2) = -2 log cosh(v_o), stable even where pi_t rounds to 1."""
    if t == 0.0:
        return 0.0
    v_o = 0.5 * abs(_h_foot(*_origin_orbit_h(m, t))[0])
    # cosh v = 1 + 2 sinh(v/2)^2 near 0, and e^v (1 + e^(-2v))/2 beyond
    if v_o < 1.0:
        return -2.0 * math.log1p(2.0 * math.sinh(0.5 * v_o) ** 2)
    return 2.0 * (math.log(2.0) - v_o - math.log1p(math.exp(-2.0 * v_o)))


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


def monotonicity_scan(
    m: SemigroupModel,
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
    grid = [float(t) for t in t_grid]
    if any(b <= a for a, b in zip(grid[:-1], grid[1:])):
        raise ParameterError("scan grid must be strictly increasing")
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

    @property
    def min_diff(self) -> float:
        return min(r.diff for r in self.rows)


def theorem4_scan(m: SemigroupModel, m_tilde: SemigroupModel, t_grid, tail_fraction: float = 0.5) -> NestedSpeedReport:
    """Compare orthogonal speeds of nested models: rows of v_o - v_o_tilde and
    the squared-gap ratio (1 - pi_tilde^2)/(1 - pi^2), with tail minima.

    Raises DomainError unless the first Koenigs domain lies inside the second,
    which ``includes`` decides exactly before scanning.
    """
    d, d_tilde = m.koenigs.domain, m_tilde.koenigs.domain
    if not includes(d, d_tilde):
        raise DomainError(f"inclusion check failed: {d} is not contained in {d_tilde}")
    report = NestedSpeedReport()
    grid = [float(t) for t in t_grid]
    for t in grid:
        v = speeds(m, t).v_o
        v_t = speeds(m_tilde, t).v_o
        log_gap = log_one_minus_pi_sq(m, t)
        log_gap_t = log_one_minus_pi_sq(m_tilde, t)
        arg = log_gap_t - log_gap
        ratio = math.inf if arg > 700.0 else math.exp(arg)
        report.rows.append(NestedSpeedRow(t=t, v_o=v, v_o_tilde=v_t, diff=v - v_t, ratio=ratio))
    tail = report.rows[int(len(report.rows) * tail_fraction):] or report.rows
    report.tail_min_diff = min(r.diff for r in tail)
    report.tail_min_ratio = min(r.ratio for r in tail)
    return report


# ---------------------------------------------------------------------------
# Slit-plane comparisons (evidence that the total speed can dip)

_SLIT_LEFT_IMAGE = slit_sqrt_forward(-1.0)  # 2^(1/4) exp(3 pi i/8)
_SLIT_RIGHT_IMAGE = slit_sqrt_forward(1.0)  # 2^(1/4) exp(pi i/8)


def _slit_gap(z: complex) -> float:
    """rho(z, -1) - rho(z, 1) in the canonical slit plane, via the half-plane."""
    w = slit_sqrt_forward(z)
    return region_distance(RIGHT_HALF_PLANE, w, _SLIT_LEFT_IMAGE) - region_distance(
        RIGHT_HALF_PLANE, w, _SLIT_RIGHT_IMAGE
    )


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
    if R <= 1.0:
        raise ParameterError(f"need R > 1, got {R}")
    if n_samples < 2:
        raise ParameterError(f"need at least 2 samples on the arc, got {n_samples}")
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
    grid = [float(a) for a in a0_grid]
    if not grid:
        raise ParameterError("empty a0 grid")
    if min(grid) <= R:
        raise ParameterError("all grid points must exceed R")
    curve = tuple((a0, _slit_gap(complex(-a0))) for a0 in grid)
    a_best, d_best = max(curve, key=lambda row: row[1])
    return DipResult(a0=a_best, dip=d_best, curve=curve)


def speed_difference_identity(pi: float, pi_tilde: float) -> float:
    """(1/2) log[(1 - pt^2)/(1 - p^2) * ((1+p)/(1+pt))^2] for p, pt in (0,1).

    Algebraically equal to v_o(p) - v_o(pt) with v_o(x) = (1/2) log((1+x)/(1-x)).
    """
    if not (0.0 < pi < 1.0 and 0.0 < pi_tilde < 1.0):
        raise DomainError("arguments must lie in (0, 1)")
    ratio = ((1.0 - pi_tilde * pi_tilde) / (1.0 - pi * pi)) * ((1.0 + pi) / (1.0 + pi_tilde)) ** 2
    return 0.5 * math.log(ratio)

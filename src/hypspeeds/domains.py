"""Descriptors for Koenigs domains convex in the positive direction.

Four variants: horizontal half-planes, horizontal strips, the staircase
chain of growing rectangles, and planes slit along leftward half-lines.
Every descriptor answers membership and exact Euclidean distance to its
boundary; all are convex in the positive direction (z in the domain implies
z + t in the domain for t >= 0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .errors import ConstructionError, DomainError, UnsupportedDomainError

RECT_MAX_STAGE = 6  # 2^(2^6) = 2^64 is the largest junction coordinate kept exact


def stage_abscissa(n: int) -> float:
    """Junction abscissa t_n = 2^(2^n); exact in binary floating point."""
    return math.ldexp(1.0, 1 << n)


def stage_exponent(n: int) -> float:
    """Half-height exponent of stage n: 1/2 for odd n, 1/3 for even n >= 1."""
    return 0.5 if n % 2 == 1 else 1.0 / 3.0


def stage_height(n: int) -> float:
    """Half-height of stage n's rectangle: t_n^(1/2) (odd) or t_n^(1/3) (even)."""
    if n == 0:
        return 1.0
    return 2.0 ** ((1 << n) * stage_exponent(n))


@dataclass(frozen=True)
class HalfPlaneDom:
    """Horizontal half-plane {Im z > h} ("above") or {Im z < h} ("below")."""

    boundary_height: float
    side: str = "above"

    def __post_init__(self):
        if self.side not in ("above", "below"):
            raise ConstructionError(f"side must be 'above' or 'below', got {self.side!r}")
        if not math.isfinite(self.boundary_height):
            raise ConstructionError("boundary_height must be finite")


@dataclass(frozen=True)
class StripDom:
    """Horizontal strip {y_low < Im z < y_high} containing the real axis."""

    y_low: float
    y_high: float

    def __post_init__(self):
        if not (-math.inf < self.y_low < 0.0 < self.y_high < math.inf):
            raise ConstructionError(f"need finite y_low < 0 < y_high, got ({self.y_low}, {self.y_high})")


@dataclass(frozen=True)
class RectangleChain:
    """Staircase union of rectangles R_0, ..., R_{n_max}.

    R_0 = {-1 < Im < 1, Re < 2} and R_n = (t_{n-1}, t_n) x (-h_n, h_n) with
    t_n = 2^(2^n) and h_n = t_n^(1/2) for odd n, t_n^(1/3) for even n.  The
    set is the interior of the union of closures; queries are restricted to
    Re z < t_{n_max}.
    """

    n_max: int

    def __post_init__(self):
        if not 1 <= self.n_max <= RECT_MAX_STAGE:
            raise ConstructionError(f"n_max must lie in [1, {RECT_MAX_STAGE}], got {self.n_max}")


@dataclass(frozen=True)
class SlitPlane:
    """Plane minus leftward half-lines {Re z <= a_k, Im z = -b_k}."""

    slits: tuple[tuple[float, float], ...]

    def __post_init__(self):
        slits = tuple((float(a), float(b)) for a, b in self.slits)
        if not slits:
            raise ConstructionError("a slit plane needs at least one slit (the full plane is excluded)")
        for a, b in slits:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ConstructionError("slit parameters must be finite")
            if b <= 0.0:
                raise ConstructionError(f"slit depth must be positive, got b={b}")
        for (a0, b0), (a1, b1) in zip(slits[:-1], slits[1:]):
            if not a0 + b0 < a1 - b1:
                raise ConstructionError(
                    f"slit ordering violated: need a_k + b_k < a_k+1 - b_k+1, got ({a0},{b0}) then ({a1},{b1})"
                )
        object.__setattr__(self, "slits", slits)


DomainDescriptor = Union[HalfPlaneDom, StripDom, RectangleChain, SlitPlane]


def slit_plane(slits) -> SlitPlane:
    """Slit-plane descriptor from a sequence of (a_k, b_k) pairs."""
    return SlitPlane(tuple(tuple(s) for s in slits))


# ---------------------------------------------------------------------------
# Rectangle-chain geometry


@lru_cache(maxsize=None)
def _chain_segments(n_max: int) -> tuple[tuple[float, float, float, float], ...]:
    """Finite boundary segments (x1, y1, x2, y2) of the upper boundary.

    The final vertical step at t_{n_max} rises to the next stage height so
    distance queries left of the truncation see the true infinite boundary.
    """
    segs = []
    for n in range(1, n_max + 1):
        x_prev = stage_abscissa(n - 1)
        x_next = stage_abscissa(n)
        h_prev = stage_height(n - 1)
        h_next = stage_height(n)
        segs.append((x_prev, h_prev, x_prev, h_next))  # vertical step up
        segs.append((x_prev, h_next, x_next, h_next))  # ceiling of R_n
    x_end = stage_abscissa(n_max)
    segs.append((x_end, stage_height(n_max), x_end, stage_height(n_max + 1)))
    return tuple(segs)


def _segment_distance(px: float, py: float, x1: float, y1: float, x2: float, y2: float) -> float:
    dx, dy = x2 - x1, y2 - y1
    t = ((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy)
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def _chain_contains(d: RectangleChain, x: float, y: float) -> bool:
    if x >= stage_abscissa(d.n_max):
        raise DomainError(
            f"membership query at Re z = {x} beyond the truncation Re z < t_{d.n_max} = {stage_abscissa(d.n_max)}"
        )
    if x <= stage_abscissa(0):
        return abs(y) < 1.0
    for n in range(1, d.n_max + 1):
        if x == stage_abscissa(n - 1):
            return abs(y) < stage_height(n - 1)
        if x < stage_abscissa(n):
            return abs(y) < stage_height(n)
    raise AssertionError("unreachable")


def _ray_distance(x: float, y: float, a: float, c: float) -> float:
    """Distance from (x, y) to the leftward ray {Re <= a, Im = c}."""
    if x <= a:
        return abs(y - c)
    return math.hypot(x - a, y - c)


def _chain_boundary_distance(d: RectangleChain, x: float, y: float) -> float:
    ay, t0 = abs(y), stage_abscissa(0)
    best = min(_ray_distance(x, ay, t0, 1.0), _ray_distance(x, ay, t0, -1.0))
    for x1, y1, x2, y2 in _chain_segments(d.n_max):
        best = min(best, _segment_distance(x, ay, x1, y1, x2, y2))
        best = min(best, _segment_distance(x, ay, x1, -y1, x2, -y2))
    return best


# ---------------------------------------------------------------------------
# Public queries


def contains(d: DomainDescriptor, z: complex) -> bool:
    """True iff z is a finite point interior to the described open set."""
    z = complex(z)
    if not cmath.isfinite(z):
        return False
    if isinstance(d, (HalfPlaneDom, StripDom)):
        lo, hi = _band(d)
        return lo < z.imag < hi
    if isinstance(d, SlitPlane):
        for a, b in d.slits:
            if z.imag == -b and z.real <= a:
                return False
        return True
    if isinstance(d, RectangleChain):
        return _chain_contains(d, z.real, z.imag)
    raise ConstructionError(f"unknown descriptor {d!r}")


def _band(d: Union[HalfPlaneDom, StripDom]) -> tuple[float, float]:
    """The open interval of Im z that a half-plane or strip consists of."""
    if isinstance(d, StripDom):
        return d.y_low, d.y_high
    if d.side == "above":
        return d.boundary_height, math.inf
    return -math.inf, d.boundary_height


def includes(d: DomainDescriptor, d_tilde: DomainDescriptor) -> bool:
    """True iff d is a subset of d_tilde, decided exactly.

    Both must be kinds with a closed-form Koenigs map: half-planes and strips
    compare their intervals of Im z, and a slit plane contains d iff its slit
    misses d.  Multi-slit planes and the rectangle chain raise
    UnsupportedDomainError.
    """
    for x in (d, d_tilde):
        if not (isinstance(x, (HalfPlaneDom, StripDom)) or (isinstance(x, SlitPlane) and len(x.slits) == 1)):
            raise UnsupportedDomainError(f"no exact inclusion test for {x!r}")
    if isinstance(d_tilde, SlitPlane):
        ((a_t, b_t),) = d_tilde.slits
        if isinstance(d, SlitPlane):
            # complements: the slit of d_tilde must lie on the slit of d
            ((a, b),) = d.slits
            return b == b_t and a_t <= a
        lo, hi = _band(d)
        return not lo < -b_t < hi
    if isinstance(d, SlitPlane):
        return False
    (lo, hi), (lo_t, hi_t) = _band(d), _band(d_tilde)
    return lo_t <= lo and hi <= hi_t


def dist_to_boundary(d: DomainDescriptor, z: complex) -> float:
    """Exact Euclidean distance from an interior point to the boundary."""
    z = complex(z)
    if not contains(d, z):
        raise DomainError(f"z={z} is not inside the domain {d}")
    if isinstance(d, (HalfPlaneDom, StripDom)):
        lo, hi = _band(d)
        return min(z.imag - lo, hi - z.imag)
    if isinstance(d, SlitPlane):
        return min(_ray_distance(z.real, z.imag, a, -b) for a, b in d.slits)
    if isinstance(d, RectangleChain):
        return _chain_boundary_distance(d, z.real, z.imag)
    raise ConstructionError(f"unknown descriptor {d!r}")

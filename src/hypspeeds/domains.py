"""Descriptors for Koenigs domains convex in the positive direction.

Four variants: horizontal half-planes, horizontal strips, the staircase
chain of growing rectangles, and planes slit along leftward half-lines.
Convexity in the positive direction (z in the domain implies z + t in the
domain for t >= 0) makes each complement closed under leftward translation,
so every domain here is the plane minus a few closed leftward boxes
{Re z <= a, lo <= Im z <= hi} (_complement): a = inf for half-planes and
strips, lo = hi for a slit, and two boxes {Re z <= t_n, |Im z| >= h_n} per
staircase stage.  Membership, the exact Euclidean distance to the boundary
and inclusion are all read from those boxes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

from .errors import ConstructionError, DomainError, UnsupportedDomainError, _positive_int

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
        if not (_positive_int(self.n_max) and self.n_max <= RECT_MAX_STAGE):
            raise ConstructionError(f"n_max must be an integer in [1, {RECT_MAX_STAGE}], got {self.n_max!r}")


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
# The complement as leftward boxes


def _complement(d: DomainDescriptor) -> tuple[tuple[float, float, float], ...]:
    """The closed leftward boxes {Re z <= a, lo <= Im z <= hi} whose union is
    the complement of d; for the staircase, left of its truncation."""
    if isinstance(d, HalfPlaneDom):
        h = d.boundary_height
        return ((math.inf, -math.inf, h),) if d.side == "above" else ((math.inf, h, math.inf),)
    if isinstance(d, StripDom):
        return ((math.inf, -math.inf, d.y_low), (math.inf, d.y_high, math.inf))
    if isinstance(d, SlitPlane):
        return tuple((a, -b, -b) for a, b in d.slits)
    if isinstance(d, RectangleChain):
        stages = [(stage_abscissa(n), stage_height(n)) for n in range(d.n_max + 1)]
        return tuple(box for t, h in stages for box in ((t, -math.inf, -h), (t, h, math.inf)))
    raise ConstructionError(f"unknown descriptor {d!r}")


def _require_left_of_truncation(d: DomainDescriptor, x: float) -> None:
    if isinstance(d, RectangleChain) and x >= stage_abscissa(d.n_max):
        raise DomainError(
            f"query at Re z = {x} beyond the truncation Re z < t_{d.n_max} = {stage_abscissa(d.n_max)}"
        )


# ---------------------------------------------------------------------------
# Public queries


def contains(d: DomainDescriptor, z: complex) -> bool:
    """True iff z is a finite point interior to the described open set."""
    z = complex(z)
    if not cmath.isfinite(z):
        return False
    x, y = z.real, z.imag
    _require_left_of_truncation(d, x)
    return not any(x <= a and lo <= y <= hi for a, lo, hi in _complement(d))


def includes(d: DomainDescriptor, d_tilde: DomainDescriptor) -> bool:
    """True iff d is a subset of d_tilde, decided exactly.

    Both must be kinds with a closed-form Koenigs map: half-planes, strips and
    single-slit planes.  Then d lies in d_tilde iff each complement box of
    d_tilde lies in one complement box of d.  Multi-slit planes and the
    rectangle chain raise UnsupportedDomainError.
    """
    for x in (d, d_tilde):
        if not (isinstance(x, (HalfPlaneDom, StripDom)) or (isinstance(x, SlitPlane) and len(x.slits) == 1)):
            raise UnsupportedDomainError(f"no exact inclusion test for {x!r}")
    boxes = _complement(d)
    return all(
        any(a_t <= a and lo <= lo_t and hi_t <= hi for a, lo, hi in boxes) for a_t, lo_t, hi_t in _complement(d_tilde)
    )


def dist_to_boundary(d: DomainDescriptor, z: complex) -> float:
    """Exact Euclidean distance from an interior point to the boundary: the
    least distance to a complement box, which is 0 on or inside one."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z={z} is not inside the domain {d}")
    x, y = z.real, z.imag
    _require_left_of_truncation(d, x)
    best = math.inf
    for a, lo, hi in _complement(d):
        dy = lo - y if y < lo else (y - hi if y > hi else 0.0)
        r = dy if x <= a else math.hypot(x - a, dy)
        if r < best:
            best = r
    if best == 0.0:
        raise DomainError(f"z={z} is not inside the domain {d}")
    return best

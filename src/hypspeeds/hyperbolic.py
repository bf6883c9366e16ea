"""Hyperbolic geometry of the unit disk and of round regions.

Conventions used throughout the package: the disk density is
lambda(z) = 1/(1 - |z|^2), so rho(0, r) = atanh(r); a half-plane carries the
density 1/(2 dist(z, boundary)).  Geodesics of the disk are diameters or arcs
of circles orthogonal to the unit circle.  Points closer than ``BOUNDARY_TOL``
to a boundary are rejected rather than clamped: the metric blows up there and
silent clamping hides bugs.

``integrate_density_along`` is the package's quadrature oracle for these
densities: an adaptive Gauss-Kronrod 7-15 rule in pure Python, so this module
needs nothing beyond the standard library.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .errors import ConstructionError, DomainError, NumericError

BOUNDARY_TOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def require_disk_point(z: complex, name: str = "z") -> complex:
    """Validate that z lies strictly inside the unit disk (with tolerance)."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must be a finite point, got {z}")
    if abs(z) >= 1.0 - BOUNDARY_TOL:
        raise DomainError(f"{name}={z} is not strictly inside the unit disk")
    return z


def disk_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance in the unit disk: (1/2) log((1+|T|)/(1-|T|)).

    T = (z - w)/(1 - z conj(w)) is the standard automorphism invariant.
    """
    z = require_disk_point(z, "z")
    w = require_disk_point(w, "w")
    # quotient of moduli rather than modulus of the quotient: the two
    # denominators for (z, w) and (w, z) are conjugates, so this form is
    # exactly symmetric in floating point
    t = abs(z - w) / abs(1.0 - z * w.conjugate())
    if t >= 1.0:
        raise DomainError("points too close to the boundary to resolve")
    return math.atanh(t)


# ---------------------------------------------------------------------------
# Moebius maps


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (a z + b)/(c z + d) with ad - bc != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if scale == 0.0 or abs(self.a * self.d - self.b * self.c) <= 1e-14 * scale * scale:
            raise ConstructionError("degenerate Moebius map: ad - bc ~ 0")

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)


#: Cayley map of the disk onto the right half-plane, 0 -> 1.
CAYLEY = MoebiusMap(1.0, 1.0, -1.0, 1.0)


def apply_mobius(m: MoebiusMap, z: complex) -> complex:
    """Evaluate m at a finite point z; DomainError at the pole of m."""
    if not cmath.isfinite(z):
        raise DomainError(f"z={z} must be a finite point")
    den = m.c * z + m.d
    if den == 0:
        raise DomainError(f"z={z} is the pole of {m}")
    return (m.a * z + m.b) / den


# ---------------------------------------------------------------------------
# Geodesics of the disk


@dataclass(frozen=True)
class Diameter:
    """The diameter {s * exp(i*angle) : -1 < s < 1}."""

    angle: float


@dataclass(frozen=True)
class OrthoCircle:
    """Arc of the circle |z - center| = radius, orthogonal to the unit circle."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ConstructionError("OrthoCircle radius must be positive")
        lhs = abs(self.center) ** 2
        rhs = 1.0 + self.radius**2
        if abs(lhs - rhs) > 1e-12 * max(1.0, rhs):
            raise ConstructionError(
                f"circle (center={self.center}, radius={self.radius}) is not orthogonal to the unit circle"
            )

    def point_at(self, u: float) -> complex:
        """Point at angle u measured from the direction opposite the center."""
        return self.center + self.radius * cmath.exp(1j * (cmath.phase(self.center) + u))

    def disk_param_range(self) -> tuple[float, float]:
        """Open parameter interval (u_lo, u_hi) of the part inside the disk."""
        a0 = math.acos(max(-1.0, min(1.0, -self.radius / abs(self.center))))
        return a0, 2.0 * math.pi - a0


GeodesicArc = Union[Diameter, OrthoCircle]


def geodesic_through(z: complex, w: complex) -> GeodesicArc:
    """The geodesic of the disk through two distinct interior points."""
    z = require_disk_point(z, "z")
    w = require_disk_point(w, "w")
    if z == w:
        raise ConstructionError("need two distinct points")
    cross = z.real * w.imag - z.imag * w.real
    if abs(cross) <= 1e-15 * max(abs(z) * abs(w), 1e-30):
        anchor = z if abs(z) >= abs(w) else w
        if anchor == 0:
            raise ConstructionError("need two distinct points")
        return Diameter(cmath.phase(anchor) % math.pi)
    az = abs(z) ** 2 + 1.0
    aw = abs(w) ** 2 + 1.0
    det = 2.0 * cross
    cx = (az * w.imag - aw * z.imag) / det
    cy = (aw * z.real - az * w.real) / det
    c = complex(cx, cy)
    r = math.sqrt(max(abs(c) ** 2 - 1.0, 0.0))
    return OrthoCircle(c, r)


def foot_on_diameter(z: complex) -> float:
    """Hyperbolic projection of z onto the real diameter (-1, 1).

    Closed form: the geodesic through z orthogonal to the reals is a circle
    with real center c = (|z|^2+1)/(2 Re z); the foot is its root inside the
    disk, sign/(|c| + sqrt(c^2-1)) with sign = sign(Re z).  Written with
    e = |c| - 1 = |z - sign|^2/(2 |Re z|) as sign/(1 + e + sqrt(e(e+2))), it
    keeps 1 - |foot| to full relative precision as z nears +-1, where
    c - sqrt(c^2-1) cancels.
    """
    z = require_disk_point(z)
    if z.imag == 0.0:
        return z.real
    if z.real == 0.0:
        return 0.0
    sign = math.copysign(1.0, z.real)
    e = abs(z - sign) ** 2 / (2.0 * abs(z.real))
    return sign / (1.0 + e + math.sqrt(e * (e + 2.0)))


def _golden_min(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-13) -> float:
    """Golden-section minimizer for a strictly quasi-convex objective."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def project_to_geodesic(z: complex, g: GeodesicArc) -> complex:
    """Point of g with least hyperbolic distance from z.

    Diameters use the closed-form foot; arcs are bracketed on a 64-point
    angular grid and refined by golden section (the restricted distance is
    strictly quasi-convex, so bracketing is safe).
    """
    z = require_disk_point(z)
    if isinstance(g, Diameter):
        rot = cmath.exp(1j * g.angle)
        return rot * foot_on_diameter(z / rot)
    if abs(abs(z - g.center) - g.radius) <= 1e-13:
        return z

    u_lo, u_hi = g.disk_param_range()
    margin = 1e-12 * (u_hi - u_lo)
    u_lo += margin
    u_hi -= margin

    def objective(u: float) -> float:
        p = g.point_at(u)
        if abs(p) >= 1.0 - BOUNDARY_TOL:
            return math.inf
        try:
            return disk_distance(z, p)
        except DomainError:
            # both points jammed against the boundary: unresolvable, so "far"
            return math.inf


    n_grid = 64
    us = [u_lo + (u_hi - u_lo) * k / (n_grid - 1) for k in range(n_grid)]
    vals = [objective(u) for u in us]
    i_min = min(range(n_grid), key=vals.__getitem__)
    lo = us[i_min - 1] if i_min > 0 else u_lo
    hi = us[i_min + 1] if i_min < n_grid - 1 else u_hi
    u_star = _golden_min(objective, lo, hi)
    return g.point_at(u_star)


# ---------------------------------------------------------------------------
# Round regions: disks and half-planes


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ConstructionError("Disk radius must be positive")


@dataclass(frozen=True)
class HalfPlane:
    """Open half-plane given by a boundary point and the unit inward normal."""

    boundary_point: complex
    inward_normal: complex

    def __post_init__(self):
        if abs(abs(self.inward_normal) - 1.0) > 1e-14:
            raise ConstructionError("inward_normal must have unit modulus")


RoundRegion = Union[Disk, HalfPlane]

UNIT_DISK = Disk(0j, 1.0)
RIGHT_HALF_PLANE = HalfPlane(0j, 1.0 + 0j)


def region_density(region: RoundRegion, z: complex) -> float:
    """Hyperbolic density of a disk or half-plane at z.

    Half-planes: 1/(2 dist(z, boundary)).  Disks: the Moebius pullback of the
    unit-disk density, R/(R^2 - |z - c|^2).
    """
    z = complex(z)
    if isinstance(region, HalfPlane):
        # signed distance to the boundary line, positive inside
        gap = ((z - region.boundary_point) * region.inward_normal.conjugate()).real
        scale = 1.0
    else:
        rho = abs(z - region.center)
        gap = region.radius - rho
        scale = region.radius
    if gap <= BOUNDARY_TOL * max(scale, abs(z)):
        raise DomainError(f"z={z} is not interior to {region}")
    if isinstance(region, HalfPlane):
        return 1.0 / (2.0 * gap)
    return region.radius / (region.radius**2 - rho * rho)


def region_distance(region: RoundRegion, z: complex, w: complex) -> float:
    """Hyperbolic distance in a disk or half-plane via the sinh^2 identity.

    Inverts sinh^2(rho) = |z - w|^2 lambda(z) lambda(w), which holds exactly
    in any disk or half-plane.
    """
    lam_z = region_density(region, z)
    lam_w = region_density(region, w)
    s2 = abs(z - w) ** 2 * lam_z * lam_w
    return math.asinh(math.sqrt(s2))


def density_of(region: RoundRegion) -> Callable[[complex], float]:
    """Density of `region` as a single-argument callable."""

    def lam(z: complex) -> float:
        return region_density(region, z)

    return lam


# QUADPACK qk15: the 15 Kronrod abscissae on [-1, 1] (the positive ones in
# descending order, then the centre) with their weights, and the weights of
# the embedded 7-point Gauss rule, whose nodes are _XGK[1], _XGK[3], _XGK[5]
# and the centre.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_QUAD_LIMIT = 200  # most subintervals one polyline segment may be cut into
#: Absolute tolerance of ``integrate_density_along``, read at each call.
QUAD_TOL = 1e-10


def _kronrod15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod 15-point integral of f over [a, b] and its distance |K - G|
    from the embedded Gauss 7-point value."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f_c = f(centre)
    k = _WGK[7] * f_c
    g = _WG[3] * f_c
    for j in range(7):
        dx = half * _XGK[j]
        pair = f(centre - dx) + f(centre + dx)
        k += _WGK[j] * pair
        if j % 2:
            g += _WG[j // 2] * pair
    return k * half, abs(k - g) * half


def _adaptive_kronrod(f: Callable[[float], float], tol: float) -> float:
    """Integral of f over [0, 1]: bisect each piece until its |K - G| is
    within its share (by length) of tol, in at most _QUAD_LIMIT pieces."""
    parts = []
    todo = [(0.0, 1.0)]
    pieces = 1
    while todo:
        a, b = todo.pop()
        val, err = _kronrod15(f, a, b)
        if err <= tol * (b - a):
            parts.append(val)
            continue
        pieces += 1
        if pieces > _QUAD_LIMIT:
            raise NumericError(f"quadrature needs more than {_QUAD_LIMIT} subintervals for tol={tol:g}")
        mid = 0.5 * (a + b)
        todo += [(mid, b), (a, mid)]
    return math.fsum(parts)


def integrate_density_along(path: Sequence[complex], density: Callable[[complex], float]) -> float:
    """Adaptive quadrature of a conformal density along a polyline.

    Each segment gets a share QUAD_TOL/(number of segments) of the absolute
    tolerance and is integrated with an adaptive Gauss-Kronrod 7-15 rule
    (QUADPACK qk15) in at most 200 subintervals; ``NumericError`` when that
    budget runs out.  The density is evaluated at every vertex first, so a
    vertex on the boundary raises the density's ``DomainError`` even though
    no Gauss-Kronrod node is an endpoint.  A study of the quadrature error
    sets the module constant ``QUAD_TOL`` = 1e-10, read at each call.
    """
    pts = [complex(p) for p in path]
    if len(pts) < 2:
        return 0.0
    for p in pts:
        density(p)
    total = 0.0
    seg_tol = QUAD_TOL / max(1, len(pts) - 1)
    for p, q in zip(pts[:-1], pts[1:]):
        if p == q:
            continue
        step = q - p
        speed = abs(step)

        def integrand(t: float, p=p, step=step, speed=speed) -> float:
            return density(p + t * step) * speed

        total += _adaptive_kronrod(integrand, seg_tol)
    return total

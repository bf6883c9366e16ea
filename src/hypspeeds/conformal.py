"""Closed-form normalized Riemann maps onto the supported Koenigs domains.

Every supported domain has an explicit conformal map ``to_h`` onto the right
half-plane H = {Re W > 0} that sends the prime end reached by the positive
real axis to infinity, with an explicit inverse ``from_h``.  The normalized
Koenigs map is then exactly h = from_h o M, where the Moebius map

    M(z) = i Im W0 + Re W0 (1 + z)/(1 - z),    W0 = to_h(0),

sends 0 to W0 and the boundary point 1 to infinity.  Nothing is estimated
and no inverse is refined iteratively.

A point of H is carried as (log|W|, W/|W|): on a strip W overflows long
before the orbit ends, and a single complex log W would cost the digits of
Re W near the imaginary axis.  Domain distances are distances of H, so they
never pass through the disk, where far orbit points crowd against the unit
circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .domains import DomainDescriptor, HalfPlaneDom, SlitPlane, StripDom, contains, dist_to_boundary
from .errors import ConstructionError, DomainError, UnsupportedDomainError
from .hyperbolic import BOUNDARY_TOL

#: A point W of H as (log|W|, W/|W|).
HPoint = tuple[float, complex]


def slit_sqrt_forward(z: complex) -> complex:
    """Branch of sqrt(z + i) with positive real part, cut along the slit.

    Maps the plane minus {Re z <= 0, Im z = -1} onto H.  Evaluation within
    1e-12 of the cut is rejected, branch flips being the dominant bug class.
    """
    u = complex(z) + 1j
    if u.real <= 0.0 and abs(u.imag) <= 1e-12 * max(1.0, abs(u.real)):
        raise DomainError(f"z={z} lies on (or within 1e-12 of) the slit")
    return cmath.sqrt(u)


def _polar(big_w: complex) -> HPoint:
    r = abs(big_w)
    return math.log(r), big_w / r


@dataclass(frozen=True)
class KoenigsMap:
    """Normalized Riemann map h = from_h o M: disk -> domain, h(0) = 0, h(1) = P_inf.

    ``dlog(L)`` is |d from_h / d log W| at log|W| = L, the stretch that
    ``pullback_density`` divides by.
    """

    domain: DomainDescriptor
    to_h: Callable[[complex], HPoint]
    from_h: Callable[[float, complex], complex]
    dlog: Callable[[float], float]
    w0: complex


def _half_plane_maps(d: HalfPlaneDom):
    # {Im w > c} or {Im w < c}: shift the boundary line to the real axis, then turn by a quarter
    rot = 1j if d.side == "above" else -1j
    shift = 1j * d.boundary_height
    return (
        lambda w: _polar((w - shift) / rot),
        lambda L, u: rot * math.exp(L) * u + shift,
        math.exp,
    )


def _strip_maps(d: StripDom):
    # W = -i exp(pi (w - i y_low)/width): log|W| is linear in Re w, arg W in Im w
    width = d.y_high - d.y_low
    mid = 0.5 * (d.y_low + d.y_high)
    scale = width / math.pi
    return (
        lambda w: (math.pi * w.real / width, cmath.rect(1.0, math.pi * (w.imag - mid) / width)),
        lambda L, u: complex(scale * L, scale * cmath.phase(u) + mid),
        lambda L: scale,
    )


def _slit_maps(d: SlitPlane):
    # plane minus {Re w <= a0, Im w = -b0}: W = sqrt((w - a0)/b0 + i)
    ((a0, b0),) = d.slits
    return (
        lambda w: _polar(slit_sqrt_forward((w - a0) / b0)),
        lambda L, u: b0 * (math.exp(2.0 * L) * u * u - 1j) + a0,
        lambda L: 2.0 * b0 * math.exp(2.0 * L),
    )


def build_koenigs(d: DomainDescriptor) -> KoenigsMap:
    """Normalized Riemann map for a supported descriptor.

    Supported: horizontal half-planes, strips, and single-slit planes.
    """
    if not contains(d, 0):
        raise ConstructionError("the Koenigs domain must contain 0")
    if isinstance(d, HalfPlaneDom):
        maps = _half_plane_maps(d)
    elif isinstance(d, StripDom):
        maps = _strip_maps(d)
    elif isinstance(d, SlitPlane) and len(d.slits) == 1:
        maps = _slit_maps(d)
    elif isinstance(d, SlitPlane):
        raise UnsupportedDomainError(
            "no explicit Riemann map for multi-slit planes; only the single-slit base case is supported"
        )
    else:
        raise UnsupportedDomainError(
            f"no explicit Riemann map for {type(d).__name__}; distances there are bounded via quasihyperbolic estimates"
        )
    to_h, from_h, dlog = maps
    log_r, u = to_h(0j)
    return KoenigsMap(domain=d, to_h=to_h, from_h=from_h, dlog=dlog, w0=math.exp(log_r) * u)


def map_forward(k: KoenigsMap, z: complex) -> complex:
    """Evaluate h(z) for z strictly inside the disk."""
    z = complex(z)
    if abs(z) >= 1.0 - BOUNDARY_TOL:
        raise DomainError(f"z={z} too close to the unit circle")
    big_w = 1j * k.w0.imag + k.w0.real * (1.0 + z) / (1.0 - z)
    return k.from_h(*_polar(big_w))


def _checked_to_h(k: KoenigsMap, w: complex) -> HPoint:
    w = complex(w)
    if not contains(k.domain, w):
        raise DomainError(f"w={w} is not in the Koenigs domain")
    if dist_to_boundary(k.domain, w) < 1e-12:
        raise DomainError(f"w={w} within 1e-12 of the domain boundary")
    return k.to_h(w)


def map_inverse(k: KoenigsMap, w: complex) -> complex:
    """Evaluate h^{-1}(w) = M^{-1}(to_h(w)) in closed form.

    Far along the orbit the result may round onto the unit circle; it is
    returned as is, since the domain-side distances do not need it.
    """
    log_r, u = _checked_to_h(k, w)
    # M^{-1}(W) = (W - W0)/(W + conj W0), both terms scaled by 1/max(|W|, 1) so exp cannot overflow
    top = max(log_r, 0.0)
    s = math.exp(-top)
    big_w = math.exp(log_r - top) * u
    return (big_w - s * k.w0) / (big_w + s * k.w0.conjugate())


def _h_distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance of H (density 1/(2 Re W)) between two points."""
    (l1, u1), (l2, u2) = (p, q) if p[0] >= q[0] else (q, p)
    d = 0.5 * (l1 - l2)
    if d > 20.0:
        # asinh(y) = log(2y) + O(y^-2), and y > e^20 / 2 here
        return d + math.log(abs(u1 - math.exp(-2.0 * d) * u2)) - 0.5 * (math.log(u1.real) + math.log(u2.real))
    # sinh(rho) = |W1 - W2| / (2 sqrt(Re W1 Re W2)), divided through by sqrt(|W1| |W2|)
    chord = abs(math.sinh(d) * (u1 + u2) + math.cosh(d) * (u1 - u2))
    return math.asinh(chord / (2.0 * math.sqrt(u1.real * u2.real)))


def _h_foot(p: HPoint, q: HPoint) -> tuple[float, float]:
    """Foot of q on the geodesic of H from p to infinity, the ray Im W = Im W_p.

    Returns ``(s, tangential)``.  The foot is i Im W_p + e^s Re W_p, so it lies
    at signed distance s/2 from p along the ray, and ``tangential`` is the
    distance from q to the foot.
    """
    (lp, up), (lq, uq) = p, q
    # |W_q - i Im W_p| = |W_q| |u_q - i beta|, with beta = Im W_p / |W_q|
    beta = math.exp(lp - lq) * up.imag
    s = lq + 0.5 * math.log1p(beta * (beta - 2.0 * uq.imag)) - lp - math.log(up.real)
    return s, 0.5 * math.asinh(abs(uq.imag - beta) / uq.real)


def domain_distance(k: KoenigsMap, w1: complex, w2: complex) -> float:
    """Hyperbolic distance of the domain, evaluated in H."""
    return _h_distance(_checked_to_h(k, w1), _checked_to_h(k, w2))


def axis_distance(k: KoenigsMap, x1: float, x2: float) -> float:
    """rho_Omega(x1, x2) for real axis points, stable for large separations."""
    return domain_distance(k, complex(x1), complex(x2))


def pullback_density(k: KoenigsMap, w: complex) -> float:
    """Hyperbolic density of the domain at w: 1/(2 Re W |dw/dW|)."""
    log_r, u = _checked_to_h(k, w)
    return 1.0 / (2.0 * u.real * k.dlog(log_r))

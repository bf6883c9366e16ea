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
import sys
from dataclasses import dataclass
from typing import Callable

from .domains import DomainDescriptor, HalfPlaneDom, SlitPlane, StripDom, contains
from .errors import ConstructionError, DomainError, NumericError, UnsupportedDomainError

#: A point W of H as (log|W|, W/|W|).
HPoint = tuple[float, complex]


def slit_sqrt_forward(z: complex) -> complex:
    """Branch of sqrt(z + i) with positive real part, cut along the slit.

    Maps the plane minus {Re z <= 0, Im z = -1} onto H.  Evaluation within
    1e-12 of the cut, in absolute terms, is rejected, branch flips being the
    dominant bug class.
    """
    u = complex(z) + 1j
    if u.real <= 0.0 and abs(u.imag) <= 1e-12:
        raise DomainError(f"z={z} lies on (or within 1e-12 of) the slit")
    return cmath.sqrt(u)


def _polar(big_w: complex) -> HPoint:
    r = abs(big_w)
    return math.log(r), big_w / r


@dataclass(frozen=True)
class KoenigsMap:
    """Normalized Riemann map h = from_h o M: disk -> domain, h(0) = 0, h(1) = P_inf.

    ``advance(z, t)``, the one way from the disk into H, is ``(q, ell, kappa)``:
    the H point q of h(z) + t, with ell = log(Re W_q / Re W_p) and
    kappa = Im(W_q - W_p) / Re W_q for W_p = M(z), both formed from the exact
    step before any rounding to log-polar form, so that
    W_q - i Im W_p = Re W_q (1 + i kappa) carries every digit at every t.  Each
    kind's ``step(W0, offset, t)`` starts from the complex W0 = to_h(0) and the
    offset M(z) - W0 = 2 Re W0 z/(1 - z), exactly 0 at the origin.
    NumericError, for every caller, where q overflows H or Re W_q/|W_q| is 0
    or subnormal.  ``velocity(q)`` is dW/dw at q in units of |W|, finite
    wherever q is: the t-derivative of W along ``advance``.
    """

    domain: DomainDescriptor
    to_h: Callable[[complex], HPoint]
    from_h: Callable[[float, complex], complex]
    velocity: Callable[[HPoint], complex]
    step: Callable[[complex, complex, float], tuple[HPoint, float, float]]
    w0: complex

    def advance(self, z: complex, t: float) -> tuple[HPoint, float, float]:
        q, ell, kappa = self.step(self.w0, 2.0 * self.w0.real * z / (1.0 - z), t)
        # 2^-1022 is the smallest normal float: a subnormal Re u_q has lost digits, and a zero one divides by 0
        if not (all(map(math.isfinite, (q[0], ell, kappa))) and q[1].real >= 2.0**-1022):
            raise NumericError(f"the orbit point at t={t} overflows H or rounds onto its boundary")
        return q, ell, kappa


def _half_plane_maps(d: HalfPlaneDom):
    # {Im w > c} or {Im w < c}: shift the boundary line to the real axis, then turn by a quarter
    rot = 1j if d.side == "above" else -1j
    shift = 1j * d.boundary_height

    def step(w0: complex, off: complex, t: float):
        big_w, dw = w0 + off, t / rot  # W_q = W_p + t/rot keeps Re W_q = Re W_p
        return _polar(big_w + dw), 0.0, dw.imag / big_w.real

    return (
        lambda w: _polar((w - shift) / rot),
        lambda L, u: rot * math.exp(L) * u + shift,
        lambda p: math.exp(-p[0]) * rot.conjugate(),  # dW/dw = 1/rot
        step,
        -shift / rot,
    )


def _strip_maps(d: StripDom):
    # W = -i exp(pi (w - i y_low)/width): log|W| is linear in Re w, arg W in Im w
    width = d.y_high - d.y_low
    mid = 0.5 * (d.y_low + d.y_high)
    scale = width / math.pi

    def step(w0: complex, off: complex, t: float):
        c, (log_r, u) = math.pi * t / width, _polar(w0 + off)  # W_q = e^c W_p
        return (log_r + c, u), c, -math.expm1(-c) * u.imag / u.real

    return (
        lambda w: (math.pi * w.real / width, cmath.rect(1.0, math.pi * (w.imag - mid) / width)),
        lambda L, u: complex(scale * L, scale * cmath.phase(u) + mid),
        lambda p: p[1] / scale,  # dW/dw = W pi/width
        step,
        cmath.rect(1.0, -math.pi * mid / width),
    )


def _slit_maps(d: SlitPlane):
    # plane minus {Re w <= a0, Im w = -b0}: W = sqrt((w - a0)/b0 + i)
    ((a0, b0),) = d.slits
    log_2b0 = math.log(2.0 * b0)

    def step(w0: complex, off: complex, t: float):
        big_w = w0 + off
        # W_q^2 = W_p^2 + t/b0 = off (W_p + W0) + (t - a0)/b0 + i: no a0/b0 to cancel at the tip t = a0
        big_wq = cmath.sqrt(off * (big_w + w0) + complex((t - a0) / b0, 1.0))
        # W_q - W_p, free of cancellation: Re W and Im W have the same signs at p and q
        dw = (t / b0) / (big_wq + big_w)
        return _polar(big_wq), math.log1p(dw.real / big_w.real), dw.imag / big_wq.real

    return (
        lambda w: _polar(slit_sqrt_forward((w - a0) / b0)),
        lambda L, u: b0 * (math.exp(2.0 * L) * u * u - 1j) + a0,
        # dW/dw = 1/(2 b0 W), and 1/u = conj(u); one exp keeps a small b0 from underflowing early
        lambda p: math.exp(-2.0 * p[0] - log_2b0) * p[1].conjugate(),
        step,
        slit_sqrt_forward(-a0 / b0),
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
    to_h, from_h, velocity, step, w0 = maps
    if not cmath.isfinite(w0):
        raise ConstructionError(f"W0 = to_h(0) is not finite for {d}: got {w0}")
    return KoenigsMap(domain=d, to_h=to_h, from_h=from_h, velocity=velocity, step=step, w0=w0)


def _h_to_disk(k: KoenigsMap, p: HPoint) -> complex:
    """M^{-1}(W) = (W - W0)/(W + conj W0)."""
    log_r, u = p
    # both terms scaled by 1/max(|W|, 1) so exp cannot overflow
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
    product = u1.real * u2.real
    if product < sys.float_info.min:
        raise NumericError(f"Re W/|W| of the two points multiply to {product:.3g}, under the normal range")
    return math.asinh(chord / (2.0 * math.sqrt(product)))

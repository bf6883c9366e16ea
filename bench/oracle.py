"""High-precision reference values for the benchmark's correctness checks.

Built on mpmath alone and kept apart from ``hypspeeds``: nothing here imports
the package, so a fault in the package cannot hide in its own reference.

Speeds are evaluated in the right half-plane H = {Re W > 0}, where the
Denjoy-Wolff point of every supported semigroup sits at infinity.  Each
Koenigs domain is mapped onto H in closed form (``to_h``/``from_h``); the
normalized Koenigs map h then corresponds to the unique disk->H Moebius map
M(z) = i Im W0 + Re W0 (1 + z)/(1 - z), which sends 0 to W0 = to_h(0) and the
boundary point 1 to infinity.  In H the geodesic from a point W to the
Denjoy-Wolff point is the horizontal ray Im = Im W, so every projection is
explicit.  Distances use the package's convention: the disk density is
1/(1 - |z|^2), so rho(0, r) = atanh(r), and H carries 1/(2 Re W).

Domains are plain tuples: ("half_plane", height, side), ("strip", y_low,
y_high) and ("slit", a0, b0) for the plane minus {Re z <= a0, Im z = -b0}.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 50

#: Relative tolerance of the speed checks.  The README records the largest
#: error measured inside it.
SPEED_RTOL = 1e-6
#: Absolute floor, for speeds that vanish exactly (v_T on a symmetric strip).
SPEED_ATOL = 1e-12

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Closed-form maps between each Koenigs domain and H


def to_h(dom: tuple, w) -> mp.mpc:
    """Image in H of the domain point w; the positive axis end goes to infinity."""
    w = mp.mpc(w)
    kind = dom[0]
    if kind == "half_plane":
        _, height, side = dom
        rot = -1j if side == "above" else 1j
        return rot * (w - 1j * mp.mpf(height))
    if kind == "strip":
        _, y_low, y_high = dom
        scale = (mp.mpf(y_high) - mp.mpf(y_low)) / mp.pi
        return -1j * mp.exp((w - 1j * mp.mpf(y_low)) / scale)
    if kind == "slit":
        _, a0, b0 = dom
        return mp.sqrt((w - mp.mpf(a0)) / mp.mpf(b0) + 1j)
    raise ValueError(f"unknown domain kind {kind!r}")


def from_h(dom: tuple, big_w) -> mp.mpc:
    """Inverse of ``to_h``."""
    big_w = mp.mpc(big_w)
    kind = dom[0]
    if kind == "half_plane":
        _, height, side = dom
        rot = 1j if side == "above" else -1j
        return rot * big_w + 1j * mp.mpf(height)
    if kind == "strip":
        _, y_low, y_high = dom
        scale = (mp.mpf(y_high) - mp.mpf(y_low)) / mp.pi
        return scale * mp.log(1j * big_w) + 1j * mp.mpf(y_low)
    if kind == "slit":
        _, a0, b0 = dom
        return mp.mpf(b0) * (big_w * big_w - 1j) + mp.mpf(a0)
    raise ValueError(f"unknown domain kind {kind!r}")


def h_distance(a, b) -> mp.mpf:
    """Hyperbolic distance in H (density 1/(2 Re W))."""
    return mp.asinh(abs(a - b) / (2 * mp.sqrt(a.real * b.real)))


def disk_distance(z, w) -> mp.mpf:
    """Hyperbolic distance in the unit disk (density 1/(1 - |z|^2))."""
    z, w = mp.mpc(z), mp.mpc(w)
    return mp.atanh(abs(z - w) / abs(1 - z * mp.conj(w)))


def _disk_to_h(dom: tuple, z) -> mp.mpc:
    w0 = to_h(dom, 0)
    z = mp.mpc(z)
    return 1j * w0.imag + w0.real * (1 + z) / (1 - z)


def _h_to_disk(dom: tuple, big_w) -> mp.mpc:
    w0 = to_h(dom, 0)
    u = (big_w - 1j * w0.imag) / w0.real
    return (u - 1) / (u + 1)


def _ray_speed(base, point) -> mp.mpf:
    """rho_H(base, foot of point on the horizontal ray through base)."""
    return abs(mp.log(abs(point - 1j * base.imag) / base.real)) / 2


# ---------------------------------------------------------------------------
# Speeds


def speeds(dom: tuple, t) -> dict:
    """v, v_o, v_T and pi_t of the origin orbit at time t, plus |z_t| and
    log(1 - pi_t^2), the latter without the cancellation of 1 - pi_t."""
    w0 = to_h(dom, 0)
    wt = to_h(dom, mp.mpf(t))
    r = abs(wt - 1j * w0.imag)
    foot = r + 1j * w0.imag
    return {
        "v": h_distance(w0, wt),
        "v_o": _ray_speed(w0, wt),
        "v_T": h_distance(wt, foot),
        "pi_t": (r - w0.real) / (r + w0.real),
        "abs_z_t": abs(_h_to_disk(dom, wt)),
        "log_one_minus_pi_sq": mp.log(4 * r * w0.real) - 2 * mp.log(r + w0.real),
    }


def generalized_speed(dom: tuple, z, t) -> mp.mpf:
    """Orthogonal speed seeded at the disk point z: rho(z, projection of
    phi_t(z) onto the geodesic from z to the Denjoy-Wolff point 1)."""
    wz = _disk_to_h(dom, z)
    wzt = to_h(dom, from_h(dom, wz) + mp.mpf(t))
    return _ray_speed(wz, wzt)


def speed_close(value: float, reference, rtol: float = SPEED_RTOL, atol: float = SPEED_ATOL) -> bool:
    """|value - reference| <= rtol |reference| + atol."""
    return abs(mp.mpf(value) - reference) <= rtol * abs(reference) + atol


# ---------------------------------------------------------------------------
# Harmonic measure


def radial_slit_hit(r) -> mp.mpf:
    """Harmonic measure at 0 of the radial slit [r, 1] in the unit disk."""
    r = mp.mpf(r)
    return 2 / mp.pi * mp.asin((1 - r) / (1 + r))


def beurling_lower_bound(abs_z) -> mp.mpf:
    """Beurling's projection bound: a continuum joining |z| = r to the unit
    circle has harmonic measure at 0 at least that of the slit [r, 1]."""
    return radial_slit_hit(abs_z)


def arctan_lower_bound(pi_t) -> mp.mpf:
    """The paper's bound (1/(2 pi)) arctan((1 - pi_t^2)/(2 pi_t)) for the
    orbit tail seen from 0."""
    pi_t = mp.mpf(pi_t)
    return mp.atan((1 - pi_t * pi_t) / (2 * pi_t)) / (2 * mp.pi)


def disk_arc_measure(z, theta1, theta2) -> mp.mpf:
    """Poisson integral of the arc [theta1, theta2] at z, by quadrature."""
    z = mp.mpc(z)
    den = 1 - abs(z) ** 2

    def kernel(theta):
        return den / abs(mp.expjpi(theta / mp.pi) - z) ** 2

    return mp.quad(kernel, [mp.mpf(theta1), mp.mpf(theta2)]) / (2 * mp.pi)


def semidisk_half_measure(t0) -> mp.mpf:
    """Harmonic measure at -i t0 of the diameter half (-1, 0] (equally
    [0, 1)) in the lower half-disk.

    The map z -> ((1 + z)/(1 - z))^2 sends the reflected half-disk onto the
    upper half-plane, the diameter onto (0, inf) and the point i t0 onto the
    unit circle, where (0, 1] is seen under the stated angle.
    """
    zeta = ((1 + 1j * mp.mpf(t0)) / (1 - 1j * mp.mpf(t0))) ** 2
    return (mp.arg(zeta - 1) - mp.arg(zeta)) / mp.pi


def within_sigma(value: float, reference, sigma: float, k: float) -> bool:
    """|value - reference| <= k sigma."""
    return abs(mp.mpf(value) - reference) <= k * mp.mpf(sigma)


def at_least(value: float, bound, sigma: float, k: float) -> bool:
    """value >= bound - k sigma."""
    return mp.mpf(value) >= bound - k * mp.mpf(sigma)


# ---------------------------------------------------------------------------
# The canonical slit plane of the dip search


def slit_gap(a0) -> mp.mpf:
    """rho(-a0, -1) - rho(-a0, 1) in the plane minus {Re z <= 0, Im z = -1}."""
    dom = ("slit", 0, 1)
    p = to_h(dom, -mp.mpf(a0))
    return h_distance(p, to_h(dom, -1)) - h_distance(p, to_h(dom, 1))

"""Quasihyperbolic distance along the real axis and two-sided metric bounds.

The axis integral int dx / dist(x, boundary) has a piecewise closed form for
every supported descriptor: the integrand is 1/c on flat stretches and
1/hypot(x - x0, h) near corners, whose antiderivative is asinh((x - x0)/h).
For conjugation-symmetric domains the real axis is a geodesic and the
segment integral equals the quasihyperbolic distance; otherwise it is an
upper bound for it.  Either way rho <= Q <= segment integral, which is what
the bound consumers rely on.

Staircase-domain stage powers and ratios are computed in log2 space so the
largest table entries (junction abscissa 2^64) stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domains import (
    DomainDescriptor,
    HalfPlaneDom,
    RectangleChain,
    SlitPlane,
    StripDom,
    _band,
    stage_abscissa,
    stage_exponent,
    stage_height,
)
from .errors import ConstructionError, DomainError


@dataclass(frozen=True)
class RhoBounds:
    """Two-sided bracket for the hyperbolic distance: lower = upper/4."""

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower < 0.0 or abs(self.lower - self.upper / 4.0) > 1e-15 * max(1.0, self.upper):
            raise ConstructionError("RhoBounds must satisfy 0 <= lower = upper/4")


def _stretch(lo: float, hi: float, h: float, x0: float | None = None) -> float:
    """int_lo^hi dx / dist over one smooth stretch, lo < hi, where dist == h,
    or dist == hypot(x - x0, h) past a corner at x0."""
    if x0 is None:
        return (hi - lo) / h
    return math.asinh((hi - x0) / h) - math.asinh((lo - x0) / h)


def axis_is_qh_geodesic(d: DomainDescriptor) -> bool:
    """True when the real axis minimizes the quasihyperbolic length
    (conjugation-symmetric descriptors)."""
    if isinstance(d, StripDom):
        return d.y_low == -d.y_high
    return isinstance(d, RectangleChain)


def _slit_pieces(d: SlitPlane, x1: float, x2: float) -> list[float]:
    cuts = {x1, x2}
    slits = d.slits
    for a, b in slits:
        if x1 < a < x2:
            cuts.add(a)
    for j in range(len(slits)):
        aj, bj = slits[j]
        for k in range(len(slits)):
            if j == k:
                continue
            ak, bk = slits[k]
            # flat stretch of slit k meeting the corner arc of slit j
            if bk > bj:
                x = aj + math.sqrt(bk * bk - bj * bj)
                if x1 < x < x2:
                    cuts.add(x)
            # two corner arcs meeting
            if aj != ak:
                x = (aj * aj + bj * bj - ak * ak - bk * bk) / (2.0 * (aj - ak))
                if x1 < x < x2:
                    cuts.add(x)
    xs = sorted(cuts)
    pieces = []
    for lo, hi in zip(xs[:-1], xs[1:]):
        mid = 0.5 * (lo + hi)
        best_k = min(range(len(slits)), key=lambda k: _one_slit_dist(slits[k], mid))
        a, b = slits[best_k]
        pieces.append(_stretch(lo, hi, b, None if mid <= a else a))
    return pieces


def _one_slit_dist(slit, x: float) -> float:
    a, b = slit
    return b if x <= a else math.hypot(x - a, b)


def _chain_pieces(d: RectangleChain, x1: float, x2: float) -> list[float]:
    if x2 > stage_abscissa(d.n_max):
        raise DomainError(
            f"axis segment reaches beyond the truncation Re z <= t_{d.n_max} = {stage_abscissa(d.n_max)}"
        )
    pieces: list[float] = []

    def clip(lo: float, hi: float, h: float, x0: float | None = None):
        lo, hi = max(lo, x1), min(hi, x2)
        if hi > lo:
            pieces.append(_stretch(lo, hi, h, x0))

    clip(min(x1, stage_abscissa(0)), stage_abscissa(0), 1.0)
    for n in range(1, d.n_max + 1):
        t_prev, t_n = stage_abscissa(n - 1), stage_abscissa(n)
        h_prev, h_n = stage_height(n - 1), stage_height(n)
        crossover = t_prev + math.sqrt(h_n * h_n - h_prev * h_prev)
        clip(t_prev, crossover, h_prev, t_prev)
        clip(crossover, t_n, h_n)
    return pieces


def _axis_pieces(d: DomainDescriptor, x1: float, x2: float) -> list[float]:
    if isinstance(d, (HalfPlaneDom, StripDom)):
        lo, hi = _band(d)
        if not lo < 0.0 < hi:
            raise DomainError("the real axis is not inside this half-plane")
        return [_stretch(x1, x2, min(-lo, hi))]
    if isinstance(d, SlitPlane):
        return _slit_pieces(d, x1, x2)
    if isinstance(d, RectangleChain):
        return _chain_pieces(d, x1, x2)
    raise ConstructionError(f"unknown descriptor {d!r}")


def quasihyperbolic_axis(d: DomainDescriptor, x1: float, x2: float) -> float:
    """Closed-form value of int_{x1}^{x2} dx / dist(x, boundary).

    Equals the quasihyperbolic distance when the axis is a geodesic
    (axis_is_qh_geodesic); otherwise upper-bounds it.
    """
    if x1 == x2:
        return 0.0
    lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
    return sum(_axis_pieces(d, lo, hi))


def rho_bounds(d: DomainDescriptor, x1: float, x2: float) -> RhoBounds:
    """Bracket (Q/4, Q) for the hyperbolic distance between real axis points."""
    q = quasihyperbolic_axis(d, x1, x2)
    return RhoBounds(lower=q / 4.0, upper=q)


# ---------------------------------------------------------------------------
# Growth table for the staircase domain


@dataclass(frozen=True)
class GrowthRow:
    """One row of the staircase growth table at exponent alpha."""

    n: int
    t_n: float
    q_total: float
    upper_ratio: float
    lower_ratio: float


DEFAULT_ALPHA = 7.0 / 12.0


def stage_gap(d: RectangleChain, n: int) -> float:
    """Q(t_{n-1}, t_n) along the axis."""
    return quasihyperbolic_axis(d, stage_abscissa(n - 1), stage_abscissa(n))


def stage_ratio(d: RectangleChain, n: int) -> float:
    """Q(t_{n-1}, t_n) / t_n^(1 - a_n), computed in log2 space."""
    gap = stage_gap(d, n)
    exponent = (1 << n) * (1.0 - stage_exponent(n))
    return 2.0 ** (math.log2(gap) - exponent)


def theorem3_table(n_lo: int = 2, n_hi: int = 6, alpha: float = DEFAULT_ALPHA) -> list[GrowthRow]:
    """Axis growth table: Q(0, t_n) against t_n^alpha for n in [n_lo, n_hi].

    Q(0, t_n) accumulates Q(0, t_0) plus the stage gaps (the integrand is
    positive, so the axis integral is additive).  upper_ratio = Q/t^alpha and
    lower_ratio = Q/(4 t^alpha) are valid proxies for the ratio rho/t^alpha
    from above and below.
    """
    if not (2 <= n_lo <= n_hi <= 6):
        raise DomainError(f"need 2 <= n_lo <= n_hi <= 6, got [{n_lo}, {n_hi}]")
    d = RectangleChain(n_hi)
    q_total = quasihyperbolic_axis(d, 0.0, stage_abscissa(0))
    rows = []
    for n in range(1, n_hi + 1):
        q_total += stage_gap(d, n)
        if n < n_lo:
            continue
        upper = 2.0 ** (math.log2(q_total) - (1 << n) * alpha)
        rows.append(
            GrowthRow(n=n, t_n=stage_abscissa(n), q_total=q_total, upper_ratio=upper, lower_ratio=upper / 4.0)
        )
    return rows

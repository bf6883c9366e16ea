"""Quasihyperbolic distance along the real axis and two-sided metric bounds.

Along the real axis, the boundary distance of every supported domain is the
least distance to its complement boxes {Re z <= a, lo <= Im z <= hi}
(domains._complement), and each box is seen from the axis as a leftward ray
(a, b) with b = max(lo, -hi) (_axis_rays): rays without a corner (a = inf)
for a half-plane or strip, the slits of a slit plane, and the stage rays
(t_n, h_n) of the staircase.  A ray is b away left of its corner and
hypot(x - a, b) past it, so the axis integral int dx / dist(x, boundary) has
a closed form piece by piece: (hi - lo)/b on flat stretches and a difference
of asinh((x - a)/b) past a corner.  For conjugation-symmetric domains (the
boxes are their own mirror images) the real axis is a geodesic and the
segment integral equals the quasihyperbolic distance; otherwise it is an
upper bound for it.  Either way rho <= Q <= segment integral, which is what
the bound consumers rely on.

Staircase-domain stage powers and ratios are computed in log2 space so the
largest table entries (junction abscissa 2^64) stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domains import DomainDescriptor, RectangleChain, _complement, dist_to_boundary, stage_abscissa, stage_exponent
from .errors import ConstructionError, DomainError, _positive_int


@dataclass(frozen=True)
class RhoBounds:
    """Two-sided bracket for the hyperbolic distance: 0 <= lower <= upper."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ConstructionError(f"RhoBounds must satisfy 0 <= lower <= upper, got {self}")


def _stretch(lo: float, hi: float, h: float, x0: float | None = None) -> float:
    """int_lo^hi dx / dist over one smooth stretch, lo < hi, where dist == h,
    or dist == hypot(x - x0, h) past a corner at x0."""
    if x0 is None:
        return (hi - lo) / h
    return math.asinh((hi - x0) / h) - math.asinh((lo - x0) / h)


def axis_is_qh_geodesic(d: DomainDescriptor) -> bool:
    """True when the real axis minimizes the quasihyperbolic length: the
    complement boxes are symmetric under conjugation."""
    boxes = _complement(d)
    return set(boxes) == {(a, -hi, -lo) for a, lo, hi in boxes}


def _axis_rays(d: DomainDescriptor) -> list[tuple[float, float]]:
    """The rays (a, b) whose least distance from each axis point is its
    boundary distance: seen from the axis, the box {Re z <= a, lo <= Im z <= hi}
    is b = max(lo, -hi) away left of a and hypot(x - a, b) past it."""
    rays = list(dict.fromkeys((a, max(lo, -hi)) for a, lo, hi in _complement(d)))
    if any(b <= 0.0 for _, b in rays):
        raise DomainError(f"the real axis is not inside the domain {d}")
    return rays


def _ray_pieces(rays: list[tuple[float, float]], x1: float, x2: float) -> list[float]:
    """int_{x1}^{x2} dx / (distance to the nearest ray), one piece per
    stretch where one ray is nearest, flat (x <= a) or past its corner.

    The nearest ray can change only at a corner a_j or where the corner arc
    of ray j meets the flat stretch of ray k, at a_j + sqrt(b_k^2 - b_j^2).
    Two corner arcs never meet: for slits ordered by a_j + b_j < a_k - b_k,
    past a_k, hypot(x - a_j, b_j) >= x - a_j > (x - a_k) + b_j + b_k >=
    hypot(x - a_k, b_k).  The staircase meets the same bound for k >= 2, and
    its stages 0 and 1 give hypot(x - 2, 1)^2 - hypot(x - 4, 2)^2 = 4x - 15 > 0
    on x > 4.
    """
    cuts = {x1, x2, *(a for a, _ in rays)}
    cuts |= {aj + math.sqrt(bk * bk - bj * bj) for aj, bj in rays for _, bk in rays if bk > bj}
    xs = sorted(x for x in cuts if x1 <= x <= x2)
    stretches = []  # [lo, hi, (nearest ray, past its corner)]
    for lo, hi in zip(xs[:-1], xs[1:]):
        mid = 0.5 * (lo + hi)
        ray = min(rays, key=lambda r: r[1] if mid <= r[0] else math.hypot(mid - r[0], r[1]))
        key = (ray, mid > ray[0])
        if stretches and stretches[-1][2] == key:
            stretches[-1][1] = hi  # a cut that changes no ray must not split an asinh difference
        else:
            stretches.append([lo, hi, key])
    return [_stretch(lo, hi, b, a if corner else None) for lo, hi, ((a, b), corner) in stretches]


def quasihyperbolic_axis(d: DomainDescriptor, x1: float, x2: float) -> float:
    """Closed-form value of int_{x1}^{x2} dx / dist(x, boundary).

    Equals the quasihyperbolic distance when the axis is a geodesic
    (axis_is_qh_geodesic); otherwise upper-bounds it.
    """
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise DomainError(f"axis endpoints must be finite, got ({x1}, {x2})")
    lo, hi = (x1, x2) if x1 < x2 else (x2, x1)
    if isinstance(d, RectangleChain) and hi > stage_abscissa(d.n_max):
        raise DomainError(
            f"axis segment reaches beyond the truncation Re z <= t_{d.n_max} = {stage_abscissa(d.n_max)}"
        )
    rays = _axis_rays(d)
    if x1 == x2:
        return 0.0
    return sum(_ray_pieces(rays, lo, hi))


def rho_bounds(d: DomainDescriptor, x1: float, x2: float) -> RhoBounds:
    """Bracket for the hyperbolic distance between real axis points.

    rho <= Q, and Koebe gives rho >= k/4 for the quasihyperbolic distance k.
    Where the axis is a quasihyperbolic geodesic k = Q; elsewhere Q only
    bounds k from above, and the lower end is j/4 with Gehring-Palka's
    j = log(1 + |x1 - x2| / min(dist(x1), dist(x2))) <= k.
    """
    q = quasihyperbolic_axis(d, x1, x2)
    if axis_is_qh_geodesic(d):
        return RhoBounds(lower=q / 4.0, upper=q)
    j = math.log1p(abs(x1 - x2) / min(dist_to_boundary(d, x1), dist_to_boundary(d, x2)))
    return RhoBounds(lower=j / 4.0, upper=q)


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
    if not (_positive_int(n_lo) and _positive_int(n_hi) and 2 <= n_lo <= n_hi <= 6):
        raise DomainError(f"need integers 2 <= n_lo <= n_hi <= 6, got [{n_lo!r}, {n_hi!r}]")
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

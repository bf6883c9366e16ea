"""Harmonic measure: disk closed forms, geodesic cuts, and first-hit Monte Carlo.

The Monte Carlo engine is walk-on-spheres: each walk repeatedly jumps to a
uniform point of the largest circle centered at the current position that
avoids both the obstacle and the unit circle, absorbing once within
``eps = ABSORB_EPS`` of either, or cut off after ``MAX_STEPS`` steps.  The
absorption layer gives an O(eps) bias, dominated by the sampling error at
the sample counts used here; a study of it sets these module constants,
which every walk reads when called.  Obstacle proximity is checked before
boundary proximity, so walks landing near the junction of the obstacle with
the boundary count as hits.  Every polyline is walked as given; an orbit
tail's comes from ``discretize_orbit_tail`` alone, within ``_TAIL_TOL`` =
1e-6 of the tail, so a straight tail is one segment.

One walk loop, ``_walk``, serves every absorbing set: the caller passes a
vectorized ``absorb(p) -> (radius, class)``.  For a polyline obstacle the
radius is ``min(d_obs, d_bnd)`` with ``d_bnd = 1 - |p|``, and the class
reads ``d_obs`` only through ``d_obs <= eps``.  The whole polyline (the
root) and each block of consecutive segments have a bounding circle
``(c, r)``, and ``|p - c| - r`` bounds the distance to the segments inside
from below.  Where the root's bound exceeds ``max(d_bnd, eps)``, the exact
distance cannot change the step: the radius is exactly ``d_bnd`` and the
obstacle does not absorb.  Elsewhere the distance d to the block of least
bound is exact, and so is the distance to each other block whose circle
bound and chord capsule are both at most d.
A block's capsule is the distance to its end-to-end chord less its sag, the
largest distance of its vertices from that chord: each of its segments lies
within the sag of the chord.

Why no skip changes a bit: points and vertices lie in the closed unit disk,
so every computed distance here is within a few ulp(2) of the true one, far
below the inflation of the radii and sags by 1e-9 relative plus 1e-14.  So
a computed circle bound or capsule is at most the computed distance to each
segment it holds, no skipped block or point holds a value the exact minimum
would take, and every estimate is the brute-force minimum's.

A step calls no transcendental function.  Each walk carries its stream
counter (``seeding``) and the jump direction exp(2 pi i u) comes from the
counter's bits: a 4096-root table and a short Taylor turn, within 4e-16 of
the exact value where ``np.exp(2j * pi * u)`` is within 8e-16, so the two
differ by at most about 1e-15.  They are not bit-equal, but every count came
out the same on every shipped config and on the benchmark's walks at seeds
1-8.  That is an observation, not a theorem: a walk can change class only
where a distance lands within about 1e-15 of a threshold such as ``eps``.

``_walk`` runs ``min(chunk, n)`` lanes, allocated once per call: a lane
whose walk ends restarts in place at the start point with the next sample,
which draws from its own stream at its own step, and a walk cut off at
``MAX_STEPS`` is counted as one more class.  Each block of segments is a
column of one packed array: an exact stage takes one ``np.take`` per slice
of at most ``_PAIR_BLOCK`` point-segment pairs, and the block bounds form a
(blocks, points) matrix filled as many pairs at a time, so however long the
obstacle and however many the walks, no temporary holds more of them.

A pass does only the array work whose result is read.  A lane holds the
pass at which its walk started, not a step count, and the cut-off reads it
only from pass ``MAX_STEPS - 1`` on.  The absorbing classes are int8, built
in place from the boundary test, and the counts add up the ended lanes alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conformal import KoenigsMap
from .errors import DomainError, NumericError, ParameterError, _positive_int
from .hyperbolic import require_disk_point
from .seeding import GAMMA, sample_streams, stream_bits
from .semigroup import orbit, speeds

TWO_PI = 2.0 * math.pi
#: Width of the absorbing layer around an obstacle and the unit circle, and
#: the most steps a walk takes before it is cut off.
ABSORB_EPS = 1e-4
MAX_STEPS = 10_000


@dataclass(frozen=True)
class ArcOnCircle:
    """Boundary arc {exp(i t): theta1 <= t <= theta2} with theta2 <= theta1 + 2 pi."""

    theta1: float
    theta2: float

    def __post_init__(self):
        if not self.theta1 < self.theta2 <= self.theta1 + TWO_PI:
            raise DomainError(f"need theta1 < theta2 <= theta1 + 2 pi, got ({self.theta1}, {self.theta2})")

    @property
    def length(self) -> float:
        return self.theta2 - self.theta1


@dataclass(frozen=True)
class HMEstimate:
    """Monte Carlo harmonic-measure value with its binomial standard error.

    ``truncated`` counts the walks still running after ``MAX_STEPS``; they are
    in ``n_samples`` but in no absorbing class.
    """

    value: float
    std_error: float
    n_samples: int
    seed: int
    truncated: int = 0

    def upper_limit(self, sigma: float) -> float:
        """Exact one-sided (Clopper-Pearson) upper limit: the p at which
        P(X <= k | n, p) = alpha, for k = value n hits of n and alpha the
        normal tail beyond ``sigma``.  It rises with k, and at 0 hits it is
        1 - alpha^(1/n).  Bisected on p until the midpoint rounds onto an end.
        ParameterError unless sigma >= 0."""
        if not sigma >= 0.0:
            raise ParameterError(f"sigma must be >= 0, got {sigma!r}")
        n = self.n_samples
        k = round(self.value * n)
        if k >= n:
            return 1.0
        alpha = 0.5 * math.erfc(sigma / math.sqrt(2.0))
        lo, hi = 0.0, 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if _binomial_cdf(k, n, mid) > alpha else (lo, mid)
        return hi


def _binomial_estimate(hits: int, n: int, seed: int, truncated: int = 0) -> HMEstimate:
    value = hits / n
    return HMEstimate(
        value=value, std_error=math.sqrt(value * (1.0 - value) / n), n_samples=n, seed=seed, truncated=truncated
    )


def _stirling_error(n: int) -> float:
    """log n! - log(sqrt(2 pi n) (n/e)^n), for n >= 1."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(TWO_PI)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _deviance(x: float, m: float) -> float:
    """x log(x/m) + m - x, summed as a series where x is near m, which the
    direct form would cancel away."""
    if abs(x - m) >= 0.1 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    total, term, j = (x - m) * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        grown = total + term / (2 * j + 1)
        if grown == total:
            return total
        total, j = grown, j + 1


def _binomial_pmf(k: int, n: int, p: float) -> float:
    """P(X = k) for X ~ Binomial(n, p), 0 <= k < n, in Loader's saddle-point
    form: every term is small, where lgamma(n + 1) alone holds ulps of n log n."""
    if k == 0:
        return math.exp(n * math.log1p(-p))
    log_c = _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
    log_c -= _deviance(k, n * p) + _deviance(n - k, n * (1.0 - p))
    return math.exp(log_c) * math.sqrt(n / (TWO_PI * k * (n - k)))


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method; it
    converges where x < (a + 1)/(a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 1 << 20):
        for coef in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
        if abs(d * c - 1.0) <= 2.0**-52:
            return fraction
    raise NumericError(f"incomplete beta fraction at x={x}, a={a}, b={b} did not converge")


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), 0 <= k < n, 0 < p < 1.

    That is the regularized incomplete beta I_(1-p)(n - k, k + 1), whose
    prefactor is p P(X = k).  Where its fraction does not converge, the
    fraction of the upper tail P(X > k) does, and this is 1 minus that."""
    head = p * _binomial_pmf(k, n, p)
    if 1.0 - p < (n - k + 1.0) / (n + 3.0):
        return head * _beta_fraction(1.0 - p, n - k, k + 1.0)
    return 1.0 - (n - k) / (k + 1.0) * head * _beta_fraction(p, k + 1.0, n - k)


# ---------------------------------------------------------------------------
# Closed forms


def disk_arc_measure(z: complex, arc: ArcOnCircle) -> float:
    """Poisson integral of the arc indicator at z: the length in turns of the
    arc's preimage under the automorphism sending 0 to z, so from 0 it is
    length/(2 pi)."""
    z = require_disk_point(z)
    if arc.length >= TWO_PI - 1e-15:
        return 1.0
    return _arc_preimage(z, arc)[1]


def geodesic_cut_measure(pi_t: float) -> tuple[ArcOnCircle, float]:
    """Measure from 0 of the boundary arc cut off toward 1 by the geodesic
    crossing the axis orthogonally at pi_t.

    That geodesic lies on the circle |z - c| = r with c = (1 + pi_t^2)/(2 pi_t)
    and r = (1 - pi_t^2)/(2 pi_t), which meets the unit circle at
    exp(+-i theta), tan theta = r: so the arc is [-theta, theta] and the value
    theta/pi = (1/pi) arctan((1 - pi_t^2)/(2 pi_t)).
    """
    if not 0.0 < pi_t < 1.0:
        raise DomainError(f"pi_t must lie in (0, 1), got {pi_t}")
    theta = math.atan2((1.0 - pi_t) * (1.0 + pi_t), 2.0 * pi_t)
    return ArcOnCircle(-theta, theta), theta / math.pi


# ---------------------------------------------------------------------------
# Monte Carlo


#: Samples per pass of ``mc_disk_arc``: its temporaries stay this long at any n.
_ARC_CHUNK = 1 << 13


def _arc_preimage(z: complex, arc: ArcOnCircle) -> tuple[float, float]:
    """Start in [0, 1] and length, in turns, of the boundary arc that
    w -> (w + z)/(1 + conj(z) w) maps onto ``arc``.

    That map's inverse sends exp(i theta) to exp(i a(theta)) with
    a(theta) = theta + 2 arg(1 - z exp(-i theta)), and the argument stays in
    (-pi/2, pi/2), so a is continuous and no endpoint wraps: a full circle
    has length 1 up to rounding.
    """

    def a(theta: float) -> float:
        return theta + 2.0 * cmath.phase(1.0 - z * cmath.exp(-1j * theta))

    start = a(arc.theta1)
    return (start / TWO_PI) % 1.0, (a(arc.theta2) - start) / TWO_PI


def _arc_runs(start: float, length: float) -> tuple[int, int, int]:
    """(low, cut, up): the draw k passes the arc's float test
    ``mod(k 2^-53 - start, 1) <= length`` exactly where k < low or cut <= k < up."""
    cut = min(math.ceil(start * 2.0**53), 1 << 53)
    ends = []
    for lo, hi in ((0, cut), (cut, 1 << 53)):
        # the test holds on a prefix of [lo, hi): bisect for its end
        while lo < hi:
            mid = (lo + hi) // 2
            u = np.asarray([mid], dtype=np.uint64) * 2.0**-53
            u -= start
            lo, hi = (mid + 1, hi) if np.mod(u, 1.0, out=u)[0] <= length else (lo, mid)
        ends.append(lo)
    return ends[0], cut, ends[1]


def mc_disk_arc(z: complex, arc: ArcOnCircle, n: int, seed: int = 0) -> HMEstimate:
    """Estimate the arc measure from z by sampling the exact exit law.

    The exit position of Brownian motion from z is the image of a uniform
    boundary point exp(2 pi i u) under the disk automorphism sending 0 to z,
    so a sample hits the arc when u lies on the arc's preimage in turns:
    ``mod(u - start, 1) <= length``, with no map applied per sample.

    For u = k 2^-53, k the draw's top 53 bits, that test reads u - start + 1
    below ``cut``, the least k with u >= start, and u - start from it on, each
    rounded monotonically in k: its hits are the runs k < low, cut <= k < up.
    ``_arc_runs`` bisects once for their ends with that float test, and the
    draws are counted against them as integers: every count is the test's.
    """
    z = require_disk_point(z)
    _check_sample_count(n)
    low, cut, up = (np.uint64(k) for k in _arc_runs(*_arc_preimage(z, arc)))
    hits = 0
    for lo in range(0, n, _ARC_CHUNK):
        keys = sample_streams(seed, np.arange(lo, min(n, lo + _ARC_CHUNK), dtype=np.uint64))
        k = stream_bits(keys + np.uint64(GAMMA)) >> np.uint64(11)
        hits += int(np.count_nonzero(k < low)) + int(np.count_nonzero(k < up)) - int(np.count_nonzero(k < cut))
    return _binomial_estimate(hits, n, seed)


class _Segments(NamedTuple):
    """Nonzero polyline segments in blocks of consecutive segments.

    ``packed`` is (4 size, blocks): column b holds block b's starts, steps,
    conjugate steps and squared lengths, and the last block repeats the last
    segment to fill it.  ``chords`` holds each block's end-to-end chord as a
    block of one segment, squared length 1 where it is 0.
    """

    packed: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    chords: np.ndarray
    sags: np.ndarray
    root_center: complex
    root_radius: float


def _inflate(reach: np.ndarray) -> np.ndarray:
    """``reach`` widened past the few ulp(2) by which a distance here is off."""
    return reach * (1.0 + 1e-9) + 1e-14


def _circles(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inflated bounding circle of each column of segment ends."""
    centers = 0.5 * (ends.real.min(0) + ends.real.max(0) + 1j * (ends.imag.min(0) + ends.imag.max(0)))
    return centers, _inflate(np.abs(ends - centers).max(axis=0))


def _polyline_segments(verts: np.ndarray) -> _Segments:
    """Blocks of ceil(sqrt(count)) segments with their circles and chords,
    built once per obstacle: the walk queries the distance at every step."""
    starts, steps = verts[:-1], np.diff(verts)
    keep = np.abs(steps) > 0.0
    if not keep.any():
        raise ParameterError("obstacle polyline has zero length")
    starts, steps = starts[keep], steps[keep]
    count = starts.size
    size = math.isqrt(count - 1) + 1
    blocks = -(-count // size)
    take = np.minimum(np.arange(blocks * size), count - 1).reshape(blocks, size).T
    starts, steps = starts[take], steps[take]
    ends = np.concatenate([starts, starts + steps])
    chord = ends[-1] - starts[0]
    norm2 = np.abs(chord) ** 2
    chords = np.stack([starts[0], chord, np.conj(chord), np.where(norm2 > 0.0, norm2, 1.0)])
    sags = _inflate(_exact(ends, *chords).max(axis=0))
    (root_center,), (root_radius,) = _circles(ends.reshape(-1, 1))
    packed = np.concatenate([starts, steps, np.conj(steps), np.abs(steps) ** 2])
    return _Segments(packed, *_circles(ends), chords, sags, root_center, root_radius)


#: Most point-segment pairs in one temporary of ``_dist_to_segments``, and
#: most point-block pairs in one pass of its block bounds.
_PAIR_BLOCK = 1 << 13


def _exact(p: np.ndarray, starts, steps, conj_steps, norm2) -> np.ndarray:
    """Distance from p to each segment over broadcast shapes; ``norm2`` is read as its real part."""
    rel = p - starts
    buf = rel * conj_steps
    # in place: fewer large temporaries per step, the same arithmetic
    t = buf.real / norm2.real
    np.clip(t, 0.0, 1.0, out=t)
    rel -= np.multiply(t, steps, out=buf)
    return np.abs(rel)


def _pair_min(q: np.ndarray, blocks: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Distance from each point q[k] to the nearest segment of packed block blocks[k]."""
    size = packed.shape[0] // 4
    cols = max(1, _PAIR_BLOCK // size)
    out = np.empty(q.size)
    for lo in range(0, q.size, cols):
        # every index is a block number: "clip" only skips the bounds check
        block = np.take(packed, blocks[lo : lo + cols], axis=1, mode="clip").reshape(4, size, -1)
        _exact(q[lo : lo + cols], *block).min(axis=0, out=out[lo : lo + cols])
    return out


def _dist_to_segments(p: np.ndarray, segments: _Segments, cap=np.inf) -> np.ndarray:
    """Distance from each point to the nearest segment, the minimum over all
    segments bit for bit, where the root bound is at most ``cap``; elsewhere
    that bound, which exceeds ``cap`` (see the module docstring)."""
    cap = np.broadcast_to(cap, p.shape)
    out = np.abs(p - segments.root_center)
    out -= segments.root_radius
    todo = np.flatnonzero(out <= cap)
    q = p[todo]
    centers = segments.centers[:, None]
    lower = np.empty((centers.size, q.size))
    cols = max(1, _PAIR_BLOCK // centers.size)
    for lo in range(0, q.size, cols):
        np.abs(q[lo : lo + cols] - centers, out=lower[:, lo : lo + cols])
    lower -= segments.radii[:, None]
    # the last block of least bound; argmin along axis 0 is several times slower
    rows = np.arange(centers.size, dtype=np.min_scalar_type(centers.size))[:, None]
    first = ((lower == lower.min(axis=0)) * rows).max(axis=0)
    d = _pair_min(q, first, segments.packed)
    near = lower <= d
    near[first, np.arange(q.size)] = False
    blocks, points = np.divmod(np.flatnonzero(near), q.size)
    keep = _pair_min(q[points], blocks, segments.chords) - segments.sags[blocks] <= d[points]
    blocks, points = blocks[keep], points[keep]
    np.minimum.at(d, points, _pair_min(q[points], blocks, segments.packed))
    out[todo] = d
    return out


def _check_sample_count(n: int) -> None:
    """ParameterError unless n is a positive integer: a NaN n never ends a
    walk loop, and a True one reports n_samples=True."""
    if not _positive_int(n):
        raise ParameterError(f"need n > 0 samples, as an integer; got {n!r}")


def _check_walk_params(n: int, chunk: int) -> None:
    """ParameterError unless n and chunk are positive integers: a NaN chunk
    starts no walk and would report 0 +- 0."""
    _check_sample_count(n)
    if not _positive_int(chunk):
        raise ParameterError(f"chunk must be a positive integer, got {chunk!r}")


#: exp(2 pi i j / 4096) for j = 0 .. 4095: np.exp on the first quarter turn,
#: whose arguments round less than the full turn's, and exact quarter
#: rotations for the rest.
_QUARTER = np.exp(0.5j * math.pi * np.arange(1024) / 1024)
_ROOTS = np.concatenate([_QUARTER, 1j * _QUARTER, -_QUARTER, -1j * _QUARTER])
#: Of a uniform's 53 bits, the top 12 pick a root and the low 41 turn it.
_TURN_BITS = 41


def _directions(bits: np.ndarray) -> np.ndarray:
    """exp(2 pi i u) for the uniform u = (bits >> 11) 2^-53 of each word.

    The top 12 bits of the word pick a root of ``_ROOTS``, one shift.  The
    low 41 bits of u are masked where they sit, 11 bits up, and scaled by
    2 pi 2^-64: that is low 2 pi 2^-53 moved by an exact power of two, so
    delta < 1.6e-3 is the same float.  It turns the root through Taylor
    polynomials of cos and sin whose first dropped terms are below 1e-20.
    Against a 30-digit exp(2 pi i u) the error is at most 2e-15, and so is
    ``| |dir| - 1 |``; measured, both stay below 4e-16.
    """
    # in place where the arithmetic allows: fewer large temporaries per step
    root = np.take(_ROOTS, (bits >> np.uint64(52)).view(np.int64))
    delta = (bits & np.uint64(((1 << _TURN_BITS) - 1) << 11)).astype(float)
    delta *= 2.0 * math.pi * 2.0**-64
    d2 = delta * delta
    # cos delta = 1 - d2 (1/2 - d2/24), sin delta = delta (1 - d2 (1/6 - d2/120))
    cos = d2 * (1.0 / 24.0)
    cos -= 0.5
    cos *= d2
    cos += 1.0
    sin = d2 * (1.0 / 120.0)
    sin -= 1.0 / 6.0
    sin *= d2
    sin += 1.0
    sin *= delta
    turn = np.empty(bits.size, dtype=complex)
    turn.real = cos
    turn.imag = sin
    turn *= root
    return turn


def _walk(absorb, z0: complex, n: int, seed: int, chunk: int, max_steps: int, classes: int) -> tuple[list[int], int]:
    """Walk-on-spheres from z0 for the samples 0 .. n-1 on ``min(chunk, n)``
    lanes.

    ``absorb(p)`` returns, for each position, the radius of the next jump
    and a class: 0 keeps walking, 1 .. ``classes`` absorbs there.  A walk
    still live at its step ``max_steps - 1`` is cut off before it jumps, as
    class ``classes + 1``.  Returns the walks absorbed in each class and the
    walks cut off.

    The lanes are allocated once: each holds a position, a stream counter
    and the pass at which its walk started, so a walk started at pass b is
    at its step ``passes - b``.  A lane whose walk ends restarts in place at
    z0 with the next sample, and lanes are dropped only once no sample is
    left to start.  Sample i draws from stream (seed, i) at its own step, so neither
    ``chunk`` nor which lane a sample takes can change the result.  Each
    counter starts at ``key + GAMMA`` and adds ``GAMMA`` after each jump:
    the chain of ``stream_uniforms``, with no multiply by the step.
    ``_directions`` turns the counter's bits into the jump direction.
    """
    counts = np.zeros(classes + 2, dtype=np.int64)
    started = min(chunk, n)
    pos = np.full(started, z0, dtype=complex)
    counters = sample_streams(seed, np.arange(started, dtype=np.uint64)) + np.uint64(GAMMA)
    born = np.zeros(started, dtype=np.intp)
    passes = 0
    while pos.size:
        radius, cls = absorb(pos)
        # a walk is at its step passes - born <= passes: none is cut off before this pass
        if passes >= max_steps - 1:
            cls[(cls == 0) & (born == passes - (max_steps - 1))] = classes + 1
        ended = np.flatnonzero(cls)
        counts += np.bincount(cls[ended], minlength=classes + 2)
        # every lane jumps; an ended lane's jump is overwritten by its restart or dropped with it
        jump = _directions(stream_bits(counters))
        jump *= radius
        pos += jump
        counters += np.uint64(GAMMA)
        passes += 1
        new, gone = ended[: n - started], ended[n - started :]
        if new.size:
            keys = sample_streams(seed, np.arange(started, started + new.size, dtype=np.uint64))
            pos[new], counters[new], born[new] = z0, keys + np.uint64(GAMMA), passes
            started += new.size
        if gone.size:
            pos, counters, born = (np.delete(lane, gone) for lane in (pos, counters, born))
    return [int(c) for c in counts[1:-1]], int(counts[-1])


def _obstacle_absorb(segments: _Segments, eps: float):
    """``absorb`` of ``mc_first_hit``: class 1 within ``eps`` of the obstacle,
    else class 2 within ``eps`` of the unit circle; the radius is the smaller
    distance.  An obstacle distance above ``max(d_bnd, eps)`` changes
    neither, so it is capped there; one segment takes its exact distance,
    which costs as much as the bounds that would skip it."""
    one = segments.packed[:, 0] if segments.packed.size == 4 else None

    def absorb(p):
        d_bnd = np.abs(p)
        np.subtract(1.0, d_bnd, out=d_bnd)
        d_obs = _exact(p, *one) if one is not None else _dist_to_segments(p, segments, np.maximum(d_bnd, eps))
        cls = (d_bnd <= eps) * np.int8(2)
        cls[d_obs <= eps] = 1
        return np.minimum(d_obs, d_bnd, out=d_obs), cls

    return absorb


def mc_first_hit(obstacle, z0: complex, n: int, seed: int = 0, chunk: int = 8192) -> HMEstimate:
    """Walk-on-spheres estimate of the probability that Brownian motion from
    z0 hits the obstacle polyline before the unit circle.

    Deterministic given (seed, n): per-sample streams are derived from the
    seed and the sample index, so ``chunk``, the number of walk lanes,
    cannot change the result; no temporary holds more than ``_PAIR_BLOCK``
    point-segment pairs at any ``chunk``.  Walks absorb within ``ABSORB_EPS``
    and are cut off at ``MAX_STEPS``, module constants that a study sets on
    ``hypspeeds.harmonic``; cut-off walks count as misses, in ``truncated``.
    """
    verts = np.asarray([complex(v) for v in obstacle], dtype=complex)
    z0 = require_disk_point(z0, "z0")
    _check_walk_params(n, chunk)
    if verts.size == 0:
        return _binomial_estimate(0, n, seed)
    if verts.size == 1:
        raise ParameterError("obstacle must be empty or a polyline with >= 2 vertices")
    if not np.isfinite(verts).all():
        raise ParameterError("obstacle vertices must be finite")
    if np.any(np.abs(verts) > 1.0 + 1e-12):
        raise ParameterError("obstacle vertices must lie in the closed unit disk")
    segments = _polyline_segments(verts)
    start_gap = float(_dist_to_segments(np.asarray([z0]), segments)[0])
    if start_gap <= 10.0 * ABSORB_EPS:
        raise ParameterError(f"start point within {start_gap:.2e} of the obstacle; ABSORB_EPS={ABSORB_EPS} too coarse")
    if 1.0 - abs(z0) <= 10.0 * ABSORB_EPS:
        raise ParameterError(f"start point too close to the unit circle for ABSORB_EPS={ABSORB_EPS}")

    (hits, _), truncated = _walk(_obstacle_absorb(segments, ABSORB_EPS), z0, n, seed, chunk, MAX_STEPS, classes=2)
    return _binomial_estimate(hits, n, seed, truncated)


def semidisk_bisection_check(t0: float, n: int, seed: int = 0, chunk: int = 8192) -> tuple[HMEstimate, HMEstimate]:
    """Exit-side estimates from -i t0 in the lower half-disk.

    Returns the measures of the two diameter halves (-1, 0] and [0, 1); by
    the reflection symmetry in the imaginary axis their true values coincide.
    The walks read ``ABSORB_EPS`` and ``MAX_STEPS`` as ``mc_first_hit``'s do.
    """
    if not 0.0 < t0 < 1.0:
        raise DomainError(f"t0 must lie in (0, 1), got {t0}")
    _check_walk_params(n, chunk)
    eps = ABSORB_EPS
    if min(t0, 1.0 - t0) <= 10.0 * eps:
        raise ParameterError(f"start point too close to the semidisk boundary for ABSORB_EPS={eps}")

    def absorb(p):
        d_diam = np.abs(p.imag)
        d_arc = np.abs(p)
        np.subtract(1.0, d_arc, out=d_arc)
        # 1: the left half of the diameter, 2: the right half, 3: the arc
        cls = (d_arc <= eps) * np.int8(3)
        hit = d_diam <= eps
        cls[hit] = 1 + (p.real[hit] >= 0.0)
        return np.minimum(d_diam, d_arc, out=d_diam), cls

    (left, right, _), truncated = _walk(absorb, -1j * t0, n, seed, chunk, MAX_STEPS, classes=3)
    return _binomial_estimate(left, n, seed, truncated), _binomial_estimate(right, n, seed, truncated)


# ---------------------------------------------------------------------------
# Obstacles from orbits and the two boundary checks


#: Largest distance from a tail point the polyline was built from to the
#: polyline, the distance from 1 at which the tail closes straight to 1, and
#: the most vertices it takes before that.
_TAIL_TOL = 1e-6
_TAIL_STOP_RADIUS = 5e-4
_TAIL_MAX_VERTICES = 20_000


def _chord_gap(p: complex, a: complex, b: complex) -> float:
    """Distance from p to the segment [a, b]."""
    chord, rel = b - a, p - a
    # a zero chord gives s = 0, and so the distance to a itself
    s = (rel * chord.conjugate()).real / (abs(chord) ** 2 or 1.0)
    return abs(rel - min(1.0, max(0.0, s)) * chord)


def discretize_orbit_tail(m: KoenigsMap, t: float) -> np.ndarray:
    """Polyline through h^{-1}([t, infinity)), within `_TAIL_TOL` of the tail.

    Each tail point h^{-1}(tau) = phi_tau(0) is read through ``orbit``.  A
    parameter step is accepted once the tail point at its midpoint lies
    within `_TAIL_TOL` of the step's chord.  The open chord from the last
    vertex stretches to each step's end while every tail point evaluated
    since that vertex stays within `_TAIL_TOL` of it, else its old end
    becomes a vertex: a straight tail is one segment.  Within
    `_TAIL_STOP_RADIUS` of 1 the chord stretches by the same rule to the
    Denjoy-Wolff point 1, the final vertex.  DomainError if h^{-1}(t) rounds
    onto 1, as on far strip tails, since the tail then has no length.
    """
    if t <= 0.0:
        raise DomainError("the orbit tail obstacle needs t > 0")
    z = orbit(m, 0j, t)
    if z == 1.0:
        raise DomainError(f"the orbit tail from t={t} rounds onto the Denjoy-Wolff point 1 and has no length")
    # seen: the tail points evaluated since the last vertex; the open chord ends at z
    verts, seen = [z], []
    tau, dtau = float(t), 0.01 * max(1.0, t)
    while abs(z - 1.0) > _TAIL_STOP_RADIUS and len(verts) < _TAIL_MAX_VERTICES:
        while True:
            mid = orbit(m, 0j, tau + 0.5 * dtau)
            z_next = orbit(m, 0j, tau + dtau)
            bend = _chord_gap(mid, z, z_next)
            if bend <= _TAIL_TOL or dtau <= 1e-12 * max(1.0, tau):
                break
            dtau *= 0.5
        tau += dtau
        if seen and any(_chord_gap(p, verts[-1], z_next) > _TAIL_TOL for p in seen + [mid]):
            verts.append(z)
            seen = []
        seen += [mid, z_next]
        z = z_next
        # the midpoint's gap scales as dtau^2: grown 1.2 times, the step still passes
        if bend < 0.6 * _TAIL_TOL:
            dtau *= 1.2
    if any(_chord_gap(p, verts[-1], 1.0 + 0j) > _TAIL_TOL for p in seen):
        verts.append(z)
    verts.append(1.0 + 0j)
    return np.asarray(verts, dtype=complex)


@dataclass(frozen=True)
class ProjectionBoundResult:
    t: float
    estimate: HMEstimate
    lower_bound: float
    passed: bool


def projection_bound_check(
    m: KoenigsMap, t: float, n: int, seed: int = 0, chunk: int = 8192, sigma: float = 3.0
) -> ProjectionBoundResult:
    """Check the projection lower bound for the orbit-tail hitting probability.

    The first-hit probability of the obstacle h^{-1}([t, inf)) from 0 must be
    at least (1/(2 pi)) atan((1 - pi_t^2)/(2 pi_t)): the check fails where the
    estimate's upper limit at ``sigma`` lies below that bound.
    """
    obstacle = discretize_orbit_tail(m, t)
    est = mc_first_hit(obstacle, 0j, n, seed=seed, chunk=chunk)
    rhs = 0.5 * geodesic_cut_measure(speeds(m, t).pi_t)[1]
    return ProjectionBoundResult(t=t, estimate=est, lower_bound=rhs, passed=est.upper_limit(sigma) >= rhs)

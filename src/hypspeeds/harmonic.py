"""Harmonic measure: disk closed forms, geodesic cuts, and first-hit Monte Carlo.

The Monte Carlo engine is walk-on-spheres: each walk repeatedly jumps to a
uniform point of the largest circle centered at the current position that
avoids both the obstacle and the unit circle, absorbing once within ``eps``
of either.  The absorption layer gives an O(eps) bias, dominated by the
sampling error at the sample counts used here.  Obstacle proximity is
checked before boundary proximity, so walks landing near the junction of the
obstacle with the boundary count as hits.

One walk loop, ``_walk``, serves every absorbing set: the caller passes a
vectorized ``absorb(p) -> (radius, class)``.  For a polyline obstacle the
radius is ``min(d_obs, d_bnd)`` with ``d_bnd = 1 - |p|``, and the class
reads ``d_obs`` only through ``d_obs <= eps``.  Each block of consecutive
segments has a bounding circle ``(c, r)``, and ``lb = min |p - c| - r`` is
a lower bound on the computed ``d_obs``.  Where ``lb > max(d_bnd, eps)``
the exact distance cannot change the step: the radius is exactly ``d_bnd``
and the obstacle does not absorb.  Elsewhere the distance is exact, taken
over the block of least bound and then over the blocks whose bound does not
exceed that distance.

Why no skip changes a bit: points and vertices lie in the closed unit disk,
so every computed distance here is within a few ulp(2) of the true one, far
below the circles' inflation of 1e-9 relative plus 1e-14.  So a block's
computed ``|p - c| - r`` is at most the computed distance to each of its
segments, and a skipped block or point never holds a value the exact
minimum would have taken.  Every estimate is the one the brute-force
minimum over all segments gives.

A step calls no transcendental function.  Each walk carries its stream
counter (``seeding``) and the jump direction exp(2 pi i u) comes from the
counter's bits: a 4096-root table and a short Taylor turn, within 4e-16 of
the exact value where ``np.exp(2j * pi * u)`` is within 8e-16, so the two
differ by at most about 1e-15.  They are not bit-equal, but every count came
out the same on every shipped config and on the benchmark's walks at seeds
1-8.  That is an observation, not a theorem: a walk can change class only
where a distance lands within about 1e-15 of a threshold such as ``eps``.

``chunk`` is the most walks in flight: a walk that ends hands its lane to
the next sample, which draws from its own stream at its own step.  The
exact distances group the points by block and broadcast each group against
that block's segments, so however long the obstacle and however many the
walks, no temporary holds more than ``_PAIR_BLOCK`` point-segment pairs.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conformal import KoenigsMap, map_inverse
from .errors import DomainError, ParameterError
from .hyperbolic import require_disk_point
from .seeding import GAMMA, sample_streams, sample_uniforms, stream_bits
from .semigroup import speeds

TWO_PI = 2.0 * math.pi
#: Default width of the absorbing layer around an obstacle and the unit circle.
ABSORB_EPS = 1e-4


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

    ``truncated`` counts the walks still running after ``max_steps``; they are
    in ``n_samples`` but in no absorbing class.
    """

    value: float
    std_error: float
    n_samples: int
    seed: int
    truncated: int = 0


def _binomial_estimate(hits: int, n: int, seed: int, truncated: int = 0) -> HMEstimate:
    value = hits / n
    return HMEstimate(
        value=value, std_error=math.sqrt(value * (1.0 - value) / n), n_samples=n, seed=seed, truncated=truncated
    )


# ---------------------------------------------------------------------------
# Closed forms


def disk_arc_measure(z: complex, arc: ArcOnCircle) -> float:
    """Poisson integral of the arc indicator at z; from 0 it is length/(2 pi)."""
    z = require_disk_point(z)
    if arc.length >= TWO_PI - 1e-15:
        return 1.0
    e1 = cmath.exp(1j * arc.theta1)
    e2 = cmath.exp(1j * arc.theta2)
    t1 = (e1 - z) / (1.0 - z.conjugate() * e1)
    t2 = (e2 - z) / (1.0 - z.conjugate() * e2)
    return ((cmath.phase(t2) - cmath.phase(t1)) % TWO_PI) / TWO_PI


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
    """Start in [0, 1) and length, in turns, of the boundary arc that
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


def mc_disk_arc(z: complex, arc: ArcOnCircle, n: int, seed: int = 0) -> HMEstimate:
    """Estimate the arc measure from z by sampling the exact exit law.

    The exit position of Brownian motion from z is the image of a uniform
    boundary point exp(2 pi i u) under the disk automorphism sending 0 to z,
    so a sample hits the arc when u lies on the arc's preimage in turns:
    ``mod(u - start, 1) <= length``, with no map applied per sample.
    """
    z = require_disk_point(z)
    _check_sample_count(n)
    start, length = _arc_preimage(z, arc)
    hits = 0
    for lo in range(0, n, _ARC_CHUNK):
        u = sample_uniforms(seed, np.arange(lo, min(n, lo + _ARC_CHUNK), dtype=np.uint64), 0)
        u -= start
        hits += int(np.count_nonzero(np.mod(u, 1.0, out=u) <= length))
    return _binomial_estimate(hits, n, seed)


#: Candidate chords tested per call of ``_simplify_polyline``, and the most
#: vertex-chord pairs one call holds: on a long straight run the window narrows.
_WINDOW = 32
_WINDOW_PAIRS = 1 << 14
#: Largest distance from a dropped vertex to the chord that replaces it.
_SIMPLIFY_TOL = 1e-6


def _simplify_polyline(verts: np.ndarray) -> np.ndarray:
    """Drop vertices that deviate less than `_SIMPLIFY_TOL` from the local chord.

    Orbit-tail polylines are resolved far below the walk absorption layer, so
    collapsing straight runs changes distances by at most `_SIMPLIFY_TOL`
    while cutting the per-step cost dramatically.

    From the current anchor, the chord to each later vertex j must pass within
    `_SIMPLIFY_TOL` of every vertex strictly between; the first j whose chord
    does not makes j - 1 the next anchor.  The chords to a window of
    consecutive j are tested in one call, with the arithmetic of testing
    them one at a time.
    """
    if verts.size <= 2:
        return verts
    keep = [0]
    anchor = 0
    j = 2
    while j < verts.size:
        width = max(1, min(_WINDOW, _WINDOW_PAIRS // (j - anchor)))
        ends = np.arange(j, min(j + width, verts.size))
        rel = verts[anchor + 1 : ends[-1]] - verts[anchor]
        chord = (verts[ends] - verts[anchor])[:, None]
        span = np.abs(chord)
        # a zero chord gives t = 0, and so the distance to the anchor itself
        t = np.clip((rel * chord.conjugate()).real / np.where(span == 0.0, 1.0, span * span), 0.0, 1.0)
        dev = np.abs(rel - t * chord)
        # the chord to ends[k] spans the vertices before it only
        dev[np.arange(rel.size) >= (ends - anchor - 1)[:, None]] = 0.0
        bad = np.flatnonzero(dev.max(axis=1) > _SIMPLIFY_TOL)
        if bad.size:
            anchor = int(ends[bad[0]]) - 1
            keep.append(anchor)
            j = anchor + 2
        else:
            j = int(ends[-1]) + 1
    keep.append(verts.size - 1)
    return verts[np.asarray(keep)]


class _Segments(NamedTuple):
    """Nonzero polyline segments in blocks of consecutive segments.

    Arrays are (blocks, size); the last block repeats the last segment to
    fill it.  Each block has a bounding circle, inflated so that rounding in
    the distances cannot cull the block holding the nearest segment.
    """

    starts: np.ndarray
    steps: np.ndarray
    conj_steps: np.ndarray
    norm2: np.ndarray
    centers: np.ndarray
    radii: np.ndarray


def _polyline_segments(verts: np.ndarray) -> _Segments:
    """Blocks of ceil(sqrt(count)) segments with their bounding circles.

    Computed once per obstacle: the walk queries the distance at every step.
    """
    starts, steps = verts[:-1], np.diff(verts)
    keep = np.abs(steps) > 0.0
    if not keep.any():
        raise ParameterError("obstacle polyline has zero length")
    starts, steps = starts[keep], steps[keep]
    count = starts.size
    size = math.isqrt(count - 1) + 1
    blocks = -(-count // size)
    take = np.minimum(np.arange(blocks * size), count - 1).reshape(blocks, size)
    starts, steps = starts[take], steps[take]
    ends = np.concatenate([starts, starts + steps], axis=1)
    centers = 0.5 * (ends.real.min(axis=1) + ends.real.max(axis=1) + 1j * (ends.imag.min(axis=1) + ends.imag.max(axis=1)))
    reach = np.abs(ends - centers[:, None]).max(axis=1)
    # points and vertices lie in the closed unit disk, so every distance the
    # culling compares is within a few ulp(2) of exact: 1e-14 covers them
    return _Segments(starts, steps, np.conj(steps), np.abs(steps) ** 2, centers, reach * (1.0 + 1e-9) + 1e-14)


#: Most point-segment pairs in one temporary of ``_dist_to_segments``, and
#: most point-block pairs in one pass of its block bounds.
_PAIR_BLOCK = 1 << 15


def _exact(p: np.ndarray, starts, steps, conj_steps, norm2) -> np.ndarray:
    """Distance from p to each segment, elementwise over broadcast shapes."""
    rel = p - starts
    buf = rel * conj_steps
    t = np.clip(buf.real / norm2, 0.0, 1.0)
    # in place: fewer large temporaries per step, the same arithmetic
    rel -= np.multiply(t, steps, out=buf)
    return np.abs(rel)


def _block_min(q: np.ndarray, segments: _Segments, b: int) -> np.ndarray:
    """Distance from each point of q to the nearest segment of block b."""
    # starts, steps, conj_steps and norm2 of block b
    block = [a[b] for a in segments[:4]]
    rows = max(1, _PAIR_BLOCK // block[0].size)
    out = np.empty(q.size)
    for lo in range(0, q.size, rows):
        _exact(q[lo : lo + rows, None], *block).min(axis=1, out=out[lo : lo + rows])
    return out


def _least_bounds(p: np.ndarray, segments: _Segments, cap: np.ndarray):
    """Each point's least block bound and the block that has it, and the
    bound rows of the points whose least bound is at most ``cap``."""
    centers, radii = segments.centers, segments.radii
    least = np.empty(p.size)
    first = np.empty(p.size, dtype=np.intp)
    kept = []
    rows = max(1, _PAIR_BLOCK // centers.size)
    for lo in range(0, p.size, rows):
        lower = np.abs(p[lo : lo + rows, None] - centers)
        lower -= radii
        lower.argmin(axis=1, out=first[lo : lo + rows])
        best = np.take_along_axis(lower, first[lo : lo + rows, None], axis=1)[:, 0]
        least[lo : lo + rows] = best
        kept.append(lower[best <= cap[lo : lo + rows]])
    return least, first, np.concatenate(kept)


def _dist_to_segments(p: np.ndarray, segments: _Segments, cap=np.inf) -> np.ndarray:
    """Distance from each point to the nearest segment where it is at most
    ``cap``; elsewhere a value above ``cap``.

    With several blocks, ``|p - c| - r`` over a block's bounding circle is at
    most the computed distance to each of its segments (the rounding
    argument is in the module docstring).  A point whose least such bound
    exceeds ``cap`` gets that bound, with no exact distance taken.  Every
    other point gets the exact distance to the block of least bound, which
    bounds its nearest distance from above, and then to the blocks whose
    bound is at most that: they hold the nearest segment, so the result is
    the minimum over all segments, bit for bit.  One-block obstacles skip
    the bounds, which cost as much as the exact distance there.

    The points are grouped by block, never the segments copied per point:
    each block broadcasts the points that need it against its own segments,
    one block at a time.  So no temporary holds more than ``_PAIR_BLOCK``
    point-segment or point-block pairs, apart from one row of bounds and
    one of flags per point that needs an exact distance.
    """
    if segments.centers.size == 1:
        return _block_min(p, segments, 0)
    out, first, lower = _least_bounds(p, segments, np.broadcast_to(cap, p.shape))
    todo = np.flatnonzero(out <= cap)
    if not todo.size:
        return out
    q, first = p[todo], first[todo]
    d = np.empty(todo.size)
    for b in np.flatnonzero(np.bincount(first)):
        idx = np.flatnonzero(first == b)
        d[idx] = _block_min(q[idx], segments, b)
    near = lower <= d[:, None]
    near[np.arange(todo.size), first] = False
    for b in np.flatnonzero(near.any(axis=0)):
        idx = np.flatnonzero(near[:, b])
        d[idx] = np.minimum(d[idx], _block_min(q[idx], segments, b))
    out[todo] = d
    return out


def _positive_int(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


def _check_sample_count(n: int) -> None:
    """ParameterError unless n is a positive integer: a NaN n never ends a
    walk loop, and a True one reports n_samples=True."""
    if not _positive_int(n):
        raise ParameterError(f"need n > 0 samples, as an integer; got {n!r}")


def _check_walk_params(n: int, eps: float, chunk: int, max_steps: int) -> None:
    """ParameterError unless n, chunk and max_steps are positive integers
    and eps > 0: a NaN eps cuts off every walk and a NaN chunk starts none,
    and either would report 0 +- 0."""
    _check_sample_count(n)
    if not eps > 0.0:
        raise ParameterError(f"eps must be positive, got {eps!r}")
    for name, value in (("chunk", chunk), ("max_steps", max_steps)):
        if not _positive_int(value):
            raise ParameterError(f"{name} must be a positive integer, got {value!r}")


#: exp(2 pi i j / 4096) for j = 0 .. 4095: np.exp on the first quarter turn,
#: whose arguments round less than the full turn's, and exact quarter
#: rotations for the rest.
_QUARTER = np.exp(0.5j * math.pi * np.arange(1024) / 1024)
_ROOTS = np.concatenate([_QUARTER, 1j * _QUARTER, -_QUARTER, -1j * _QUARTER])
#: Of a uniform's 53 bits, the top 12 pick a root and the low 41 turn it.
_TURN_BITS = 41


def _directions(bits: np.ndarray) -> np.ndarray:
    """exp(2 pi i u) for the uniform u = (bits >> 11) 2^-53 of each word.

    The top 12 bits of u pick a root of ``_ROOTS`` and the low 41 turn it by
    delta = low 2 pi 2^-53 < 1.6e-3, through Taylor polynomials of cos and
    sin whose first dropped terms are below 1e-20.  Against a 30-digit
    exp(2 pi i u) the error is at most 2e-15, and so is ``| |dir| - 1 |``;
    measured, both stay below 4e-16.
    """
    # in place where the arithmetic allows: fewer large temporaries per step
    u = (bits >> np.uint64(11)).view(np.int64)
    root = np.take(_ROOTS, u >> _TURN_BITS)
    u &= (1 << _TURN_BITS) - 1
    delta = u.astype(float)
    delta *= 2.0 * math.pi * 2.0**-53
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
    turn = np.empty(u.size, dtype=complex)
    turn.real = cos
    turn.imag = sin
    turn *= root
    return turn


def _walk(absorb, z0: complex, n: int, seed: int, chunk: int, max_steps: int, classes: int) -> tuple[list[int], int]:
    """Walk-on-spheres from z0 for the samples 0 .. n-1, at most ``chunk``
    walks in flight.

    ``absorb(p)`` returns, for each position, the radius of the next jump
    and a class: 0 keeps walking, 1 .. ``classes`` absorbs there.  Returns
    the walks absorbed in each class and the walks still running after
    ``max_steps``.  A walk that ends hands its lane to the next sample, and
    each walk counts its own steps: sample i draws from stream (seed, i) at
    its own step, so neither ``chunk`` nor the order of the lanes can
    change the result.  The loop's arrays hold one entry per walk in
    flight, and the obstacle distances of ``_obstacle_absorb`` no more than
    ``_PAIR_BLOCK`` point-segment pairs per temporary.

    Each walk carries its stream counter ``key + GAMMA (step + 1)`` and
    adds ``GAMMA`` after each jump: the chain of ``stream_uniforms``, with
    no multiply by the step.  ``_directions`` turns the counter's bits into
    the jump direction.  Each walk records the pass it began at, so its step
    is ``now - born``.  The walks in flight keep the order they began in, so
    the first is the oldest, and the walks are tested against ``max_steps``
    only once it can reach it.
    """
    counts = np.zeros(classes + 1, dtype=np.int64)
    truncated = 0
    # position, stream counter and starting pass of each walk in flight
    pos = np.empty(0, dtype=complex)
    counters = np.empty(0, dtype=np.uint64)
    born = np.empty(0, dtype=np.intp)
    started = 0
    for now in itertools.count():
        fill = min(chunk - pos.size, n - started)
        if fill > 0:
            keys = sample_streams(seed, np.arange(started, started + fill, dtype=np.uint64))
            pos = np.concatenate([pos, np.full(fill, z0, dtype=complex)])
            counters = np.concatenate([counters, keys + np.uint64(GAMMA)])
            born = np.concatenate([born, np.full(fill, now)])
            started += fill
        if not pos.size:
            break
        radius, cls = absorb(pos)
        counts += np.bincount(cls, minlength=classes + 1)
        live = cls == 0
        # a live walk on its last step is cut off before it jumps
        if now - int(born[0]) >= max_steps - 1:
            last = live & (born == now - (max_steps - 1))
            truncated += int(np.count_nonzero(last))
            live &= ~last
        # one index array serves every take: a boolean mask is rescanned per use
        keep = np.flatnonzero(live)
        pos, counters, born = pos.take(keep), counters.take(keep), born.take(keep)
        jump = _directions(stream_bits(counters))
        jump *= radius.take(keep)
        pos += jump
        counters += np.uint64(GAMMA)
    return [int(c) for c in counts[1:]], truncated


def _obstacle_absorb(segments: _Segments, eps: float):
    """``absorb`` of ``mc_first_hit``: class 1 within ``eps`` of the obstacle,
    else class 2 within ``eps`` of the unit circle; the radius is the smaller
    distance.

    A capped obstacle distance above ``max(d_bnd, eps)`` changes neither, so
    the exact distance is taken only where it is at most that.
    """

    def absorb(p):
        d_bnd = 1.0 - np.abs(p)
        d_obs = _dist_to_segments(p, segments, np.maximum(d_bnd, eps))
        return np.minimum(d_obs, d_bnd), np.where(d_obs <= eps, 1, 2 * (d_bnd <= eps))

    return absorb


def mc_first_hit(
    obstacle,
    z0: complex,
    n: int,
    eps: float = ABSORB_EPS,
    seed: int = 0,
    chunk: int = 8192,
    max_steps: int = 10_000,
) -> HMEstimate:
    """Walk-on-spheres estimate of the probability that Brownian motion from
    z0 hits the obstacle polyline before the unit circle.

    Deterministic given (seed, n): per-sample streams are derived from the
    seed and the sample index, so ``chunk``, the most walks in flight,
    cannot change the result; no temporary holds more than ``_PAIR_BLOCK``
    point-segment pairs at any ``chunk``.  Walks cut off at ``max_steps``
    count as misses and are reported in ``truncated``.
    """
    verts = np.asarray([complex(v) for v in obstacle], dtype=complex)
    z0 = complex(z0)
    if not cmath.isfinite(z0):
        raise DomainError(f"start point must be finite, got {z0}")
    _check_walk_params(n, eps, chunk, max_steps)
    if verts.size == 0:
        return _binomial_estimate(0, n, seed)
    if verts.size == 1:
        raise ParameterError("obstacle must be empty or a polyline with >= 2 vertices")
    if not np.isfinite(verts).all():
        raise ParameterError("obstacle vertices must be finite")
    if np.any(np.abs(verts) > 1.0 + 1e-12):
        raise ParameterError("obstacle vertices must lie in the closed unit disk")
    segments = _polyline_segments(_simplify_polyline(verts))
    start_gap = float(_dist_to_segments(np.asarray([z0]), segments)[0])
    if start_gap <= 10.0 * eps:
        raise ParameterError(f"start point within {start_gap:.2e} of the obstacle; eps={eps} too coarse")
    if 1.0 - abs(z0) <= 10.0 * eps:
        raise ParameterError("start point too close to the unit circle for this eps")

    (hits, _), truncated = _walk(_obstacle_absorb(segments, eps), z0, n, seed, chunk, max_steps, classes=2)
    return _binomial_estimate(hits, n, seed, truncated)


def semidisk_bisection_check(
    t0: float,
    n: int,
    seed: int = 0,
    eps: float = ABSORB_EPS,
    chunk: int = 8192,
    max_steps: int = 10_000,
) -> tuple[HMEstimate, HMEstimate]:
    """Exit-side estimates from -i t0 in the lower half-disk.

    Returns the measures of the two diameter halves (-1, 0] and [0, 1); by
    the reflection symmetry in the imaginary axis their true values coincide.
    """
    if not 0.0 < t0 < 1.0:
        raise DomainError(f"t0 must lie in (0, 1), got {t0}")
    _check_walk_params(n, eps, chunk, max_steps)
    if min(t0, 1.0 - t0) <= 10.0 * eps:
        raise ParameterError("start point too close to the semidisk boundary for this eps")

    def absorb(p):
        d_diam = np.abs(p.imag)
        d_arc = 1.0 - np.abs(p)
        # 1: the left half of the diameter, 2: the right half, 3: the arc
        return np.minimum(d_diam, d_arc), np.where(d_diam <= eps, 1 + (p.real >= 0.0), 3 * (d_arc <= eps))

    (left, right, _), truncated = _walk(absorb, -1j * t0, n, seed, chunk, max_steps, classes=3)
    return _binomial_estimate(left, n, seed, truncated), _binomial_estimate(right, n, seed, truncated)


# ---------------------------------------------------------------------------
# Obstacles from orbits and the two boundary checks


#: Largest disk distance between adjacent vertices of an orbit tail, the
#: distance from 1 at which the tail closes straight to 1, and the most
#: vertices it takes before that.
_TAIL_SPACING = 5e-4
_TAIL_STOP_RADIUS = 5e-4
_TAIL_MAX_VERTICES = 20_000


def discretize_orbit_tail(m: KoenigsMap, t: float) -> np.ndarray:
    """Polyline through h^{-1}([t, infinity)), resolved to `_TAIL_SPACING`.

    The parameter step adapts so adjacent vertices stay within `_TAIL_SPACING`
    in the disk; the final vertex is the Denjoy-Wolff point 1 itself, closing
    the obstacle to the boundary.  DomainError if h^{-1}(t) rounds onto 1,
    as on far strip tails, since the tail then has no length.
    """
    if t <= 0.0:
        raise DomainError("the orbit tail obstacle needs t > 0")
    z = map_inverse(m, complex(t))
    if z == 1.0:
        raise DomainError(f"the orbit tail from t={t} rounds onto the Denjoy-Wolff point 1 and has no length")
    verts = [z]
    tau = float(t)
    dtau = 0.01 * max(1.0, t)
    while abs(z - 1.0) > _TAIL_STOP_RADIUS and len(verts) < _TAIL_MAX_VERTICES:
        while True:
            z_next = map_inverse(m, complex(tau + dtau))
            gap = abs(z_next - z)
            if gap <= _TAIL_SPACING or dtau <= 1e-12 * max(1.0, tau):
                break
            dtau *= 0.5
        tau += dtau
        z = z_next
        verts.append(z)
        if gap < 0.3 * _TAIL_SPACING:
            dtau *= 1.8
    verts.append(1.0 + 0j)
    return np.asarray(verts, dtype=complex)


@dataclass(frozen=True)
class ProjectionBoundResult:
    t: float
    estimate: HMEstimate
    lower_bound: float
    passed: bool


def projection_bound_check(m: KoenigsMap, t: float, n: int, seed: int = 0, chunk: int = 8192) -> ProjectionBoundResult:
    """Check the projection lower bound for the orbit-tail hitting probability.

    The first-hit probability of the obstacle h^{-1}([t, inf)) from 0 must be
    at least (1/(2 pi)) arctan((1 - pi_t^2)/(2 pi_t)), up to 3 sigma.
    """
    obstacle = discretize_orbit_tail(m, t)
    est = mc_first_hit(obstacle, 0j, n, seed=seed, chunk=chunk)
    rhs = 0.5 * geodesic_cut_measure(speeds(m, t).pi_t)[1]
    return ProjectionBoundResult(t=t, estimate=est, lower_bound=rhs, passed=est.value >= rhs - 3.0 * est.std_error)

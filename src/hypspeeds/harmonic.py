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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conformal import map_inverse
from .errors import DomainError, NumericError, ParameterError
from .hyperbolic import perpendicular_geodesic, require_disk_point
from .seeding import sample_streams, sample_uniforms, stream_uniforms
from .semigroup import SemigroupModel, speeds

TWO_PI = 2.0 * math.pi


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

    def contains_angle(self, theta) -> np.ndarray:
        return np.mod(np.asarray(theta) - self.theta1, TWO_PI) <= self.length


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

    Returns the arc and the value (1/pi) arctan((1 - pi_t^2)/(2 pi_t)); the
    geometric arc computation must agree with the closed form to 1e-10.
    """
    if not 0.0 < pi_t < 1.0:
        raise DomainError(f"pi_t must lie in (0, 1), got {pi_t}")
    gamma = perpendicular_geodesic(pi_t)
    end_lo, end_hi = gamma.boundary_endpoints()
    theta = abs(cmath.phase(end_lo))
    if abs(theta - abs(cmath.phase(end_hi))) > 1e-12:
        raise NumericError("geodesic endpoints lost conjugate symmetry")
    geometric = theta / math.pi
    closed = math.atan((1.0 - pi_t) * (1.0 + pi_t) / (2.0 * pi_t)) / math.pi
    if abs(geometric - closed) > 1e-10:
        raise NumericError(f"arc measure {geometric} disagrees with closed form {closed}")
    return ArcOnCircle(-theta, theta), closed


# ---------------------------------------------------------------------------
# Monte Carlo


#: Samples per pass of ``mc_disk_arc``: its temporaries stay this long at any n.
_ARC_CHUNK = 1 << 13


def mc_disk_arc(z: complex, arc: ArcOnCircle, n: int, seed: int = 0) -> HMEstimate:
    """Estimate the arc measure from z by sampling the exact exit law.

    The exit position of Brownian motion from z is the image of a uniform
    boundary point under the disk automorphism sending 0 to z.
    """
    z = require_disk_point(z)
    if n <= 0:
        raise ParameterError("need n > 0 samples")
    hits = 0
    for lo in range(0, n, _ARC_CHUNK):
        u = sample_uniforms(seed, np.arange(lo, min(n, lo + _ARC_CHUNK), dtype=np.uint64), 0)
        pts = np.exp(2j * math.pi * u)
        if z != 0:
            pts = (pts + z) / (1.0 + z.conjugate() * pts)
        hits += int(arc.contains_angle(np.angle(pts)).sum())
    return _binomial_estimate(hits, n, seed)


#: Candidate chords tested per call of ``_simplify_polyline``, and the most
#: vertex-chord pairs one call holds: on a long straight run the window narrows.
_WINDOW = 32
_WINDOW_PAIRS = 1 << 14


def _simplify_polyline(verts: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Drop vertices that deviate less than `tol` from the local chord.

    Orbit-tail polylines are resolved far below the walk absorption layer, so
    collapsing straight runs changes distances by at most `tol` while cutting
    the per-step cost dramatically.

    From the current anchor, the chord to each later vertex j must pass
    within `tol` of every vertex strictly between; the first j whose chord
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
        bad = np.flatnonzero(dev.max(axis=1) > tol)
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


#: Most point-segment pairs held in one temporary of ``_dist_to_segments``.
_PAIR_BLOCK = 1 << 18


def _exact(p: np.ndarray, starts, steps, conj_steps, norm2) -> np.ndarray:
    """Distance from p to each segment, elementwise over broadcast shapes."""
    rel = p - starts
    buf = rel * conj_steps
    t = np.clip(buf.real / norm2, 0.0, 1.0)
    # in place: fewer large temporaries per step, the same arithmetic
    rel -= np.multiply(t, steps, out=buf)
    return np.abs(rel)


def _dist_to_segments(p: np.ndarray, segments: _Segments, cap=np.inf) -> np.ndarray:
    """Distance from each point to the nearest segment where it is at most
    ``cap``; elsewhere a value above ``cap``.  Works in row blocks so the
    walk's memory does not grow with the number of segments.

    With several blocks, ``|p - c| - r`` over a block's bounding circle is at
    most the computed distance to each of its segments (the rounding
    argument is in the module docstring).  A point whose least such bound
    exceeds ``cap`` gets that bound, with no exact distance taken.  Every
    other point gets the exact distance to the block of least bound, which
    bounds its nearest distance from above, and then to the blocks whose
    bound is at most that: they hold the nearest segment, so the result is
    the minimum over all segments, bit for bit.  One-block obstacles skip
    the bounds, which cost as much as the exact distance there.
    """
    starts, steps, conj_steps, norm2, centers, radii = segments
    # each temporary holds at most rows x size pairs: blocks <= size
    rows = max(1, _PAIR_BLOCK // starts.shape[1])
    out = np.empty(p.size)
    cap = np.broadcast_to(cap, p.shape)
    for lo in range(0, p.size, rows):
        q = p[lo : lo + rows]
        best = out[lo : lo + rows]
        if centers.size == 1:
            _exact(q[:, None], starts[0], steps[0], conj_steps[0], norm2[0]).min(axis=1, out=best)
            continue
        lower = np.abs(q[:, None] - centers)
        lower -= radii
        lower.min(axis=1, out=best)
        todo = np.flatnonzero(best <= cap[lo : lo + rows])
        if not todo.size:
            continue
        lower = lower[todo]
        first = lower.argmin(axis=1)
        q = q[todo, None]
        d = _exact(q, starts[first], steps[first], conj_steps[first], norm2[first]).min(axis=1)
        near = lower <= d[:, None]
        near[np.arange(todo.size), first] = False
        for b in np.flatnonzero(near.any(axis=0)):
            idx = np.flatnonzero(near[:, b])
            d[idx] = np.minimum(d[idx], _exact(q[idx], starts[b], steps[b], conj_steps[b], norm2[b]).min(axis=1))
        best[todo] = d
    return out


def _walk(absorb, z0: complex, n: int, seed: int, chunk: int, max_steps: int, classes: int) -> tuple[list[int], int]:
    """Walk-on-spheres from z0 for the samples 0 .. n-1.

    ``absorb(p)`` returns, for each position, the radius of the next jump
    and a class: 0 keeps walking, 1 .. ``classes`` absorbs there.  Returns
    the walks absorbed in each class and the walks still running after
    ``max_steps``.  Sample i draws from stream (seed, i), so ``chunk``
    cannot change the result.
    """
    if chunk <= 0:
        raise ParameterError("chunk must be positive")
    if max_steps < 1:
        raise ParameterError("max_steps must be at least 1")
    counts = np.zeros(classes + 1, dtype=np.int64)
    truncated = 0
    for lo in range(0, n, chunk):
        m = min(chunk, n - lo)
        # positions and stream keys of the live walks only, compacted each step
        keys = sample_streams(seed, np.arange(lo, lo + m, dtype=np.uint64))
        pos = np.full(m, z0, dtype=complex)
        step_no = 0
        while pos.size and step_no < max_steps:
            radius, cls = absorb(pos)
            counts += np.bincount(cls, minlength=classes + 1)
            live = cls == 0
            pos, keys = pos[live], keys[live]
            if pos.size:
                pos += radius[live] * np.exp(2j * math.pi * stream_uniforms(keys, step_no))
            step_no += 1
        truncated += pos.size
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
    eps: float = 1e-4,
    seed: int = 0,
    chunk: int = 8192,
    max_steps: int = 10_000,
) -> HMEstimate:
    """Walk-on-spheres estimate of the probability that Brownian motion from
    z0 hits the obstacle polyline before the unit circle.

    Deterministic given (seed, n): per-sample streams are derived from the
    seed and the sample index, so the chunk size cannot change the result.
    Walks cut off at ``max_steps`` count as misses and are reported in
    ``truncated``.
    """
    verts = np.asarray([complex(v) for v in obstacle], dtype=complex)
    if n <= 0:
        raise ParameterError("need n > 0 samples")
    if eps <= 0.0:
        raise ParameterError("eps must be positive")
    if verts.size == 0:
        return HMEstimate(0.0, 0.0, n, seed)
    if verts.size == 1:
        raise ParameterError("obstacle must be empty or a polyline with >= 2 vertices")
    if np.any(np.abs(verts) > 1.0 + 1e-12):
        raise ParameterError("obstacle vertices must lie in the closed unit disk")
    segments = _polyline_segments(_simplify_polyline(verts))
    z0 = complex(z0)
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
    eps: float = 1e-4,
    chunk: int = 8192,
    max_steps: int = 10_000,
) -> tuple[HMEstimate, HMEstimate]:
    """Exit-side estimates from -i t0 in the lower half-disk.

    Returns the measures of the two diameter halves (-1, 0] and [0, 1); by
    the reflection symmetry in the imaginary axis their true values coincide.
    """
    if not 0.0 < t0 < 1.0:
        raise DomainError(f"t0 must lie in (0, 1), got {t0}")
    if eps <= 0.0:
        raise ParameterError("eps must be positive")
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


def discretize_orbit_tail(
    m: SemigroupModel,
    t: float,
    spacing: float = 5e-4,
    stop_radius: float = 5e-4,
    max_vertices: int = 20_000,
) -> np.ndarray:
    """Polyline through h^{-1}([t, infinity)), resolved to `spacing` in the disk.

    The parameter step adapts so adjacent vertices stay within `spacing`; the
    final vertex is the Denjoy-Wolff point 1 itself, closing the obstacle to
    the boundary.
    """
    if t <= 0.0:
        raise DomainError("the orbit tail obstacle needs t > 0")
    k = m.koenigs
    z = map_inverse(k, complex(t))
    verts = [z]
    tau = float(t)
    dtau = 0.01 * max(1.0, t)
    while abs(z - 1.0) > stop_radius and len(verts) < max_vertices:
        while True:
            z_next = map_inverse(k, complex(tau + dtau))
            gap = abs(z_next - z)
            if gap <= spacing or dtau <= 1e-12 * max(1.0, tau):
                break
            dtau *= 0.5
        tau += dtau
        z = z_next
        verts.append(z)
        if gap < 0.3 * spacing:
            dtau *= 1.8
    verts.append(1.0 + 0j)
    return np.asarray(verts, dtype=complex)


@dataclass(frozen=True)
class ProjectionBoundResult:
    t: float
    estimate: HMEstimate
    lower_bound: float
    passed: bool


def projection_bound_check(
    m: SemigroupModel, t: float, n: int, seed: int = 0, eps: float = 1e-4, chunk: int = 8192
) -> ProjectionBoundResult:
    """Check the projection lower bound for the orbit-tail hitting probability.

    The first-hit probability of the obstacle h^{-1}([t, inf)) from 0 must be
    at least (1/(2 pi)) arctan((1 - pi_t^2)/(2 pi_t)), up to 3 sigma.
    """
    obstacle = discretize_orbit_tail(m, t)
    est = mc_first_hit(obstacle, 0j, n, eps=eps, seed=seed, chunk=chunk)
    pi_t = speeds(m, t).pi_t
    rhs = math.atan((1.0 - pi_t) * (1.0 + pi_t) / (2.0 * pi_t)) / (2.0 * math.pi)
    return ProjectionBoundResult(t=t, estimate=est, lower_bound=rhs, passed=est.value >= rhs - 3.0 * est.std_error)

"""Counter-based uniform streams for reproducible Monte Carlo.

Every sample owns a deterministic stream addressed by (seed, sample index,
step counter), so estimates are bit-identical under any chunking or parallel
schedule.  The generator is a double splitmix64 finalizer chain (Steele, Lea
and Flood, OOPSLA 2014) written with the operations ``^ >> * + &`` alone, so
it runs on Python ints and on numpy uint64 arrays; this module does not
import numpy.  Its finalizer ``_mix`` has a path for each.  On an int it
masks each product to 64 bits.  On an array, whose arithmetic already wraps
mod 2^64, it drops the masks and multiplies by constants of the array's own
type (``x.dtype.type(_M1)``), which numpy would otherwise convert from Python
ints on every call.  Indices and steps are Python ints or uint64 arrays, and
an int draws the same float as the array entry holding it.
``sample_streams`` runs the first link once per sample.

The second link reads a counter ``key + GAMMA * (step + 1)`` (mod 2^64), so
the counters of one stream step by ``GAMMA``.  A walk keeps its counter and
adds ``GAMMA`` after each draw, and ``stream_bits`` finalizes it: the same
word that ``stream_uniforms(key, step)`` turns into a float, with no
multiply by the step.
"""

from __future__ import annotations

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
#: Step of a stream's counter from one draw to the next.
GAMMA = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(x):
    # the first step copies, so the argument is never modified; the rest run in place
    if isinstance(x, int):
        x = x & _MASK
        x ^= x >> 30
        x *= _M1
        x &= _MASK
        x ^= x >> 27
        x *= _M2
        x &= _MASK
        x ^= x >> 31
        return x
    # uint64 arithmetic is already mod 2^64, and constants of the array's own
    # type are not converted from Python ints on every call
    word = x.dtype.type
    x = x ^ (x >> word(30))
    x *= word(_M1)
    x ^= x >> word(27)
    x *= word(_M2)
    x ^= x >> word(31)
    return x


def sample_streams(seed: int, sample_indices):
    """Stream key of each sample index: the part of the chain fixed by (seed, index)."""
    return _mix(_mix(seed) + (GAMMA * (sample_indices + 1) & _MASK))


def stream_bits(counters):
    """Finalized 64-bit word of each stream counter ``key + GAMMA * (step + 1)``
    (mod 2^64); the counters are not modified."""
    return _mix(counters)


def stream_uniforms(keys, step):
    """Uniform [0, 1) draw of each stream key at the given step counter:
    one integer for every key, or an array with one counter per key.  It is
    the top 53 bits of ``stream_bits`` of the counter."""
    return (stream_bits(keys + (GAMMA * (step + 1) & _MASK)) >> 11) * 2.0**-53


def sample_uniforms(seed: int, sample_indices, step):
    """Uniform [0, 1) draw for each sample index at the given step counter."""
    return stream_uniforms(sample_streams(seed, sample_indices), step)

"""Counter-based uniform streams for reproducible Monte Carlo.

Every sample owns a deterministic stream addressed by (seed, sample index,
step counter), so estimates are bit-identical under any chunking or parallel
schedule.  The generator is a double splitmix64 finalizer chain (Steele, Lea
and Flood, OOPSLA 2014) written with Python-int constants and the operations
``^ >> * + & _MASK`` alone, so one definition runs on Python ints and on
numpy uint64 arrays, where the mask changes nothing; this module does not
import numpy.  Indices and steps are Python ints or uint64 arrays, and an int
draws the same float as the array entry holding it.  ``sample_streams`` runs
the first link once per sample, so a walk that draws at every step pays one
finalizer per draw in ``stream_uniforms``.
"""

from __future__ import annotations

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_GAMMA = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(x):
    # callers pass an int or a fresh array, so the steps may run in place
    x &= _MASK
    x ^= x >> 30
    x *= _M1
    x &= _MASK
    x ^= x >> 27
    x *= _M2
    x &= _MASK
    x ^= x >> 31
    return x


def sample_streams(seed: int, sample_indices):
    """Stream key of each sample index: the part of the chain fixed by (seed, index)."""
    return _mix(_mix(seed) + (_GAMMA * (sample_indices + 1) & _MASK))


def stream_uniforms(keys, step):
    """Uniform [0, 1) draw of each stream key at the given step counter:
    one integer for every key, or an array with one counter per key."""
    return (_mix(keys + (_GAMMA * (step + 1) & _MASK)) >> 11) * 2.0**-53


def sample_uniforms(seed: int, sample_indices, step):
    """Uniform [0, 1) draw for each sample index at the given step counter."""
    return stream_uniforms(sample_streams(seed, sample_indices), step)

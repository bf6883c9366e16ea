"""Counter-based uniform streams for reproducible Monte Carlo.

Every sample owns a deterministic stream addressed by (seed, sample index,
step counter), so estimates are bit-identical under any chunking or parallel
schedule.  The generator is a double splitmix64 finalizer chain, vectorized
over sample indices.  ``sample_streams`` runs the first link once per sample,
so a walk that draws at every step pays one finalizer per draw in
``stream_uniforms``.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _M1
    x = x ^ (x >> np.uint64(27))
    x = x * _M2
    return x ^ (x >> np.uint64(31))


def sample_streams(seed: int, sample_indices) -> np.ndarray:
    """Stream key of each sample index: the part of the chain fixed by (seed, index)."""
    idx = np.asarray(sample_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        s = _mix(np.asarray(seed & _MASK, dtype=np.uint64))
        return _mix(s + _GAMMA * (idx + np.uint64(1)))


def stream_uniforms(keys: np.ndarray, step) -> np.ndarray:
    """Uniform [0, 1) draw of each stream key at the given step counter:
    one integer for every key, or an array with one counter per key."""
    step = np.uint64(int(step) & _MASK) if np.ndim(step) == 0 else np.asarray(step, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = _mix(keys + _GAMMA * (step + np.uint64(1)))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def sample_uniforms(seed: int, sample_indices, step: int) -> np.ndarray:
    """Uniform [0, 1) draw for each sample index at the given step counter."""
    return stream_uniforms(sample_streams(seed, sample_indices), step)

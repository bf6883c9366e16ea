"""Counter-based uniform streams: range, key sensitivity, partition invariance,
and one chain that gives the same bits on Python ints and on uint64 arrays."""

import numpy as np
import pytest

from hypspeeds.seeding import sample_streams, sample_uniforms, stream_uniforms


def test_uniforms_in_unit_interval():
    u = sample_uniforms(123, np.arange(10_000, dtype=np.uint64), 7)
    assert (u >= 0.0).all() and (u < 1.0).all()
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_streams_depend_on_every_key():
    idx = np.arange(100, dtype=np.uint64)
    base = sample_uniforms(1, idx, 0)
    assert not np.array_equal(base, sample_uniforms(2, idx, 0))
    assert not np.array_equal(base, sample_uniforms(1, idx, 1))
    assert not np.array_equal(base[:-1], base[1:])


def test_partition_invariance():
    idx = np.arange(1000, dtype=np.uint64)
    whole = sample_uniforms(9, idx, 3)
    parts = np.concatenate([sample_uniforms(9, idx[:333], 3), sample_uniforms(9, idx[333:], 3)])
    assert np.array_equal(whole, parts)


def _splitmix_reference(seed, index, step):
    # the double finalizer chain on Python integers, one sample at a time
    mask = (1 << 64) - 1

    def mix(x):
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & mask
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    gamma = 0x9E3779B97F4A7C15
    x = mix((mix(seed & mask) + gamma * (index + 1)) & mask)
    x = mix((x + gamma * (step + 1)) & mask)
    return (x >> 11) * 2.0**-53


def test_hoisted_stream_keys_match_sample_uniforms_bitwise():
    idx = np.arange(0, 5000, 7, dtype=np.uint64)
    for seed in (0, 9, 2**63 + 5):
        keys = sample_streams(seed, idx)
        for step in (0, 1, 17, 9999):
            u = stream_uniforms(keys, step)
            assert u.tobytes() == sample_uniforms(seed, idx, step).tobytes()
            assert [_splitmix_reference(seed, int(i), step) for i in idx[:20]] == list(u[:20])


def test_per_walk_steps_match_scalar_steps_bitwise():
    # a walk in flight draws at its own step: one counter per key
    seed = 9
    idx = np.arange(0, 700, 7, dtype=np.uint64)
    keys = sample_streams(seed, idx)
    # at 2^64 - 1 the counter step + 1 wraps to 0
    counters = (0, 1, 2**32, 2**64 - 1)
    steps = np.asarray(counters, dtype=np.uint64)[np.arange(idx.size) % len(counters)]
    u = stream_uniforms(keys, steps)
    for k, step in enumerate(counters):
        scalar = stream_uniforms(keys[k :: len(counters)], step)
        assert u[k :: len(counters)].tobytes() == scalar.tobytes()
        assert _splitmix_reference(seed, int(idx[k]), step) == u[k]


SEEDS = (0, 9, 2**63 + 5, 2**64 - 1)
# at 2^64 - 1 the counter step + 1 wraps to 0
COUNTERS = (0, 1, 2**32, 2**64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_int_path_matches_array_path_and_reference_bitwise(seed):
    idx = np.asarray([0, 1, 2, 1000, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    keys = sample_streams(seed, idx)
    for step in COUNTERS:
        u = sample_uniforms(seed, idx, step)
        for k, i in enumerate(idx.tolist()):
            x = sample_uniforms(seed, i, step)
            assert type(x) is float
            assert x == u[k] == _splitmix_reference(seed, i, step)
            assert sample_streams(seed, i) == int(keys[k])
            assert stream_uniforms(int(keys[k]), step) == x


@pytest.mark.parametrize("seed", SEEDS)
def test_int_path_matches_per_key_step_arrays_bitwise(seed):
    idx = np.arange(0, 70, 7, dtype=np.uint64)
    steps = np.asarray(COUNTERS, dtype=np.uint64)[np.arange(idx.size) % len(COUNTERS)]
    u = stream_uniforms(sample_streams(seed, idx), steps)
    for i, step, x in zip(idx.tolist(), steps.tolist(), u.tolist()):
        assert sample_uniforms(seed, i, step) == x == _splitmix_reference(seed, i, step)


def test_array_arguments_are_not_modified():
    idx = np.arange(50, dtype=np.uint64)
    steps = np.arange(50, dtype=np.uint64) * np.uint64(3)
    keys = sample_streams(5, idx)
    before = (idx.copy(), steps.copy(), keys.copy())
    sample_uniforms(5, idx, steps)
    stream_uniforms(keys, steps)
    stream_uniforms(keys, 7)
    for array, copy in zip((idx, steps, keys), before):
        assert array.tobytes() == copy.tobytes()

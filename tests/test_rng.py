"""Generator determinism and the scalar/vector path equivalence."""

import numpy as np
import pytest

from seqtag.rng import SplitMix64


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_vectorised_floats_match_scalar_path():
    a = SplitMix64(99)
    b = SplitMix64(99)
    scalar = np.array([a.next_float() for _ in range(257)])
    np.testing.assert_array_equal(scalar, b.floats(257))
    # streams stay aligned after the batch
    assert a.next_u64() == b.next_u64()


@pytest.mark.parametrize("n", [0, 1, 50, 65535, 65536, 65537, 3 * 65536 + 11])
def test_floats_match_scalar_path_across_blocks(n):
    # `floats` mixes states in blocks of 65536: cover sizes inside one
    # block (dropout masks), at its edge, and across two or more blocks
    a = SplitMix64(2**64 - 3)
    b = SplitMix64(2**64 - 3)
    scalar = np.array([a.next_float() for _ in range(n)])
    np.testing.assert_array_equal(scalar, b.floats(n))
    assert a._state == b._state


def test_floats_in_unit_interval():
    vals = SplitMix64(7).floats(10_000)
    assert vals.min() >= 0.0
    assert vals.max() < 1.0
    # crude uniformity: mean near 1/2
    assert abs(vals.mean() - 0.5) < 0.02


def test_fork_gives_distinct_stream():
    parent = SplitMix64(5)
    child = parent.fork()
    assert [parent.next_u64() for _ in range(5)] != [child.next_u64() for _ in range(5)]


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(50))
    a, b = list(items), list(items)
    SplitMix64(11).shuffle(a)
    SplitMix64(11).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items


def test_randint_bounds():
    rng = SplitMix64(13)
    draws = [rng.randint(7) for _ in range(2000)]
    assert min(draws) == 0
    assert max(draws) == 6


@pytest.mark.parametrize("shape", [(3, 7), (65536,), (65537,), (3, 65536 + 5)])
def test_uniform_array_scales_floats_bit_for_bit_across_blocks(shape):
    # `uniform_array` scales and shifts each block of `floats` as it is
    # drawn: the result must be the whole-array formula's, bit for bit
    lo, hi = -0.37, 0.81
    a = SplitMix64(41)
    b = SplitMix64(41)
    expected = (a.floats(int(np.prod(shape))) * (hi - lo) + lo).reshape(shape)
    np.testing.assert_array_equal(b.uniform_array(shape, lo, hi), expected)
    assert a._state == b._state

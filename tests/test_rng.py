"""Generator determinism and the scalar/vector path equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtag import lanes
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


BLOCK = 1 << 16


def _reference_floats(state: int, n: int) -> np.ndarray:
    """The n floats after `state` by the splitmix rule on wrapping numpy
    uint64, each output's top 53 bits times 2^-53 in one mixed multiply."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(state)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(mult)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * 2.0**-53


def test_reference_floats_are_the_scalar_path():
    a = SplitMix64(2**64 - 9)
    expected = np.array([a.next_float() for _ in range(300)])
    assert _reference_floats(2**64 - 9, 300).tobytes() == expected.tobytes()


_WIDE = st.floats(-1e6, 1e6)
_TINY = st.floats(-1e-290, 1e-290)


@settings(max_examples=120, deadline=None)
@given(n=st.one_of(st.integers(0, 300),
                   st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                                    2 * BLOCK + 1, 2 * BLOCK + 2, 2 * BLOCK + 3, 3 * BLOCK + 7])),
       bounds=st.one_of(
           st.tuples(_WIDE, _WIDE),
           # tiny widths, whose width * 2^-53 is subnormal, zero or barely normal
           st.tuples(_TINY, _TINY),
           _WIDE.map(lambda x: (x, x)),
           st.tuples(st.floats(-1e308, 1e308), st.floats(-1e308, 1e308))),
       seed=st.integers(0, 2**64 - 1), cpus=st.sampled_from([1, 2]))
def test_draws_are_the_two_multiply_formula_bit_for_bit(n, bounds, seed, cpus):
    # the draw writes each block's integers through an int64 view and
    # folds 2^-53 into the width: on one lane or two, in any block, the
    # bits must be u * 2^-53, then times (hi - lo), then plus lo
    lo, hi = bounds
    floats = _reference_floats(seed, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lanes, "usable_cpus", lambda: cpus)
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert a.floats(n).tobytes() == floats.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = floats * (hi - lo) + lo
            assert b.uniform_array((n,), lo, hi).tobytes() == expected.tobytes()
    assert a._state == b._state == SplitMix64(seed)._state + n * 0x9E3779B97F4A7C15 & (2**64 - 1)


def test_a_subnormal_folded_scale_keeps_the_two_multiplies():
    # here u * (w * 2^-53) differs from u * 2^-53 * w in every entry
    lo, hi = 0.0, 3e-300
    floats = SplitMix64(3).floats(1000)
    assert np.all(floats * 2.0**53 * ((hi - lo) * 2.0**-53) != floats * (hi - lo))
    assert SplitMix64(3).uniform_array((1000,), lo, hi).tobytes() == (floats * (hi - lo) + lo).tobytes()

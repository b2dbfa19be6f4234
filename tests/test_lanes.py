"""Whole-parameter passes on two lanes: the same bytes as on one, and no
thread left behind."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from seqtag import autodiff as ad
from seqtag import lanes, training
from seqtag import model as m
from seqtag.data import SyntheticSpec, build_vocabularies, encode_corpus, make_synthetic_corpus
from seqtag.model import ModelParameters
from seqtag.rng import SplitMix64
from seqtag.training import Adam, Corpus, TrainingConfig, multi_run, train

# one tensor holds most of the entries, as the word table does at paper
# dims, so the halves cut inside it (by row blocks) or right after it (by
# whole tensors); the small tensors fit in one block each
SHAPES = ((1500, 64), (5,), (3, 4), (300, 120), (2, 2), (250, 150), (7,))


@pytest.fixture
def starts(monkeypatch):
    """Counts `threading.Thread.start` calls."""
    count = [0]
    original = threading.Thread.start

    def start(self):
        count[0] += 1
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return count


def on_lanes(monkeypatch, cpus: int):
    monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)


def both_ways(monkeypatch, starts, compute):
    """compute() on one lane, then on two; asserts that only the second
    started threads and returns both results."""
    starts[0] = 0
    on_lanes(monkeypatch, 1)
    one = compute()
    assert starts[0] == 0
    on_lanes(monkeypatch, 2)
    two = compute()
    assert starts[0] > 0
    return one, two


def tensors_with_grads(seed: int):
    rng = SplitMix64(seed)
    tensors = [ad.Tensor(rng.uniform_array(shape, -1.0, 1.0), requires_grad=True)
               for shape in SHAPES]
    for t in tensors:
        t.grad = rng.uniform_array(t.values.shape, -2.0, 2.0)
    return tensors


def big_table_setup(seed: int = 3):
    """A small model whose word table (3000 x 32) is the one blocked tensor,
    with an encoded batch and the dual regime's group B."""
    spec = SyntheticSpec(n_train=6, n_dev=2, n_test=0, min_units=2, max_units=4,
                         n_filler_types=10, n_entity_types=5, n_trigger_types=2)
    sentences, _, _ = make_synthetic_corpus(spec, seed)
    vocabs = build_vocabularies(sentences)
    config = TrainingConfig(hidden=6, word_dim=32, char_dim=4, char_hidden=3, label_dim=4)
    dims = replace(training._model_dims(config, vocabs), n_words=3000)
    params = ModelParameters(dims, SplitMix64(seed))
    _, group_b = training.dual_parameter_groups(params)
    return params, encode_corpus(sentences, vocabs), group_b


class TestCut:
    @pytest.mark.parametrize("sizes, k", [
        ([], 0), ([5], 0), ([4, 4], 1), ([1, 1, 1, 1], 2), ([10, 1, 1], 1),
        ([1, 1, 10], 2), ([3, 4, 2], 1), ([2, 4, 3], 2),
    ])
    def test_halves_as_near_equal_as_pieces_allow(self, sizes, k):
        assert lanes.cut(sizes) == k
        best = min(abs(sum(sizes[:j]) - sum(sizes[j:])) for j in range(len(sizes) + 1))
        assert abs(sum(sizes[:k]) - sum(sizes[k:])) == best

    def test_row_blocks_cover_every_entry_once_in_order(self):
        pieces = lanes.row_blocks(SHAPES)
        for i, shape in enumerate(SHAPES):
            mine = [(rows, size) for j, rows, size in pieces if j == i]
            assert sum(size for _, size in mine) == int(np.prod(shape))
            if len(mine) > 1:
                assert mine[0][0].start == 0 and mine[-1][0].stop == shape[0]
                assert all(a.stop == b.start for (a, _), (b, _) in zip(mine, mine[1:]))
        assert max(size for *_, size in pieces) <= lanes.BLOCK


class TestTwoLanesEqualOne:
    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    def test_adam_step(self, monkeypatch, starts, clip_norm):
        def steps():
            tensors = tensors_with_grads(11)
            opt = Adam(tensors, lr=0.01, clip_norm=clip_norm)
            norms = []
            for k in range(3):
                norms.append(opt.grad_norm())
                opt.step()
                for t in tensors:
                    t.grad *= -0.5
            return norms, [t.values for t in tensors] + opt._m + opt._v

        (norms1, arrays1), (norms2, arrays2) = both_ways(monkeypatch, starts, steps)
        if clip_norm is not None:
            assert norms1[0] > clip_norm  # clipping fires
        assert norms1 == norms2
        for a, b in zip(arrays1, arrays2, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_adam_step_with_lanes_switching_often(self, monkeypatch, starts):
        # the lanes share no mutable state: forcing the interpreter to
        # switch threads every microsecond must not change a byte
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.test_adam_step(monkeypatch, starts, 0.5)
        finally:
            sys.setswitchinterval(interval)

    def test_grad_norm_is_the_per_tensor_sums_in_tensor_order(self, monkeypatch, starts):
        tensors = tensors_with_grads(12)
        expected = np.sqrt(sum(float((t.grad * t.grad).sum()) for t in tensors))
        one, two = both_ways(monkeypatch, starts, lambda: Adam(tensors, lr=0.1).grad_norm())
        assert one == two == expected

    def test_l2_penalty(self, monkeypatch, starts):
        params, _, _ = big_table_setup()
        one, two = both_ways(monkeypatch, starts, lambda: training.l2_penalty(params, 0.3))
        assert one == two

    @pytest.mark.parametrize("dual", [False, True])
    def test_step_gradients_l2_add(self, monkeypatch, starts, dual):
        params, batch, group_b = big_table_setup()

        def gradients():
            mode = m.Mode(training=True, dropout_p=0.2, rng=SplitMix64(5))
            value = training.step_gradients(batch, params, mode, 0.05, group_b if dual else ())
            return value, [t.grad.copy() for _, t in params.named_tensors()]

        (value1, grads1), (value2, grads2) = both_ways(monkeypatch, starts, gradients)
        assert value1 == value2
        for a, b in zip(grads1, grads2, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [2 * 65536 + 1, 3 * 65536 + 11])
    def test_floats_and_uniform_array(self, monkeypatch, starts, n):
        def draws():
            rng = SplitMix64(2**64 - 5)
            f = rng.floats(n)
            state = rng._state
            u = rng.uniform_array((n,), -0.37, 0.81)
            return f, state, u, rng._state

        one, two = both_ways(monkeypatch, starts, draws)
        f1, state1, u1, end1 = one
        f2, state2, u2, end2 = two
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(u1, u2)
        assert state1 == state2 and end1 == end2


class TestThreadHygiene:
    def test_desk_dims_train_call_starts_no_thread(self, monkeypatch, starts):
        on_lanes(monkeypatch, 2)
        spec = SyntheticSpec(n_train=12, n_dev=4, n_test=0, min_units=2, max_units=5,
                             n_filler_types=15, n_entity_types=8, n_trigger_types=2)
        train_split, dev_split, _ = make_synthetic_corpus(spec, 4)
        config = TrainingConfig(hidden=24, word_dim=16, char_dim=8, char_hidden=6, label_dim=8,
                                lr=3e-3, dropout=0.5, epochs=2, regime="dual", seed=7)
        train(Corpus(train=train_split, dev=dev_split), config)
        assert starts[0] == 0

    def test_split_pass_leaves_no_thread(self, monkeypatch, starts):
        on_lanes(monkeypatch, 2)
        before = threading.active_count()
        tensors = tensors_with_grads(13)
        Adam(tensors, lr=0.01).step()
        assert starts[0] > 0
        assert threading.active_count() == before

    def test_helper_exception_is_raised_in_the_caller(self):
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError):
            lanes.pair(lambda: 1, lambda: 1 / 0)
        assert threading.active_count() == before
        assert lanes.pair(lambda: 1, lambda: 2) == (1, 2)

    def test_helper_runs_under_the_callers_numpy_error_settings(self, monkeypatch, starts):
        # a diverging step overflows on both lanes; pytest.ini turns a
        # RuntimeWarning into an error, so a helper running under numpy's
        # default settings would raise it
        on_lanes(monkeypatch, 2)
        tensors = tensors_with_grads(15)
        for t in tensors:
            t.grad *= 1e10
        opt = Adam(tensors, lr=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            opt.step()
        assert starts[0] > 0
        assert 0 < lanes.cut(opt._piece_sizes) < len(opt._pieces)
        for t in tensors:  # every piece overflowed, on both lanes
            assert not np.isfinite(t.values).any()

    def test_pool_workers_sharing_two_cpus_take_one_lane_each(self, monkeypatch, starts):
        on_lanes(monkeypatch, 2)
        monkeypatch.setattr(lanes, "_sharers", 1)
        assert lanes.two_lanes(True)
        lanes.share_cpus(2)
        assert not lanes.two_lanes(True)
        Adam(tensors_with_grads(16), lr=0.01).step()
        assert starts[0] == 0
        on_lanes(monkeypatch, 4)
        assert lanes.two_lanes(True)

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_parallel_jobs_match_sequential_after_a_split_pass(self, monkeypatch, starts):
        on_lanes(monkeypatch, 2)
        Adam(tensors_with_grads(14), lr=0.01).step()
        assert starts[0] > 0
        spec = SyntheticSpec(n_train=6, n_dev=6, n_test=0, min_units=2, max_units=4,
                             n_filler_types=12, n_entity_types=6, n_trigger_types=2)
        corpus_split, _, _ = make_synthetic_corpus(spec, 5)
        corpus = Corpus(train=corpus_split, dev=corpus_split)
        config = TrainingConfig(hidden=8, word_dim=8, char_dim=6, char_hidden=4, label_dim=6,
                                lr=5e-3, l2=0.0, dropout=0.1, epochs=2, max_tokens=64,
                                regime="single", seed=3, runs=2)
        sequential = multi_run(corpus, replace(config, jobs=1))
        parallel = multi_run(corpus, replace(config, jobs=2))
        assert sequential.reports == parallel.reports

"""Work on two lanes: the same bytes as on one, and at most one kept
helper thread, which no forked process inherits."""

import ctypes
import math
import os
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqtag import autodiff as ad
from seqtag import lanes, training
from seqtag import model as m
from seqtag.data import (
    SyntheticSpec,
    build_vocabularies,
    encode_corpus,
    make_synthetic_corpus,
)
from seqtag.model import ModelParameters
from seqtag.rng import SplitMix64
from seqtag.training import Adam, Corpus, TrainingConfig, multi_run, predict_corpus, train

# one tensor holds most of the entries, as the word table does at paper
# dims, so the halves cut inside it (by row blocks) or right after it (by
# whole tensors); the small tensors fit in one block each
SHAPES = ((1500, 64), (5,), (3, 4), (300, 120), (2, 2), (250, 150), (7,))
# `lanes.run` itself, for wrappers that record what it returns
RUN = lanes.run


@pytest.fixture
def handoffs(monkeypatch):
    """Counts the pieces of work handed to the helper."""
    count = [0]
    original = lanes._Helper.hand

    def hand(self, work):
        count[0] += 1
        original(self, work)

    monkeypatch.setattr(lanes._Helper, "hand", hand)
    return count


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


@pytest.fixture
def one_blas_thread():
    """BLAS on one thread for the test, as a product splits only then."""
    getters = lanes.openblas_calls("get_num_threads")
    setters = lanes.openblas_calls("set_num_threads")
    if not getters or len(setters) != len(getters):
        pytest.skip("no OpenBLAS whose thread count can be set")
    before = [get() for get in getters]
    for set_threads in setters:
        set_threads(1)
    yield
    for set_threads, count in zip(setters, before):
        set_threads(count)


def on_lanes(monkeypatch, cpus: int):
    monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)


def lane_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "seqtag-lane"]


def on_helper(work):
    """work() run on the helper: the calling lane waits until the helper
    has claimed it."""
    claimed = threading.Event()

    def claim():
        claimed.set()
        return work()

    return lanes.pair(lambda: claimed.wait(10), claim)[1]


def both_ways(monkeypatch, handoffs, compute):
    """compute() on one lane, then on two; asserts that only the second
    handed work to the helper and returns both results."""
    handoffs[0] = 0
    on_lanes(monkeypatch, 1)
    one = compute()
    assert handoffs[0] == 0
    on_lanes(monkeypatch, 2)
    two = compute()
    assert handoffs[0] > 0
    return one, two


def tensors_with_grads(seed: int):
    rng = SplitMix64(seed)
    tensors = [ad.Tensor(rng.uniform_array(shape, -1.0, 1.0), requires_grad=True)
               for shape in SHAPES]
    for t in tensors:
        t.grad = rng.uniform_array(t.values.shape, -2.0, 2.0)
    return tensors


def signed_zero_tensors(seed: int):
    """`tensors_with_grads` with +0.0 and -0.0 gradient entries, beside
    values of either sign of zero, in every combination."""
    tensors = tensors_with_grads(seed)
    for t in tensors:
        values, grad = t.values.reshape(-1), t.grad.reshape(-1)
        values[:4] = [0.0, -0.0, 0.0, -0.0]
        grad[:4] = [0.0, 0.0, -0.0, -0.0]
        grad[5::7] = -0.0
        grad[6::11] = 0.0
    return tensors


def zero_start_step(grads, values, moments, velocities, step, clip_norm, lr):
    """One Adam step from moments that started at zero, one operation at a
    time in the order `Adam.step` runs from its second step on; whole
    arrays, as elementwise results do not depend on the blocking."""
    norm = np.sqrt(sum(float(np.multiply(g, g).sum()) for g in grads))
    factor = clip_norm / norm if clip_norm is not None and norm > clip_norm else 1.0
    bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
    for grad, theta, m, v in zip(grads, values, moments, velocities, strict=True):
        g = grad if factor == 1.0 else np.multiply(grad, factor)
        b = np.subtract(g, m)
        b *= 1.0 - 0.9
        m += b
        b = np.multiply(g, g)
        b -= v
        b *= 1.0 - 0.999
        v += b
        a = np.divide(m, bc1)
        a *= lr
        b = np.divide(v, bc2)
        np.sqrt(b, out=b)
        b += 1e-8
        a /= b
        theta -= a
    return factor != 1.0


def big_table_setup(seed: int = 3, n_words: int = 3000, word_dim: int = 32, label_dim: int = 4):
    """A small model whose word table (by default 3000 x 32) is the one
    blocked tensor, with an encoded batch and the dual regime's group B."""
    spec = SyntheticSpec(n_train=6, n_dev=2, n_test=0, min_units=2, max_units=4,
                         n_filler_types=10, n_entity_types=5, n_trigger_types=2)
    sentences, _, _ = make_synthetic_corpus(spec, seed)
    vocabs = build_vocabularies(sentences)
    config = TrainingConfig(hidden=6, word_dim=word_dim, char_dim=4, char_hidden=3,
                            label_dim=label_dim)
    dims = replace(training._model_dims(config, vocabs), n_words=n_words)
    params = ModelParameters(dims, SplitMix64(seed))
    _, group_b = training.dual_parameter_groups(params)
    return params, encode_corpus(sentences, vocabs), group_b


def trained(hidden: int, word_dim: int, n_train: int):
    """The parameters of a dual-regime `train` call, and its train and dev
    sentences encoded for tagging."""
    spec = SyntheticSpec(n_train=n_train, n_dev=4 * n_train, n_test=0, min_units=2, max_units=5,
                         n_filler_types=15, n_entity_types=8, n_trigger_types=2)
    train_split, dev_split, _ = make_synthetic_corpus(spec, 4)
    config = TrainingConfig(hidden=hidden, word_dim=word_dim, char_dim=8, char_hidden=6,
                            label_dim=8, feat_dim=8, lr=3e-3, dropout=0.5, epochs=1,
                            regime="dual", seed=7)
    result = train(Corpus(train=train_split, dev=dev_split), config)
    return result.params, encode_corpus(train_split + dev_split, build_vocabularies(train_split))


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
    def test_adam_step(self, monkeypatch, handoffs, clip_norm):
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

        (norms1, arrays1), (norms2, arrays2) = both_ways(monkeypatch, handoffs, steps)
        if clip_norm is not None:
            assert norms1[0] > clip_norm  # clipping fires
        assert norms1 == norms2
        for a, b in zip(arrays1, arrays2, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("clip_norm", [None, 0.5])
    def test_first_update_writes_what_zero_moments_give(self, monkeypatch, handoffs, clip_norm):
        # the first step makes the moments and writes them directly; after
        # it and each later step, they and the values hold the bytes of a
        # start from zero moments, signed zeros included
        def steps():
            tensors = signed_zero_tensors(17)
            values = [t.values.copy() for t in tensors]
            moments = [np.zeros_like(v) for v in values]
            velocities = [np.zeros_like(v) for v in values]
            opt = Adam(tensors, lr=0.01, clip_norm=clip_norm)
            fired = []
            for step in range(1, 4):
                grads = [t.grad.copy() for t in tensors]
                opt.step()
                fired.append(zero_start_step(grads, values, moments, velocities, step,
                                             clip_norm, 0.01))
                for name, got, want in (("m", opt._m, moments), ("v", opt._v, velocities),
                                        ("values", [t.values for t in tensors], values)):
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True)), \
                        f"{name} after step {step}"
                for t in tensors:  # flips the sign of every zero
                    t.grad *= -0.5
            return fired, [t.values.tobytes() for t in tensors]

        (fired, values1), (_, values2) = both_ways(monkeypatch, handoffs, steps)
        assert fired == [clip_norm is not None] * 3
        assert values1 == values2

    def test_adam_step_with_lanes_switching_often(self, monkeypatch, handoffs):
        # the lanes share no mutable state: forcing the interpreter to
        # switch threads every microsecond must not change a byte
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.test_adam_step(monkeypatch, handoffs, 0.5)
        finally:
            sys.setswitchinterval(interval)

    def test_grad_norm_is_the_per_tensor_sums_in_tensor_order(self, monkeypatch, handoffs):
        tensors = tensors_with_grads(12)
        expected = np.sqrt(sum(float((t.grad * t.grad).sum()) for t in tensors))
        one, two = both_ways(monkeypatch, handoffs, lambda: Adam(tensors, lr=0.1).grad_norm())
        assert one == two == expected

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(size=st.one_of(st.integers(1, 5 * lanes.BLOCK),
                          st.builds(lambda k, r: k * lanes.BLOCK + r, st.integers(1, 5),
                                    st.sampled_from([1, 3, 7, 9, 15, 127, 129, 1023]))),
           width=st.sampled_from([None, 1, 3, 8, 300, 1200]), seed=st.integers(0, 2**32 - 1))
    def test_grad_norm_sums_are_numpys_sums_bit_for_bit(self, monkeypatch, handoffs, size, width,
                                                        seed):
        rule = ("numpy's pairwise sum no longer splits n > 128 entries into the first "
                "n // 2 - (n // 2) % 8 and the rest: lanes.square_sum splits where it did")
        rng = np.random.default_rng(seed)
        shape = (size,) if width is None else (max(1, size // width), width)
        grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        expected = float(np.multiply(grad, grad).sum())
        assert lanes.square_sum(grad, np.empty(lanes.BLOCK)).hex() == expected.hex(), rule
        # a second blocked tensor, so that each lane squares one of the two
        other = rng.standard_normal(2 * lanes.BLOCK + 3)
        tensors = [ad.Tensor(np.zeros_like(g), requires_grad=True) for g in (grad, other)]
        tensors[0].grad, tensors[1].grad = grad, other
        want = [expected, float(np.multiply(other, other).sum())]
        sums = []

        def run(*args):
            sums.append(RUN(*args))
            return sums[-1]

        monkeypatch.setattr(lanes, "run", run)
        one, two = both_ways(monkeypatch, handoffs, lambda: Adam(tensors, lr=0.1).grad_norm())
        assert [[s.hex() for s in lane] for lane in sums] == [[w.hex() for w in want]] * 2, rule
        assert one == two == np.sqrt(sum(want))

    def test_l2_penalty(self, monkeypatch, handoffs):
        params, _, _ = big_table_setup()
        one, two = both_ways(monkeypatch, handoffs, lambda: training.l2_penalty(params, 0.3))
        assert one == two

    @pytest.mark.parametrize("dual", [False, True])
    def test_step_gradients_l2_add(self, monkeypatch, handoffs, dual):
        params, batch, group_b = big_table_setup()

        def gradients():
            mode = m.Mode(training=True, dropout_p=0.2, rng=SplitMix64(5))
            value = training.step_gradients(batch, params, mode, 0.05, group_b if dual else ())
            return value, [t.grad.copy() for _, t in params.named_tensors()]

        (value1, grads1), (value2, grads2) = both_ways(monkeypatch, handoffs, gradients)
        assert value1 == value2
        for a, b in zip(grads1, grads2, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [2 * 65536 + 1, 3 * 65536 + 11])
    def test_floats_and_uniform_array(self, monkeypatch, handoffs, n):
        def draws():
            rng = SplitMix64(2**64 - 5)
            f = rng.floats(n)
            state = rng._state
            u = rng.uniform_array((n,), -0.37, 0.81)
            return f, state, u, rng._state

        one, two = both_ways(monkeypatch, handoffs, draws)
        f1, state1, u1, end1 = one
        f2, state2, u2, end2 = two
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(u1, u2)
        assert state1 == state2 and end1 == end2


def row_tables_setup():
    """`big_table_setup` with two tables that keep their gradients as rows:
    the word table, 3001 x 30, whose rows numpy's pairwise split points cut
    (the first falls at entry 45,008); and the label table, 8 x 8251,
    which both decoders gather from, so that the full pass scatters into it
    twice.  Each table holds +0.0 and -0.0 in a row no id reaches and in one
    that ids reach."""
    params, batch, group_b = big_table_setup(n_words=3001, word_dim=30, label_dim=8251)
    for name, rows in (("embed.word", (3000, 4)), ("embed.label", (0, 4))):
        for row in rows:
            params.get(name).values[row, :4] = [0.0, -0.0, -0.0, 0.0]
    return params, batch, group_b


def adam_rounds(params, batch, group_b, l2, clip_norm, dense, read):
    """Three dual-regime rounds of `step_gradients`, each group's
    `grad_norm` and `Adam.step`, from a clone of `params`.  Tensors above
    `BLOCK` get a dense `.grad` before each round when `dense`; with
    `read`, every `.grad` is read once the gradients are taken.  Per round:
    which tensors held rows then, and the bytes of the loss, every
    gradient (formed from its rows where it keeps them), the norms, the
    values and the moments."""
    params = params.clone()
    groups = training.dual_parameter_groups(params)
    opts = [Adam([params.get(n) for n in names], 0.01, clip_norm=clip_norm) for names in groups]
    mode = m.Mode(training=True, dropout_p=0.2, rng=SplitMix64(5))
    tensors = [t for _, t in params.named_tensors()]
    rounds = []
    for _ in range(3):
        if dense:
            for t in tensors:
                if t.values.size > lanes.BLOCK:
                    t.grad = np.zeros(t.values.shape)
        loss = training.step_gradients(batch, params, mode, l2, group_b)
        with_rows = sorted(t.name for t in tensors if t.rows is not None)
        grads = [(t.grad if read or t.rows is None
                  else t.rows.form(0, t.values.shape[0], np.empty(t.values.shape))).tobytes()
                 for t in tensors]
        norms = [float(opt.grad_norm()).hex() for opt in opts]
        for opt in opts:
            opt.step()
        rounds.append((with_rows, loss.hex(), grads, norms, [t.values.tobytes() for t in tensors],
                       [a.tobytes() for opt in opts for a in opt._m + opt._v]))
    return rounds


class TestRowGradients:
    @pytest.mark.parametrize("read", [False, True], ids=["rows", "read"])
    @pytest.mark.parametrize("clip_norm", [None, 1e-3], ids=["no-clip", "clip"])
    @pytest.mark.parametrize("l2", [0.0, 0.05])
    def test_formed_gradients_give_the_dense_bytes(self, monkeypatch, handoffs, l2, clip_norm,
                                                   read):
        # the word and label tables keep rows: duplicate ids within a
        # scatter and across the label table's two, in unsorted order; with
        # `read`, the traced run's path, every table takes the dense path
        # after its first read
        params, batch, group_b = row_tables_setup()
        assert all(params.get(n).values.size > 2 * lanes.BLOCK for n in ("embed.word", "embed.label"))
        on_lanes(monkeypatch, 1)
        reference = adam_rounds(params, batch, group_b, l2, clip_norm, dense=True, read=False)
        assert all(r[0] == [] for r in reference)
        one, two = both_ways(monkeypatch, handoffs, lambda: adam_rounds(
            params, batch, group_b, l2, clip_norm, dense=False, read=read))
        tables = ["embed.label", "embed.word"]
        assert [r[0] for r in one] == ([tables, [], []] if read else [tables] * 3)
        if clip_norm is not None:
            assert float.fromhex(reference[0][3][0]) > clip_norm  # clipping fires
        for got in (one, two):
            for k, (want, have) in enumerate(zip(reference, got, strict=True)):
                for item, a, b in zip(("loss", "gradients", "norms", "values", "moments"),
                                      want[1:], have[1:], strict=True):
                    assert a == b, f"{item} after round {k + 1}"

    def test_formed_gradients_with_lanes_switching_often(self, monkeypatch, handoffs):
        # both lanes form blocks of one table's rows at once
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self.test_formed_gradients_give_the_dense_bytes(monkeypatch, handoffs, 0.05, 1e-3, False)
        finally:
            sys.setswitchinterval(interval)

    def test_reading_forms_and_keeps_the_dense_gradient_and_setting_drops_rows(self):
        params, batch, group_b = row_tables_setup()
        table = params.get("embed.word")
        mode = m.Mode(training=True, dropout_p=0.0, rng=None)
        training.step_gradients(batch, params, mode, 0.05, group_b)
        # what the byte tests rest on: repeated ids, out of order, in one
        # scatter; two scatters into the label table
        (ids, _), = table.rows.scatters
        assert np.unique(ids).size < ids.size and (np.diff(ids) < 0).any()
        assert len(params.get("embed.label").rows.scatters) == 2
        formed = table.rows.form(0, table.values.shape[0], np.empty(table.values.shape))
        grad = table.grad
        assert table.rows is None and table.grad is grad
        assert grad.tobytes() == formed.tobytes()
        params.zero_grads()  # the dense path, until `.grad` is set
        assert table.rows is None and table.grad is grad and not grad.any()
        table.grad = None
        params.zero_grads()
        assert table.rows is not None and not table.rows.scatters
        training.step_gradients(batch, params, mode, 0.05, group_b)
        assert table.rows.scatters and table.rows.l2 == 0.05
        table.grad = None
        assert table.rows is None and table.grad is None


def with_signed_zeros(array: np.ndarray) -> np.ndarray:
    flat = array.reshape(-1)
    flat[:4] = [0.0, -0.0, 0.0, -0.0]
    flat[5::7] = -0.0
    return array


def flat_rounds(clip_norm):
    """Three dual-regime rounds over `row_tables_setup`'s model, whose
    group A also steps two tensors from outside it, one of exactly `BLOCK`
    entries (flat) and one of `BLOCK + 1` (not).  Each round asserts that
    each group's norm and the bytes of its values and moments equal a
    per-tensor numpy reference in the chain's operation order; returns the
    rounds' norms and the final values."""
    params, batch, group_b = row_tables_setup()
    names_a, names_b = training.dual_parameter_groups(params)
    rng = SplitMix64(29)
    edge = ad.Tensor(rng.uniform_array((lanes.BLOCK // 64, 64), -1.0, 1.0), requires_grad=True)
    over = ad.Tensor(rng.uniform_array((lanes.BLOCK + 1,), -1.0, 1.0), requires_grad=True)
    group_a = [params.get(n) for n in names_a]
    small = [t for t in group_a if t.values.size <= lanes.BLOCK]
    for t in small + [edge, over]:
        t.values.reshape(-1)[:2] = [0.0, -0.0]
    groups = [group_a[:3] + [edge] + group_a[3:] + [over], [params.get(n) for n in names_b]]
    assert any(t.values.size > lanes.BLOCK and t.values.ndim == 2 for t in group_a)
    opts = [Adam(tensors, 0.01, clip_norm=clip_norm) for tensors in groups]
    refs = [([t.values.copy() for t in tensors], [np.zeros(t.values.shape) for t in tensors],
             [np.zeros(t.values.shape) for t in tensors]) for tensors in groups]
    mode = m.Mode(training=True, dropout_p=0.2, rng=SplitMix64(5))
    norms = []
    for step in range(1, 4):
        training.step_gradients(batch, params, mode, 0.05, group_b)
        # the edge tensor's gradient is set anew in rounds 1 and 3 and
        # written in place in round 2; a small model tensor's is set anew
        # from round 2 on, after its view was written
        grad = with_signed_zeros(rng.uniform_array(edge.values.shape, -2.0, 2.0))
        if step == 2:
            edge.grad[...] = grad
        else:
            edge.grad = grad
        over.grad = with_signed_zeros(rng.uniform_array(over.values.shape, -2.0, 2.0))
        if step > 1:
            small[1].grad = small[1].grad * -0.5
        grads = [[t.grad.copy() if t.rows is None
                  else t.rows.form(0, t.values.shape[0], np.empty(t.values.shape))
                  for t in tensors] for tensors in groups]
        got = [opt.grad_norm() for opt in opts]
        for opt in opts:
            opt.step()
        want = [np.sqrt(sum(float(np.multiply(g, g).sum()) for g in gs)) for gs in grads]
        assert [n.hex() for n in got] == [n.hex() for n in want], f"norms in round {step}"
        for opt, tensors, gs, (values, moments, velocities) in zip(opts, groups, grads, refs,
                                                                  strict=True):
            zero_start_step(gs, values, moments, velocities, step, clip_norm, 0.01)
            for name, have, ref in (("values", [t.values for t in tensors], values),
                                    ("m", opt._m, moments), ("v", opt._v, velocities)):
                assert [a.tobytes() for a in have] == [a.tobytes() for a in ref], \
                    f"{name} of group {opts.index(opt)} after round {step}"
        norms.append(got)
    # the small gradients are views of the flat buffer, the others are not
    flat = opts[0]._grads[0]
    assert all(np.shares_memory(t.grad, flat) == (t.values.size <= lanes.BLOCK)
               for t in groups[0] if t.rows is None)
    assert len(opts[0]._grads) == 1 and edge.values.size == lanes.BLOCK
    return norms, [t.values.tobytes() for tensors in groups for t in tensors]


class TestFlatBuffers:
    @pytest.mark.parametrize("clip_norm", [None, 1e-3], ids=["no-clip", "clip"])
    def test_flat_path_gives_the_per_tensor_bytes(self, monkeypatch, handoffs, clip_norm):
        (norms, values1), (_, values2) = both_ways(monkeypatch, handoffs,
                                                   lambda: flat_rounds(clip_norm))
        if clip_norm is not None:
            assert all(n > clip_norm for n in norms[0])  # clipping fires
        assert values1 == values2

    def test_first_pass_binds_each_small_gradient_to_its_slice(self):
        tensors = tensors_with_grads(31)
        given = [t.grad for t in tensors]
        opt = Adam(tensors, lr=0.01)
        assert opt._grads is None
        opt.grad_norm()
        (flat,) = opt._grads
        for t, g in zip(tensors, given, strict=True):
            if t.values.size <= lanes.BLOCK:
                assert t.grad is not g and np.shares_memory(t.grad, flat)
                assert t.grad.shape == t.values.shape and t.grad.tobytes() == g.tobytes()
            else:
                assert t.grad is g
        assert opt._m is None and opt._v is None
        opt.step()
        for t, mom, vel in zip(tensors, opt._m, opt._v, strict=True):
            small = t.values.size <= lanes.BLOCK
            assert mom.shape == vel.shape == t.values.shape
            assert np.shares_memory(mom, opt._moments[0][0]) == small
            assert np.shares_memory(vel, opt._moments[1][0]) == small

    def test_runs_cut_at_block_and_buffers_at_the_flat_limit(self):
        block = lanes.BLOCK
        buffers, runs = training.flat_runs([5, block + 1, block - 5, 6, block, 3])
        assert buffers == [2 * block + 9]
        assert [(r.lo, r.hi, r.members) for r in runs] == [
            (0, block, ((0, 0, 5), (2, 5, block))),
            (block, block + 6, ((3, 0, 6),)),
            (block + 6, 2 * block + 6, ((4, 0, block),)),
            (2 * block + 6, 2 * block + 9, ((5, 0, 3),))]
        count = 3 * training.FLAT_LIMIT // block
        buffers, runs = training.flat_runs([block] * count)
        assert buffers == [training.FLAT_LIMIT] * 3
        assert [r.buffer for r in runs] == [k * 3 // count for k in range(count)]


class TestProducts:
    # the fixtures' settings hold for every example; `handoffs` is reset in each
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(inner=st.integers(6, 1800), cols=st.integers(7, 1800), extra=st.integers(0, 100),
           a_layout=st.sampled_from(["rows", "transposed", "column-sliced"]),
           b_layout=st.sampled_from(["rows", "transposed"]), seed=st.integers(0, 2**32 - 1))
    def test_split_product_equals_one_product_byte_for_byte(
            self, monkeypatch, handoffs, one_blas_thread, inner, cols, extra, a_layout, b_layout,
            seed):
        # the split forced on for products whose halves just leave OpenBLAS's
        # small-matrix path: each half above 10^6 multiply-adds
        on_lanes(monkeypatch, 2)
        monkeypatch.setattr(lanes, "SPLIT_MACS", 10**6)
        half_rows = max(lanes.SPLIT_ROWS, math.ceil((10**6 + 1) / (inner * cols)))
        rows = 2 * half_rows + 2 * lanes.SPLIT_ROWS + extra
        rng = np.random.default_rng(seed)
        if a_layout == "rows":
            a = rng.standard_normal((rows, inner))
        elif a_layout == "transposed":  # as `av.T`
            a = rng.standard_normal((inner, rows)).T
        else:  # as `da[:, :2 * hid]`
            a = rng.standard_normal((rows, 3 * inner))[:, :inner]
        b = (rng.standard_normal((inner, cols)) if b_layout == "rows"
             else rng.standard_normal((cols, inner)).T)
        handoffs[0] = 0
        split = lanes.matmul(a, b)
        assert handoffs[0] == 1
        assert split.tobytes() == (a @ b).tobytes()

    @pytest.mark.parametrize("blas", ["one thread", "default threads"])
    def test_gate_block_products_equal_separate_products(self, request, monkeypatch, handoffs,
                                                         blas):
        # as `gru_scan` forms its z and r gates: the x W products into the
        # halves of a (2, rows, H) block, each step's h U products into the
        # first k rows of the halves of a taller (2, ., H) block; from one row
        # (numpy's gemv path) to past the split size (351 x 630 x 600)
        if blas == "one thread":
            request.getfixturevalue("one_blas_thread")
        on_lanes(monkeypatch, 2)
        rng = np.random.default_rng(11)
        handoffs[0] = 0
        for k in (1, 2, 23, 138, 351):
            for hid, width in ((6, 8), (24, 40), (300, 630), (600, 630)):
                x, h = rng.standard_normal((k, width)), rng.standard_normal((k, hid))
                w = [rng.standard_normal((width, hid)) for _ in range(2)]
                u = [rng.standard_normal((hid, hid)) for _ in range(2)]
                xw_block, hu_block = np.empty((2, k, hid)), np.empty((2, k + 5, hid))
                for gate in range(2):
                    half = xw_block[gate]
                    assert lanes.matmul(x, w[gate], out=half) is half
                    lanes.matmul(h, u[gate], out=hu_block[gate, :k])
                for gate in range(2):
                    assert xw_block[gate].tobytes() == (x @ w[gate]).tobytes()
                    assert xw_block[gate].tobytes() == lanes.matmul(x, w[gate]).tobytes()
                    assert hu_block[gate, :k].tobytes() == (h @ u[gate]).tobytes()
                    assert hu_block[gate, :k].tobytes() == lanes.matmul(h, u[gate]).tobytes()
        # the largest products split where BLAS runs one thread, and only there
        assert (handoffs[0] > 0) == (lanes.blas_threads() == 1)

    def test_a_product_splits_only_when_each_half_is_large(self, monkeypatch, handoffs,
                                                           one_blas_thread):
        on_lanes(monkeypatch, 2)
        b = np.ones((512, 512))
        # halves of 24 and 40 rows, 24 x 512 x 512 under SPLIT_MACS; then 48 and 48
        for rows, splits in ((64, 0), (96, 1)):
            handoffs[0] = 0
            lanes.matmul(np.ones((rows, 512)), b)
            assert handoffs[0] == splits
        for cpus, blas in ((1, 1), (2, 2)):  # one CPU, or BLAS on two threads
            on_lanes(monkeypatch, cpus)
            monkeypatch.setattr(lanes, "blas_threads", lambda blas=blas: blas)
            lanes.matmul(np.ones((96, 512)), b)
            assert handoffs[0] == 1

    def test_train_and_predict_equal_on_one_lane_and_two(self, monkeypatch, handoffs,
                                                         one_blas_thread):
        # at hidden 160 the largest products split, in train and in predict
        def run():
            handoffs[0] = 0
            params, sentences = trained(160, 128, 16)
            in_train = handoffs[0]
            tags = predict_corpus(params, sentences)
            values = [t.values for _, t in params.named_tensors()]
            return values, tags, in_train, handoffs[0] - in_train

        (values1, tags1, _, _), (values2, tags2, in_train, in_predict) = both_ways(
            monkeypatch, handoffs, run)
        assert in_train > 0 and in_predict > 0
        for a, b in zip(values1, values2, strict=True):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(tags1, tags2, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_openblas_functions_are_found_once(self, monkeypatch):
        # a product above the split size asks for BLAS's thread count:
        # ctypes looks up a missing symbol spelling again at every ask
        if lanes.blas_threads() is None:
            pytest.skip("no OpenBLAS loaded")
        lookups = [0]
        original = ctypes.CDLL.__getitem__

        def getitem(self, name):
            lookups[0] += 1
            return original(self, name)

        monkeypatch.setattr(ctypes.CDLL, "__getitem__", getitem)
        for _ in range(3):
            assert lanes.blas_threads() >= 1
        assert lookups[0] == 0


class TestThreadHygiene:
    def test_desk_dims_train_call_starts_no_thread(self, monkeypatch, handoffs, starts,
                                                   one_blas_thread):
        # train and predict_corpus at desk dims: no product or pass splits
        on_lanes(monkeypatch, 2)
        predict_corpus(*trained(24, 16, 12))
        assert handoffs[0] == 0
        assert starts[0] == 0

    def test_split_work_keeps_at_most_one_helper(self, monkeypatch, handoffs, one_blas_thread):
        on_lanes(monkeypatch, 2)
        a, b = np.ones((96, 512)), np.ones((512, 512))
        for seed in range(10):
            Adam(tensors_with_grads(seed), lr=0.01).step()
            lanes.matmul(a, b)
        assert handoffs[0] >= 20
        helpers = lane_threads()
        assert len(helpers) == 1 and helpers[0].daemon

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_no_helper_lives_across_a_fork(self, monkeypatch, handoffs):
        on_lanes(monkeypatch, 2)
        Adam(tensors_with_grads(13), lr=0.01).step()
        assert handoffs[0] > 0 and lane_threads()
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ok = not lane_threads() and lanes._helper is None
            finally:
                os._exit(0 if ok else 1)
        assert not lane_threads()  # stopped before the fork
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        Adam(tensors_with_grads(13), lr=0.01).step()  # the next split starts one
        assert len(lane_threads()) == 1

    def test_helper_exception_is_raised_in_the_caller(self):
        with pytest.raises(ZeroDivisionError):
            on_helper(lambda: 1 / 0)
        helper = lanes._helper.thread
        with pytest.raises(ZeroDivisionError):
            lanes.pair(lambda: 1 / 0, lambda: 2)
        assert lanes.pair(lambda: 1, lambda: 2) == (1, 2)
        # still the same helper, still usable
        assert on_helper(threading.current_thread) is helper and helper.is_alive()
        assert lane_threads() == [helper]

    def test_helper_keeps_nothing_of_its_last_work(self):
        # a kept helper that held its last work would hold the arrays that
        # work reads (a product's operands and output) until the next split
        array = np.ones(10)
        ref = weakref.ref(array)
        assert on_helper(lambda held=array: float(held.sum())) == 10.0
        del array
        assert ref() is None

    def test_work_the_helper_has_not_claimed_runs_on_the_caller(self, handoffs):
        on_helper(lambda: None)
        interval = sys.getswitchinterval()
        # the caller keeps the interpreter lock, so the helper cannot claim
        sys.setswitchinterval(10.0)
        try:
            _, ran_on = lanes.pair(lambda: None, threading.current_thread)
        finally:
            sys.setswitchinterval(interval)
        assert ran_on is threading.main_thread()
        assert handoffs[0] == 2
        # the helper skips the work taken back and serves the next
        assert on_helper(threading.current_thread).name == "seqtag-lane"
        assert lanes.pair(lambda: 1, lambda: 2) == (1, 2)

    def test_a_pair_inside_a_pair_runs_on_the_calling_thread(self, handoffs):
        inner = lambda: lanes.pair(lambda: 1, threading.current_thread)  # noqa: E731
        (mine, theirs), _ = lanes.pair(inner, lambda: 2)
        assert mine == 1 and theirs is threading.main_thread()
        assert handoffs[0] == 1

    def test_helper_runs_under_the_callers_numpy_error_settings(self, monkeypatch, handoffs):
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
        assert handoffs[0] > 0
        assert 0 < lanes.cut(opt._piece_sizes) < len(opt._piece_sizes)
        for t in tensors:  # every piece overflowed, on both lanes
            assert not np.isfinite(t.values).any()
        with np.errstate(over="ignore"):
            assert on_helper(lambda: np.float64(1e308) * 10) == np.inf

    def test_pool_workers_sharing_two_cpus_take_one_lane_each(self, monkeypatch, handoffs):
        on_lanes(monkeypatch, 2)
        monkeypatch.setattr(lanes, "_sharers", 1)
        assert lanes.two_lanes(True)
        lanes.share_cpus(2)
        assert not lanes.two_lanes(True)
        Adam(tensors_with_grads(16), lr=0.01).step()
        assert handoffs[0] == 0
        on_lanes(monkeypatch, 4)
        assert lanes.two_lanes(True)

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_parallel_jobs_match_sequential_after_a_split_pass(self, monkeypatch, handoffs):
        on_lanes(monkeypatch, 2)
        Adam(tensors_with_grads(14), lr=0.01).step()
        assert handoffs[0] > 0
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

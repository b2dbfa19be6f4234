"""Network behaviour: shapes, determinism, context sensitivity, the
combination rule, and agreement with the tape-free oracle."""

import tracemalloc

import numpy as np
import pytest

import oracle
import tape_ops as ops
from seqtag import autodiff as ad
from seqtag import model as m
from seqtag.autodiff import Tape, Tensor, backward
from seqtag.data import (
    BOUNDARY,
    EncodedSentence,
    TaggedSentence,
    build_vocabularies,
    encode_corpus,
)
from seqtag.errors import ContractError, DimensionError
from seqtag.model import (
    EVAL,
    LABEL_RESERVED,
    BiGru,
    GruCell,
    ModelDims,
    ModelParameters,
    Packing,
    _label_argmax,
    combine,
    decode_backward,
    decode_forward,
    encode,
    predict_batch,
)
from seqtag.rng import SplitMix64


def tiny_setup(seed=1, blocks=True, with_feats=False, n_sents=4):
    sents = [
        TaggedSentence(tokens=["river", "bank", "tea", "cup"],
                       labels=["O", "B-p", "I-p", "O"]),
        TaggedSentence(tokens=["tea", "in", "the", "cup"],
                       labels=["B-q", "O", "O", "O"]),
        TaggedSentence(tokens=["bank", "by", "a", "river"],
                       labels=["O", "O", "O", "B-p"]),
        TaggedSentence(tokens=["the", "cup", "of", "tea"],
                       labels=["O", "B-q", "I-q", "I-q"]),
    ][:n_sents]
    if with_feats:
        for s in sents:
            s.features = [["W"] * len(s)]
    vocabs = build_vocabularies(sents)
    dims = ModelDims(
        n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
        n_feats=tuple(len(v) for v in vocabs.feats),
        word_dim=5, char_dim=4, char_hidden=3, label_dim=4, feat_dim=2,
        hidden=3, blocks=blocks,
    )
    params = ModelParameters(dims, SplitMix64(seed))
    return params, encode_corpus(sents, vocabs), vocabs


def prefix(sent, k):
    """The first k positions of an encoded sentence."""
    return type(sent)(
        tokens=sent.tokens[:k], word_ids=sent.word_ids[:k], char_ids=sent.char_ids[:k],
        feat_ids=tuple(c[:k] for c in sent.feat_ids),
        label_ids=None if sent.label_ids is None else sent.label_ids[:k],
    )


def packing(batch):
    return Packing([len(s) for s in batch])


class TestPacking:
    def test_layout_sorts_longest_first_and_keeps_ties_in_batch_order(self):
        pack = Packing([2, 4, 1, 4])
        assert pack.order.tolist() == [1, 3, 0, 2]
        assert pack.running.tolist() == [4, 3, 2, 2]
        assert pack.offsets.tolist() == [0, 4, 7, 9]
        seqs = [np.array([10, 11]), np.array([20, 21, 22, 23]), np.array([30]),
                np.array([40, 41, 42, 43])]
        assert pack.gather(seqs).tolist() == [20, 40, 10, 30, 21, 41, 11, 22, 42, 23, 43]

    def test_split_reverses_gather(self):
        rng = SplitMix64(3)
        lengths = [3, 1, 5, 3, 2]
        seqs = [rng.uniform_array((k, 2), -1.0, 1.0) for k in lengths]
        pack = Packing(lengths)
        for got, want in zip(pack.split(pack.gather(seqs)), seqs, strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lengths", [[], [2, 0], [[1, 2]]])
    def test_lengths_must_be_positive(self, lengths):
        with pytest.raises(ContractError):
            Packing(lengths)

    def test_entries_must_match_the_lengths(self):
        with pytest.raises(ContractError):
            Packing([2, 1]).gather([np.zeros(2), np.zeros(2)])


class TestGruCell:
    def _cell(self, seed=3):
        store = m._Store(SplitMix64(seed))
        return GruCell(store, "cell", 4, 5)

    def test_zero_input_zero_state_zero_biases_gives_zero(self):
        cell = self._cell()
        out = cell.scan(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 5))), [2])
        np.testing.assert_array_equal(out.values, np.zeros((2, 5)))

    def test_state_stays_in_open_unit_interval(self):
        cell = self._cell()
        rng = SplitMix64(7)
        h = Tensor(np.zeros((1, 5)))
        for _ in range(30):
            x = Tensor(rng.uniform_array((1, 4), -5.0, 5.0))
            h = cell.scan(x, h, [1])
            assert np.all(np.abs(h.values) < 1.0)

    def test_output_width(self):
        cell = self._cell()
        out = cell.scan(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 5))), [3])
        assert out.values.shape == (3, 5)

    def _cell_with_biases(self, seed):
        cell = self._cell(seed)
        rng = SplitMix64(seed + 100)
        for t in (cell.b_z, cell.b_r, cell.b_h):
            t.values = rng.uniform_array(t.values.shape, -0.5, 0.5)
        return cell, rng

    @staticmethod
    def _op_by_op_step(cell, x, h):
        """The GRU step as one tape operation per arithmetic step: the
        reference the fused scan must reproduce bit for bit."""
        z = ops.sigmoid(ad.add(ad.add(ad.matmul(x, cell.w_z), ad.matmul(h, cell.u_z)), cell.b_z))
        r = ops.sigmoid(ad.add(ad.add(ad.matmul(x, cell.w_r), ad.matmul(h, cell.u_r)), cell.b_r))
        cand = ad.tanh(
            ad.add(ad.add(ad.matmul(x, cell.w_h), ad.matmul(ops.mul(r, h), cell.u_h)), cell.b_h)
        )
        one = Tensor(np.ones(z.values.shape))
        return ad.add(ops.mul(ad.add(ad.scale(z, -1.0), one), h), ops.mul(z, cand))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_scan_equals_chained_steps_bit_for_bit(self, reverse):
        cell, rng = self._cell_with_biases(21)
        n, rows = 4, 3
        x = Tensor(rng.uniform_array((n * rows, 4), -2.0, 2.0))
        h0 = Tensor(rng.uniform_array((rows, 5), -1.0, 1.0))
        states = cell.scan(x, h0, [rows] * n, reverse).values
        h_step = h_ref = h0
        for i in range(n - 1, -1, -1) if reverse else range(n):
            x_i = Tensor(x.values[i * rows:(i + 1) * rows])
            h_step = cell.scan(x_i, h_step, [rows])
            h_ref = self._op_by_op_step(cell, x_i, h_ref)
            np.testing.assert_array_equal(states[i * rows:(i + 1) * rows], h_step.values)
            np.testing.assert_array_equal(h_step.values, h_ref.values)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_packed_scan_runs_each_row_over_its_own_length(self, reverse):
        cell, rng = self._cell_with_biases(27)
        lengths = (4, 3, 3, 1)
        pack = Packing(lengths)
        xs = [rng.uniform_array((k, 4), -2.0, 2.0) for k in lengths]
        h0 = rng.uniform_array((len(lengths), 5), -1.0, 1.0)
        states = cell.scan(Tensor(pack.gather(xs)), Tensor(h0), pack.running, reverse)
        for b, (x, got) in enumerate(zip(xs, pack.split(states.values))):
            # a lone row's products go through gemv, which rounds apart from
            # the GEMM of a stack, so the comparison allows a few ulps
            alone = cell.scan(Tensor(x), Tensor(h0[b:b + 1]), [1] * len(x), reverse)
            np.testing.assert_allclose(got, alone.values, rtol=0, atol=1e-14)

    # counts that grow, reach zero, or do not sum to the 8 rows
    @pytest.mark.parametrize("running", [[2, 3, 3], [4, 4, 0], [3, 2, 2]])
    def test_malformed_running_counts_rejected(self, running):
        cell = self._cell()
        with pytest.raises(DimensionError):
            cell.scan(Tensor(np.zeros((8, 4))), Tensor(np.zeros((running[0], 5))), running)

    def _scan_loss(self, seed, reverse, lengths=None):
        cell, rng = self._cell_with_biases(seed)
        running = Packing((3, 3) if lengths is None else lengths).running
        x = Tensor(rng.uniform_array((sum(running), 4), -1.0, 1.0), requires_grad=True, name="x")
        h0 = Tensor(rng.uniform_array((running[0], 5), -1.0, 1.0), requires_grad=True, name="h0")
        upstream = Tensor(rng.uniform_array((sum(running), 5), -1.0, 1.0))

        def build():
            return ad.tensor_sum(ops.mul(cell.scan(x, h0, running, reverse), upstream))

        weights = [cell.w_z, cell.w_r, cell.w_h, cell.u_z, cell.u_r, cell.u_h,
                   cell.b_z, cell.b_r, cell.b_h]
        return build, [x, h0] + weights, cell

    @pytest.mark.parametrize("reverse, lengths", [
        (False, None), (True, None), (False, (4, 3, 3, 1)), (True, (4, 3, 3, 1)),
    ], ids=["False", "True", "packed-False", "packed-True"])
    def test_scan_gradient_matches_finite_differences(self, reverse, lengths):
        build, tensors, _ = self._scan_loss(23, reverse, lengths)
        with Tape():
            backward(build())
        for t in tensors:
            fd = ad.numeric_gradients(lambda: (build(),), t)[0]
            assert ad.relative_error(t.grad, fd) < 1e-6, t.name

    def test_scan_candidate_derivative_honours_tanh_corruption(self):
        build, _, cell = self._scan_loss(25, False)
        with ad.corrupt_tanh_backward(1.05):
            with Tape():
                backward(build())
        fd = ad.numeric_gradients(lambda: (build(),), cell.b_h)[0]
        assert ad.relative_error(cell.b_h.grad, fd) > 1e-3


class TestUnrecordedScan:
    """A scan no tape records keeps only its states: the same bytes as a
    recorded one, without the arrays its backward rule reads."""

    @staticmethod
    def _setup(input_dim, hidden, lengths, seed=31):
        store = m._Store(SplitMix64(seed))
        cell = GruCell(store, "cell", input_dim, hidden)
        rng = SplitMix64(seed + 1)
        for t in (cell.b_z, cell.b_r, cell.b_h):
            t.values = rng.uniform_array(t.values.shape, -0.5, 0.5)
        running = Packing(lengths).running
        x = Tensor(rng.uniform_array((sum(running), input_dim), -1.0, 1.0), requires_grad=True)
        h0 = Tensor(rng.uniform_array((running[0], hidden), -1.0, 1.0), requires_grad=True)
        return cell, x, h0, running, [x, h0, *store.tensors.values()]

    # (input, hidden): the desk char and word widths, and the paper decoder's
    @pytest.mark.parametrize("input_dim, hidden", [(8, 6), (40, 24), (630, 300)])
    # equal, ragged, and one row per step (numpy's gemv path)
    @pytest.mark.parametrize("lengths", [(3, 3, 3), (4, 3, 3, 1), (5,)],
                             ids=["equal", "ragged", "k1"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_states_equal_with_a_tape_without_one_and_all_frozen(self, input_dim, hidden,
                                                                 lengths, reverse):
        cell, x, h0, running, inputs = self._setup(input_dim, hidden, lengths)
        with Tape() as tape:
            recorded = cell.scan(x, h0, running, reverse)
        assert len(tape) == 1
        untaped = cell.scan(x, h0, running, reverse)
        for t in inputs:
            t.requires_grad = False
        with Tape() as tape:
            frozen = cell.scan(x, h0, running, reverse)
        assert len(tape) == 0
        assert untaped.values.tobytes() == recorded.values.tobytes()
        assert frozen.values.tobytes() == recorded.values.tobytes()

    def test_unrecorded_scan_makes_none_of_the_saved_arrays(self):
        # many steps of two rows: a step's own arrays are tiny beside a
        # stack-sized (rows, H) array
        cell, x, h0, running, _ = self._setup(8, 64, (200, 200))
        stack = 400 * 64 * 8

        def peak(record: bool) -> int:
            tracemalloc.start()
            try:
                if record:
                    with Tape():
                        cell.scan(x, h0, running)
                else:
                    cell.scan(x, h0, running)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # both: the x W products (three stacks) and the states; recorded:
        # also the previous states, z, r and the candidates
        assert peak(True) >= 8 * stack
        assert peak(False) < 5 * stack


class TestBiGru:
    def test_reversal_swaps_halves_with_shared_weights(self):
        store = m._Store(SplitMix64(5))
        net = BiGru(store, "g", 3, 4)
        # share weights between the two directions so the symmetry is exact
        for gate in ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h"):
            getattr(net.bw, gate).values = getattr(net.fw, gate).values.copy()
        net.h0_bw.values = net.h0_fw.values.copy()
        rng = SplitMix64(6)
        xs = [rng.uniform_array((1, 3), -1.0, 1.0) for _ in range(5)]
        fwd = list(net.run(Tensor(np.concatenate(xs)), [1] * 5).values.reshape(5, 1, -1))
        rev = list(net.run(Tensor(np.concatenate(xs[::-1])), [1] * 5).values.reshape(5, 1, -1))
        hid = 4
        swapped = [np.concatenate([v[:, hid:], v[:, :hid]], axis=1) for v in reversed(fwd)]
        for a, b in zip(rev, swapped):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_is_concat_of_directions(self):
        store = m._Store(SplitMix64(8))
        net = BiGru(store, "g", 2, 3)
        outs = net.run(Tensor(np.ones((3 * 2, 2))), [2, 2, 2])
        assert outs.values.shape == (3 * 2, 6)


class TestCharRepresent:
    @staticmethod
    def _batch(sentences):
        """Unlabelled sentences given as lists of character-id words."""
        return [
            EncodedSentence(tokens=tuple("w" * len(words)), word_ids=np.zeros(len(words), np.int64),
                            char_ids=tuple(tuple(w) for w in words), feat_ids=(), label_ids=None)
            for words in sentences
        ]

    def test_order_sensitivity(self):
        params, _, vocabs = tiny_setup()
        ab = [vocabs.char.lookup("t"), vocabs.char.lookup("e")]
        reps = m._char_position_reps(self._batch([[ab], [ab[::-1]]]), params).values
        assert np.max(np.abs(reps[0] - reps[1])) > 1e-8

    def test_single_character_sum_is_identity_over_one_state(self):
        params, _, vocabs = tiny_setup()
        cid = vocabs.char.lookup("t")
        rep = m._char_position_reps(self._batch([[[cid]]]), params)
        states = params.char_bigru.run(ad.take_rows(params.char_table, [cid]), [1])
        expected = ad.tanh(
            ad.add(ad.matmul(states, params.char_ffnn_w), params.char_ffnn_b)
        )
        np.testing.assert_array_equal(rep.values, expected.values)

    def test_empty_word_rejected(self):
        params, _, vocabs = tiny_setup()
        t = vocabs.char.lookup("t")
        with pytest.raises(ContractError, match="sentence 1 position 2"):
            m._char_position_reps(self._batch([[[t], [t], [t]], [[t], [t], []]]), params)

    def test_unused_char_rows_get_zero_gradient(self):
        # words of different lengths: the packed stack holds only their
        # characters, so no other row of the table gets a gradient
        params, _, vocabs = tiny_setup()
        t, e, a = (vocabs.char.lookup(c) for c in "tea")
        batch = self._batch([[[t, e], [a]], [[e], [t, e, a]]])
        params.zero_grads()
        with Tape():
            backward(ad.tensor_sum(m._char_position_reps(batch, params)))
        grad = params.char_table.grad
        used_rows = {t, e, a}
        assert 0 not in used_rows
        for row in range(grad.shape[0]):
            if row in used_rows:
                assert np.any(grad[row] != 0.0)
            else:
                np.testing.assert_array_equal(grad[row], 0.0)

    def test_mixed_lengths_match_oracle_in_position_major_order(self):
        params, _, vocabs = tiny_setup(seed=17)
        values = {name: t.values for name, t in params.named_tensors()}
        ids = [vocabs.char.lookup(c) for c in "riverbank"]
        sentences = [[ids[:3], ids[:1], ids[2:7], ids[4:6]],
                     [ids[5:9], ids[:5], ids[8:9], ids[1:4]],
                     [ids[3:5], ids[6:9], ids[:4], ids[7:8]]]
        reps = m._char_position_reps(self._batch(sentences), params).values
        for i in range(4):
            for b, words in enumerate(sentences):
                np.testing.assert_allclose(reps[i * len(sentences) + b],
                                           oracle.char_rep(values, words[i]), atol=1e-12)


class TestEncode:
    def test_single_token_sentence_shape(self):
        params, enc, _ = tiny_setup()
        outs = encode([prefix(enc[0], 1)], params, EVAL)
        assert outs.values.shape == (1, params.dims.width)

    def test_eval_mode_is_deterministic(self):
        params, enc, _ = tiny_setup()
        a = encode(enc[:2], params, EVAL).values
        b = encode(enc[:2], params, EVAL).values
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_distant_word_changes_representation(self):
        params, enc, vocabs = tiny_setup()
        sent = enc[0]
        modified = type(sent)(
            tokens=sent.tokens, word_ids=sent.word_ids.copy(),
            char_ids=sent.char_ids, feat_ids=sent.feat_ids, label_ids=sent.label_ids,
        )
        modified.word_ids[3] = vocabs.word.lookup("in")  # swap the last word
        base = encode([sent], params, EVAL)
        other = encode([modified], params, EVAL)
        # representation at position 0 must feel the change at position 3
        assert np.max(np.abs(base.values[0] - other.values[0])) > 1e-10

    @pytest.mark.parametrize("blocks", [True, False])
    def test_mixed_length_batch_equals_each_sentence_alone(self, blocks):
        # one pass over sentences of four lengths: the encoder, both
        # decoders teacher-forced and greedy, and the predictions agree with
        # each sentence run alone
        params, enc, _ = tiny_setup(seed=19, blocks=blocks, with_feats=True)
        batch = [prefix(sent, k) for sent, k in zip(enc, (4, 2, 3, 1))]
        pack = packing(batch)

        def run(sents, labels):
            p = packing(sents)
            outs = encode(sents, params, EVAL)
            bw_states, bw_lps = decode_backward(outs, p, params, EVAL, teacher_labels=labels)
            _, fw_lps = decode_forward(outs, p, bw_states, params, EVAL, teacher_labels=labels)
            return [p.split(t.values) for t in (outs, bw_lps, fw_lps)]

        for labels in ([s.label_ids for s in batch], None):
            together = run(batch, labels)
            for b, sent in enumerate(batch):
                alone = run([sent], None if labels is None else labels[b:b + 1])
                for rows_together, rows_alone in zip(together, alone, strict=True):
                    np.testing.assert_allclose(rows_together[b], rows_alone[0], rtol=0, atol=1e-12)
        assert pack.running.tolist() == [4, 3, 2, 1]
        for sent, preds in zip(batch, predict_batch(params, batch), strict=True):
            np.testing.assert_array_equal(preds, predict_batch(params, [sent])[0])

    def test_batched_equals_single(self):
        params, enc, _ = tiny_setup()
        together = encode(enc, params, EVAL)
        for b, sent in enumerate(enc):
            alone = encode([sent], params, EVAL)
            for i in range(len(sent)):
                np.testing.assert_allclose(
                    together.values[i * len(enc) + b], alone.values[i], atol=1e-12
                )

    def test_feature_columns_enter_the_representation(self):
        params, enc, vocabs = tiny_setup(with_feats=True)
        sent = enc[0]
        twin = type(sent)(
            tokens=sent.tokens, word_ids=sent.word_ids, char_ids=sent.char_ids,
            feat_ids=tuple(c.copy() for c in sent.feat_ids), label_ids=sent.label_ids,
        )
        twin.feat_ids[0][2] = 0  # different feature id at position 2
        a = encode([sent], params, EVAL)
        b = encode([twin], params, EVAL)
        assert np.max(np.abs(a.values[2] - b.values[2])) > 1e-12


class TestDecoders:
    def test_single_position_rows_normalise(self):
        params, enc, _ = tiny_setup()
        one = prefix(enc[0], 1)
        outs = encode([one], params, EVAL)
        _, lps = decode_backward(outs, packing([one]), params, EVAL)
        assert lps.values.shape[0] == 1
        assert abs(np.exp(lps.values).sum() - 1.0) <= 1e-9

    def test_inference_determinism(self):
        params, enc, _ = tiny_setup()
        a = predict_batch(params, enc[:2])
        b = predict_batch(params, enc[:2])
        np.testing.assert_array_equal(a, b)
        assert [len(row) for row in a] == [len(s) for s in enc[:2]]

    def test_every_direction_row_normalises(self):
        params, enc, _ = tiny_setup()
        outs = encode(enc[:2], params, EVAL)
        pack = packing(enc[:2])
        bw_states, bw_lps = decode_backward(outs, pack, params, EVAL)
        _, fw_lps = decode_forward(outs, pack, bw_states, params, EVAL)
        for lp in (bw_lps, fw_lps):
            sums = np.exp(lp.values).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_length_mismatch_rejected(self):
        params, enc, _ = tiny_setup()
        outs = encode(enc[:1], params, EVAL)
        pack = packing(enc[:1])
        bw_states, _ = decode_backward(outs, pack, params, EVAL)
        with pytest.raises(ContractError):
            decode_forward(outs, pack, Tensor(bw_states.values[:-1]), params, EVAL)

    def test_zeroing_backward_rows_of_output_mat_gives_independence(self):
        params, enc, _ = tiny_setup()
        d = params.dims.width
        params.out_fw_w.values[2 * d :, :] = 0.0
        outs = encode(enc[:1], params, EVAL)
        pack = packing(enc[:1])
        bw_states, _ = decode_backward(outs, pack, params, EVAL)
        perturbed = Tensor(bw_states.values + 0.37)
        _, lps_a = decode_forward(outs, pack, bw_states, params, EVAL)
        _, lps_b = decode_forward(outs, pack, perturbed, params, EVAL)
        np.testing.assert_array_equal(lps_a.values, lps_b.values)

    def test_teacher_forcing_uses_gold_context(self):
        params, enc, _ = tiny_setup()
        outs = encode(enc[:1], params, EVAL)
        gold = [enc[0].label_ids]
        pack = packing(enc[:1])
        _, lps_gold = decode_backward(outs, pack, params, EVAL, teacher_labels=gold)
        flipped = [gold[0].copy()]
        flipped[0][-1] = BOUNDARY  # different context for position N-2
        _, lps_flip = decode_backward(outs, pack, params, EVAL, teacher_labels=flipped)
        assert np.max(np.abs(lps_gold.values[-2] - lps_flip.values[-2])) > 1e-12
        # position N-1 sees the boundary context either way
        np.testing.assert_array_equal(lps_gold.values[-1], lps_flip.values[-1])

    @pytest.mark.parametrize("blocks", [True, False])
    def test_teacher_forcing_on_own_predictions_reproduces_greedy(self, blocks):
        # both modes run one layer body: fed its greedy argmax as gold, a
        # decoder sees the same context labels and gives the same log-probs
        params, enc, _ = tiny_setup(seed=19, blocks=blocks)
        batch = [prefix(sent, k) for sent, k in zip(enc, (3, 4, 1))]
        outs = encode(batch, params, EVAL)
        pack = packing(batch)
        bw_states, bw_lps = decode_backward(outs, pack, params, EVAL)
        bw_preds = pack.split(_label_argmax(bw_lps.values))
        _, forced_bw = decode_backward(outs, pack, params, EVAL, teacher_labels=bw_preds)
        _, fw_lps = decode_forward(outs, pack, bw_states, params, EVAL)
        fw_preds = pack.split(_label_argmax(fw_lps.values))
        _, forced_fw = decode_forward(outs, pack, bw_states, params, EVAL,
                                      teacher_labels=fw_preds)
        np.testing.assert_allclose(forced_bw.values, bw_lps.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(forced_fw.values, fw_lps.values, rtol=0, atol=1e-12)

    def test_bad_label_id_rejected(self):
        params, enc, _ = tiny_setup()
        outs = encode(enc[:1], params, EVAL)
        bad = [np.full(len(enc[0]), params.dims.n_labels, dtype=np.int64)]
        with pytest.raises(ContractError):
            decode_backward(outs, packing(enc[:1]), params, EVAL, teacher_labels=bad)

    @pytest.mark.parametrize("blocks", [True, False])
    def test_batched_label_feedback_equals_each_sentence_alone(self, blocks):
        # every row of a batch carries its own context label through the
        # scan: the gold label when teacher-forced, its own argmax otherwise
        params, enc, _ = tiny_setup(seed=19, blocks=blocks)
        batch = enc[:3]
        gold = [s.label_ids for s in batch]

        def decode(sents, labels):
            outs = encode(sents, params, EVAL)
            pack = packing(sents)
            bw_states, bw_lps = decode_backward(outs, pack, params, EVAL, teacher_labels=labels)
            _, fw_lps = decode_forward(outs, pack, bw_states, params, EVAL,
                                       teacher_labels=labels)
            return [pack.split(v) for lps in (bw_lps, fw_lps)
                    for v in (lps.values, _label_argmax(lps.values))]

        for labels in (gold, None):
            together = decode(batch, labels)
            for b, sent in enumerate(batch):
                alone = decode([sent], None if labels is None else labels[b:b + 1])
                for rows_together, rows_alone in zip(together, alone, strict=True):
                    np.testing.assert_allclose(rows_together[b], rows_alone[0], rtol=0, atol=1e-12)
        greedy = predict_batch(params, batch)
        for b, sent in enumerate(batch):
            np.testing.assert_array_equal(greedy[b], predict_batch(params, [sent])[0])


def with_reserved(probs: np.ndarray) -> Tensor:
    """Log-probability rows over the reserved label ids, which take
    most of the mass, then the real labels `probs` (rescaled)."""
    reserved = np.full((probs.shape[0], LABEL_RESERVED), 0.9 / LABEL_RESERVED)
    return Tensor(np.log(np.concatenate([reserved, 0.1 * probs], axis=1)))


def combined_argmax(fw: Tensor, bw: Tensor) -> np.ndarray:
    return _label_argmax(combine(fw, bw).values)


class TestCombine:
    def test_idempotent_on_equal_inputs(self):
        lp = with_reserved(np.array([[0.2, 0.3, 0.5]]))
        combined = combine(lp, lp)
        np.testing.assert_allclose(combined.values, lp.values, atol=1e-15)
        assert combined_argmax(lp, lp).tolist() == [LABEL_RESERVED + 2]

    def test_symmetric_tie_resolves_to_lowest_id(self):
        fw = with_reserved(np.array([[0.9, 0.1]]))
        bw = with_reserved(np.array([[0.1, 0.9]]))
        combined = combine(fw, bw)
        assert combined.values[0, LABEL_RESERVED] == pytest.approx(combined.values[0, -1])
        assert combined_argmax(fw, bw).tolist() == [LABEL_RESERVED]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            combine(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))

    def test_argmax_matches_probability_product(self):
        rng = SplitMix64(12)
        for _ in range(1000):
            fw = rng.uniform_array((1, 6), 1e-3, 1.0)
            bw = rng.uniform_array((1, 6), 1e-3, 1.0)
            fw /= fw.sum()
            bw /= bw.sum()
            ids = combined_argmax(with_reserved(fw), with_reserved(bw))
            assert ids[0] == LABEL_RESERVED + int(np.argmax(fw * bw))

    def test_combined_mass_at_most_one(self):
        rng = SplitMix64(14)
        for _ in range(200):
            fw = rng.uniform_array((1, 5), 1e-3, 1.0)
            bw = rng.uniform_array((1, 5), 1e-3, 1.0)
            fw /= fw.sum()
            bw /= bw.sum()
            combined = combine(Tensor(np.log(fw)), Tensor(np.log(bw)))
            assert np.exp(combined.values).sum() <= 1.0 + 1e-9


class TestAgainstOracle:
    def _compare(self, blocks):
        params, enc, _ = tiny_setup(seed=11, blocks=blocks)
        values = {name: t.values for name, t in params.named_tensors()}
        sent = enc[0]

        outs = encode([sent], params, EVAL)
        pack = packing([sent])
        bw_states, bw_lps = decode_backward(outs, pack, params, EVAL)
        _, fw_lps = decode_forward(outs, pack, bw_states, params, EVAL)
        combined = combine(fw_lps, bw_lps)

        preds = predict_batch(params, [sent])
        fw_o, bw_o, comb_o, pred_o = oracle.full_forward(values, sent, blocks=blocks)
        for i in range(len(sent)):
            np.testing.assert_allclose(bw_lps.values[i], bw_o[i], atol=1e-10)
            np.testing.assert_allclose(fw_lps.values[i], fw_o[i], atol=1e-10)
            np.testing.assert_allclose(combined.values[i], comb_o[i], atol=1e-10)
            assert preds[0][i] == pred_o[i]

    def test_full_pipeline_matches_oracle_with_blocks(self):
        self._compare(blocks=True)

    def test_full_pipeline_matches_oracle_plain(self):
        self._compare(blocks=False)

    def test_teacher_forced_path_matches_oracle(self):
        params, enc, _ = tiny_setup(seed=13)
        values = {name: t.values for name, t in params.named_tensors()}
        sent = enc[0]
        gold = [sent.label_ids]
        outs = encode([sent], params, EVAL)
        pack = packing([sent])
        bw_states, bw_lps = decode_backward(outs, pack, params, EVAL, teacher_labels=gold)
        _, fw_lps = decode_forward(outs, pack, bw_states, params, EVAL, teacher_labels=gold)
        fw_o, bw_o, _, _ = oracle.full_forward(
            values, sent, gold=[int(g) for g in sent.label_ids]
        )
        for i in range(len(sent)):
            np.testing.assert_allclose(bw_lps.values[i], bw_o[i], atol=1e-10)
            np.testing.assert_allclose(fw_lps.values[i], fw_o[i], atol=1e-10)


class TestResidualBlock:
    def test_zeroed_ffnn_degrades_to_normalised_recurrent_path(self):
        params, enc, _ = tiny_setup(seed=15)
        for name in ("enc.ffnn.w1", "enc.ffnn.b1", "enc.ffnn.w2", "enc.ffnn.b2"):
            params.get(name).values[:] = 0.0
        sent = enc[0]
        outs = encode([sent], params, EVAL)
        # with a zero feed-forward map, the block output is exactly the
        # second normalisation of (recurrent output + normalised input)
        values = {name: t.values for name, t in params.named_tensors()}
        lex = []
        for i in range(len(sent)):
            parts = [values["embed.word"][sent.word_ids[i]], oracle.char_rep(values, sent.char_ids[i])]
            parts += [values[f"embed.feat{k}"][ids[i]] for k, ids in enumerate(sent.feat_ids)]
            lex.append(np.concatenate(parts))
        x_hat = [oracle._layer_norm(values, "enc.norm1", x @ values["enc.proj"]) for x in lex]
        hidden = oracle._bigru(values, "enc.gru", x_hat)
        for i in range(len(sent)):
            y = oracle._layer_norm(values, "enc.norm2", hidden[i] + x_hat[i])
            np.testing.assert_allclose(outs.values[i], y, atol=1e-12)

    def test_block_width_preserved(self):
        params, enc, _ = tiny_setup()
        outs = encode(enc[:2], params, EVAL)
        assert outs.values.shape == (2 * len(enc[0]), params.dims.width)


class TestModelParameters:
    def test_every_tensor_requires_grad(self):
        params, _, _ = tiny_setup()
        assert all(t.requires_grad for _, t in params.named_tensors())

    def test_snapshot_roundtrip(self):
        params, _, _ = tiny_setup()
        snap = params.snapshot()
        twin = params.clone()
        for name, t in params.named_tensors():
            np.testing.assert_array_equal(t.values, twin.get(name).values)
        params.get("embed.word").values[0, 0] += 1.0
        np.testing.assert_array_equal(twin.get("embed.word").values, snap["embed.word"])

    def test_values_are_adopted_uncopied(self):
        params, _, _ = tiny_setup()
        snap = params.snapshot()
        twin = ModelParameters(params.dims, values=snap)
        for name, arr in snap.items():
            assert twin.get(name).values is arr, name

    @pytest.mark.parametrize("edit, error", [
        (lambda snap: snap.pop("out.fw.b"), "'out.fw.b' missing"),
        (lambda snap: snap.update(extra=np.zeros(2)), "mismatch: \\['extra'\\]"),
        (lambda snap: snap.update({"enc.proj": np.zeros((2, 2))}), "enc.proj: shape"),
    ])
    def test_values_must_name_every_tensor_with_its_shape(self, edit, error):
        params, _, _ = tiny_setup()
        snap = params.snapshot()
        edit(snap)
        with pytest.raises(ContractError, match=error):
            ModelParameters(params.dims, values=snap)

    def test_plain_mode_has_no_block_parameters(self):
        params, _, _ = tiny_setup(blocks=False)
        names = params.names()
        assert not any(".norm" in n or ".ffnn.w1" in n or n == "enc.proj" for n in names)

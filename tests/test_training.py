"""Objective, optimizers, training loops, evaluation, and serialization."""

import gc
import hashlib
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracle
from seqtag import autodiff as ad
from seqtag import model as m
from seqtag.autodiff import Tape, backward
from seqtag.data import (
    SyntheticSpec,
    TaggedSentence,
    bucket_batches,
    build_vocabularies,
    encode_corpus,
    make_synthetic_corpus,
    stream_chunks,
)
from seqtag import lanes, training
from seqtag.errors import (
    ConfigError,
    ContractError,
    FormatError,
    IngestionError,
    MetricUndefinedError,
    TrainingError,
)
from seqtag.model import ModelDims, ModelParameters
from seqtag.rng import SplitMix64
from seqtag.serialization import load_model, save_model
from seqtag.training import (
    Adam,
    Corpus,
    TrainingConfig,
    dual_parameter_groups,
    evaluate,
    multi_run,
    nll_sums,
    train,
)

TRAIN_MODE = m.Mode(training=True, dropout_p=0.0, rng=None)


def strip_seconds(log_lines):
    return [re.sub(r" seconds=\S+", "", line) for line in log_lines]


def overfit_corpus(n=20, seed=5):
    spec = SyntheticSpec(
        n_train=n, n_dev=n, n_test=0, min_units=2, max_units=4,
        n_filler_types=12, n_entity_types=6, n_trigger_types=2,
    )
    train_split, _, _ = make_synthetic_corpus(spec, seed)
    # dev == train: the loop's dev accuracy reads training accuracy
    return Corpus(train=train_split, dev=train_split)


def overfit_config(**overrides):
    base = dict(
        hidden=8, word_dim=8, char_dim=6, char_hidden=4, label_dim=6,
        lr=5e-3, l2=0.0, dropout=0.1, epochs=12, batcher="bucket",
        max_tokens=64, regime="single", seed=3, runs=1,
    )
    base.update(overrides)
    return TrainingConfig(**base)


def zero_param_fixture():
    sents = [TaggedSentence(tokens=["aa"], labels=["B-x"]),
             TaggedSentence(tokens=["bb"], labels=["B-y"]),
             TaggedSentence(tokens=["aa", "bb"], labels=["O", "B-x"])]
    vocabs = build_vocabularies(sents)
    dims = ModelDims(
        n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
        word_dim=4, char_dim=3, char_hidden=2, label_dim=3, hidden=2,
    )
    return ModelParameters(dims, rng=None), encode_corpus(sents, vocabs), vocabs


class TestLoss:
    def test_uniform_predictions_give_log_label_count(self):
        # all-zero parameters make every row uniform over the label set
        params, enc, vocabs = zero_param_fixture()
        config = TrainingConfig(l2=0.0)
        value = training.step_gradients(enc[:1], params, TRAIN_MODE, config.l2)
        assert value == pytest.approx(math.log(len(vocabs.label)))

    def test_quadratic_penalty_vanishes_at_origin(self):
        params, enc, vocabs = zero_param_fixture()
        for _, t in params.named_tensors():
            t.values[:] = 0.0  # true origin: normalisation gains included
        with_l2 = training.step_gradients(enc[:1], params, TRAIN_MODE, 0.7)
        assert with_l2 == pytest.approx(math.log(len(vocabs.label)))

    def test_penalty_strictly_increases_with_coefficient(self):
        corpus = overfit_corpus(6)
        vocabs = build_vocabularies(corpus.train)
        enc = encode_corpus(corpus.train, vocabs)
        dims = ModelDims(
            n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
            word_dim=4, char_dim=3, char_hidden=2, label_dim=3, hidden=2,
        )
        params = ModelParameters(dims, SplitMix64(2))  # nonzero point
        values = [
            training.step_gradients(enc[:2], params, TRAIN_MODE, c)
            for c in (0.0, 0.1, 0.2, 0.5)
        ]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_matches_tape_free_recomputation(self):
        corpus = overfit_corpus(4)
        vocabs = build_vocabularies(corpus.train)
        enc = encode_corpus(corpus.train, vocabs)
        dims = ModelDims(
            n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
            word_dim=5, char_dim=4, char_hidden=3, label_dim=4, hidden=3,
        )
        params = ModelParameters(dims, SplitMix64(9))
        config = TrainingConfig(l2=0.05)
        engine = training.step_gradients(enc[:2], params, TRAIN_MODE, config.l2)
        raw = {name: t.values for name, t in params.named_tensors()}
        assert engine == pytest.approx(oracle.loss_value(raw, enc[:2], l2=0.05), abs=1e-10)

    def test_empty_batch_rejected(self):
        params, _, _ = zero_param_fixture()
        with pytest.raises(ContractError):
            training.step_gradients([], params, TRAIN_MODE, 0.0)


class TestStepGradients:
    def test_step_frees_its_tape_without_the_cyclic_collector(self, monkeypatch):
        # a step's activations must not wait for a cyclic collection:
        # a train call would otherwise hold several steps' tapes at once
        tapes = []

        class RecordedTape(Tape):
            def __enter__(self):
                tapes.append(weakref.ref(self))
                return super().__enter__()

        monkeypatch.setattr(training, "Tape", RecordedTape)
        params, enc, _ = zero_param_fixture()
        _, group_b = dual_parameter_groups(params)
        gc.disable()
        try:
            training.step_gradients(enc, params, TRAIN_MODE, 0.0, group_b)
            assert len(tapes) == 1 and tapes[0]() is None
        finally:
            gc.enable()


class TestStackedObjective:
    def test_dropout_masks_follow_row_order(self):
        # each dropout draws its mask in row-major order over its stack:
        # the encoder's, then dec_bw's, then dec_fw's, position 0 first in
        # every stack whatever the decoder's direction
        params, batch = training._micro_fixture(1)
        full, bw = training.objective(
            batch, params, m.Mode(training=True, dropout_p=0.5, rng=SplitMix64(7)))
        assert float(full.values) == pytest.approx(17.924324563418097, rel=1e-12, abs=0)
        assert float(bw.values) == pytest.approx(19.344478310673786, rel=1e-12, abs=0)

    @pytest.mark.parametrize("blocks, per_position_entries", [(True, 1175), (False, 1010)])
    def test_tape_is_a_fifth_of_the_per_position_forward(self, blocks, per_position_entries):
        # per_position_entries: the tape of a forward that ran every layer
        # once per position and every GRU step as ~20 operations
        params, batch = training._micro_fixture(1)
        params = ModelParameters(replace(params.dims, blocks=blocks), SplitMix64(1))
        with Tape() as tape:
            training.objective(batch, params,
                               m.Mode(training=True, dropout_p=0.5, rng=SplitMix64(7)))
        assert 5 * len(tape) <= per_position_entries

    def test_tape_does_not_grow_with_distinct_word_lengths(self):
        # two sentences of three tokens; words of one char length, then of four
        sentences = [
            TaggedSentence(tokens=["ab", "cd", "ef"], labels=["O", "B-p", "O"]),
            TaggedSentence(tokens=["ba", "dc", "fe"], labels=["B-q", "O", "O"]),
            TaggedSentence(tokens=["a", "bcd", "ef"], labels=["O", "B-p", "O"]),
            TaggedSentence(tokens=["abcd", "b", "cd"], labels=["B-q", "O", "O"]),
        ]
        vocabs = build_vocabularies(sentences)
        params = ModelParameters(training._model_dims(overfit_config(), vocabs), SplitMix64(2))
        encoded = encode_corpus(sentences, vocabs)
        lengths = []
        for batch in (encoded[:2], encoded[2:]):
            with Tape() as tape:
                training.objective(batch, params,
                                   m.Mode(training=True, dropout_p=0.5, rng=SplitMix64(7)))
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    @pytest.mark.parametrize("blocks", [True, False])
    def test_tape_does_not_grow_with_distinct_sentence_lengths(self, blocks):
        # a batch of sentences of three lengths is one pass, like a batch
        # of as many sentences of one length
        def sentence(n):
            return TaggedSentence(tokens=["ab", "c", "de", "f"][:n], labels=["B-p", "O", "O", "O"][:n])

        equal, mixed = [sentence(3)] * 3, [sentence(4), sentence(1), sentence(3)]
        vocabs = build_vocabularies(equal + mixed)
        params = ModelParameters(training._model_dims(overfit_config(blocks=blocks), vocabs),
                                 SplitMix64(2))
        lengths = []
        for batch in (equal, mixed):
            with Tape() as tape:
                training.objective(encode_corpus(batch, vocabs), params,
                                   m.Mode(training=True, dropout_p=0.5, rng=SplitMix64(7)))
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
        ("l2", -1e-6), ("l2", math.nan), ("l2", math.inf),
        ("clip_norm", 0.0), ("clip_norm", -1.0), ("clip_norm", math.nan), ("clip_norm", math.inf),
    ])
    def test_bad_optimizer_setting_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            overfit_config(**{name: value}).validate()


class TestAdam:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        params, enc, _ = zero_param_fixture()
        before = params.snapshot()
        opt = Adam([t for _, t in params.named_tensors()], lr=0.0)
        training.step_gradients(enc, params, TRAIN_MODE, 0.0)
        opt.step()
        for name, t in params.named_tensors():
            np.testing.assert_array_equal(t.values, before[name])

    def test_moments_shape_match_and_step_counter(self):
        params, _, _ = zero_param_fixture()
        tensors = [t for _, t in params.named_tensors()]
        opt = Adam(tensors, lr=1e-3)
        for t, mom in zip(tensors, opt._m):
            assert mom.shape == t.values.shape
        params.zero_grads()
        opt.step()
        opt.step()
        assert opt.step_count == 2

    @pytest.mark.parametrize("clip_norm", [None, 1e9, 0.5])
    def test_step_matches_reference_formula_bit_for_bit(self, clip_norm):
        rng = SplitMix64(21)
        # the last shape spans more than one update block, and not a whole number of them
        tensors = [ad.Tensor(rng.uniform_array(shape, -1.0, 1.0), requires_grad=True)
                   for shape in ((3, 4), (5,), (2, 2), (lanes.BLOCK // 64 + 3, 64))]
        ref_values = [t.values.copy() for t in tensors]
        ref_m = [np.zeros_like(v) for v in ref_values]
        ref_v = [np.zeros_like(v) for v in ref_values]
        opt = Adam(tensors, lr=0.01, clip_norm=clip_norm)
        for step in range(1, 4):
            grads = [rng.uniform_array(t.values.shape, -2.0, 2.0) for t in tensors]
            for t, g in zip(tensors, grads):
                t.grad = g
            opt.step()
            # the textbook update, one array expression per moment
            total = np.sqrt(sum(float((g * g).sum()) for g in grads))
            factor = clip_norm / total if clip_norm is not None and total > clip_norm else 1.0
            for g, mom, vel, values in zip(grads, ref_m, ref_v, ref_values):
                g = g * factor
                mom += (1.0 - 0.9) * (g - mom)
                vel += (1.0 - 0.999) * (g * g - vel)
                values -= 0.01 * (mom / (1.0 - 0.9**step)) / (np.sqrt(vel / (1.0 - 0.999**step)) + 1e-8)
            for t, values in zip(tensors, ref_values):
                np.testing.assert_array_equal(t.values, values)

    def test_clipping_bounds_the_update_norm(self):
        t = ad.Tensor(np.zeros(4), requires_grad=True)
        t.grad = np.full(4, 100.0)
        opt = Adam([t], lr=1.0, clip_norm=1.0)
        opt.step()
        # with clipping the effective gradient has norm 1, so each entry
        # moves by roughly lr * sign
        assert np.all(np.abs(t.values) <= 1.0 + 1e-6)


class TestTrainSingle:
    def test_overfits_small_corpus(self):
        corpus = overfit_corpus()
        result = train(corpus, overfit_config())
        assert result.best_report.token_accuracy >= 0.99
        assert result.best_epoch <= 12

    def test_identical_seeds_identical_logs(self):
        corpus = overfit_corpus(8)
        config = overfit_config(epochs=3)
        a = train(corpus, config)
        b = train(corpus, config)
        assert strip_seconds(a.log) == strip_seconds(b.log)
        for name, t in a.params.named_tensors():
            np.testing.assert_array_equal(t.values, b.params.get(name).values)

    def test_loss_decreases_on_overfit_harness(self):
        corpus = overfit_corpus()
        result = train(corpus, overfit_config(epochs=10))
        first = float(result.log[0].split("train_loss=")[1].split()[0])
        last = float(result.log[-1].split("train_loss=")[1].split()[0])
        assert last < first

    def test_best_model_reproduces_logged_dev_accuracy(self):
        corpus = overfit_corpus(10)
        config = overfit_config(epochs=4)
        vocabs = build_vocabularies(corpus.train)
        result = train(corpus, config, vocabs)
        logged = float(result.log[result.best_epoch - 1].split("dev_acc=")[1].split()[0])
        re_eval = evaluate(result.params, encode_corpus(corpus.dev, vocabs), vocabs)
        assert f"{re_eval.token_accuracy:.6f}" == f"{logged:.6f}"

    def test_stream_batcher_trains(self):
        corpus = overfit_corpus(6)
        config = overfit_config(epochs=2, batcher="stream", chunk_len=5)
        result = train(corpus, config)
        assert len(result.log) == 2

    def test_epoch_log_format(self):
        corpus = overfit_corpus(6)
        result = train(corpus, overfit_config(epochs=1))
        assert re.fullmatch(
            r"epoch=1 train_loss=\S+ dev_acc=\S+ dev_f1=\S+ dev_cer=\S+ seconds=\S+",
            result.log[0],
        )


class TestBestEpoch:
    def _forced(self, monkeypatch, best_epoch):
        """Make epoch `best_epoch` the only one `_better` accepts, after
        the first, and record the live parameters `train` evaluates."""
        seen = {"epoch": 0}
        original_evaluate = training.evaluate

        def evaluate(params, *args):
            seen["epoch"] += 1
            seen["live"] = params
            return original_evaluate(params, *args)

        monkeypatch.setattr(training, "evaluate", evaluate)
        monkeypatch.setattr(training, "_better", lambda candidate, incumbent, select_by:
                            incumbent is None or seen["epoch"] == best_epoch)
        return seen

    def test_earlier_best_epoch_returns_its_copy(self, monkeypatch):
        corpus = overfit_corpus(6)
        one_epoch = train(corpus, overfit_config(epochs=1, regime="dual"))
        seen = self._forced(monkeypatch, 1)
        result = train(corpus, overfit_config(epochs=2, regime="dual"))
        assert result.best_epoch == 1
        assert all(t.grad is None for _, t in result.params.named_tensors())
        changed = 0
        for name, t in result.params.named_tensors():
            np.testing.assert_array_equal(t.values, one_epoch.params.get(name).values, err_msg=name)
            changed += not np.array_equal(t.values, seen["live"].get(name).values)
        assert changed > 0

    def test_last_best_epoch_returns_the_final_parameters_uncopied(self, monkeypatch):
        seen = self._forced(monkeypatch, 2)
        result = train(overfit_corpus(6), overfit_config(epochs=2, regime="dual"))
        assert result.best_epoch == 2
        for name, t in result.params.named_tensors():
            assert t.values is seen["live"].get(name).values, name
            assert t.grad is None, name


class TestGradientLifecycle:
    def test_models_hold_values_only(self, tmp_path):
        corpus = overfit_corpus(6)
        vocabs = build_vocabularies(corpus.train)
        constructed, _ = training._micro_fixture(1)
        trained = train(corpus, overfit_config(epochs=1), vocabs).params
        path = tmp_path / "model.bin"
        save_model(path, trained, vocabs, {"dropout": 0.1, "l2": 0.0})
        models = {"constructed": constructed, "cloned": constructed.clone(),
                  "trained": trained, "loaded": load_model(path)[0]}
        for what, params in models.items():
            assert all(t.grad is None for _, t in params.named_tensors()), what

    def test_first_writes_create_what_preallocated_zeros_would_hold(self):
        params, batch = training._micro_fixture(1)
        _, group_b = dual_parameter_groups(params)

        def fresh(preallocate: bool):
            twin = params.clone()
            if preallocate:
                for _, t in twin.named_tensors():
                    t.grad = np.zeros(t.values.shape)
            return twin

        def step(twin):
            training.step_gradients(batch, twin, TRAIN_MODE, 0.01, group_b)

        def tape_only(twin):
            # no `zero_grads` first: each leaf's gradient, the rows
            # `take_rows` scatters into `embed.word` included, is created
            # by its first write
            with Tape():
                backward(training.objective(batch, twin, TRAIN_MODE)[0])

        for run in (step, tape_only):
            created, preallocated = fresh(False), fresh(True)
            run(created)
            run(preallocated)
            for name, t in created.named_tensors():
                assert t.grad is not None, (run.__name__, name)
                assert t.grad.tobytes() == preallocated.get(name).grad.tobytes(), \
                    (run.__name__, name)


class TestSteadyStateMemory:
    # Five warm rounds take 8-22 minor faults when freed memory is kept,
    # and about 12,000 (2,400 a step) when the allocator returns it
    FAULT_BOUND = 500

    def test_repeated_steps_reuse_freed_memory(self):
        if not ad._FREED_MEMORY_KEPT:
            pytest.skip("glibc's mallopt is not available: freed memory goes back to the system")
        import resource

        train_split, _, _ = make_synthetic_corpus(SyntheticSpec(n_train=300, n_dev=1, n_test=0), 7)
        vocabs = build_vocabularies(train_split)
        config = TrainingConfig(hidden=24, word_dim=16, char_dim=8, char_hidden=6, label_dim=8,
                                lr=3e-3, dropout=0.5)
        params = ModelParameters(training._model_dims(config, vocabs), SplitMix64(7))
        batch = max(bucket_batches(encode_corpus(train_split, vocabs), config.max_tokens),
                    key=lambda b: b.n_tokens)
        mode = m.Mode(training=True, dropout_p=config.dropout, rng=SplitMix64(3))
        groups = dual_parameter_groups(params)
        optimizers = [Adam([params.get(n) for n in names], config.lr) for names in groups]

        def step():
            training.step_gradients(batch.sentences, params, mode, config.l2, groups[1])
            for opt in optimizers:
                opt.step()

        step()
        step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(5):
            step()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < self.FAULT_BOUND, f"{faults} minor faults over five steps of {batch.n_tokens} tokens"


class TestTrainDual:
    def test_group_partition_is_exhaustive_and_disjoint(self):
        params, _, _ = zero_param_fixture()
        group_a, group_b = dual_parameter_groups(params)
        assert set(group_a) | set(group_b) == set(params.names())
        assert not set(group_a) & set(group_b)
        assert all(n.startswith(("dec_bw.", "out.bw.")) for n in group_b)

    def test_optimizer_b_step_changes_no_group_a_parameter_bit(self):
        corpus = overfit_corpus(6)
        vocabs = build_vocabularies(corpus.train)
        enc = encode_corpus(corpus.train, vocabs)
        dims = ModelDims(
            n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
            word_dim=4, char_dim=3, char_hidden=2, label_dim=3, hidden=2,
        )
        params = ModelParameters(dims, SplitMix64(4))
        group_a, group_b = dual_parameter_groups(params)
        opt_b = Adam([params.get(n) for n in group_b], lr=1e-2)
        before = params.snapshot()
        params.zero_grads()
        with Tape():
            fw_total, bw_total = nll_sums(enc[:3], params, TRAIN_MODE)
            backward(ad.scale(bw_total, -1.0))
        opt_b.step()
        for name in group_a:
            np.testing.assert_array_equal(params.get(name).values, before[name])
        changed = sum(
            not np.array_equal(params.get(name).values, before[name]) for name in group_b
        )
        assert changed > 0

    def test_freezing_group_a_still_reduces_backward_nll(self):
        corpus = overfit_corpus(8)
        vocabs = build_vocabularies(corpus.train)
        enc = encode_corpus(corpus.train, vocabs)
        dims = ModelDims(
            n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
            word_dim=6, char_dim=4, char_hidden=3, label_dim=4, hidden=3,
        )
        params = ModelParameters(dims, SplitMix64(6))
        _, group_b = dual_parameter_groups(params)
        opt_b = Adam([params.get(n) for n in group_b], lr=5e-3)

        def backward_nll():
            with Tape():
                _, bw_total = nll_sums(enc, params, TRAIN_MODE)
                return float(bw_total.values)

        start = -backward_nll()
        for _ in range(30):
            params.zero_grads()
            with Tape():
                _, bw_total = nll_sums(enc, params, TRAIN_MODE)
                backward(ad.scale(bw_total, -1.0))
            opt_b.step()
        assert -backward_nll() < start

    def test_dual_overfits_small_corpus(self):
        corpus = overfit_corpus()
        result = train(corpus, overfit_config(regime="dual"))
        assert result.best_report.token_accuracy >= 0.99

    def test_both_groups_take_gradients_before_either_steps(self, monkeypatch):
        # group A's applied gradient must be the full objective's gradient
        # at the parameters the step started from, not at parameters that
        # group B's step already moved
        recorded = {}
        original_zero, original_nll, original_step = (
            ModelParameters.zero_grads, training.nll_sums, Adam.step)

        def zero_grads(self):
            recorded.setdefault("start", self.clone())
            original_zero(self)

        def nll(batch, *args):
            recorded.setdefault("batch", list(batch))
            return original_nll(batch, *args)

        def step(self):
            if self.tensors and not self.tensors[0].name.startswith(("dec_bw.", "out.bw.")):
                recorded.setdefault("grad_a", {t.name: t.grad.copy() for t in self.tensors})
            original_step(self)

        monkeypatch.setattr(ModelParameters, "zero_grads", zero_grads)
        monkeypatch.setattr(training, "nll_sums", nll)
        monkeypatch.setattr(Adam, "step", step)
        config = overfit_config(regime="dual", epochs=1, lr=1e-2, l2=0.0, dropout=0.0)
        train(overfit_corpus(6), config)
        monkeypatch.undo()

        start = recorded["start"]
        training.step_gradients(recorded["batch"], start, TRAIN_MODE, config.l2)
        assert len(recorded["grad_a"]) > 50
        for name, grad in recorded["grad_a"].items():
            np.testing.assert_array_equal(grad, start.get(name).grad, err_msg=name)

    @pytest.mark.parametrize("pass_index, tensor_name, group", [
        (0, "out.bw.w", "b"),    # backward-only pass, group B
        (1, "embed.word", "a"),  # full pass, group A
    ])
    def test_non_finite_gradient_stops_before_any_step(self, monkeypatch, pass_index,
                                                       tensor_name, group):
        seen = {"passes": 0}
        original_zero, original_backward = ModelParameters.zero_grads, training.backward

        def zero_grads(self):
            seen.setdefault("params", self)
            seen.setdefault("start", self.snapshot())
            original_zero(self)

        def poisoned_backward(loss_tensor):
            original_backward(loss_tensor)
            if seen["passes"] == pass_index:
                seen["params"].get(tensor_name).grad[0] = np.nan
            seen["passes"] += 1

        monkeypatch.setattr(ModelParameters, "zero_grads", zero_grads)
        monkeypatch.setattr(training, "backward", poisoned_backward)
        with pytest.raises(TrainingError, match=f"epoch 1 step 0: .*group {group}"):
            train(overfit_corpus(6), overfit_config(regime="dual", epochs=1))
        for name, values in seen["params"].snapshot().items():
            np.testing.assert_array_equal(values, seen["start"][name], err_msg=name)

    def test_empty_group_b_degenerates_to_single(self, monkeypatch):
        corpus = overfit_corpus(6)
        config = overfit_config(epochs=2)
        single = train(corpus, config)
        monkeypatch.setattr(training, "dual_parameter_groups",
                            lambda params: (params.names(), []))
        dual = train(corpus, overfit_config(epochs=2, regime="dual"))
        assert strip_seconds(single.log) == strip_seconds(dual.log)
        for name, t in single.params.named_tensors():
            np.testing.assert_array_equal(t.values, dual.params.get(name).values)


class TestSplitsTheMetricsReject:
    @pytest.mark.parametrize("split, tags, error", [
        ("dev", ("O", "O"), MetricUndefinedError),
        ("dev", ("NN", "B-loc"), FormatError),
        ("test", ("O", "O"), MetricUndefinedError),
    ], ids=["dev-without-gold-chunk", "dev-non-bio-tag", "test-without-gold-chunk"])
    def test_train_fails_before_the_first_step(self, monkeypatch, split, tags, error):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "step_gradients", no_step)
        good = overfit_corpus(4)
        splits = {"train": good.train, "dev": good.dev, "test": []}
        splits[split] = [TaggedSentence(tokens=["the", "river"], labels=list(tags))]
        with pytest.raises(error):
            train(Corpus(**splits), overfit_config(epochs=1))


class TestBackwardDecoderValue:
    def test_backward_predictions_beat_left_context_ceiling(self):
        # the label of every entity token is decided by the token AFTER it,
        # so any predictor restricted to left context tops out well below
        # the backward decoder, which accumulates right label context
        rng = SplitMix64(17)
        def make(n):
            sents = []
            for _ in range(n):
                tokens, labels = [], []
                for _ in range(2 + rng.randint(3)):
                    c = "ab"[rng.randint(2)]
                    tokens += ["x", f"t{c}"]
                    labels += [f"B-{c}", "O"]
                sents.append(TaggedSentence(tokens=tokens, labels=labels))
            return sents
        train_split, test_split = make(120), make(60)
        corpus = Corpus(train=train_split, dev=test_split)
        config = overfit_config(epochs=6, seed=11)
        vocabs = build_vocabularies(train_split)
        result = train(corpus, config, vocabs)

        enc_test = encode_corpus(test_split, vocabs)
        correct = total = 0
        for sent in enc_test:
            outs = m.encode([sent], result.params, m.EVAL)
            _, lps = m.decode_backward(outs, m.Packing([len(sent)]), result.params, m.EVAL)
            correct += int(np.sum(m._label_argmax(lps.values) == sent.label_ids))
            total += len(sent)
        backward_acc = correct / total

        # best left-context-only accuracy: triggers are deterministic, the
        # "x" tokens are a coin flip between B-a and B-b
        x_share = np.mean([tok == "x" for s in test_split for tok in s.tokens])
        left_ceiling = 1.0 - x_share / 2.0
        assert backward_acc >= left_ceiling

    def test_divergence_reported_with_epoch(self):
        corpus = overfit_corpus(4)
        config = overfit_config(epochs=3, lr=1e200, clip_norm=1e300)
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch"):
            # enormous steps blow the forward pass up to non-finite values
            train(corpus, config)


class TestEvaluate:
    def test_deterministic(self):
        corpus = overfit_corpus(6)
        vocabs = build_vocabularies(corpus.train)
        enc = encode_corpus(corpus.dev, vocabs)
        dims = ModelDims(
            n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
            word_dim=4, char_dim=3, char_hidden=2, label_dim=3, hidden=2,
        )
        params = ModelParameters(dims, SplitMix64(8))
        assert evaluate(params, enc, vocabs) == evaluate(params, enc, vocabs)

    def test_forced_outside_predictions_score_zero_f1_full_cer(self):
        corpus = overfit_corpus(8)
        vocabs = build_vocabularies(corpus.train)
        enc = encode_corpus(corpus.dev, vocabs)
        params, _, _ = zero_param_fixture()
        # rebuild with matching vocab sizes, then force the O label
        dims = ModelDims(
            n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
            word_dim=4, char_dim=3, char_hidden=2, label_dim=3, hidden=2,
        )
        params = ModelParameters(dims, rng=None)
        o_id = vocabs.label.lookup("O")
        params.out_bw_b.values[o_id] = 50.0
        params.out_fw_b.values[o_id] = 50.0
        report = evaluate(params, enc, vocabs)
        assert report.f1 == 0.0
        assert report.cer == 1.0


class TestPredictCorpus:
    def test_batches_cut_consecutive_sentences_at_predict_tokens(self, monkeypatch):
        rng = SplitMix64(23)
        words = ["a", "bb", "ccc", "ab", "ba", "cab"]

        def sentence(n):
            tokens = [words[rng.randint(len(words))] for _ in range(n)]
            return TaggedSentence(tokens=tokens, labels=["O"] * n)

        sentences = [sentence(1 + rng.randint(12)) for _ in range(700)]
        sentences.insert(350, sentence(training.PREDICT_TOKENS + 40))
        labelled = [TaggedSentence(tokens=["a"], labels=[f"B-{c}"]) for c in "xyz"]
        vocabs = build_vocabularies(sentences + labelled)
        enc = encode_corpus(sentences, vocabs)
        dims = ModelDims(
            n_words=len(vocabs.word), n_chars=len(vocabs.char), n_labels=len(vocabs.label),
            word_dim=4, char_dim=3, char_hidden=2, label_dim=3, hidden=3,
        )
        params = ModelParameters(dims, SplitMix64(9))
        batches, original = [], m.predict_batch

        def recorded(params, batch):
            batches.append(list(batch))
            return original(params, batch)

        monkeypatch.setattr(m, "predict_batch", recorded)
        preds = training.predict_corpus(params, enc)
        monkeypatch.undo()

        assert [s for batch in batches for s in batch] == enc
        sizes = [sum(len(s) for s in batch) for batch in batches]
        assert len(batches) >= 5
        assert [batch for batch in batches if len(batch[0]) > training.PREDICT_TOKENS] == [[enc[350]]]
        for batch, size in zip(batches, sizes):
            assert size <= training.PREDICT_TOKENS or len(batch) == 1
        # each batch is cut only where the next sentence would not fit
        for size, nxt in zip(sizes, batches[1:]):
            assert size + len(nxt[0]) > training.PREDICT_TOKENS
        assert [len(p) for p in preds] == [len(s) for s in enc]
        # the long sentence was tagged alone already
        for sent, got in zip(enc[:350] + enc[351:], preds[:350] + preds[351:]):
            np.testing.assert_array_equal(got, m.predict_batch(params, [sent])[0])
        assert len(np.unique(np.concatenate(preds))) > 1


class TestMultiRun:
    def test_single_run_stats(self):
        corpus = overfit_corpus(6)
        config = overfit_config(epochs=2, runs=1)
        stats = multi_run(corpus, config)
        assert len(stats.reports) == 1
        assert stats.mean["token_accuracy"] == stats.reports[0].token_accuracy
        assert all(v == 0.0 for v in stats.std.values())

    def test_forced_identical_seeds_zero_spread(self):
        corpus = overfit_corpus(6)
        config = overfit_config(epochs=2, runs=3)
        stats = multi_run(corpus, config, seeds=[7, 7, 7])
        assert all(v == 0.0 for v in stats.std.values())

    def test_distinct_seeds_aggregate(self):
        corpus = overfit_corpus(8)
        config = overfit_config(epochs=3, runs=3)
        stats = multi_run(corpus, config)
        accs = [r.token_accuracy for r in stats.reports]
        assert stats.mean["token_accuracy"] == pytest.approx(np.mean(accs))
        assert stats.std["token_accuracy"] == pytest.approx(np.std(accs))

    def test_seed_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            multi_run(overfit_corpus(4), overfit_config(runs=2), seeds=[1])

    def test_five_runs_spread_below_two_points(self):
        # the rules are deterministic given context, so converged runs land
        # within a couple of accuracy points of each other
        spec = SyntheticSpec(
            n_train=150, n_dev=60, n_test=0, min_units=2, max_units=5,
            n_filler_types=15, n_entity_types=8, n_trigger_types=2,
        )
        train_split, dev_split, _ = make_synthetic_corpus(spec, seed=19)
        corpus = Corpus(train=train_split, dev=dev_split)
        config = overfit_config(epochs=5, runs=5, hidden=12, word_dim=12)
        stats = multi_run(corpus, config)
        assert stats.std["token_accuracy"] < 0.02

    def test_parallel_jobs_match_sequential(self):
        corpus = overfit_corpus(6)
        sequential = multi_run(corpus, overfit_config(epochs=2, runs=2, jobs=1))
        parallel = multi_run(corpus, overfit_config(epochs=2, runs=2, jobs=2))
        assert sequential.reports == parallel.reports


class TestSerialization:
    def _trained(self, tmp_path):
        corpus = overfit_corpus(8)
        config = overfit_config(epochs=2)
        vocabs = build_vocabularies(corpus.train)
        result = train(corpus, config, vocabs)
        path = tmp_path / "model.bin"
        save_model(path, result.params, vocabs, {"dropout": config.dropout, "l2": config.l2})
        return corpus, vocabs, result, path

    def test_round_trip_bit_identical_evaluation(self, tmp_path):
        corpus, vocabs, result, path = self._trained(tmp_path)
        params2, vocabs2, meta = load_model(path)
        enc = encode_corpus(corpus.dev, vocabs)
        enc2 = encode_corpus(corpus.dev, vocabs2)
        assert evaluate(result.params, enc, vocabs) == evaluate(params2, enc2, vocabs2)
        assert meta["float"]["dropout"] == pytest.approx(0.1)

    def test_values_and_vocabs_survive(self, tmp_path):
        corpus, vocabs, result, path = self._trained(tmp_path)
        params2, vocabs2, _ = load_model(path)
        for name, t in result.params.named_tensors():
            np.testing.assert_array_equal(t.values, params2.get(name).values)
        assert vocabs2.word.strings == vocabs.word.strings
        assert vocabs2.label.strings == vocabs.label.strings

    def test_resave_is_byte_identical(self, tmp_path):
        corpus, vocabs, result, path = self._trained(tmp_path)
        params2, vocabs2, meta = load_model(path)
        second = tmp_path / "model2.bin"
        save_model(second, params2, vocabs2,
                   {"dropout": meta["float"]["dropout"], "l2": meta["float"]["l2"]})
        assert path.read_bytes() == second.read_bytes()
        assert (tmp_path / "model.bin.manifest.json").read_text() == \
               (tmp_path / "model2.bin.manifest.json").read_text()

    def test_manifest_lists_every_tensor(self, tmp_path):
        import json
        _, _, result, path = self._trained(tmp_path)
        manifest = json.loads((tmp_path / "model.bin.manifest.json").read_text())
        assert [t["name"] for t in manifest["tensors"]] == result.params.names()

    def test_file_format_is_pinned(self, tmp_path, monkeypatch):
        # the micro model's untrained values are integer generator
        # arithmetic and one scale, so its file does not depend on BLAS
        seen = []
        build = training.build_vocabularies
        monkeypatch.setattr(training, "build_vocabularies",
                            lambda *args: seen.append(build(*args)) or seen[-1])
        params, _ = training._micro_fixture(1)
        path = tmp_path / "micro.bin"
        save_model(path, params, seen[0], {"dropout": 0.5, "l2": 1e-6})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "53a92861ce2ff9b91ec88a6dc3a1127a951ed9bc03ebc26ecc81f4d253884e91"

    def test_files_are_streamed_without_a_whole_file_copy(self, tmp_path):
        corpus = overfit_corpus(8)
        vocabs = build_vocabularies(corpus.train)
        params = ModelParameters(training._model_dims(overfit_config(hidden=100), vocabs),
                                 SplitMix64(1))
        tensor_bytes = sum(t.values.nbytes for _, t in params.named_tensors())
        assert tensor_bytes >= 8 << 20
        path = tmp_path / "model.bin"
        tracemalloc.start()
        try:
            save_model(path, params, vocabs, {"dropout": 0.1, "l2": 0.0})
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded, _, _ = load_model(path)
            loaded_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert saved < 0.1 * tensor_bytes
        # the loaded model's own arrays, and little else
        assert loaded_peak < 1.1 * tensor_bytes
        for name, t in params.named_tensors():
            np.testing.assert_array_equal(loaded.get(name).values, t.values, err_msg=name)

    @pytest.mark.parametrize("cut", [
        pytest.param(lambda blob: blob[:40], id="inside-the-header"),
        pytest.param(lambda blob: blob[:-4], id="inside-the-last-tensor"),
    ])
    def test_truncated_file_rejected(self, tmp_path, cut):
        _, _, _, path = self._trained(tmp_path)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(IngestionError, match="truncated model file"):
            load_model(path)

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(IngestionError):
            load_model(path)

    def _saved_with_tensors(self, tmp_path, monkeypatch, edit):
        """A model file whose tensor section is `edit` applied to the
        trained model's (name, tensor) list."""
        _, vocabs, result, _ = self._trained(tmp_path)
        tensors = edit(result.params.named_tensors())
        monkeypatch.setattr(result.params, "named_tensors", lambda: tensors)
        path = tmp_path / "edited.bin"
        save_model(path, result.params, vocabs, {"dropout": 0.1, "l2": 0.0})
        return path

    def test_trailing_bytes_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IngestionError, match="1 bytes after the last tensor"):
            load_model(path)

    def test_duplicate_tensor_rejected(self, tmp_path, monkeypatch):
        path = self._saved_with_tensors(tmp_path, monkeypatch, lambda ts: ts + ts[-1:])
        with pytest.raises(IngestionError, match="appears twice"):
            load_model(path)

    def test_missing_tensor_rejected(self, tmp_path, monkeypatch):
        path = self._saved_with_tensors(tmp_path, monkeypatch, lambda ts: ts[:-1])
        with pytest.raises(IngestionError, match="missing: \\['out.fw.b'\\]"):
            load_model(path)

    def test_extra_tensor_rejected(self, tmp_path, monkeypatch):
        extra = ("extra.w", ad.Tensor(np.zeros(2)))
        path = self._saved_with_tensors(tmp_path, monkeypatch, lambda ts: ts + [extra])
        with pytest.raises(IngestionError, match="unexpected tensor 'extra.w'"):
            load_model(path)

    def test_tensor_shape_mismatch_rejected(self, tmp_path, monkeypatch):
        def reshape_first(ts):
            name, t = ts[0]
            return [(name, ad.Tensor(t.values[:-1]))] + ts[1:]

        path = self._saved_with_tensors(tmp_path, monkeypatch, reshape_first)
        with pytest.raises(IngestionError, match="'embed.word' has shape"):
            load_model(path)

    def test_missing_header_key_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        # the length-prefixed key renamed to one of the same length: the
        # file stays well-formed, only the key is gone
        path.write_bytes(path.read_bytes().replace(b"\x06\x00hidden", b"\x06\x00hiddex", 1))
        with pytest.raises(IngestionError, match="header key 'hidden' missing"):
            load_model(path)


class TestGradientCheckWrapperSettings:
    def test_plain_model_without_blocks(self):
        params, batch = training._micro_fixture(1)
        plain = ModelParameters(replace(params.dims, blocks=False), SplitMix64(1))
        errors = training.gradient_errors(plain, batch, lambda: TRAIN_MODE)
        assert not any(".norm" in name or ".proj" in name for name in errors)
        assert max(errors.values()) < 1e-4, max(errors, key=errors.get)

    @staticmethod
    def _dropout_errors(mask_seed):
        params, batch = training._micro_fixture(1)
        errors = training.gradient_errors(
            params, batch, lambda: m.Mode(training=True, dropout_p=0.3, rng=SplitMix64(mask_seed)))
        assert len(errors) == len(params.names())
        return errors

    def test_dropout_with_a_fixed_mask(self):
        errors = self._dropout_errors(7)
        assert max(errors.values()) < 1e-4, max(errors, key=errors.get)

    def test_dropout_mask_with_a_gradient_entry_below_difference_roundoff(self):
        # this mask leaves a gradient entry of about 1e-6 that a central
        # difference at h = 1e-5 cannot resolve: its own roundoff is about
        # eps * |f| / h = 4e-10, so the check must compare it against the
        # difference's roundoff floor rather than against itself
        errors = self._dropout_errors(13)
        assert max(errors.values()) < 1e-4, max(errors, key=errors.get)

    def test_stream_chunk_with_a_sentence_boundary_inside(self):
        params, batch = training._micro_fixture(1)
        chunk = next(c for c in stream_chunks(batch, 4) if c.origin == "chunk@1")
        assert [len(s) for s in chunk.sentences] == [2, 1]
        errors = training.gradient_errors(params, chunk.sentences, lambda: TRAIN_MODE)
        assert len(errors) == len(params.names())
        assert max(errors.values()) < 1e-4, max(errors, key=errors.get)

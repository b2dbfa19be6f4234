"""End-to-end command line checks: exit codes, file outputs, round trips."""

import json
import re
from pathlib import Path

import pytest

from seqtag import cli, training
from seqtag.cli import main
from seqtag.serialization import load_model

SPEC_TEXT = """\
# small rule-based corpus
n_train = 30
n_dev = 10
n_test = 10
concepts = loc,org
n_filler_types = 15
n_entity_types = 8
n_trigger_types = 2
min_units = 2
max_units = 4
phrase_prob = 0.5
max_span = 2
"""

TRAIN_FLAGS = [
    "--hidden", "6", "--word-dim", "6", "--char-dim", "4", "--char-hidden", "3",
    "--label-dim", "4", "--lr", "5e-3", "--l2", "0.0", "--dropout", "0.1",
    "--epochs", "2", "--max-tokens", "48", "--regime", "single", "--seed", "3",
    "--runs", "1",
]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = root / "spec.cfg"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out-dir", str(root), "--seed", "5"]) == 0
    return root


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    model = out / "model.bin"
    code = main([
        "train",
        "--train", str(corpus_dir / "train.conll"),
        "--dev", str(corpus_dir / "dev.conll"),
        "--model-out", str(model),
        *TRAIN_FLAGS,
    ])
    assert code == 0
    return corpus_dir, model


def strip_seconds(text: str) -> str:
    return re.sub(r" seconds=\S+", "", text)


class TestSynth:
    def test_writes_three_splits(self, corpus_dir):
        for name in ("train", "dev", "test"):
            assert (corpus_dir / f"{name}.conll").is_file()

    def test_regeneration_is_byte_identical(self, corpus_dir, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT, encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path), "--seed", "5"]) == 0
        for name in ("train", "dev", "test"):
            assert (tmp_path / f"{name}.conll").read_bytes() == \
                   (corpus_dir / f"{name}.conll").read_bytes()

    def test_bad_spec_exits_two(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("min_units = 9\nmax_units = 2\n", encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 2

    def test_unknown_key_exits_two(self, tmp_path):
        spec = tmp_path / "bad.cfg"
        spec.write_text("not_a_field = 3\n", encoding="utf-8")
        assert main(["synth", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 2

    def test_missing_spec_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.cfg"
        assert main(["synth", "--spec", str(missing), "--out-dir", str(tmp_path)]) == 2
        assert str(missing) in capsys.readouterr().err


class TestTrain:
    def test_missing_train_file_exits_two_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.conll"
        code = main([
            "train", "--train", str(missing), "--dev", str(missing),
            "--model-out", str(tmp_path / "m.bin"),
        ])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["--clip-norm=-1", "--lr=nan"])
    def test_bad_optimizer_setting_exits_two_writing_nothing(self, corpus_dir, tmp_path, capsys,
                                                             setting):
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "train",
            "--train", str(corpus_dir / "train.conll"),
            "--dev", str(corpus_dir / "dev.conll"),
            "--model-out", str(out / "model.bin"),
            *TRAIN_FLAGS, setting,
        ])
        assert code == 2
        assert setting[2:].split("=")[0].replace("-", "_") in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("first_tag, dev_tags, message", [
        ("O", ("O", "O"), "concept error rate undefined: no gold concepts"),
        ("NN", ("NN", "B-loc"), "malformed tag 'NN'"),
    ], ids=["dev-without-gold-chunk", "non-bio-tag"])
    def test_dev_split_the_metrics_reject_exits_two_before_training(
            self, tmp_path, capsys, monkeypatch, first_tag, dev_tags, message):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "step_gradients", no_step)
        train_file, dev_file = tmp_path / "train.conll", tmp_path / "dev.conll"
        train_file.write_text(f"the\t{first_tag}\nbank\tB-loc\n\nby\tO\nriver\tB-loc\n",
                              encoding="utf-8")
        dev_file.write_text(f"the\t{dev_tags[0]}\nriver\t{dev_tags[1]}\n", encoding="utf-8")
        code = main(["train", "--train", str(train_file), "--dev", str(dev_file),
                     "--model-out", str(tmp_path / "m.bin"), *TRAIN_FLAGS])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_diverging_run_exits_one_with_one_error_line(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "train",
            "--train", str(corpus_dir / "train.conll"),
            "--dev", str(corpus_dir / "dev.conll"),
            "--model-out", str(out / "model.bin"),
            *TRAIN_FLAGS, "--lr", "1e300",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("seqtag train: diverged at epoch 1 step 1: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert list(out.iterdir()) == []

    def test_model_file_exists_and_reloads(self, trained):
        _, model = trained
        assert model.is_file()
        assert Path(str(model) + ".manifest.json").is_file()
        params, vocabs, meta = load_model(model)
        assert params.dims.hidden == 6
        assert len(vocabs.label) > 3

    def test_log_file_format(self, trained):
        _, model = trained
        log = Path(str(model) + ".log").read_text(encoding="utf-8").splitlines()
        assert len(log) == 2
        assert all(line.startswith("epoch=") for line in log)

    def test_same_seed_reproduces_logs_and_model(self, corpus_dir, tmp_path):
        outs = []
        for sub in ("a", "b"):
            model = tmp_path / sub / "model.bin"
            model.parent.mkdir()
            code = main([
                "train",
                "--train", str(corpus_dir / "train.conll"),
                "--dev", str(corpus_dir / "dev.conll"),
                "--model-out", str(model),
                *TRAIN_FLAGS,
            ])
            assert code == 0
            outs.append(model)
        log_a = strip_seconds(Path(str(outs[0]) + ".log").read_text(encoding="utf-8"))
        log_b = strip_seconds(Path(str(outs[1]) + ".log").read_text(encoding="utf-8"))
        assert log_a == log_b
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_config_file_with_flag_override(self, corpus_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 5\nhidden = 6\nword_dim = 6\nchar_dim = 4\n"
                       "char_hidden = 3\nlabel_dim = 4\nlr = 5e-3\nl2 = 0\n"
                       "dropout = 0.1\nmax_tokens = 48\nregime = single\nseed = 3\n"
                       "runs = 1\n",
                       encoding="utf-8")
        model = tmp_path / "model.bin"
        code = main([
            "train",
            "--train", str(corpus_dir / "train.conll"),
            "--dev", str(corpus_dir / "dev.conll"),
            "--model-out", str(model),
            "--config", str(cfg),
            "--epochs", "1",  # flag beats file
        ])
        assert code == 0
        log = Path(str(model) + ".log").read_text(encoding="utf-8").splitlines()
        assert len(log) == 1

    def test_multiple_runs_write_stamped_logs_and_aggregate(self, corpus_dir, tmp_path):
        model = tmp_path / "model.bin"
        code = main([
            "train",
            "--train", str(corpus_dir / "train.conll"),
            "--dev", str(corpus_dir / "dev.conll"),
            "--model-out", str(model),
            *TRAIN_FLAGS[:-2], "--runs", "3", "--epochs", "1",
        ])
        assert code == 0
        for seed in (3, 4, 5):
            assert (tmp_path / f"model.bin.seed{seed}").is_file()
            assert (tmp_path / f"model.bin.log.seed{seed}").is_file()
        aggregate = (tmp_path / "model.bin.log.aggregate").read_text(encoding="utf-8")
        assert "accuracy_mean=" in aggregate and "cer_std=" in aggregate


class TestEval:
    def test_eval_matches_training_log_best(self, trained, capsys):
        corpus_dir, model = trained
        log_lines = Path(str(model) + ".log").read_text(encoding="utf-8").splitlines()
        best_acc = max(line.split("dev_acc=")[1].split()[0] for line in log_lines)
        code = main(["eval", "--model", str(model), "--data", str(corpus_dir / "dev.conll")])
        out = capsys.readouterr().out
        assert code == 0
        kv = [line for line in out.splitlines() if line.startswith("accuracy=")][0]
        assert f"accuracy={best_acc}" in kv

    def test_empty_gold_file_exits_two(self, trained, tmp_path):
        _, model = trained
        empty = tmp_path / "empty.conll"
        empty.write_text("", encoding="utf-8")
        assert main(["eval", "--model", str(model), "--data", str(empty)]) == 2

    def test_unknown_gold_label_exits_three(self, trained, tmp_path):
        _, model = trained
        alien = tmp_path / "alien.conll"
        alien.write_text("f0\tB-never\n", encoding="utf-8")
        assert main(["eval", "--model", str(model), "--data", str(alien)]) == 3

    def test_dump_rescores_identically(self, trained, tmp_path, capsys):
        corpus_dir, model = trained
        dump = tmp_path / "dump.conll"
        assert main(["eval", "--model", str(model), "--data", str(corpus_dir / "test.conll"),
                     "--dump", str(dump)]) == 0
        first = capsys.readouterr().out
        # the dump keeps the original columns, so rescoring it reproduces
        # the report (gold is still column 1; predictions were appended)
        assert main(["eval", "--model", str(model), "--data", str(dump),
                     "--token-col", "0", "--label-col", "1"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_dump_predicts_once(self, trained, tmp_path, monkeypatch):
        corpus_dir, model = trained
        calls = []
        original = training.predict_corpus

        def counted(*args):
            calls.append(len(args[1]))
            return original(*args)

        monkeypatch.setattr(training, "predict_corpus", counted)
        monkeypatch.setattr(cli, "predict_corpus", counted)
        assert main(["eval", "--model", str(model), "--data", str(corpus_dir / "test.conll"),
                     "--dump", str(tmp_path / "dump.conll")]) == 0
        assert len(calls) == 1

    def test_dump_of_unlabeled_data_exits_two(self, trained, tmp_path):
        corpus_dir, model = trained
        assert main(["eval", "--model", str(model), "--data", str(corpus_dir / "test.conll"),
                     "--label-col", "none", "--dump", str(tmp_path / "dump.conll")]) == 2


class TestTag:
    def test_tagging_is_byte_deterministic(self, trained, tmp_path):
        corpus_dir, model = trained
        out_a = tmp_path / "a.conll"
        out_b = tmp_path / "b.conll"
        for out in (out_a, out_b):
            code = main(["tag", "--model", str(model),
                         "--input", str(corpus_dir / "test.conll"),
                         "--output", str(out), "--label-col", "none"])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_line_and_sentence_counts_preserved(self, trained, tmp_path):
        corpus_dir, model = trained
        out = tmp_path / "tagged.conll"
        main(["tag", "--model", str(model), "--input", str(corpus_dir / "test.conll"),
              "--output", str(out), "--label-col", "none"])
        src = (corpus_dir / "test.conll").read_text(encoding="utf-8")
        dst = out.read_text(encoding="utf-8")
        assert len(src.splitlines()) == len(dst.splitlines())
        assert src.count("\n\n") == dst.count("\n\n")

    def test_tag_then_eval_equals_direct_eval(self, trained, tmp_path, capsys):
        corpus_dir, model = trained
        tagged = tmp_path / "tagged.conll"
        main(["tag", "--model", str(model), "--input", str(corpus_dir / "test.conll"),
              "--output", str(tagged), "--label-col", "none"])
        # tagged file: token, gold, predicted -- score predictions as data
        assert main(["eval", "--model", str(model), "--data", str(tagged),
                     "--token-col", "0", "--label-col", "1"]) == 0
        via_tag = capsys.readouterr().out
        assert main(["eval", "--model", str(model),
                     "--data", str(corpus_dir / "test.conll")]) == 0
        direct = capsys.readouterr().out
        assert via_tag == direct

    def test_predicted_column_appended(self, trained, tmp_path):
        corpus_dir, model = trained
        out = tmp_path / "tagged.conll"
        main(["tag", "--model", str(model), "--input", str(corpus_dir / "test.conll"),
              "--output", str(out), "--label-col", "none"])
        first_data_line = next(
            line for line in out.read_text(encoding="utf-8").splitlines() if line
        )
        src_first = next(
            line for line in (corpus_dir / "test.conll").read_text(encoding="utf-8").splitlines() if line
        )
        assert len(first_data_line.split("\t")) == len(src_first.split("\t")) + 1


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "within" in out
        rows = [re.fullmatch(r"tensor=(\S+) max_rel_err=(\S+)", line).groups()
                for line in out.splitlines() if line.startswith("tensor=")]
        params, _ = training._micro_fixture(1)
        assert [name for name, _ in rows] == params.names()
        assert all(float(err) < 1e-4 for _, err in rows)

    def test_corrupted_backward_detected(self, capsys):
        assert main(["gradcheck", "--corrupt"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_tolerance_below_fd_floor_fails(self):
        assert main(["gradcheck", "--tolerance", "1e-12"]) == 1

"""Command line interface.

Subcommands: train, eval, tag, gradcheck, synth.  Exit codes: 0 success,
1 check or training failure, 2 input error, 3 model/data vocabulary
mismatch.  Every flag that mirrors a TrainingConfig field can also come
from a `key = value` config file via --config; explicit flags win over
the file, the file wins over defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import replace
from pathlib import Path

from . import autodiff as ad
from .data import (
    ColumnSpec,
    SyntheticSpec,
    decode_labels,
    encode_corpus,
    load_conll,
    make_synthetic_corpus,
    write_conll,
)
from .errors import SeqtagError, TrainingError, VocabMismatchError
from .serialization import load_model
from .training import (
    Corpus,
    TrainingConfig,
    evaluate,
    multi_run,
    predict_corpus,
    run_gradient_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_VOCAB_MISMATCH = 3


def _coerce(value: str, target_type):
    if target_type is bool:
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise SeqtagError(f"cannot read {value!r} as a boolean")
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    if target_type is tuple:
        return tuple(c.strip() for c in value.split(",") if c.strip())
    return value


def _read_fields(path: Path, cls, what: str, extra: tuple[str, ...] = ()) -> dict:
    """Read `key = value` lines (blank lines and # comments skipped) into
    values for the fields of dataclass `cls`, each read as the type of its
    default; a tuple is a comma-separated list.  Keys in `extra` stay
    strings; any other key raises SeqtagError naming the `what` file."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise SeqtagError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = text.split("=", 1)
        raw[key.strip()] = value.strip()
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(defaults) - set(extra)
    if unknown:
        raise SeqtagError(f"unknown {what} keys: {sorted(unknown)}")
    return {key: value if key in extra else _coerce(value, type(defaults[key]))
            for key, value in raw.items()}


def _config_from_sources(args) -> TrainingConfig:
    """flag > config file > dataclass default, field by field."""
    updates = {}
    if getattr(args, "config", None):
        updates = _read_fields(Path(args.config), TrainingConfig, "config")
    for f in dataclasses.fields(TrainingConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            updates[f.name] = flag
    config = replace(TrainingConfig(), **updates)
    config.validate()
    return config


def _column_spec(args) -> ColumnSpec:
    label = args.label_col
    if isinstance(label, str):
        label = None if label.lower() == "none" else int(label)
    features = ()
    if args.feat_cols:
        features = tuple(int(c) for c in args.feat_cols.split(","))
    return ColumnSpec(token=args.token_col, features=features, label=label)


def _require_file(path: str):
    if not Path(path).is_file():
        raise FileNotFoundError(f"no such file: {path}")


def _add_column_flags(parser, label_default="-1"):
    parser.add_argument("--token-col", type=int, default=0, help="token column index")
    parser.add_argument("--feat-cols", default="", help="comma-separated feature column indices")
    parser.add_argument("--label-col", default=label_default,
                        help="label column index, or 'none' for unlabeled input")


def _add_training_flags(parser):
    parser.add_argument("--config", help="key = value config file")
    for f in dataclasses.fields(TrainingConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type == "bool" or isinstance(f.default, bool):
            parser.add_argument(flag, default=None, choices=("on", "off"),
                                help=f"{f.name} (default {f.default})")
        elif isinstance(f.default, int):
            parser.add_argument(flag, type=int, default=None, help=f"{f.name} (default {f.default})")
        elif isinstance(f.default, float):
            parser.add_argument(flag, type=float, default=None, help=f"{f.name} (default {f.default})")
        else:
            parser.add_argument(flag, default=None, help=f"{f.name} (default {f.default})")


def _normalise_bools(args):
    for f in dataclasses.fields(TrainingConfig):
        if isinstance(f.default, bool):
            value = getattr(args, f.name, None)
            if value is not None:
                setattr(args, f.name, value == "on")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqtag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a tagger and keep the best dev model")
    p_train.add_argument("--train", required=True, dest="train_path")
    p_train.add_argument("--dev", required=True, dest="dev_path")
    p_train.add_argument("--test", dest="test_path")
    p_train.add_argument("--model-out", required=True)
    p_train.add_argument("--log-out", help="epoch log path (default <model-out>.log)")
    _add_column_flags(p_train)
    _add_training_flags(p_train)

    p_eval = sub.add_parser("eval", help="score a model against gold labels")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--dump", help="write input plus predicted-label column here")
    _add_column_flags(p_eval)

    p_tag = sub.add_parser("tag", help="append a predicted-label column to input")
    p_tag.add_argument("--model", required=True)
    p_tag.add_argument("--input", required=True)
    p_tag.add_argument("--output", required=True)
    _add_column_flags(p_tag, label_default="none")

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every model gradient")
    p_grad.add_argument("--seed", type=int, default=1)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--fd-step", type=float, default=1e-5)
    p_grad.add_argument("--corrupt", action="store_true",
                        help="mis-scale one backward rule to prove the check catches it")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus from a spec file")
    p_synth.add_argument("--spec", required=True, help="key = value generator settings")
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--seed", type=int, default=1)
    return parser


def _load_labeled(path: str, spec: ColumnSpec):
    _require_file(path)
    sentences = load_conll(path, spec)
    if not sentences:
        raise SeqtagError(f"no sentences in {path}")
    return sentences


def cmd_train(args) -> int:
    config = _config_from_sources(args)
    spec = _column_spec(args)
    corpus = Corpus(
        train=_load_labeled(args.train_path, spec),
        dev=_load_labeled(args.dev_path, spec),
        test=_load_labeled(args.test_path, spec) if args.test_path else [],
    )
    log_out = args.log_out or args.model_out + ".log"
    if config.runs == 1:
        multi_run(corpus, config, outputs=[(args.model_out, log_out)])
        print(Path(log_out).read_text(encoding="utf-8"), end="")
        return EXIT_OK
    seeds = [config.seed + k for k in range(config.runs)]
    stats = multi_run(corpus, config, seeds,
                      [(f"{args.model_out}.seed{s}", f"{log_out}.seed{s}") for s in seeds])
    aggregate = "".join(
        f"{key}_mean={stats.mean[name]:.6f} {key}_std={stats.std[name]:.6f}\n"
        for key, name in (("accuracy", "token_accuracy"), ("precision", "precision"),
                          ("recall", "recall"), ("f1", "f1"), ("cer", "cer"))
    )
    Path(log_out + ".aggregate").write_text(aggregate, encoding="utf-8")
    print(aggregate, end="")
    return EXIT_OK


def cmd_eval(args) -> int:
    _require_file(args.model)
    params, vocabs, _ = load_model(args.model)
    spec = _column_spec(args)
    sentences = _load_labeled(args.data, spec)
    encoded = encode_corpus(sentences, vocabs)
    preds = predict_corpus(params, encoded) if args.dump else None
    report = evaluate(params, encoded, vocabs, preds)
    print(report.table())
    print(report.key_values())
    if args.dump:
        write_conll(args.dump, sentences,
                    extra_labels=[decode_labels(p, vocabs) for p in preds])
    return EXIT_OK


def cmd_tag(args) -> int:
    _require_file(args.model)
    params, vocabs, _ = load_model(args.model)
    spec = _column_spec(args)
    _require_file(args.input)
    sentences = load_conll(args.input, spec)
    if not sentences:
        raise SeqtagError(f"no sentences in {args.input}")
    encoded = encode_corpus(sentences, vocabs)
    preds = predict_corpus(params, encoded)
    write_conll(args.output, sentences,
                extra_labels=[decode_labels(p, vocabs) for p in preds])
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.corrupt:
        with ad.corrupt_tanh_backward():
            errors, ok = run_gradient_check(args.seed, args.tolerance, args.fd_step)
    else:
        errors, ok = run_gradient_check(args.seed, args.tolerance, args.fd_step)
    for name, err in errors.items():
        print(f"tensor={name} max_rel_err={err:.3e}")
    if ok:
        print(f"gradcheck: all {len(errors)} tensors within {args.tolerance:.1e}")
        return EXIT_OK
    offenders = [name for name, err in errors.items() if err >= args.tolerance]
    print(f"gradcheck: FAILED for {offenders}", file=sys.stderr)
    return EXIT_CHECK_FAILED


def cmd_synth(args) -> int:
    _require_file(args.spec)
    values = _read_fields(Path(args.spec), SyntheticSpec, "synthetic-spec", extra=("seed",))
    seed = int(values.pop("seed", args.seed))
    spec = SyntheticSpec(**values)
    train_split, dev_split, test_split = make_synthetic_corpus(spec, seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, split in (("train", train_split), ("dev", dev_split), ("test", test_split)):
        write_conll(out_dir / f"{name}.conll", split)
    print(f"wrote {len(train_split)}/{len(dev_split)}/{len(test_split)} sentences to {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "tag": cmd_tag,
    "gradcheck": cmd_gradcheck,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _normalise_bools(args)
    try:
        return _COMMANDS[args.command](args)
    except VocabMismatchError as exc:
        print(f"seqtag {args.command}: {exc}", file=sys.stderr)
        return EXIT_VOCAB_MISMATCH
    except TrainingError as exc:
        print(f"seqtag {args.command}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (SeqtagError, OSError, ValueError) as exc:
        print(f"seqtag {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

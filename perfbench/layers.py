"""Which seqtag calls the traced run wraps, and how its spans reduce to
per-layer metrics.

Names are patched where the caller looks them up: module globals of
`seqtag.training` and `seqtag.model`, and class attributes for methods.
Span names are `<layer>.<what>`; the layer is the seqtag module whose
function runs (`trace` is the tracer's own bookkeeping).
"""

from __future__ import annotations

import numpy as np

from seqtag import model, training
from seqtag.model import ModelParameters
from seqtag.training import Adam

from tracing import Span, descendants, has_ancestor, self_times

LAYERS = ("data", "model", "autodiff", "training", "metrics", "trace")
# tagging runs no data, autodiff, metrics or bookkeeping code
PHASE_LAYERS = {"train": LAYERS, "predict": ("model", "training")}
GROUP_B_PREFIXES = ("dec_bw.", "out.bw.")
MIB = float(1 << 20)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _batch_meta(batch, *args, **kwargs) -> dict:
    return {"tokens": sum(len(s) for s in batch)}


def _backward_meta(loss) -> dict:
    """Tape length, and the bytes of the dense `zeros_like(table)` that the
    pass will build: one per reachable tape entry reading an `embed.*`
    table.  Reachability follows `autodiff.backward`'s own walk."""
    reach = {loss.node_id}
    embed_bytes = 0
    for out, inputs, _ in reversed(loss.tape.entries):
        if out.node_id not in reach:
            continue
        for t in inputs:
            if t.requires_grad:
                reach.add(t.node_id)
                if t.name is not None and t.name.startswith("embed."):
                    embed_bytes += t.values.nbytes
    return {"tape_len": len(loss.tape), "embed_bytes": embed_bytes}


def _adam_meta(opt: Adam) -> dict:
    """Optimizer group and whether clipping fires, read from `.grad` the
    way `Adam.step` computes its global norm."""
    names = [t.name for t in opt.tensors]
    group = "b" if names and all(n.startswith(GROUP_B_PREFIXES) for n in names) else "a"
    norm = np.sqrt(sum(float((t.grad * t.grad).sum()) for t in opt.tensors))
    return {"group": group, "clip_fired": opt.clip_norm is not None and norm > opt.clip_norm}


def trace_targets() -> list[tuple]:
    return [
        (training, "encode_corpus", "data.encode"),
        (training, "bucket_batches", "data.batch"),
        (training, "nll_sums", "training.nll_sums", _batch_meta),
        (training, "l2_penalty", "training.l2"),
        (training, "backward", "autodiff.backward", _backward_meta),
        (training, "evaluate", "training.evaluate"),
        (training, "predict_corpus", "training.predict_corpus"),
        (training, "evaluate_tags", "metrics.evaluate_tags"),
        (model, "encode", "model.encode"),
        (model, "_char_position_reps", "model.char"),
        (model, "decode_backward", "model.dec_bw"),
        (model, "decode_forward", "model.dec_fw"),
        (model, "predict_batch", "model.predict_batch"),
        (Adam, "step", "training.adam", _adam_meta),
        (ModelParameters, "zero_grads", "training.zero_grad"),
    ]


def _root(spans: list[Span], name: str) -> int:
    """The last top-level span of that name (the traced pass of its phase)."""
    return max(i for i, s in enumerate(spans) if s.name == name and s.parent is None)


def training_steps(spans: list[Span], train_root: int) -> list[dict]:
    """Group the spans directly under `training.train` into steps.  A step
    opens with `zero_grads` and closes with its second `Adam.step` (one per
    optimizer group of the dual regime).  Bookkeeping inside a step is
    subtracted from its duration."""
    steps, step = [], None
    for s in spans[train_root + 1:]:
        if s.parent != train_root:
            continue
        if step is None:
            if s.name != "training.zero_grad":
                continue
            step = {"start": s.start, "trace": 0.0, "tokens": 0, "backward": [], "adam": []}
        if s.name == "trace.bookkeeping":
            step["trace"] += s.duration
        elif s.name == "training.nll_sums":
            step["tokens"] += s.meta["tokens"]
        elif s.name == "autodiff.backward":
            step["backward"].append(s)
        elif s.name == "training.adam":
            step["adam"].append(s)
            if len(step["adam"]) == 2:
                step["seconds"] = s.end - step["start"] - step["trace"]
                steps.append(step)
                step = None
    return steps


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it; the
    median when there are too few samples for any tail."""
    for pct in TAIL_PERCENTILES:
        if round(n * (100 - pct) / 100, 6) >= 10:
            return pct
    return 50.0


def per_layer_metrics(spans: list[Span], *, epochs: int, n_batches: int,
                      window_tokens: int, corpus_tokens: int, model_bytes: int,
                      untraced: dict[str, float]) -> dict[str, tuple[float, str]]:
    own = self_times(spans)
    train_root = _root(spans, "training.train")
    predict_root = _root(spans, "training.predict_corpus")
    train_ids = descendants(spans, train_root)
    predict_ids = descendants(spans, predict_root)

    def total(ids, name, under=None, self_only=False):
        return sum(own[i] if self_only else spans[i].duration for i in ids
                   if spans[i].name == name and (under is None or has_ancestor(spans, i, under)))

    def root_total(name):
        return sum(s.duration for s in spans if s.name == name and s.parent is None)

    steps = training_steps(spans, train_root)
    step_ms = np.array([1e3 * s["seconds"] for s in steps])
    pct = tail_percentile(len(step_ms))
    bw_passes = [s["backward"][0] for s in steps]
    full_passes = [s["backward"][-1] for s in steps]
    clip = {g: [a.meta["clip_fired"] for s in steps for a in s["adam"] if a.meta["group"] == g]
            for g in ("a", "b")}
    nll = "training.nll_sums"

    out = {
        "data.encode_s": (root_total("data.encode"), "s"),
        "data.batch_s": (root_total("data.batch"), "s"),
        "data.batches": (n_batches, "count"),
        "data.window_tokens_per_token": (window_tokens / corpus_tokens, "ratio"),
        "model.char_s": (total(train_ids, "model.char", nll), "s"),
        "model.word_s": (total(train_ids, "model.encode", nll, self_only=True), "s"),
        "model.dec_bw_s": (total(train_ids, "model.dec_bw", nll), "s"),
        "model.dec_fw_s": (total(train_ids, "model.dec_fw", nll), "s"),
        "model.infer_encode_s": (total(predict_ids, "model.encode"), "s"),
        "model.infer_decode_s": (total(predict_ids, "model.dec_bw")
                                 + total(predict_ids, "model.dec_fw"), "s"),
        "autodiff.tape_nodes_per_token": (
            sum(s["backward"][-1].meta["tape_len"] for s in steps)
            / sum(s["tokens"] for s in steps), "nodes/token"),
        "autodiff.backward_bw_s": (sum(b.duration for b in bw_passes), "s"),
        "autodiff.backward_full_s": (sum(b.duration for b in full_passes), "s"),
        "autodiff.embed_grad_mb_per_step": (
            float(np.mean([sum(b.meta["embed_bytes"] for b in s["backward"]) for s in steps])) / MIB,
            "MiB"),
        "training.step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
        "training.step_ms_tail": (float(np.percentile(step_ms, pct)), "ms"),
        "training.step_ms_tail.pct": (pct, "percentile"),
        "training.step_ms_tail.n": (len(steps), "count"),
        "training.objective_s": (total(train_ids, nll, self_only=True)
                                 + total(train_ids, "training.l2"), "s"),
        "training.l2_s": (total(train_ids, "training.l2"), "s"),
        "training.adam_s": (total(train_ids, "training.adam"), "s"),
        "training.zero_grad_s": (total(train_ids, "training.zero_grad"), "s"),
        "training.eval_s": (total(train_ids, "training.evaluate") / epochs, "s"),
        "training.clip_fired_ratio.a": (float(np.mean(clip["a"])), "ratio"),
        "training.clip_fired_ratio.b": (float(np.mean(clip["b"])), "ratio"),
        "metrics.evaluate_tags_s": (total(train_ids, "metrics.evaluate_tags") / epochs, "s"),
        "serialization.save_s": (root_total("serialization.save"), "s"),
        "serialization.load_s": (root_total("serialization.load"), "s"),
        "serialization.model_mb": (model_bytes / MIB, "MiB"),
    }
    for phase, root, ids in (("train", train_root, train_ids), ("predict", predict_root, predict_ids)):
        wall = spans[root].duration
        out[f"trace.{phase}_s"] = (wall, "s")
        out[f"trace.overhead.{phase}"] = (wall / untraced[phase], "ratio")
        for layer in PHASE_LAYERS[phase]:
            out[f"layer.{phase}.{layer}_s"] = (sum(own[i] for i in ids if spans[i].layer == layer), "s")
    return out

"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest
from seqtag.errors import TrainingError

import harness
import layers
from tracing import Span, Tracer, descendants, self_times
from workloads import WORKLOADS, make_inputs

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("b.x", 5.5, 7.0, parent=3),
        Span("b.y", 6.5, 8.0, parent=3),  # overlaps b.x: the overlap counts once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 1.5])
    assert descendants(spans, 3) == [3, 4, 5]


def test_tracer_nests_spans_with_a_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner", tokens=3):
            pass
    outer, inner = tracer.spans
    assert (outer.start, outer.end, inner.start, inner.end) == (0.0, 3.0, 1.0, 2.0)
    assert inner.parent == 0 and inner.meta == {"tokens": 3}
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_wrappers_are_removed_after_the_traced_run():
    targets = layers.trace_targets()
    originals = [(t[0], t[1], vars(t[0])[t[1]]) for t in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            raise RuntimeError("the body failed")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_generated_inputs_repeat_for_a_seed():
    for workload in WORKLOADS.values():
        small = replace(workload, per_length=(2, 1, 1), lexicon_words=min(workload.lexicon_words, 700))
        first, again, other = make_inputs(small, 5), make_inputs(small, 5), make_inputs(small, 6)
        assert first == again
        assert first.train != other.train
        lo, hi = workload.lengths
        for split, quota in zip((first.train, first.dev, first.heldout), small.per_length):
            assert sorted(len(s) for s in split) == sorted(quota * list(range(lo, hi + 1)))


def test_paper_vocabulary_comes_from_the_word_list():
    inputs = make_inputs(WORKLOADS["paper-bucket-dual"], 1)
    words = {tok for sent in inputs.vocab_source for tok in sent.tokens}
    assert len(words) > 20000


def tiny(name):
    """A scaled-down desk workload."""
    return replace(WORKLOADS[name], lengths=(3, 8), per_length=(6, 1, 1), warmup_train=2,
                   config=dict(WORKLOADS[name].config, epochs=1), must_beat_baseline=False)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Both kinds of run on a scaled-down desk workload."""
    workdir = tmp_path_factory.mktemp("perfbench")
    tally, t_tally = harness.Tally(), harness.Tally()
    e2e, _ = harness.measure(tiny("desk-bucket-dual"), 3, 0.1, workdir, tally)
    per_layer, _ = harness.measure_traced(tiny("desk-bucket-dual"), 3, 0.1, workdir, t_tally)
    return (e2e, tally), (per_layer, t_tally)


def test_runs_report_every_declared_metric_with_valid_names(tiny_runs):
    declared_e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    declared_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    (e2e, tally), (per_layer, t_tally) = tiny_runs
    assert list(e2e) == declared_e2e
    assert sorted(per_layer) == sorted(declared_layer)
    assert all(NAME.match(name) for name in list(e2e) + list(per_layer))
    assert tally.failed == 0 and t_tally.failed == 0 and not tally.problems + t_tally.problems
    assert tally.attempted >= 1


def test_layer_self_times_account_for_the_traced_phases(tiny_runs):
    _, (per_layer, _) = tiny_runs
    for phase in ("train", "predict"):
        layers_sum = sum(per_layer[f"layer.{phase}.{layer}_s"][0]
                         for layer in layers.PHASE_LAYERS[phase])
        assert layers_sum == pytest.approx(per_layer[f"trace.{phase}_s"][0], rel=1e-9)


def test_bucket_workload_processes_each_token_once(tiny_runs):
    _, (per_layer, _) = tiny_runs
    assert per_layer["data.window_tokens_per_token"][0] == 1.0
    assert per_layer["autodiff.backward_bw_s"][0] > 0.0


def test_a_raising_call_fails_its_operations():
    tally = harness.Tally()
    assert tally.attempt(3, "fine", lambda: 7) == 7
    with pytest.raises(harness.OperationsFailed):
        tally.attempt(5, "broken", lambda: 1 / 0)
    assert (tally.attempted, tally.failed) == (8, 5)
    assert tally.problems == ["broken raised ZeroDivisionError: division by zero"]


def test_a_run_that_raises_still_prints_its_result(monkeypatch, capsys):
    import run

    def diverge(*args, **kwargs):
        raise TrainingError("non-finite loss")

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    monkeypatch.setitem(WORKLOADS, "desk-bucket-dual", tiny("desk-bucket-dual"))
    monkeypatch.setattr(harness.training, "train", diverge)
    assert run.main(["--workload", "desk-bucket-dual", "--seed", "1", "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_tail_percentile_leaves_ten_samples_beyond():
    assert layers.tail_percentile(5) == 50.0
    assert layers.tail_percentile(40) == 75.0
    assert layers.tail_percentile(100) == 90.0
    assert layers.tail_percentile(10_000) == 99.9

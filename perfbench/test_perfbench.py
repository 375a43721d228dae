"""Tests of the benchmark itself: metric coverage, span nesting, wrapper removal."""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from hopf import cli, data, graph, iterate, training  # noqa: E402

TINY_GEN = ("planted", "--n", "100", "--blocks", "2", "--p-in", "0.2", "--p-out", "0.02")
TINY = {
    "train": run.Workload(TINY_GEN, ("train", "--model", "nip_mean", "-C", "2", "--folds", "1"),
                          epochs=2),
    "hopf": run.Workload(TINY_GEN, ("hopf", "--model", "i_nip_mean", "-C", "1", "-T", "2"),
                         epochs=2, rounds=2),
}


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_benchmark_json_matches_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("verb", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_emits_every_metric_with_its_unit(verb, trace, tmp_path):
    result, detail = run.measure(f"tiny_{verb}", TINY[verb], seed=3, seconds=0, trace=trace,
                                 state=tmp_path)
    assert result["correct"], detail["calls"]
    assert result["attempted"] == run.MIN_CALLS and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert cli.main(["gen", *TINY_GEN, "--seed", "1", "--out", str(out)]) == 0
    return out / "dataset"


@pytest.mark.parametrize("verb", sorted(TINY))
def test_spans_nest_and_self_times_add_up(verb, tiny_dataset, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_epochs": 3, "min_epochs": 3}))
    rec = spans.Recorder()
    with rec.installed():
        wall = -time.perf_counter()
        assert cli.main([*TINY[verb].verb, "--dataset", str(tiny_dataset), "--out",
                         str(tmp_path / "out"), "--config", str(config), "--seed", "1"]) == 0
        wall += time.perf_counter()

    recorded = rec.spans
    assert any(s.parent >= 0 for s in recorded)
    assert spans.nesting_errors(recorded) == []
    selfs = spans.self_times(recorded)
    assert min(selfs) >= -1e-9
    assert sum(selfs) <= wall
    names = {s.name for s in recorded}
    assert {spans.LOAD, spans.TRAIN, spans.KHOP, spans.PREDICT, spans.BACKWARD} <= names

    m = spans.layer_metrics(recorded, wall, spans.dir_bytes(tmp_path / "out"))
    rounds = 2 if verb == "hopf" else 1
    assert m["training.epochs"] == 3 * rounds
    assert m["kernels.backward.calls"] == m["kernels.predict.calls.train"]
    assert m["graph.khop_subgraph.calls.val"] == m["kernels.predict.calls.val"] > 0
    assert m["graph.khop_subgraph.calls.infer"] > 0
    assert m["iterate.rounds"] == (rounds if verb == "hopf" else 0)
    assert 0 < m["kernels.useful_row_frac"] <= 1
    assert m["cli.self_s"] >= 0 and m["training.self_s"] >= 0


def _targets_now():
    return [spans._resolve(where).__dict__[attr] for where, attr, _, _ in spans.TARGETS]


def test_wrappers_are_removed_after_the_run():
    before = _targets_now()
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with rec.installed():
            assert all(getattr(f, "__wrapped__", None) is g for f, g in zip(_targets_now(), before))
            raise RuntimeError("verb failed")
    assert all(a is b for a, b in zip(_targets_now(), before))
    assert not any(hasattr(f, "__wrapped__") for f in before)
    assert cli.load_dataset is data.load_dataset
    assert cli.train is iterate.train is training.train
    assert training.khop_subgraph is iterate.khop_subgraph is graph.khop_subgraph


def test_nesting_check_flags_a_span_outside_its_parent():
    parent, child = spans.Span("outer", -1), spans.Span("inner", 0)
    parent.start, parent.end = 1.0, 2.0
    child.start, child.end = 1.5, 2.5
    assert spans.nesting_errors([parent, child]) == ["span inner escapes its parent outer"]
    child.end = 1.9
    assert spans.nesting_errors([parent, child]) == []
    assert spans.self_times([parent, child]) == pytest.approx([0.6, 0.4])

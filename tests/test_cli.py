import csv
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hopf.bench as bench_mod
import hopf.cli as cli_mod
from hopf import labelcsv
from hopf import HopfConfig, TrainConfig, make_kernel, make_splits, row_normalize, run_hopf
from hopf.cli import main
from hopf.data import load_dataset

from conftest import child_env, step_probe


@pytest.fixture(scope="module")
def planted_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["gen", "planted", "--n", "150", "--blocks", "3", "--p-in", "0.3",
                 "--p-out", "0.01", "--noise", "0.2", "--seed", "1", "--out", str(out)])
    assert code == 0
    return out / "dataset"


@pytest.fixture(scope="module")
def fast_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "max_epochs": 10, "min_epochs": 1, "patience": 100, "hidden_dim": 8,
        "use_wce": False, "batch_size": 64, "learning_rate": 0.01,
    }))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --config files the cases below name, written into each case's tmp_path
CONFIG_FILES = {
    "negative_seed.json": '{"rng_seed": -1}',
    "not_json.json": "max_epochs: 3",
    "list.json": "[1, 2]",
    "wrong_type.json": '{"batch_size": "64"}',
    "hopf_key.json": '{"T": 4}',
    # a two-fold train run's metrics.csv: one model scored twice on one dataset
    "folds.csv": "model,dataset,fold,micro_f1,loss\nnip_mean,planted,0,0.8,0.5\n"
                 "nip_mean,planted,1,0.9,0.4",
    # a percentage row, as in the paper's table, then a score that is not a number
    **{f"{bad}_score.csv": f"model,dataset,micro_f1\ngcn_s,cora,77.523\nnip_mean,cora,{bad}"
       for bad in ("nan", "inf")},
}

# (case, config file, what the error must name): integers must be JSON
# integers, numbers finite, use_wce a bool, and patience and min_epochs >= 0
BAD_CONFIG_VALUES = [
    ("hidden_dim-1.5", '{"hidden_dim": 1.5}', "hidden_dim must be an integer, got 1.5"),
    ("batch_size-2.5", '{"batch_size": 2.5}', "batch_size must be an integer, got 2.5"),
    ("max_epochs-2.5", '{"max_epochs": 2.5}', "max_epochs must be an integer, got 2.5"),
    ("rng_seed-1.5", '{"rng_seed": 1.5}', "rng_seed must be an integer, got 1.5"),
    ("hidden_dim-true", '{"hidden_dim": true}', "hidden_dim must be an integer, got True"),
    ("learning_rate-nan", '{"learning_rate": NaN}',
     "learning_rate must be a finite number, got nan"),
    ("l2_weight-inf", '{"l2_weight": Infinity}', "l2_weight must be a finite number, got inf"),
    ("use_wce-string", '{"use_wce": "no"}', "use_wce must be true or false, got 'no'"),
    ("patience-negative", '{"patience": -5}', "patience must be >= 0, got -5"),
    ("min_epochs-negative", '{"min_epochs": -3}', "min_epochs must be >= 0, got -3"),
]
CONFIG_FILES.update((f"{case}.json", text) for case, text, _ in BAD_CONFIG_VALUES)

# (what the error message must name, argv before --out); {data} and {tmp}
# stand for the planted bundle and the test's tmp_path
BAD_ARGUMENTS = [
    pytest.param("--fold", ["hopf", "--dataset", "{data}", "--model", "i_nip_mean",
                            "--fold", "-1"], id="hopf-fold-negative"),
    pytest.param("--fold", ["neighbor-fraction", "--dataset", "{data}", "--model", "nip_mean",
                            "--fractions", "1.0", "--fold", "-1"], id="fraction-fold-negative"),
    pytest.param("--folds", ["train", "--dataset", "{data}", "--model", "nip_mean",
                             "--folds", "0"], id="train-folds-zero"),
    pytest.param("--folds: 'x' is not an integer", ["train", "--dataset", "{data}", "--model",
                                                     "nip_mean", "--folds", "x"],
                 id="train-folds-not-int"),
    pytest.param("--repeats", ["bench-scaling", "--dataset", "{data}", "--hops", "1",
                               "--variants", "nip_mean", "--repeats", "0"],
                 id="bench-repeats-zero"),
    pytest.param("--seed", ["train", "--dataset", "{data}", "--model", "nip_mean",
                            "--seed", "-1"], id="train-seed-negative"),
    pytest.param("--seed", ["gen", "chain", "--seed", "-1"], id="gen-seed-negative"),
    pytest.param("rng_seed", ["train", "--dataset", "{data}", "--model", "nip_mean",
                              "--config", "{tmp}/negative_seed.json"], id="config-seed-negative"),
    pytest.param("--max-k", ["nim", "--alpha", "1", "--beta", "1", "--max-k", "-1"],
                 id="nim-max-k-negative"),
    pytest.param("--features", ["gen", "benchmark", "--nodes", "10", "--edges", "12",
                                "--features", "0"], id="gen-features-zero"),
    pytest.param("--sample-caps", ["train", "--dataset", "{data}", "--model", "nip_mean",
                                   "--sample-caps", "1,x"], id="sample-caps-not-int"),
    pytest.param("--hops", ["bench-scaling", "--dataset", "{data}", "--hops", "1,x",
                            "--variants", "nip_mean"], id="bench-hops-not-int"),
    # past int64: the depth is refused before SeedSequence.spawn overflows
    pytest.param("depth must be at most", ["train", "--dataset", "{data}", "--model", "nip_mean",
                                           "-C", "9" * 20], id="train-depth-huge"),
    pytest.param("depth must be at most", ["bench-scaling", "--dataset", "{data}", "--hops",
                                           "9" * 20, "--variants", "nip_mean"],
                 id="bench-hops-huge"),
    pytest.param("hop count must be >= 1", ["bench-scaling", "--dataset", "{data}", "--hops",
                                            "0,2", "--variants", "i_nip_mean_c1"],
                 id="bench-hops-zero"),
    pytest.param("hop count must be >= 1", ["bench-scaling", "--dataset", "{data}", "--hops",
                                            "-2", "--variants", "i_nip_mean_c1"],
                 id="bench-hops-negative"),
    pytest.param("i_nip_mean_c0", ["bench-scaling", "--dataset", "{data}", "--hops", "2",
                                   "--variants", "i_nip_mean_c0"], id="bench-variant-c0"),
    pytest.param("--fractions", ["neighbor-fraction", "--dataset", "{data}", "--model",
                                 "nip_mean", "--fractions", "0.5,x"], id="fractions-not-float"),
    pytest.param("missing.json", ["train", "--dataset", "{data}", "--model", "nip_mean",
                                  "--config", "{tmp}/missing.json"], id="config-missing"),
    pytest.param("not_json.json", ["hopf", "--dataset", "{data}", "--model", "ss_ica",
                                   "--config", "{tmp}/not_json.json"], id="config-not-json"),
    pytest.param("list.json", ["train", "--dataset", "{data}", "--model", "nip_mean",
                               "--config", "{tmp}/list.json"], id="config-json-list"),
    pytest.param("wrong_type.json", ["train", "--dataset", "{data}", "--model", "nip_mean",
                                    "--config", "{tmp}/wrong_type.json"], id="config-wrong-type"),
    pytest.param("missing.csv", ["compare", "--scores", "{tmp}/missing.csv"],
                 id="scores-missing"),
    pytest.param("folds.csv: model 'nip_mean' on dataset 'planted' is scored more than once",
                 ["compare", "--scores", "{tmp}/folds.csv"], id="scores-repeated-pair"),
] + [
    pytest.param(f"{bad}_score.csv: model 'nip_mean' on dataset 'cora' has a non-finite "
                 f"micro_f1 {bad}", ["compare", "--scores", "{tmp}/" + bad + "_score.csv"],
                 id=f"scores-{bad}")
    for bad in ("nan", "inf")
] + [
    pytest.param("unknown config keys: ['T']", ["hopf", "--dataset", "{data}", "--model",
                                                "i_nip_mean", "--config", "{tmp}/hopf_key.json"],
                 id="config-hopf-key"),
    pytest.param("--memory-budget", ["bench-scaling", "--dataset", "{data}", "--hops", "1",
                                     "--variants", "nip_mean", "--memory-budget", "nan"],
                 id="bench-budget-nan"),
    pytest.param("--memory-budget", ["bench-scaling", "--dataset", "{data}", "--hops", "1",
                                     "--variants", "nip_mean", "--memory-budget", "inf"],
                 id="bench-budget-inf"),
    pytest.param("--memory-budget: 'abc' is not a number",
                 ["bench-scaling", "--dataset", "{data}", "--hops", "1", "--variants", "nip_mean",
                  "--memory-budget", "abc"], id="bench-budget-not-a-number"),
    pytest.param("--hops: expected at least one value",
                 ["bench-scaling", "--dataset", "{data}", "--hops", ",", "--variants", "nip_mean"],
                 id="bench-hops-empty"),
    pytest.param("--variants: expected at least one value",
                 ["bench-scaling", "--dataset", "{data}", "--hops", "1", "--variants", " , "],
                 id="bench-variants-empty"),
    pytest.param("n=10001 exceeds the limit", ["gen", "chain", "--n", "10001"],
                 id="gen-chain-past-limit"),
    # 2.2e9 adjacency entries overflow the int32 CSR; refused before any endpoint array
    pytest.param("over the int32 CSR limit", ["gen", "benchmark", "--nodes", "70000",
                                              "--edges", "1100000000"],
                 id="gen-benchmark-past-csr-limit"),
    pytest.param("meta.json: not a directory",
                 ["train", "--dataset", "{data}/meta.json", "--model", "nip_mean"],
                 id="dataset-a-file"),
    # meta.json says n=0 and every TSV is empty: the per-line reader's empty matrix is 2-D
    pytest.param("features.tsv: expected 3 columns, found 0",
                 ["train", "--dataset", "{tmp}/empty", "--model", "nip_mean"],
                 id="bundle-n-zero"),
] + [
    pytest.param(f"feature noise must lie in [0, 1], got {float(noise)}",
                 ["gen", "planted", "--noise", noise], id=f"gen-noise-{noise}")
    for noise in ("2", "-0.1", "nan")
] + [
    pytest.param(named, ["train", "--dataset", "{data}", "--model", "nip_mean",
                         "--config", "{tmp}/" + case + ".json"], id=f"config-{case}")
    for case, _, named in BAD_CONFIG_VALUES
] + [
    pytest.param("--alpha", ["nim", "--alpha", rate, "--beta", "1"], id=f"nim-alpha-{rate}")
    for rate in ("nan", "inf")
] + [
    # bench-scaling takes its graph from --dataset and its step from --config only
    pytest.param(f"unrecognized arguments: {flag}",
                 ["bench-scaling", "--dataset", "{data}", "--hops", "1", "--variants",
                  "nip_mean", flag, "8"], id=f"bench-removed{flag}")
    for flag in ("--nodes", "--edges", "--features", "--labels", "--batch-size", "--hidden-dim")
]


class TestExitCodes:
    def test_unknown_model_is_usage_error(self, planted_dir, tmp_path):
        code = main(["train", "--dataset", str(planted_dir), "--model", "gs_lstm",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_missing_required_flag(self, tmp_path, capsys):
        code = main(["train", "--model", "nip_mean", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 2

    def test_no_verb_prints_help(self, capsys):
        assert main([]) == 2
        assert "verb" in capsys.readouterr().out

    def test_nim_rejects_degenerate_rates(self, tmp_path):
        assert main(["nim", "--alpha", "0", "--beta", "0", "--out", str(tmp_path)]) == 2

    def test_malformed_scores_csv(self, tmp_path):
        bad = tmp_path / "scores.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["compare", "--scores", str(bad), "--out", str(tmp_path)]) == 2

    def test_non_numeric_feature_cell(self, planted_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for f in planted_dir.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
        lines = (bad / "features.tsv").read_text().splitlines()
        lines[2] = "oops" + lines[2][lines[2].index("\t"):]
        (bad / "features.tsv").write_text("\n".join(lines) + "\n")
        code = main(["train", "--dataset", str(bad), "--model", "nip_mean",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "features.tsv:3" in capsys.readouterr().err

    def test_a_bad_cell_under_dataset_dot_names_the_path_as_given(self, planted_dir, tmp_path,
                                                                  capsys, monkeypatch):
        bad = tmp_path / "bad"
        bad.mkdir()
        for f in planted_dir.iterdir():
            (bad / f.name).write_bytes(f.read_bytes())
        lines = (bad / "features.tsv").read_text().splitlines()
        lines[1] = "oops" + lines[1][lines[1].index("\t"):]
        (bad / "features.tsv").write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(bad)
        code = main(["train", "--dataset", ".", "--model", "nip_mean",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: ./features.tsv:2: could not convert string to float: 'oops'\n"

    def test_planted_rejects_dense_draw_past_limit(self, tmp_path, capsys):
        # n=100000 would need about 180 GB for the dense draw
        code = main(["gen", "planted", "--n", "100000", "--out", str(tmp_path)])
        assert code == 2
        assert "exceeds the limit" in capsys.readouterr().err
        assert not (tmp_path / "dataset").exists()

    # numpy warns of the overflow on the way to the non-finite loss
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_exits_1(self, planted_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"learning_rate": 1e300}')
        code = main(["train", "--dataset", str(planted_dir), "--model", "nip_mean",
                     "--config", str(config), "--out", str(tmp_path / "run")])
        assert code == 1
        # the batch is not set for a validation loss, so it is not printed
        assert capsys.readouterr().err == \
            "training failed (epoch=1): non-finite validation loss nan\n"

    @pytest.mark.parametrize("named,argv", BAD_ARGUMENTS)
    def test_bad_argument_or_input_file_exits_2(self, planted_dir, tmp_path, capsys,
                                                named, argv):
        for name, text in CONFIG_FILES.items():
            (tmp_path / name).write_text(text + "\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "meta.json").write_text('{"name": "e", "n": 0, "f": 3, "l": 2, '
                                         '"task": "multi_class"}\n')
        for name in ("graph.tsv", "features.tsv", "labels.tsv"):
            (empty / name).write_text("")
        fill = {"data": str(planted_dir), "tmp": str(tmp_path)}
        code = main([a.format(**fill) for a in argv] + ["--out", str(tmp_path / "run")])
        assert code == 2
        assert named in capsys.readouterr().err

    # (meta.json bytes, what the error must name) on a 12-node chain bundle
    @pytest.mark.parametrize("meta,named", [
        pytest.param(b"{not json", "meta.json", id="not-json"),
        pytest.param(b"[1,2]", "meta.json", id="not-an-object"),
        pytest.param(b"\xff\xfe", "meta.json", id="not-utf8"),
        pytest.param(b'{"name": "c", "n": [1], "f": 12, "l": 2, "task": "multi_class"}',
                     "meta.json", id="n-a-list"),
        # the rows refute n before any O(n) array; numpy would refuse these tens of TiB anyway
        pytest.param(b'{"name": "c", "n": 10000000000000, "f": 12, "l": 2, '
                     b'"task": "multi_class"}', "expected 10000000000000 rows, found 12",
                     id="n-beyond-the-rows"),
        # only JSON integers count: a float is not truncated, a string not parsed, a bool not 1
        pytest.param(b'{"name": "c", "n": 12.9, "f": 12, "l": 2, "task": "multi_class"}',
                     "meta.json: 'n' must be an integer", id="n-a-float"),
        pytest.param(b'{"name": "c", "n": "12", "f": 12, "l": 2, "task": "multi_class"}',
                     "meta.json: 'n' must be an integer", id="n-a-string"),
        pytest.param(b'{"name": "c", "n": true, "f": 12, "l": 2, "task": "multi_class"}',
                     "meta.json: 'n' must be an integer", id="n-a-bool"),
    ])
    def test_malformed_meta_json_exits_2(self, tmp_path, capsys, meta, named):
        assert main(["gen", "chain", "--n", "12", "--out", str(tmp_path / "gen")]) == 0
        data = tmp_path / "gen" / "dataset"
        (data / "meta.json").write_bytes(meta)
        code = main(["train", "--dataset", str(data), "--model", "nip_mean",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert named in capsys.readouterr().err

    # a planted bundle with one feature cell made non-finite: an ingest error, not a
    # "non-finite validation loss" from training
    @pytest.mark.parametrize("cell", [pytest.param("nan", id="feature-nan"),
                                      pytest.param("inf", id="feature-inf")])
    def test_non_finite_feature_exits_2(self, tmp_path, capsys, cell):
        assert main(["gen", "planted", "--n", "400", "--seed", "1",
                     "--out", str(tmp_path / "gen")]) == 0
        path = tmp_path / "gen" / "dataset" / "features.tsv"
        lines = path.read_text().splitlines()
        lines[6] = "\t".join([cell] + lines[6].split("\t")[1:])
        path.write_text("\n".join(lines) + "\n")
        code = main(["train", "--dataset", str(path.parent), "--model", "nip_mean", "-C", "1",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"features.tsv:7: non-finite value {float(cell)}" in capsys.readouterr().err

    def test_manifest_written_before_results(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(tmp_path / "nonexistent"),
                     "--model", "nip_mean", "--out", str(out)])
        assert code == 2
        assert (out / "manifest.json").exists()
        assert not (out / "metrics.csv").exists()


class TestTrainCommand:
    def test_smoke_run_writes_artifacts(self, planted_dir, fast_config, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(planted_dir), "--model", "nip_mean",
                     "--config", str(fast_config), "--folds", "2", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        assert (out / "manifest.json").exists()
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 2
        assert rows[0]["model"] == "nip_mean"
        report = json.loads((out / "report.json").read_text())
        assert 0.0 <= report["mean_micro_f1"] <= 1.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_fingerprint"]
        assert manifest["timings"]["total_seconds"] > 0

    @pytest.mark.parametrize("argv", [
        pytest.param(["train", "--model", "gcn_mean", "--folds", "1"], id="train"),
        pytest.param(["hopf", "--model", "i_nip_mean", "-C", "1", "-T", "3"], id="hopf"),
    ])
    def test_rerun_reproduces_metrics_bit_identically(self, planted_dir, fast_config, tmp_path,
                                                      argv):
        # every file but the manifest (timings, out path): weights and label CSVs too
        config = tmp_path / "dropout.json"
        config.write_text(json.dumps({**json.loads(fast_config.read_text()), "dropout_rate": 0.2}))
        trees = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(argv + ["--dataset", str(planted_dir), "--config", str(config),
                                "--seed", "9", "--out", str(out)]) == 0
            trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in out.rglob("*") if p.is_file() and p.name != "manifest.json"})
        assert trees[0] == trees[1]
        assert "metrics.csv" in trees[0]
        if argv[0] == "hopf":
            assert {"iterations/weights_t3.bin", "iterations/yhat_t3.csv",
                    "yhat_final.csv"} <= trees[0].keys()

    def test_prediction_rows_keep_their_bytes(self, planted_dir, fast_config, tmp_path,
                                              monkeypatch):
        # labelcsv.write's rows, the node id first, are byte for byte csv.writer rows of
        # ``int(n)`` and ``repr(float(v))`` per numpy cell; with 3-row blocks the 30 test
        # rows span 10 blocks, so ids and rows that drift apart at a block's edge show
        real, seen = cli_mod.evaluate, {}

        def edge_values(spec, weights, bundle, node_set):
            ev = real(spec, weights, bundle, node_set)
            ev["predictions"][:2] = [[5e-324, -0.0, 1.0 - 2.0**-53], [1e-300, 0.1, 1.0]]
            seen["nodes"], seen["predictions"] = node_set, ev["predictions"]
            return ev

        monkeypatch.setattr(cli_mod, "evaluate", edge_values)
        for block_rows in (labelcsv.BLOCK_ROWS, 3):
            monkeypatch.setattr(labelcsv, "BLOCK_ROWS", block_rows)
            out = tmp_path / f"run{block_rows}"
            assert main(["train", "--dataset", str(planted_dir), "--model", "nip_mean",
                         "--config", str(fast_config), "--folds", "1", "--seed", "5",
                         "--out", str(out)]) == 0
            nodes, preds = seen["nodes"], seen["predictions"]
            assert len(nodes) == 30
            reference = tmp_path / f"reference{block_rows}.csv"
            with open(reference, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["node"] + [f"label_{j}" for j in range(preds.shape[1])])
                writer.writerows([int(n)] + [repr(float(v)) for v in row]
                                 for n, row in zip(nodes, preds))
            assert (out / "predictions_fold0.csv").read_bytes() == reference.read_bytes()

    def test_caps_at_max_degree_train_as_without_caps(self, planted_dir, fast_config, tmp_path):
        # no node exceeds its cap, so every ball and every row is the BFS one; a cap
        # past int64 is clipped to n, not an OverflowError
        cap = str(int(load_dataset(planted_dir).graph.degree.max()))
        outputs = []
        for tag, caps in (("plain", []), ("capped", ["--sample-caps", f"{cap},{cap}"]),
                          ("huge", ["--sample-caps", f"{'9' * 20},{cap}"])):
            out = tmp_path / tag
            assert main(["train", "--dataset", str(planted_dir), "--model", "gs_mean",
                         "-C", "2", "--config", str(fast_config), "--folds", "1",
                         "--seed", "3", "--out", str(out)] + caps) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("predictions_fold0.csv", "history_fold0.csv")])
        assert outputs[0] == outputs[1]

    def test_rerun_with_fewer_folds_leaves_no_stale_fold(self, planted_dir, fast_config,
                                                           tmp_path):
        out = tmp_path / "run"
        for folds in ("3", "1"):
            assert main(["train", "--dataset", str(planted_dir), "--model", "nip_mean",
                         "--config", str(fast_config), "--folds", folds, "-C", "1",
                         "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "history_fold0.csv", "manifest.json", "metrics.csv", "predictions_fold0.csv",
            "report.json"]

    def test_sample_caps_cardinality_checked(self, planted_dir, fast_config, tmp_path):
        code = main(["train", "--dataset", str(planted_dir), "--model", "nip_mean",
                     "--config", str(fast_config), "--sample-caps", "5",
                     "-C", "2", "--out", str(tmp_path / "x")])
        assert code == 2


class TestHopfCommand:
    def test_trajectory_has_one_row_per_round(self, planted_dir, fast_config, tmp_path):
        out = tmp_path / "run"
        code = main(["hopf", "--dataset", str(planted_dir), "--model", "ss_ica",
                     "--config", str(fast_config), "-C", "1", "-T", "4",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "trajectory.csv")
        assert [int(r["iteration"]) for r in rows] == [1, 2, 3, 4]
        assert (out / "yhat_final.csv").exists()
        assert (out / "ytilde_final.csv").exists()
        assert (out / "iterations" / "weights_t4.bin").exists()

    def test_final_label_files_are_the_last_round(self, planted_dir, fast_config, tmp_path):
        out = tmp_path / "run"
        code = main(["hopf", "--dataset", str(planted_dir), "--model", "i_nip_mean",
                     "--config", str(fast_config), "-C", "1", "-T", "3",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        for name in ("yhat", "ytilde"):
            final = (out / f"{name}_final.csv").read_bytes()
            assert final == (out / "iterations" / f"{name}_t3.csv").read_bytes()
            assert final != (out / "iterations" / f"{name}_t1.csv").read_bytes()

    def test_rerun_with_fewer_rounds_leaves_no_stale_round(self, planted_dir, fast_config,
                                                            tmp_path):
        out = tmp_path / "run"
        argv = ["hopf", "--dataset", str(planted_dir), "--model", "i_nip_mean",
                "--config", str(fast_config), "-C", "1", "--out", str(out)]
        assert main(argv + ["-T", "4"]) == 0
        assert main(argv + ["-T", "2"]) == 0
        assert sorted(p.name for p in (out / "iterations").iterdir()) == sorted(
            ["metrics.csv"] + [f"{stem}_t{t}.{ext}" for t in (1, 2) for stem, ext in
                               (("weights", "bin"), ("yhat", "csv"), ("ytilde", "csv"))])

    def test_non_iterative_model_rejected(self, planted_dir, tmp_path):
        code = main(["hopf", "--dataset", str(planted_dir), "--model", "gcn",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_known_model_without_label_channel_rejected_before_the_manifest(
            self, planted_dir, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["hopf", "--dataset", str(planted_dir), "--model", "nip_mean", "-T", "1",
                     "--out", str(out)])
        assert code == 2
        assert "nip_mean has no label channel" in capsys.readouterr().err
        assert not out.exists()

    def test_cold_start_and_shifted_averaging_reach_the_loop(self, planted_dir, fast_config,
                                                            tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["hopf", "--dataset", str(planted_dir), "--model", "ss_ica",
                     "--config", str(fast_config), "-T", "3", "--cold-start",
                     "--shifted-averaging", "--seed", "6", "--out", str(out)]) == 0
        capsys.readouterr()
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["warm_start"], config["shifted_averaging"]) == (False, True)
        bundle = load_dataset(planted_dir)
        bundle.x = row_normalize(bundle.x)
        cfg = TrainConfig.from_dict({**json.loads(fast_config.read_text()), "rng_seed": 6})
        result = run_hopf(make_kernel("ss_ica", hidden_dim=cfg.hidden_dim), bundle,
                          make_splits(bundle.graph.n, 6, num_folds=1)[0], cfg,
                          HopfConfig(T=3, warm_start=False, shifted_averaging=True))
        assert read_csv(out / "trajectory.csv") == [
            {"iteration": str(r["iteration"]), "micro_f1": repr(float(r["micro_f1"]))}
            for r in result.trajectory]
        # under the shifted rule the last round's fresh predictions reach the final estimate
        final = np.loadtxt(out / "yhat_final.csv", delimiter=",", skiprows=1)
        assert np.array_equal(final, result.yhat)


class TestNimCommand:
    def test_decay_values(self, tmp_path, capsys):
        out = tmp_path / "nim"
        assert main(["nim", "--alpha", "1", "--beta", "1", "--max-k", "3",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out / "decay.csv")
        vals = [float(r["importance"]) for r in rows]
        assert vals == [1.0, 0.5, 0.25, 0.125]

    def test_skip_column_dominates(self, tmp_path, capsys):
        out = tmp_path / "nim"
        assert main(["nim", "--alpha", "0.5", "--beta", "2", "--max-k", "6",
                     "--skip", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out / "decay.csv")
        assert float(rows[0]["importance"]) == 1.0
        for r in rows[1:]:
            assert float(r["importance_skip"]) > float(r["importance"])


class TestCompareCommand:
    def test_single_model(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,micro_f1\nonly,d1,70.0\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--scores", str(scores), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out / "report.csv")
        assert rows[0]["model"] == "only"
        assert float(rows[0]["shortfall"]) == 0.0
        assert float(rows[0]["avg_rank"]) == 1.0

    def test_sorted_by_shortfall(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,micro_f1\n"
                          "worse,d1,50\nbetter,d1,100\nmiddle,d1,75\n")
        out = tmp_path / "cmp"
        assert main(["compare", "--scores", str(scores), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = read_csv(out / "report.csv")
        assert [r["model"] for r in rows] == ["better", "middle", "worse"]

    @pytest.mark.parametrize("rows", ["A,d1,0.5\nB,d1,0.6\nB,d2,0.7\n",
                                      "B,d1,0.6\nB,d2,0.7\nA,d1,0.5\n"],
                             ids=["short-model-first", "short-model-last"])
    def test_model_missing_a_dataset_is_usage_error(self, tmp_path, capsys, rows):
        scores = tmp_path / "scores.csv"
        scores.write_text("model,dataset,micro_f1\n" + rows)
        assert main(["compare", "--scores", str(scores), "--out", str(tmp_path / "cmp")]) == 2
        assert "model 'A' is missing a score for dataset 'd2'" in capsys.readouterr().err


class TestNeighborFraction:
    def test_full_fraction_matches_plain_training(self, planted_dir, fast_config, tmp_path):
        t_out, f_out = tmp_path / "train", tmp_path / "frac"
        assert main(["train", "--dataset", str(planted_dir), "--model", "nip_mean",
                     "--config", str(fast_config), "--folds", "1", "--seed", "11",
                     "--out", str(t_out)]) == 0
        assert main(["neighbor-fraction", "--dataset", str(planted_dir),
                     "--model", "nip_mean", "--config", str(fast_config),
                     "--fractions", "0.25,1.0", "--seed", "11",
                     "--out", str(f_out)]) == 0
        full_f1 = float(read_csv(t_out / "metrics.csv")[0]["micro_f1"])
        rows = read_csv(f_out / "fractions.csv")
        assert len(rows) == 2
        by_frac = {float(r["fraction"]): float(r["micro_f1"]) for r in rows}
        assert by_frac[1.0] == full_f1

    def test_any_fold_index_runs(self, planted_dir, fast_config, tmp_path):
        # neighbor-fraction builds fold + 1 folds; fold 5 is train's sixth fold
        t_out, f_out = tmp_path / "train", tmp_path / "frac"
        assert main(["train", "--dataset", str(planted_dir), "--model", "nip_mean",
                     "--config", str(fast_config), "--folds", "6", "--seed", "11",
                     "--out", str(t_out)]) == 0
        assert main(["neighbor-fraction", "--dataset", str(planted_dir),
                     "--model", "nip_mean", "--config", str(fast_config),
                     "--fractions", "1.0", "--fold", "5", "--seed", "11",
                     "--out", str(f_out)]) == 0
        fold5 = read_csv(t_out / "metrics.csv")[5]["micro_f1"]
        assert float(read_csv(f_out / "fractions.csv")[0]["micro_f1"]) == float(fold5)

    def test_fraction_range_validated(self, planted_dir, tmp_path):
        assert main(["neighbor-fraction", "--dataset", str(planted_dir),
                     "--model", "nip_mean", "--fractions", "0,0.5",
                     "--out", str(tmp_path / "x")]) == 2


def gen_benchmark(tmp_path, nodes, edges) -> str:
    out = tmp_path / f"bench_{nodes}"
    assert main(["gen", "benchmark", "--nodes", str(nodes), "--edges", str(edges),
                 "--features", "8", "--labels", "3", "--seed", "0", "--out", str(out)]) == 0
    return str(out / "dataset")


@pytest.fixture(scope="module")
def bench_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench_cfg") / "config.json"
    path.write_text(json.dumps({"batch_size": 32, "hidden_dim": 8, "use_wce": False}))
    return str(path)


class TestBenchScaling:
    def test_smoke_table(self, tmp_path, capsys, bench_config):
        import time

        data = gen_benchmark(tmp_path, 1000, 3000)
        out = tmp_path / "bench"
        start = time.perf_counter()
        code = main(["bench-scaling", "--dataset", data, "--config", bench_config,
                     "--hops", "1,2", "--variants", "nip_mean,i_nip_mean_c1,i_nip_mean_c2",
                     "--repeats", "1", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert time.perf_counter() - start < 300.0
        capsys.readouterr()
        rows = read_csv(out / "timings.csv")
        cells = {(r["variant"], int(r["hops"])): r for r in rows}
        assert cells[("nip_mean", 1)]["status"] == "ok"
        assert cells[("i_nip_mean_c1", 2)]["status"] == "ok"
        assert cells[("i_nip_mean_c2", 1)]["status"] == "n/a"  # 1 hop unreachable with C=2
        assert float(cells[("nip_mean", 2)]["mean_seconds"]) > 0
        # bytes beside seconds: the largest batch estimate of each cell that ran
        assert cells[("i_nip_mean_c2", 1)]["batch_bytes"] == ""
        bytes_at = {hops: int(cells[("nip_mean", hops)]["batch_bytes"]) for hops in (1, 2)}
        assert bytes_at[2] > bytes_at[1] > 0

    def test_memory_budget_marks_infeasible(self, tmp_path, capsys, bench_config):
        data = gen_benchmark(tmp_path, 600, 1800)
        out = tmp_path / "bench"
        code = main(["bench-scaling", "--dataset", data, "--config", bench_config,
                     "--hops", "2", "--variants", "nip_mean", "--repeats", "1",
                     "--memory-budget", "0.000001", "--seed", "0", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        rows = read_csv(out / "timings.csv")
        assert rows[0]["status"] == "infeasible"
        assert rows[0]["mean_seconds"] == ""
        assert int(rows[0]["batch_bytes"]) > 0.000001 * 2**30

    def test_variants_are_stripped_like_every_comma_list(self, planted_dir, tmp_path, capsys):
        # a budget no batch fits makes every cell infeasible, so both tables are exact bytes
        outputs = []
        for run, variants in (("plain", "nip_mean,i_nip_mean_c1"),
                              ("spaced", " nip_mean, i_nip_mean_c1 ,")):
            out = tmp_path / run
            assert main(["bench-scaling", "--dataset", str(planted_dir), "--hops", "1,2",
                         "--variants", variants, "--repeats", "1", "--memory-budget", "1e-9",
                         "--out", str(out)]) == 0
            outputs.append(((out / "timings.csv").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert [r["variant"] for r in read_csv(tmp_path / "plain" / "timings.csv")] == \
            ["nip_mean", "nip_mean", "i_nip_mean_c1", "i_nip_mean_c1"]

    def test_config_reaches_the_timed_step_and_the_manifest(self, planted_dir, tmp_path,
                                                            capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"batch_size": 7, "hidden_dim": 3, "use_wce": True}))
        real, seen = bench_mod.train_step, []

        def recording(spec, weights, adam, sub, bundle, *args, **kwargs):
            seen.append((spec.hidden_dim, sub.num_seeds, args[2]))
            return real(spec, weights, adam, sub, bundle, *args, **kwargs)

        monkeypatch.setattr(bench_mod, "train_step", recording)
        out = tmp_path / "bench"
        assert main(["bench-scaling", "--dataset", str(planted_dir), "--config", str(config),
                     "--hops", "1", "--variants", "nip_mean", "--repeats", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert seen
        assert {hidden for hidden, _, _ in seen} == {3}
        assert max(rows for _, rows, _ in seen) == 7
        assert all(cfg.batch_size == 7 and cfg.use_wce for _, _, cfg in seen)
        manifest = json.loads((out / "manifest.json").read_text())
        assert {k: manifest["config"][k] for k in ("batch_size", "hidden_dim", "use_wce")} == \
            {"batch_size": 7, "hidden_dim": 3, "use_wce": True}
        assert {"learning_rate", "l2_weight", "dropout_rate",
                "rng_seed"} <= manifest["config"].keys()
        assert manifest["dataset_fingerprint"]


# one successful run of each verb, argv before --out; {data}, {cfg} and {tmp}
# stand for the planted bundle, the fast config and the test's tmp_path
VERB_RUNS = [
    pytest.param(["gen", "chain", "--n", "6"], id="gen"),
    pytest.param(["train", "--dataset", "{data}", "--model", "nip_mean", "--config", "{cfg}",
                  "--folds", "1", "--seed", "3"], id="train"),
    pytest.param(["hopf", "--dataset", "{data}", "--model", "ss_ica", "--config", "{cfg}",
                  "-T", "2", "--seed", "3"], id="hopf"),
    pytest.param(["bench-scaling", "--dataset", "{data}", "--config", "{cfg}", "--hops", "1",
                  "--variants", "nip_mean", "--repeats", "1", "--seed", "3"], id="bench-scaling"),
    pytest.param(["neighbor-fraction", "--dataset", "{data}", "--model", "nip_mean",
                  "--config", "{cfg}", "--fractions", "1.0", "--seed", "3"],
                 id="neighbor-fraction"),
    pytest.param(["nim", "--alpha", "1", "--beta", "1"], id="nim"),
    pytest.param(["compare", "--scores", "{tmp}/scores.csv"], id="compare"),
]


@pytest.mark.parametrize("argv", VERB_RUNS)
def test_every_verb_records_its_total_time(planted_dir, fast_config, tmp_path, capsys, argv):
    (tmp_path / "scores.csv").write_text("model,dataset,micro_f1\nA,d1,0.5\nB,d1,0.6\n")
    fill = {"data": str(planted_dir), "cfg": str(fast_config), "tmp": str(tmp_path)}
    out = tmp_path / "run"
    assert main([a.format(**fill) for a in argv] + ["--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["timings"]["total_seconds"] > 0
    # every verb that reads a bundle times its load, once, in _dataset_scope
    assert ("load_seconds" in manifest["timings"]) == ("--dataset" in argv)
    # each test starts on an empty cache, so a verb that reads the bundle parses it
    assert manifest["dataset_cache"] == ("miss" if "--dataset" in argv else None)
    if "--dataset" in argv:  # the one scope every dataset verb opens records both
        assert manifest["seeds"] == {"rng_seed": 3}
        assert manifest["dataset_fingerprint"]


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
@pytest.mark.parametrize("argv", VERB_RUNS)
def test_out_that_cannot_be_a_directory_exits_2(planted_dir, fast_config, tmp_path, argv, under):
    # the first manifest write fails, before any input is read: a usage error naming --out
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" if under else afile
    fill = {"data": str(planted_dir), "cfg": str(fast_config), "tmp": str(tmp_path)}
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "hopf", *[a.format(**fill) for a in argv],
                           "--out", str(out)], capture_output=True, text=True, timeout=120,
                          env=child_env(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 2, done.stderr
    assert f"output directory {out} cannot be created or written" in done.stderr
    assert "Traceback" not in done.stderr


# (argv before --out, a result path inside --out, what takes it: a file or a directory)
BLOCKED_RESULTS = [
    pytest.param(["gen", "chain"], "dataset", "file", id="gen-dataset-is-a-file"),
    pytest.param(["hopf", "--dataset", "{data}", "--model", "i_nip_mean", "-T", "1",
                  "--config", "{cfg}"], "iterations", "file", id="hopf-iterations-is-a-file"),
    pytest.param(["train", "--dataset", "{data}", "--model", "nip_mean", "--folds", "1",
                  "--config", "{cfg}"], "metrics.csv", "dir", id="train-metrics-is-a-directory"),
]


@pytest.mark.parametrize("argv, blocked, kind", BLOCKED_RESULTS)
def test_result_path_that_cannot_be_written_exits_2(planted_dir, fast_config, tmp_path, capsys,
                                                   argv, blocked, kind):
    # --out itself is usable, but a result path inside it is taken: the same usage error
    # as an unusable --out, naming that path, not a traceback
    out = tmp_path / "run"
    out.mkdir()
    if kind == "file":
        (out / blocked).write_text("")
    else:
        (out / blocked).mkdir()
    fill = {"data": str(planted_dir), "cfg": str(fast_config)}
    assert main([a.format(**fill) for a in argv] + ["--out", str(out)]) == 2
    assert (f"output directory {out} cannot be created or written: {out / blocked}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, key", [
    (["train", "--folds", "1"], "hops"),
    (["hopf", "-T", "1"], "C"),
    (["neighbor-fraction", "--fractions", "1.0"], "hops"),
], ids=["train", "hopf", "neighbor-fraction"])
def test_manifest_records_the_depth_that_ran(planted_dir, fast_config, tmp_path, capsys,
                                             argv, key):
    # ss_ica always runs one aggregation layer, whatever -C asks for
    out = tmp_path / "run"
    assert main(argv + ["--dataset", str(planted_dir), "--model", "ss_ica", "-C", "3",
                        "--config", str(fast_config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads((out / "manifest.json").read_text())["config"][key] == 1


def test_cache_hit_train_call_keeps_its_page_faults_few(tmp_path, monkeypatch):
    # _dataset_scope normalizes x into a copy and frees the loaded original: that free
    # raises glibc's dynamic mmap threshold above the step arrays, which the heap then
    # reuses. Dividing x in place leaves it low, so each step array is mmapped and faulted
    # in afresh: about 50k minor faults for this call against 6.5k
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the dynamic mmap threshold is glibc malloc's")
    xdg = str(tmp_path / "xdg")
    monkeypatch.setenv("XDG_CACHE_HOME", xdg)
    assert main(["gen", "benchmark", "--nodes", "10000", "--edges", "50000",
                 "--out", str(tmp_path / "gen")]) == 0
    load_dataset(tmp_path / "gen" / "dataset")  # fills the cache: the probed call is a hit
    config = tmp_path / "config.json"
    config.write_text('{"max_epochs": 3, "min_epochs": 3}')
    argv = ["train", "--dataset", str(tmp_path / "gen" / "dataset"), "--model", "nip_mean",
            "-C", "3", "--folds", "1", "--config", str(config), "--out", str(tmp_path / "run")]
    _, faults, _ = step_probe("from hopf.cli import main", f"assert main({argv!r}) == 0",
                              env={"XDG_CACHE_HOME": xdg})
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["dataset_cache"] == "hit"
    assert faults < 20_000, f"{faults} minor page faults"


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.special"])
def test_import_leaves_module_unloaded(module):
    # only the compare verb ranks (scipy.stats); the sigmoid is plain numpy
    # (scipy.special), so every other verb starts without either
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    probe = f"import sys, hopf.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_gen_benchmark_kind(tmp_path, capsys):
    out = tmp_path / "bg"
    code = main(["gen", "benchmark", "--nodes", "500", "--edges", "1500",
                 "--features", "6", "--labels", "3", "--seed", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    meta = json.loads((out / "dataset" / "meta.json").read_text())
    assert meta["n"] == 500
    assert meta["task"] == "multi_label"

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hopf.iterate as iterate_mod
from hopf import (ArgumentError, ConfigError, HopfConfig, HopfError, ModelWeights, Task,
                  TrainConfig, TrainingError, gen_benchmark_graph, gen_chain,
                  gen_planted_partition, khop_subgraph, make_kernel, make_splits, predict,
                  row_normalize, run_hopf, temporal_average, train)
from hopf.iterate import _dump_labels
from hopf.labelcsv import BLOCK_ROWS

from conftest import traced_peak


def fixture(seed):
    bundle = gen_planted_partition(400, 4, 0.3, 0.01, 0.4, rng_seed=seed)
    bundle.x = row_normalize(bundle.x)
    split = make_splits(400, rng_seed=seed)[0]
    cfg = TrainConfig(batch_size=128, hidden_dim=16, learning_rate=1e-2, l2_weight=1e-3,
                      dropout_rate=0.25, max_epochs=60, use_wce=True, rng_seed=seed,
                      patience=30, min_epochs=50)
    return bundle, split, cfg


class TestTemporalAverage:
    def test_first_round_of_five(self):
        yt = np.full((3, 2), 1.0)
        out = temporal_average(yt, np.zeros((3, 2)), t=1, T=5)
        assert np.allclose(out, 0.8)

    def test_last_round_keeps_old_estimate(self):
        yt = np.full((2, 2), 0.9)
        old = np.full((2, 2), 0.3)
        out = temporal_average(yt, old, t=4, T=4)
        assert np.array_equal(out, old)

    def test_fixed_point(self):
        m = np.random.default_rng(0).random((4, 3))
        assert np.allclose(temporal_average(m, m, t=2, T=5), m)

    def test_round_index_validated(self):
        m = np.zeros((1, 1))
        with pytest.raises(ArgumentError):
            temporal_average(m, m, t=0, T=3)
        with pytest.raises(ArgumentError):
            temporal_average(m, m, t=4, T=3)

    def test_shifted_keeps_final_round(self):
        yt = np.full((2, 2), 1.0)
        old = np.zeros((2, 2))
        out = temporal_average(yt, old, t=3, T=3, shifted=True)
        assert np.allclose(out, 1.0 / 3.0)


class TestRoundReduction:
    def test_single_round_equals_plain_training_with_zero_labels(self):
        bundle, split, cfg = fixture(21)
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=16)
        result = run_hopf(spec, bundle, split, cfg, HopfConfig(T=1))
        weights, _ = train(spec, bundle, split, cfg)
        for (_, a), (_, b) in zip(result.weights.params(), weights.params()):
            assert np.array_equal(a, b)
        # fresh inference from round one must match direct prediction
        sub = khop_subgraph(bundle.graph, split.test_nodes, 2)
        direct, _ = predict(spec, weights, sub, bundle.x,
                            np.zeros((bundle.graph.n, 4)), task=bundle.task)
        assert np.max(np.abs(result.ytilde[split.test_nodes] - direct)) < 1e-12

    def test_multi_round_needs_label_channel(self):
        bundle, split, cfg = fixture(22)
        spec = make_kernel("gcn_mean", depth=2, hidden_dim=16)
        with pytest.raises(ConfigError, match="label channel"):
            run_hopf(spec, bundle, split, cfg, HopfConfig(T=3))

    def test_single_round_needs_label_channel_too(self):
        # the loop feeds labels back from round one on, so T=1 refuses nip_mean as the
        # hopf verb does
        bundle, split, cfg = fixture(22)
        spec = make_kernel("nip_mean", depth=2, hidden_dim=16)
        with pytest.raises(ConfigError, match="nip_mean has no label channel"):
            run_hopf(spec, bundle, split, cfg, HopfConfig(T=1))


class TestHopfLoop:
    def test_labeled_rows_restored_each_round(self):
        bundle, split, cfg = fixture(24)
        spec = make_kernel("ss_ica", hidden_dim=16)
        result = run_hopf(spec, bundle, split, cfg, HopfConfig(T=3))
        assert np.array_equal(result.yhat[split.train_nodes], bundle.y[split.train_nodes])
        assert len(result.trajectory) == 3
        assert np.all(result.yhat >= 0.0) and np.all(result.yhat <= 1.0)

    def test_warm_start_resumes_lower_than_cold(self):
        diffs = []
        for seed in range(5):
            bundle, split, cfg = fixture(100 + seed)
            spec = make_kernel("i_nip_mean", depth=2, hidden_dim=16)
            first_epoch = {}
            for warm in (True, False):
                res = run_hopf(spec, bundle, split, cfg, HopfConfig(T=2, warm_start=warm))
                first_epoch[warm] = res.histories[1][0]["train_loss"]
            diffs.append(first_epoch[True] - first_epoch[False])
        assert np.median(diffs) < 0.0

    def test_cold_start_reinitializes_differently(self, tmp_path):
        bundle, split, cfg = fixture(26)
        spec = make_kernel("ss_ica", hidden_dim=16)
        run_hopf(spec, bundle, split, cfg, HopfConfig(T=2, warm_start=False), out_dir=tmp_path)
        w1, w2 = (ModelWeights.load(tmp_path / f"weights_t{t}.bin", spec) for t in (1, 2))
        assert not np.array_equal(w1.w0, w2.w0)

    def test_warm_start_trains_a_copy_of_the_last_round(self, monkeypatch):
        # round 2 starts from round 1's final weights, and training it leaves
        # round 1's weights as they were returned
        bundle, split, cfg = fixture(27)
        cfg = replace(cfg, max_epochs=3, min_epochs=1)
        real, rounds = iterate_mod.train, []

        def recording(*args, init_weights=None, **kwargs):
            start = None if init_weights is None else [p.copy() for _, p in init_weights.params()]
            weights, history = real(*args, init_weights=init_weights, **kwargs)
            rounds.append((start, weights, [p.copy() for _, p in weights.params()]))
            return weights, history

        monkeypatch.setattr(iterate_mod, "train", recording)
        run_hopf(make_kernel("ss_ica", hidden_dim=16), bundle, split, cfg, HopfConfig(T=2))
        (start1, w1, w1_returned), (start2, _, _) = rounds
        assert start1 is None
        assert all(np.array_equal(a, b) for a, b in zip(start2, w1_returned))
        assert all(np.array_equal(p, b) for (_, p), b in zip(w1.params(), w1_returned))

    def test_artifacts_written_per_round(self, tmp_path):
        bundle, split, cfg = fixture(28)
        spec = make_kernel("ss_ica", hidden_dim=16)
        run_hopf(spec, bundle, split, cfg, HopfConfig(T=2), out_dir=tmp_path / "run")
        for t in (1, 2):
            assert (tmp_path / "run" / f"weights_t{t}.bin").exists()
            assert (tmp_path / "run" / f"yhat_t{t}.csv").exists()
            assert (tmp_path / "run" / f"ytilde_t{t}.csv").exists()
        back = ModelWeights.load(tmp_path / "run" / "weights_t2.bin", spec)
        assert back.w0.shape == (bundle.num_features, 16)


class TestLabelCopies:
    @staticmethod
    def run_and_record(tmp_path, monkeypatch, shifted):
        bundle, split, cfg = fixture(29)
        cfg = replace(cfg, max_epochs=3, min_epochs=1)
        real, formatted = iterate_mod._format_labels, []

        def recording(jobs, rows, cols):
            # every CSV to format is handed out here, to this process or to the helper
            formatted.extend(path.name for _, path in jobs)
            real(jobs, rows, cols)

        monkeypatch.setattr(iterate_mod, "_format_labels", recording)
        monkeypatch.setattr(iterate_mod, "_usable_cores", lambda: 2)
        out = tmp_path / ("shifted" if shifted else "plain")
        result = run_hopf(make_kernel("ss_ica", hidden_dim=16), bundle, split, cfg,
                          HopfConfig(T=3, shifted_averaging=shifted), out_dir=out)
        return result, out, formatted

    def test_repeated_matrix_is_copied(self, tmp_path, monkeypatch):
        # under (T-t)/T the last round's fresh weight is 0: yhat_t3 repeats yhat_t2
        result, out, formatted = self.run_and_record(tmp_path, monkeypatch, shifted=False)
        assert sorted(formatted) == ["yhat_t1.csv", "yhat_t2.csv",
                                     "ytilde_t1.csv", "ytilde_t2.csv", "ytilde_t3.csv"]
        _dump_labels(tmp_path / "fresh.csv", result.yhat)
        assert (out / "yhat_t3.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert (out / "yhat_t3.csv").read_bytes() == (out / "yhat_t2.csv").read_bytes()

    def test_shifted_averaging_formats_every_round(self, tmp_path, monkeypatch):
        result, out, formatted = self.run_and_record(tmp_path, monkeypatch, shifted=True)
        assert sorted(formatted) == sorted(f"{stem}_t{t}.csv" for stem in ("yhat", "ytilde")
                                           for t in (1, 2, 3))
        assert (out / "yhat_t3.csv").read_bytes() != (out / "yhat_t2.csv").read_bytes()


def edge_matrix(rows):
    """A label matrix whose rows hold the floats whose ``repr`` is easiest to get wrong."""
    m = np.random.default_rng(0).random((rows, 4))
    m[0] = [0.0, 1.0, 0.0, 1.0]
    m[1] = [1e-300, 5e-324, -0.0, 1.0 - 2.0**-53]
    m[2] = [1.0, 1.0, 1.0, 1.0]
    m[-1] = [5e-324, 0.0, 1.0, -0.0]  # the last row, in the last block
    return m


def csv_writer_bytes(path, m):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"label_{j}" for j in range(m.shape[1])])
        for row in m:
            writer.writerow([repr(float(v)) for v in row])
    return path.read_bytes()


@pytest.mark.parametrize("rows", [6, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_label_dump_bytes_match_csv_writer(tmp_path, rows):
    m = edge_matrix(rows)
    path = tmp_path / "labels.csv"
    _dump_labels(path, m)
    assert path.read_bytes() == csv_writer_bytes(tmp_path / "reference.csv", m)
    assert path.read_bytes().count(b"\r\n") == rows + 1


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("rows", [6, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_formatted_snapshot_bytes_match_csv_writer(tmp_path, monkeypatch, rows, cores):
    # with two usable cores this process writes the first file and the head of the
    # second, and the helper interpreter the tail of the second and the third;
    # with one, this process writes all three
    m = edge_matrix(rows)
    snapshot = tmp_path / "labels.f64"
    m.tofile(snapshot)
    jobs = [(snapshot, tmp_path / f"{name}.csv") for name in ("first", "second", "third")]
    real, dumped = _dump_labels, []

    def recording(path, matrix):
        dumped.append((path.name, len(matrix)))
        real(path, matrix)

    monkeypatch.setattr(iterate_mod, "_dump_labels", recording)
    monkeypatch.setattr(iterate_mod, "_usable_cores", lambda: cores)
    iterate_mod._format_labels(jobs, rows, m.shape[1])
    if cores > 1:
        assert dumped == [("first.csv", rows), ("second.csv", 3 * rows - 3 * rows // 2 - rows)]
    else:
        assert dumped == [("first.csv", rows), ("second.csv", rows), ("third.csv", rows)]
    reference = csv_writer_bytes(tmp_path / "reference.csv", m)
    assert [path.read_bytes() == reference for _, path in jobs] == [True, True, True]


# SIGTERM while this process formats its first label CSV, the helper still running
SIGTERM_SCRIPT = """
import json, os, signal, subprocess, sys
from pathlib import Path
import hopf.iterate as iterate_mod
from hopf import (HopfConfig, TrainConfig, gen_planted_partition, make_kernel, make_splits,
                  run_hopf)
out = Path(sys.argv[1])
bundle = gen_planted_partition(200, 4, 0.3, 0.01, 0.4, rng_seed=3)
cfg = TrainConfig(batch_size=64, hidden_dim=8, max_epochs=2, min_epochs=1, rng_seed=3)
real, helpers = subprocess.Popen, []
subprocess.Popen = lambda *args, **kwargs: helpers.append(real(*args, **kwargs)) or helpers[-1]
iterate_mod._usable_cores = lambda: 2
iterate_mod._dump_labels = lambda path, matrix: os.kill(os.getpid(), signal.SIGTERM)
try:
    run_hopf(make_kernel("ss_ica", hidden_dim=8), bundle, make_splits(200, rng_seed=3)[0], cfg,
             HopfConfig(T=2), out_dir=out)
finally:
    print(json.dumps({"helpers": [p.returncode for p in helpers],
                      "snapshots": [p.name for p in out.glob(".labels-*")],
                      "sigterm_restored": signal.getsignal(signal.SIGTERM) == signal.SIG_DFL}))
"""


class TestLabelFormattingFailures:
    """Whatever ends a run, the helper is reaped and the snapshots are removed."""

    @staticmethod
    def run(tmp_path, monkeypatch, helpers):
        bundle, split, cfg = fixture(30)
        cfg = replace(cfg, max_epochs=2, min_epochs=1)
        real = subprocess.Popen

        def recording(*args, **kwargs):
            helpers.append(real(*args, **kwargs))
            return helpers[-1]

        monkeypatch.setattr(subprocess, "Popen", recording)
        monkeypatch.setattr(iterate_mod, "_usable_cores", lambda: 2)
        run_hopf(make_kernel("ss_ica", hidden_dim=16), bundle, split, cfg, HopfConfig(T=2),
                 out_dir=tmp_path)

    def test_failed_helper_names_its_file(self, tmp_path, monkeypatch):
        # T=2: yhat_t2 repeats yhat_t1, so three files are formatted and the helper
        # writes the last, ytilde_t2, from a snapshot cut short inside a row
        real, helpers = iterate_mod._format_labels, []

        def cutting(jobs, rows, cols):
            snapshot = jobs[-1][0]
            snapshot.write_bytes(snapshot.read_bytes()[:-3])
            real(jobs, rows, cols)

        monkeypatch.setattr(iterate_mod, "_format_labels", cutting)
        with pytest.raises(HopfError, match=r"ytilde_t2\.csv.*ends inside a row"):
            self.run(tmp_path, monkeypatch, helpers)
        assert [h.returncode for h in helpers] == [1]
        assert not list(tmp_path.glob(".labels-*"))

    def test_failure_here_kills_the_helper(self, tmp_path, monkeypatch):
        def failing(path, matrix):
            raise OSError(f"no space left for {path.name}")

        monkeypatch.setattr(iterate_mod, "_dump_labels", failing)
        helpers = []
        with pytest.raises(OSError, match="no space left for yhat_t1.csv"):
            self.run(tmp_path, monkeypatch, helpers)
        assert len(helpers) == 1 and helpers[0].returncode is not None
        assert not list(tmp_path.glob(".labels-*"))

    def test_a_failed_round_keeps_the_earlier_rounds_files(self, tmp_path, monkeypatch):
        self.run(tmp_path / "whole", monkeypatch, [])
        real, rounds = iterate_mod.train, []

        def failing_round_2(*args, **kwargs):
            rounds.append(len(rounds) + 1)
            if len(rounds) == 2:
                raise TrainingError("diverged", epoch=1)
            return real(*args, **kwargs)

        monkeypatch.setattr(iterate_mod, "train", failing_round_2)
        helpers = []
        with pytest.raises(TrainingError):
            self.run(tmp_path / "failed", monkeypatch, helpers)
        left = sorted(p.name for p in (tmp_path / "failed").iterdir())
        assert left == ["metrics.csv", "weights_t1.bin", "yhat_t1.csv", "ytilde_t1.csv"]
        for name in left[1:]:
            assert (tmp_path / "failed" / name).read_bytes() == \
                (tmp_path / "whole" / name).read_bytes()
        assert len(helpers) == 1 and helpers[0].returncode == 0

    def test_sigterm_exits_143_and_reaps_the_helper(self, tmp_path):
        src = str(Path(iterate_mod.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", SIGTERM_SCRIPT, str(tmp_path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 143, proc.stderr
        state = json.loads(proc.stdout)
        assert len(state["helpers"]) == 1 and state["helpers"][0] is not None
        assert state["snapshots"] == [] and state["sigterm_restored"]


def test_label_dump_peak_memory_is_a_block_not_the_file(tmp_path):
    # rows are formatted one block at a time: over 16 blocks the traced peak
    # is about a third of the file's size, where formatting the whole matrix
    # at once took about four times it
    m = np.random.default_rng(1).random((16 * BLOCK_ROWS, 4))
    path = tmp_path / "labels.csv"
    _, peak, _ = traced_peak(lambda: _dump_labels(path, m))
    assert peak < 0.5 * path.stat().st_size


def test_label_dumps_keep_no_copy_of_a_label_matrix(tmp_path):
    # run_hopf remembers each stem's last matrix by its digest, and the rounds read
    # yhat itself, so writing the round files adds less than one n x L matrix to the
    # traced peak; 4 features keep one 1,024-row dump block below a matrix's size
    bundle = gen_benchmark_graph(20_000, 60_000, f=4, l=4, rng_seed=5)
    split = make_splits(bundle.graph.n, rng_seed=5)[0]
    cfg = TrainConfig(batch_size=512, hidden_dim=8, max_epochs=1, min_epochs=1, rng_seed=5)
    spec = make_kernel("i_nip_mean", depth=1, hidden_dim=8)

    def run(out_dir):
        return run_hopf(spec, bundle, split, cfg, HopfConfig(T=3), out_dir=out_dir)

    _, plain, _ = traced_peak(lambda: run(None))
    _, dumped, _ = traced_peak(lambda: run(tmp_path / "iterations"))
    assert len(list((tmp_path / "iterations").glob("*_t3.csv"))) == 2
    assert dumped - plain < bundle.y.nbytes


class TestReach:
    """Information travels exactly C hops per round: reach is T*C, no further."""

    @staticmethod
    def rounds_predict(spec, weights, graph, x, T):
        yhat = np.zeros((graph.n, weights.wl.shape[1]))
        sub = khop_subgraph(graph, list(range(graph.n)), spec.depth)
        ytilde = None
        for t in range(1, T + 1):
            ytilde, _ = predict(spec, weights, sub, x, yhat, task=Task.MULTI_LABEL)
            yhat = temporal_average(ytilde, yhat, t, T)
        return ytilde

    @pytest.mark.parametrize("C,T", [(1, 2), (2, 2), (3, 1)])
    def test_chain_endpoint_sensitivity(self, C, T):
        graph = gen_chain(13).graph
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 1.0, size=(13, 6))
        spec = make_kernel("i_nip_mean", depth=C, hidden_dim=8)
        weights = ModelWeights.init(spec, 6, 2, 0)
        base = self.rounds_predict(spec, weights, graph, x, T)
        reach = C * T
        x_at = x.copy()
        x_at[reach] += 3.0
        moved = self.rounds_predict(spec, weights, graph, x_at, T)
        assert np.max(np.abs(moved[0] - base[0])) > 1e-9
        x_past = x.copy()
        x_past[reach + 1] += 3.0
        frozen = self.rounds_predict(spec, weights, graph, x_past, T)
        assert np.array_equal(frozen[0], base[0])

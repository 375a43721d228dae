import csv
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hopf.iterate as iterate_mod
from hopf import (ArgumentError, ConfigError, HopfConfig, ModelWeights, Task,
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
        real, formatted = iterate_mod._dump_labels, []

        def recording(path, matrix):
            # every label CSV that is formatted, not copied, is written here
            formatted.append(path.name)
            real(path, matrix)

        monkeypatch.setattr(iterate_mod, "_dump_labels", recording)
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
    m[3] = [np.nan, np.inf, -np.inf, -0.5]
    m[4] = [1e-4, np.nextafter(1e-4, 0.0), 2.0**-13, 0.1]
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


def _bits_to_float(bits):
    return float(np.uint64(bits).view(np.float64))


# any float64 bit pattern (nan payloads, infinities, -0.0, subnormals), weighted
# towards [1e-307, 1), the range whose digits are computed rather than taken from
# repr, and towards [1e-4, 1), where they need no exponent
ANY_FLOAT = st.one_of(st.integers(0, 2**64 - 1).map(_bits_to_float),
                      st.floats(min_value=1e-307, max_value=1.0, exclude_max=True),
                      st.floats(min_value=1e-4, max_value=1.0, exclude_max=True),
                      st.floats(min_value=0.0, max_value=1.0),
                      st.sampled_from([0.0, 1.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=ANY_FLOAT))
def test_label_dump_of_any_matrix_matches_csv_writer(tmp_path_factory, m):
    tmp = tmp_path_factory.getbasetemp()
    _dump_labels(tmp / "any.csv", m)
    assert (tmp / "any.csv").read_bytes() == csv_writer_bytes(tmp / "any-reference.csv", m)


def _shortest_pair(u, v):
    """Lagrange's reduction of the 2-D integer lattice spanned by ``u`` and ``v``."""
    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    while True:
        if dot(u, u) > dot(v, v):
            u, v = v, u
        k = round(Fraction(dot(u, v), dot(u, u)))
        if k == 0:
            return u, v
        v = (v[0] - k * u[0], v[1] - k * u[1])


def near_integer_ends():
    """Values below 1e-6 whose rounding range, times 10**s, ends within 2**-50 of an integer.

    There x * 10**s is only known to within about 1e-14, so these are the values
    the formatter must leave to repr. For x = m * 2**q an end is n * 5**s / 2**K
    with n = 2m +- 1 and K = 1 - q - s: a short vector of the lattice of
    (n, n * 5**s mod 2**K) gives an odd n of 54 bits whose end is near an integer.
    """
    values = []
    for e in range(-307, -6, 6):
        q = math.ceil(e * math.log2(10)) - 52  # one binade inside the decade
        s = 16 - e
        K = 1 - q - s
        a, b = 2 ** max(0, K - 105), 2 ** max(0, 105 - K)  # weigh n and the end alike
        u, v = _shortest_pair((a, 5**s % 2**K * b), (0, 2**K * b))
        for i, j in itertools.product(range(-4, 5), repeat=2):
            n = (i * u[0] + j * v[0]) // a
            if n % 2 and 2**53 < n < 2**54:
                for m in ((n - 1) // 2, (n + 1) // 2):
                    if 2**52 < m < 2**53:
                        values.append(math.ldexp(m, q))
    return values


def decimal_edge_values():
    """The values where a shortest-digits search can slip, most of them below 1."""
    rng = np.random.default_rng(7)
    values = [2.0**-j for j in range(1, 1075)]  # every power of two below 1
    values += [10.0**-k for k in range(309)]  # the doubles nearest each decade's bound
    values += [np.nextafter(v, side) for v in list(values) for side in (0.0, 2.0)]
    for k in range(1, 18):  # k-digit decimals in each decade
        # k digits, the first and the last nonzero
        digits = [int(rng.integers(10 ** (k - 1), 10**k)) // 10 * 10 + int(rng.integers(1, 10))
                  for _ in range(11)]
        values += [float(f"0.{'0' * zeros}{d}") for zeros, d in zip(range(4), digits)]
        values += [float(f"{d}e{e - k}") for e, d in zip((-4, -5, -6, -22, -100, -300, -306),
                                                         digits[4:])]
    # n / 2**a for odd n, among them values whose x * 10**s is an integer ending in 5:
    # halfway between two 16-digit candidates, so the last digit's parity decides
    values += [n / 2.0**a for a in range(14, 21) for n in rng.integers(2**a // 20, 2**a, 40) | 1]
    values += near_integer_ends()
    for lo, hi in [(1e-5, 2.0), (5e-324, 1e-5)]:
        lo, hi = np.array([lo, hi]).view(np.uint64)
        values += rng.integers(lo, hi, size=20_000, dtype=np.uint64).view(np.float64).tolist()
    return np.array(values)


def test_label_dump_of_decimal_edges_matches_csv_writer(tmp_path):
    values = decimal_edge_values()
    m = np.full((len(values) // 4 + 1, 4), 0.5)
    m.ravel()[: len(values)] = values
    m = np.vstack([m, np.zeros((3, 4)), np.ones((3, 4))])  # whole rows of each constant
    _dump_labels(tmp_path / "labels.csv", m)
    assert (tmp_path / "labels.csv").read_bytes() == \
        csv_writer_bytes(tmp_path / "reference.csv", m)


class TestLabelFormattingFailures:
    """A round that fails leaves the files of the rounds before it as a whole run writes them."""

    @staticmethod
    def run(out_dir):
        bundle, split, cfg = fixture(30)
        cfg = replace(cfg, max_epochs=2, min_epochs=1)
        run_hopf(make_kernel("ss_ica", hidden_dim=16), bundle, split, cfg, HopfConfig(T=2),
                 out_dir=out_dir)

    def test_a_failed_round_keeps_the_earlier_rounds_files(self, tmp_path, monkeypatch):
        self.run(tmp_path / "whole")
        real, rounds = iterate_mod.train, []

        def failing_round_2(*args, **kwargs):
            rounds.append(len(rounds) + 1)
            if len(rounds) == 2:
                raise TrainingError("diverged", epoch=1)
            return real(*args, **kwargs)

        monkeypatch.setattr(iterate_mod, "train", failing_round_2)
        with pytest.raises(TrainingError):
            self.run(tmp_path / "failed")
        left = sorted(p.name for p in (tmp_path / "failed").iterdir())
        assert left == ["metrics.csv", "weights_t1.bin", "yhat_t1.csv", "ytilde_t1.csv"]
        for name in left[1:]:
            assert (tmp_path / "failed" / name).read_bytes() == \
                (tmp_path / "whole" / name).read_bytes()


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

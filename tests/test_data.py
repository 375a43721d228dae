import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopf import (ConfigError, DatasetBundle, IngestError, Task, build_graph,
                  gen_benchmark_graph, gen_chain, gen_planted_partition, load_dataset,
                  row_normalize, save_dataset)

from conftest import traced_peak


def minimal_bundle():
    g = build_graph([(0, 1), (1, 2)], 3)
    x = np.array([[1.0, 0.5], [0.0, 2.0], [3.0, 0.25]])
    y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return DatasetBundle(graph=g, x=x, y=y, task=Task.MULTI_CLASS, name="mini")


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(minimal_bundle(), a)
        save_dataset(load_dataset(a), b)
        for fname in ("meta.json", "graph.tsv", "features.tsv", "labels.tsv"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()

    def test_loaded_matches_source(self, tmp_path):
        bundle = minimal_bundle()
        save_dataset(bundle, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.name == "mini"
        assert back.task == Task.MULTI_CLASS
        assert np.array_equal(back.x, bundle.x)
        assert np.array_equal(back.y, bundle.y)
        assert back.graph.degree.tolist() == bundle.graph.degree.tolist()


class TestParse:
    @staticmethod
    def values(seed):
        # random bit patterns cover every exponent; then zeros and subnormals
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 2**63, size=400, dtype=np.uint64).view(np.float64)
        v = v[np.isfinite(v)] * rng.choice([-1.0, 1.0], size=np.isfinite(v).sum())
        tail = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e-300, 1.0]
        return np.concatenate([v[:392], tail]).reshape(50, 8)

    @pytest.mark.parametrize("fmt", [repr, lambda v: format(v, ".17g")])
    def test_cells_parse_bit_identically_to_float(self, tmp_path, fmt):
        x = self.values(7)
        save_dataset(DatasetBundle(graph=build_graph([(0, 1)], 50), x=x,
                                   y=np.eye(2)[np.arange(50) % 2], task=Task.MULTI_CLASS,
                                   name="bits"), tmp_path / "d")
        text = "\n".join("\t".join(fmt(float(v)) for v in row) for row in x) + "\n"
        (tmp_path / "d" / "features.tsv").write_text(text)
        expect = np.array([[float(c) for c in line.split("\t")] for line in text.splitlines()])
        back = load_dataset(tmp_path / "d").x
        assert np.array_equal(back.view(np.uint64), expect.view(np.uint64))
        assert np.array_equal(back.view(np.uint64), x.view(np.uint64))

    def test_edge_list_comments_and_blank_lines(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        (tmp_path / "d" / "graph.tsv").write_text("# edges\n0\t1\n\n1\t2  # tail\n")
        assert load_dataset(tmp_path / "d").graph.degree.tolist() == [1, 2, 1]

    @pytest.mark.parametrize("bad", ["1\t2\t0", "1\t99999999999999999999"])
    def test_bad_edge_names_file_and_line(self, tmp_path, bad):
        save_dataset(minimal_bundle(), tmp_path / "d")
        (tmp_path / "d" / "graph.tsv").write_text(f"0\t1\n{bad}\n")
        with pytest.raises(IngestError, match="graph.tsv:2"):
            load_dataset(tmp_path / "d")


    def test_edge_out_of_range_names_file_and_line(self, tmp_path):
        # comments and blank lines hold no edge, but they count as lines
        save_dataset(minimal_bundle(), tmp_path / "d")
        (tmp_path / "d" / "graph.tsv").write_text("# edges\n0\t1\n\n1\t3\n1\t2\n")
        with pytest.raises(IngestError, match=r"graph.tsv:4: edge \(1, 3\) out of range for n=3"):
            load_dataset(tmp_path / "d")


class TestIngestErrors:
    def test_dataset_path_that_is_a_file(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        with pytest.raises(IngestError, match="meta.json: not a directory"):
            load_dataset(tmp_path / "d" / "meta.json")

    def test_missing_file(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        (tmp_path / "d" / "labels.tsv").unlink()
        with pytest.raises(IngestError, match="labels.tsv"):
            load_dataset(tmp_path / "d")

    def test_row_count_mismatch_names_file(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        lines = (tmp_path / "d" / "features.tsv").read_text().splitlines()
        (tmp_path / "d" / "features.tsv").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(IngestError, match="features.tsv"):
            load_dataset(tmp_path / "d")

    def test_non_numeric_or_ragged_cell_names_file_and_line(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        path = tmp_path / "d" / "features.tsv"
        good = path.read_text().splitlines()
        for bad in ("x\t1", good[1] + "\t0"):
            path.write_text("\n".join([good[0], bad] + good[2:]) + "\n")
            with pytest.raises(IngestError, match="features.tsv:2"):
                load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, cell):
        save_dataset(minimal_bundle(), tmp_path / "d")
        path = tmp_path / "d" / "features.tsv"
        good = path.read_text().splitlines()
        # a blank line before the bad row: the error names the line, not the row
        path.write_text("\n".join([good[0], "", good[1], f"1\t{cell}"]) + "\n")
        with pytest.raises(IngestError, match=r"features.tsv:4: non-finite value"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("fname", ["features.tsv", "labels.tsv"])
    def test_not_utf8_names_file(self, tmp_path, fname):
        save_dataset(minimal_bundle(), tmp_path / "d")
        path = tmp_path / "d" / fname
        path.write_bytes(path.read_bytes().replace(b"0", b"\xff", 1))
        with pytest.raises(IngestError, match=f"{fname}: not UTF-8 text after line"):
            load_dataset(tmp_path / "d")

    def test_multiclass_must_be_one_hot(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        (tmp_path / "d" / "labels.tsv").write_text("1\t1\n0\t1\n1\t0\n")
        with pytest.raises(IngestError, match="one-hot"):
            load_dataset(tmp_path / "d")

    def test_labels_must_be_binary(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        (tmp_path / "d" / "labels.tsv").write_text("0.7\t0.3\n0\t1\n1\t0\n")
        with pytest.raises(IngestError, match="binary"):
            load_dataset(tmp_path / "d")

    def test_meta_column_mismatch(self, tmp_path):
        save_dataset(minimal_bundle(), tmp_path / "d")
        meta = json.loads((tmp_path / "d" / "meta.json").read_text())
        meta["f"] = 9
        (tmp_path / "d" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(IngestError, match="features.tsv"):
            load_dataset(tmp_path / "d")


class TestRowNormalize:
    def test_basic(self):
        out = row_normalize(np.array([[2.0, 2.0]]))
        assert out.tolist() == [[0.5, 0.5]]

    def test_zero_row_unchanged(self):
        out = row_normalize(np.array([[0.0, 0.0], [1.0, 3.0]]))
        assert out[0].tolist() == [0.0, 0.0]
        assert out[1].tolist() == [0.25, 0.75]

    def test_does_not_mutate_input(self):
        x = np.array([[2.0, 2.0]])
        row_normalize(x)
        assert x.tolist() == [[2.0, 2.0]]

    @given(st.integers(min_value=0, max_value=10_000))
    def test_rows_sum_to_one_or_zero(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.random((5, 4)) * (rng.random((5, 4)) < 0.6)
        sums = row_normalize(x).sum(axis=1)
        assert np.all(np.isclose(sums, 1.0) | np.isclose(sums, 0.0))


class TestChain:
    def test_six_nodes(self):
        b = gen_chain(6)
        assert b.graph.degree.tolist() == [1, 2, 2, 2, 2, 1]
        assert np.array_equal(b.x, np.eye(6))
        assert b.y[:3, 0].tolist() == [1.0, 1.0, 1.0]
        assert b.y[3:, 1].tolist() == [1.0, 1.0, 1.0]

    def test_two_nodes(self):
        b = gen_chain(2)
        assert b.graph.num_edges == 1

    def test_rejects_dense_identity_past_limit(self):
        # the identity for n=10**6 would be 8 TB; the check comes before any allocation
        def attempt():
            with pytest.raises(ConfigError, match="exceeds the limit"):
                gen_chain(10**6)

        _, peak, _ = traced_peak(attempt)
        assert peak < 2**20


def pairwise_distance(graph):
    import collections

    dist = np.full((graph.n, graph.n), -1)
    for s in range(graph.n):
        dist[s, s] = 0
        q = collections.deque([s])
        while q:
            v = q.popleft()
            for u in graph.neighbors(v):
                if dist[s, u] < 0:
                    dist[s, u] = dist[s, v] + 1
                    q.append(u)
    return dist


def test_chain_diameter():
    b = gen_chain(7)
    assert pairwise_distance(b.graph).max() == 6


class TestPlantedPartition:
    def test_no_cross_block_edges_when_p_out_zero(self):
        b = gen_planted_partition(60, 3, 0.4, 0.0, 0.1, rng_seed=0)
        block = (np.arange(60) * 3) // 60
        for u in range(60):
            for v in b.graph.neighbors(u):
                assert block[u] == block[v]

    def test_noise_free_features_identify_block(self):
        b = gen_planted_partition(40, 4, 0.3, 0.05, 0.0, rng_seed=1)
        assert np.array_equal(b.x, b.y)

    def test_homophily_above_080(self):
        intra = total = 0
        for seed in range(5):
            b = gen_planted_partition(400, 4, 0.05, 0.002, 0.4, rng_seed=seed)
            block = (np.arange(400) * 4) // 400
            for u in range(400):
                for v in b.graph.neighbors(u):
                    if u < v:
                        total += 1
                        intra += int(block[u] == block[v])
        assert intra / total > 0.8

    def test_deterministic(self):
        a = gen_planted_partition(50, 2, 0.3, 0.02, 0.2, rng_seed=3)
        b = gen_planted_partition(50, 2, 0.3, 0.02, 0.2, rng_seed=3)
        assert np.array_equal(a.x, b.x)
        assert a.graph.indices.tolist() == b.graph.indices.tolist()

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            gen_planted_partition(40, 4, 0.1, 0.2, 0.0, 0)


class TestBenchmarkGraph:
    def test_exact_counts_and_connectivity(self):
        b = gen_benchmark_graph(n=2000, m_edges=10_000, f=12, l=4, rng_seed=0)
        assert b.graph.n == 2000
        assert b.graph.num_edges == 10_000
        assert b.x.shape == (2000, 12)
        assert b.y.shape == (2000, 4)
        # union-find oracle for connectivity
        parent = list(range(2000))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u in range(2000):
            for v in b.graph.neighbors(u):
                parent[find(u)] = find(int(v))
        assert len({find(v) for v in range(2000)}) == 1

    def test_heavy_tail(self):
        b = gen_benchmark_graph(n=2000, m_edges=10_000, f=4, l=2, rng_seed=1)
        assert b.graph.degree.max() > 10 * b.graph.avg_degree

    def test_deterministic(self):
        a = gen_benchmark_graph(n=500, m_edges=2000, f=4, l=2, rng_seed=5)
        b = gen_benchmark_graph(n=500, m_edges=2000, f=4, l=2, rng_seed=5)
        assert a.graph.indices.tolist() == b.graph.indices.tolist()
        assert np.array_equal(a.x, b.x)

    def test_infeasible_edge_count(self):
        with pytest.raises(ConfigError):
            gen_benchmark_graph(n=10, m_edges=100, f=2, l=2, rng_seed=0)
        with pytest.raises(ConfigError):
            gen_benchmark_graph(n=10, m_edges=3, f=2, l=2, rng_seed=0)


def test_generators_regenerate_byte_identically(tmp_path):
    for maker in (lambda: gen_chain(9),
                  lambda: gen_planted_partition(30, 3, 0.5, 0.05, 0.3, rng_seed=2)):
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(maker(), a)
        save_dataset(maker(), b)
        for fname in ("meta.json", "graph.tsv", "features.tsv", "labels.tsv"):
            assert (a / fname).read_bytes() == (b / fname).read_bytes()
        for f in a.iterdir():
            f.unlink()
        for f in b.iterdir():
            f.unlink()

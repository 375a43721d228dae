import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopf import (ArgumentError, ConfigError, IngestError, NormScheme, TrainConfig, build_graph,
                  gen_planted_partition, khop_subgraph, load_edge_list, make_kernel, make_splits,
                  normalize_adjacency, sample_neighbors, train)
from hopf import graph as graph_mod
from hopf.kernels import layer_rows

from conftest import random_graph


def bfs_ball(graph, seeds, k):
    """Independent BFS oracle: set of nodes within distance k of any seed."""
    adj = {v: set(graph.neighbors(v).tolist()) for v in range(graph.n)}
    seen = set(seeds)
    frontier = set(seeds)
    for _ in range(k):
        frontier = {u for v in frontier for u in adj[v]} - seen
        seen |= frontier
    return seen


class TestBuildGraph:
    def test_triangle_degrees(self, triangle):
        assert triangle.degree.tolist() == [2, 2, 2]
        assert triangle.num_edges == 3

    def test_edgeless(self):
        g = build_graph([], 4)
        assert g.degree.tolist() == [0, 0, 0, 0]
        assert g.avg_degree == 0.0

    def test_chain_degrees(self, chain6):
        assert chain6.degree.tolist() == [1, 2, 2, 2, 2, 1]
        assert chain6.avg_degree == pytest.approx(2 * 5 / 6)

    def test_duplicates_and_selfloops_collapse(self):
        g = build_graph([(0, 1), (1, 0), (0, 1), (2, 2)], 3)
        assert g.num_edges == 1
        assert g.degree.tolist() == [1, 1, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(IngestError):
            build_graph([(0, 3)], 3)
        with pytest.raises(IngestError):
            build_graph([(-1, 0)], 3)

    def test_negative_n_rejected(self):
        with pytest.raises(IngestError):
            build_graph([], -1)

    def test_csr_invariants_random(self):
        for seed in range(10):
            g = random_graph(30, 60, seed)
            for v in range(g.n):
                nb = g.neighbors(v)
                assert np.all(np.diff(nb) > 0), "columns strictly increasing"
                assert g.degree[v] == nb.size
                for u in nb:
                    assert v in g.neighbors(u), "symmetric storage"

    def test_roundtrip_symmetric_closure(self):
        raw = [(0, 1), (1, 0), (3, 2), (0, 1), (4, 0)]
        g = build_graph(raw, 5)
        out = {(u, int(v)) for u in range(5) for v in g.neighbors(u)}
        expected = {(u, v) for (u, v) in raw} | {(v, u) for (u, v) in raw}
        assert out == expected

    def test_immutable(self, triangle):
        with pytest.raises(ValueError):
            triangle.degree[0] = 5

    def test_csr_indices_are_int32_and_degrees_int64(self, chain6):
        assert chain6.indptr.dtype == chain6.indices.dtype == np.int32
        assert chain6.degree.dtype == np.int64
        sub = khop_subgraph(chain6, [0, 5], 2)
        assert sub.indptr.dtype == sub.indices.dtype == np.int32
        assert sub.degree.dtype == np.int64

    def test_rejects_more_entries_than_int32_holds(self, monkeypatch):
        # 2**31 - 1 entries cannot be allocated in a test; the check reads the module limit
        monkeypatch.setattr(graph_mod, "CSR_INDEX_MAX", 4)
        assert build_graph([(0, 1), (1, 2)], 3).indices.size == 4
        with pytest.raises(IngestError, match="int32 CSR limit"):
            build_graph([(0, 1), (1, 2), (2, 0)], 3)
        with pytest.raises(IngestError, match="node count"):
            build_graph([], 5)


class TestEdgeListFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "graph.tsv"
        p.write_text("# comment\n0\t1\n\n1\t2\n")
        assert load_edge_list(p).tolist() == [[0, 1], [1, 2]]

    def test_malformed(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("0 1\n")
        with pytest.raises(IngestError):
            load_edge_list(p)

    def test_int64_bounds(self, tmp_path):
        p = tmp_path / "graph.tsv"
        p.write_text("0\t-9223372036854775808\n1\tx\n")  # -2**63 is an int64; x is not
        with pytest.raises(IngestError, match=r"graph.tsv:2: invalid literal"):
            load_edge_list(p)
        p.write_text("0\t-9223372036854775808\n1\t9223372036854775808\n")
        with pytest.raises(IngestError, match="graph.tsv:2: value out of the int64 range"):
            load_edge_list(p)
        p.write_text("0\t-9223372036854775809\n")
        with pytest.raises(IngestError, match="graph.tsv:1: value out of the int64 range"):
            load_edge_list(p)

    def test_crlf_and_cr_line_ends(self, tmp_path):
        p = tmp_path / "graph.tsv"
        p.write_bytes(b"0\t1\r\n1\t2\r2\t3\n")
        assert load_edge_list(p).tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_not_utf8_names_file(self, tmp_path):
        p = tmp_path / "graph.tsv"
        p.write_bytes(b"0\t1\n\xff\t2\n")
        with pytest.raises(IngestError, match="graph.tsv: not UTF-8 text after line 0"):
            load_edge_list(p)


class TestKhopSubgraph:
    def test_chain_two_hops(self, chain6):
        sub = khop_subgraph(chain6, [0], 2)
        assert sub.global_ids.tolist() == [0, 1, 2]
        assert sub.frontier_offsets == (0, 1, 2, 3)

    def test_radius_zero(self, triangle):
        sub = khop_subgraph(triangle, [1, 2], 0)
        assert sub.global_ids.tolist() == [1, 2]
        assert sub.indices.size == 0

    def test_star_from_leaf(self, star6):
        sub = khop_subgraph(star6, [1], 2)
        assert sub.global_ids.tolist() == [1, 0, 2, 3, 4, 5]
        assert sub.frontier_offsets == (0, 1, 2, 6)

    def test_seed_out_of_range(self, triangle):
        with pytest.raises(ArgumentError):
            khop_subgraph(triangle, [7], 1)
        with pytest.raises(ArgumentError):
            khop_subgraph(triangle, [], 1)

    @pytest.mark.parametrize("seeds", [[0.7], [2.9], [True, False], ["1"]],
                             ids=["float-0.7", "float-2.9", "bool-mask", "string"])
    def test_non_integer_seeds_rejected(self, triangle, seeds):
        # none of these may be rounded, truncated or read as a mask into node ids
        with pytest.raises(ArgumentError, match="integer node ids"):
            khop_subgraph(triangle, seeds, 1)

    def test_repeated_seeds_keep_first_occurrence_order(self, triangle):
        sub = khop_subgraph(triangle, [1, 1, 0], 1)
        assert sub.global_ids[: sub.num_seeds].tolist() == [1, 0]

    def test_matches_bfs_oracle(self):
        for seed in range(25):
            g = random_graph(40, 70, seed)
            rng = np.random.default_rng(seed)
            seeds = rng.choice(40, size=rng.integers(1, 4), replace=False)
            for k in (0, 1, 2, 3):
                sub = khop_subgraph(g, seeds, k)
                assert set(sub.global_ids.tolist()) == bfs_ball(g, seeds.tolist(), k)

    def test_local_edges_are_global_edges(self):
        g = random_graph(25, 50, 3)
        sub = khop_subgraph(g, [0, 5], 2)
        gids = sub.global_ids
        in_ball = set(gids.tolist())
        expanded = sub.frontier_offsets[-2]
        for v in range(expanded):
            local_nb = set(gids[sub.neighbors(v)].tolist())
            expected = set(g.neighbors(gids[v]).tolist())
            assert expected <= in_ball, "an expanded node's neighbors all join the ball"
            assert local_nb == expected, "an expanded row is the node's neighbor list"
        assert sub.indptr[expanded] == sub.indptr[-1], "last-frontier rows are empty"

    def test_seed_order_preserved(self, chain6):
        sub = khop_subgraph(chain6, [4, 1], 1)
        assert sub.global_ids[:2].tolist() == [4, 1]


class TestSampleNeighbors:
    def test_generous_caps_reproduce_khop(self, chain6):
        full = khop_subgraph(chain6, [2], 2)
        sampled = sample_neighbors(chain6, [10, 10], [2], rng_seed=0)
        assert sampled.global_ids.tolist() == full.global_ids.tolist()
        assert sampled.indices.tolist() == full.indices.tolist()
        assert sampled.indptr.tolist() == full.indptr.tolist()

    def test_caps_past_int64_reproduce_khop(self):
        # a cap beyond any degree is clipped to n, where numpy would overflow on it
        g = random_graph(30, 90, 3)
        seeds = [0, 7]
        full = khop_subgraph(g, seeds, 2)
        sampled = sample_neighbors(g, [2**70, 2**64], seeds, 0)
        assert sampled.n == full.n and sampled.frontier_offsets == full.frontier_offsets
        for name in ("indptr", "indices", "global_ids", "degree"):
            a, b = getattr(sampled, name), getattr(full, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_star_cap_two(self, star6):
        sub = sample_neighbors(star6, [2], [0], rng_seed=7)
        assert sub.n == 3
        assert sub.global_ids[0] == 0
        assert set(sub.global_ids[1:].tolist()) <= {1, 2, 3, 4, 5}

    def test_chain_expansion_bound(self, chain6):
        sub = sample_neighbors(chain6, [1, 1], [1], rng_seed=1)
        assert sub.n <= 3

    def test_subset_of_khop(self):
        for seed in range(8):
            g = random_graph(30, 90, seed)
            full = set(khop_subgraph(g, [0], 2).global_ids.tolist())
            sub = sample_neighbors(g, [2, 2], [0], rng_seed=seed)
            assert set(sub.global_ids.tolist()) <= full

    def test_deterministic(self, star6):
        a = sample_neighbors(star6, [2], [0], rng_seed=5)
        b = sample_neighbors(star6, [2], [0], rng_seed=5)
        assert a.global_ids.tolist() == b.global_ids.tolist()

    def test_k8_rows_hold_their_samples(self):
        # every K8 node has degree 7; the seed and both hop-1 nodes keep 2 draws each
        g = build_graph(list(itertools.combinations(range(8), 2)), 8)
        sub = sample_neighbors(g, [2, 2], [0], rng_seed=0)
        assert sub.n == 6 and sub.frontier_offsets == (0, 1, 3, 6)
        assert np.diff(sub.indptr).tolist() == [2, 2, 2, 0, 0, 0]
        assert normalize_adjacency(sub, NormScheme.MEAN).data.tolist() == [0.5] * 6
        assert layer_rows(sub, 2) == [6, 3, 1]

    def test_cap_length_mismatch(self, star6):
        # a sampled ball has one hop per cap; train holds the caps to the kernel's depth
        bundle = gen_planted_partition(50, 2, 0.3, 0.05, 0.4, rng_seed=0)
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        with pytest.raises(ConfigError, match="one sample cap per hop"):
            train(spec, bundle, make_splits(50, rng_seed=0)[0], TrainConfig(hidden_dim=4),
                  sample_caps=[3])
        with pytest.raises(ArgumentError):
            sample_neighbors(star6, [0], [0], rng_seed=0)


class TestNormalize:
    def test_triangle_mean(self, triangle):
        sub = khop_subgraph(triangle, [0, 1, 2], 0)
        m = normalize_adjacency(khop_subgraph(triangle, [0], 2), NormScheme.MEAN).toarray()
        for row in m:
            assert sorted(row.tolist()) == pytest.approx([0.0, 0.5, 0.5])
        assert sub.indices.size == 0

    def test_isolated_zero_row(self):
        g = build_graph([(0, 1)], 3)
        sub = khop_subgraph(g, [0, 1, 2], 1)
        m = normalize_adjacency(sub, NormScheme.MEAN).toarray()
        iso = sub.global_ids.tolist().index(2)
        assert np.all(m[iso] == 0.0)

    def test_two_node_path_sym_self(self):
        g = build_graph([(0, 1)], 2)
        m = normalize_adjacency(khop_subgraph(g, [0], 2), NormScheme.SYM_SELF).toarray()
        assert m[0, 1] == pytest.approx(0.5)
        assert m[1, 0] == pytest.approx(0.5)

    def test_count_is_binary(self, star6):
        m = normalize_adjacency(khop_subgraph(star6, [0], 1), NormScheme.COUNT).toarray()
        assert set(np.unique(m).tolist()) <= {0.0, 1.0}

    def test_mean_preserves_ones(self):
        for seed in range(5):
            g = random_graph(20, 40, seed)
            sub = khop_subgraph(g, list(range(20)), 1)
            m = normalize_adjacency(sub, NormScheme.MEAN)
            out = m @ np.ones(sub.n)
            deg = sub.degree
            assert np.allclose(out[deg > 0], 1.0)
            assert np.allclose(out[deg == 0], 0.0)

    @pytest.mark.parametrize("scheme", [NormScheme.MEAN, NormScheme.SYM_SELF, NormScheme.COUNT])
    def test_weighted_adjacency_shares_the_ball_index_arrays(self, chain6, scheme):
        sub = khop_subgraph(chain6, [2], 2)
        m = normalize_adjacency(sub, scheme)
        assert np.shares_memory(m.indices, sub.indices) and np.shares_memory(m.indptr, sub.indptr)

    def test_maxpool_rejected(self, triangle):
        with pytest.raises(ArgumentError):
            normalize_adjacency(khop_subgraph(triangle, [0], 1), NormScheme.MAXPOOL)


def reference_ball(graph, seeds, caps, rng):
    """Per-node loop oracle for the frontier-ordered BFS and its CSR.

    One ``rng.choice`` per over-cap frontier node, in frontier order. Each
    expanded node's row is the list it drew, in ascending global id,
    renumbered to local ids row by row; the last frontier's rows are empty.
    """
    seeds = np.asarray(list(dict.fromkeys(seeds)), dtype=np.int64)
    in_set = np.zeros(graph.n, dtype=bool)
    in_set[seeds] = True
    order, offsets, frontier = [seeds], [0, seeds.size], seeds
    drawn = []
    for cap in caps:
        picked = [np.empty(0, dtype=np.int64)]
        for v in frontier:
            nb = graph.neighbors(v)
            if nb.size > cap:
                nb = np.sort(rng.choice(nb, size=cap, replace=False))
            picked.append(nb)
        drawn += picked[1:]
        cand = np.unique(np.concatenate(picked))
        new = cand[~in_set[cand]]
        in_set[new] = True
        order.append(new)
        offsets.append(offsets[-1] + new.size)
        frontier = new
    order = np.concatenate(order)
    local = np.full(graph.n, -1, dtype=np.int64)
    local[order] = np.arange(order.size)
    indptr, cols = [0], [np.empty(0, dtype=np.int64)]
    for v in range(order.size):
        row = local[drawn[v]] if v < len(drawn) else np.empty(0, dtype=np.int64)
        cols.append(row)
        indptr.append(indptr[-1] + row.size)
    return order, tuple(offsets), np.asarray(indptr), np.concatenate(cols)


def assert_same_ball(sub, ref):
    order, offsets, indptr, indices = ref
    assert sub.global_ids.tolist() == order.tolist()
    assert sub.frontier_offsets == offsets
    assert sub.indptr.tolist() == indptr.tolist()
    assert sub.indices.tolist() == indices.tolist()
    for v in range(sub.n):
        gids = sub.global_ids[sub.neighbors(v)]
        assert np.all(np.diff(gids) > 0), "global ids strictly increasing per row"


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4),
       st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=6),
       st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4))
def test_ball_matches_per_node_reference(n, num_edges, seed, k, raw_seeds, caps):
    # few edges on many nodes leave isolated nodes; repeated seeds are folded
    g = random_graph(n, num_edges, seed)
    seeds = [s % n for s in raw_seeds]
    assert_same_ball(khop_subgraph(g, seeds, k), reference_ball(g, seeds, [n] * k, None))
    sampled = sample_neighbors(g, caps[:k], seeds, rng_seed=seed)
    assert_same_ball(sampled, reference_ball(g, seeds, caps[:k], np.random.default_rng(seed)))


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=80),
       st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4),
       st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=6),
       st.lists(st.integers(min_value=1, max_value=4), min_size=4, max_size=4),
       st.booleans())
def test_rows_hold_what_their_node_drew(n, num_edges, seed, k, raw_seeds, caps, sampled):
    g = random_graph(n, num_edges, seed)
    seeds = [s % n for s in raw_seeds]
    # caps at the maximum degree sample nothing: the ball is the BFS ball
    caps = caps[:k] if sampled else [max(1, int(g.degree.max()))] * k
    sub = sample_neighbors(g, caps, seeds, rng_seed=seed)
    if not sampled:
        full = khop_subgraph(g, seeds, k)
        assert sub.frontier_offsets == full.frontier_offsets
        for name in ("global_ids", "indptr", "indices"):
            assert getattr(sub, name).tolist() == getattr(full, name).tolist()
    offsets = sub.frontier_offsets
    for h in range(k + 1):
        for v in range(offsets[h], offsets[h + 1]):
            gid = sub.global_ids[v]
            row = sub.global_ids[sub.neighbors(v)]
            assert row.size == (min(g.degree[gid], caps[h]) if h < k else 0)
            assert np.all(np.diff(row) > 0), "ascending global id"
            assert set(row.tolist()) <= set(g.neighbors(gid).tolist())
    # each layer's rows are a frontier prefix that holds every column the layer above reads
    rows = layer_rows(sub, k)
    assert rows == [offsets[k - j + 1] for j in range(k + 1)]
    for j in range(1, k + 1):
        assert np.all(sub.indices[: sub.indptr[rows[j]]] < rows[j - 1])


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=40),
       st.integers(min_value=0, max_value=10_000))
def test_build_graph_total_degree(n, num_edges, seed):
    g = random_graph(n, num_edges, seed)
    assert g.degree.sum() == 2 * g.num_edges
    assert g.avg_degree == pytest.approx(2 * g.num_edges / n)

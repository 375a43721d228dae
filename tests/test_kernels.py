import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopf import (ArgumentError, ConfigError, HopfError, ModelWeights, NormScheme, ShapeError,
                  StateError, Task, backward, build_graph, finite_diff_grad, khop_subgraph,
                  linear_unroll_coefficient, make_kernel, maxpool_aggregate,
                  nim_relative_importance, predict, weighted_cross_entropy)
from hopf.kernels import (ITERATIVE_MODELS, REGISTRY, TRAINABLE_MODELS, WHOLE_GRAPH_FRACTION,
                          AlphaMode, BetaMode, Combine, Phi, Psi, layer_plan, layer_rows)

from conftest import random_graph, traced_peak

# Expected resolved update rule per registry row, field by field:
# (phi, F(A), psi, alpha, beta, tied)
TABLE = {
    "bl_node":    (Phi.H0,     None,                Psi.NONE,                 AlphaMode.ONE,          BetaMode.ZERO, False),
    "bl_neigh":   (Phi.NONE,   NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ZERO,         BetaMode.ONE,  False),
    "ss_ica":     (Phi.H0,     NormScheme.MEAN,     Psi.LABELS,               AlphaMode.ONE,          BetaMode.ONE,  False),
    "wl":         (Phi.H_PREV, NormScheme.COUNT,    Psi.H_PREV,               AlphaMode.ONE,          BetaMode.ONE,  False),
    "gcn":        (Phi.H_PREV, NormScheme.SYM_SELF, Psi.H_PREV,               AlphaMode.INV_DEG_SELF, BetaMode.ONE,  True),
    "gcn_s":      (Phi.H_PREV, NormScheme.SYM_SELF, Psi.H_PREV,               AlphaMode.INV_DEG_SELF, BetaMode.ONE,  True),
    "gcn_mean":   (Phi.H_PREV, NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ONE,          BetaMode.ONE,  True),
    "gs_mean":    (Phi.H_PREV, NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ONE,          BetaMode.ONE,  False),
    "gs_max":     (Phi.H_PREV, NormScheme.MAXPOOL,  Psi.H_PREV,               AlphaMode.ONE,          BetaMode.ONE,  False),
    "nip_mean":   (Phi.H0,     NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ONE,          BetaMode.ONE,  False),
    "i_nip_mean": (Phi.H0,     NormScheme.MEAN,     Psi.H_PREV_CONCAT_LABELS, AlphaMode.ONE,          BetaMode.ONE,  False),
}

GRAD_CHECK_MODELS = [n for n in REGISTRY if n != "wl"]


def rand_setup(seed=42, n=10, edges=18, f=5, l=3, seeds=3, depth=2):
    rng = np.random.default_rng(seed)
    g = random_graph(n, edges, seed)
    sub = khop_subgraph(g, list(range(seeds)), depth)
    # graph-level arrays; rows outside the ball stay zero and are never read
    x = np.zeros((g.n, f))
    x[sub.global_ids] = rng.random((sub.n, f))
    yh = np.zeros((g.n, l))
    yh[sub.global_ids] = rng.random((sub.n, l))
    ytrue = np.zeros((sub.num_seeds, l))
    ytrue[np.arange(sub.num_seeds), rng.integers(l, size=sub.num_seeds)] = 1.0
    return g, sub, x, yh, ytrue


def assert_grads_match_fd(spec, w, sub, x, yh, ytrue, task):
    """Every analytic weight gradient within 1e-4 relative of central differences."""
    omega = np.ones(ytrue.shape[1])
    yt, cache = predict(spec, w, sub, x, yh, task=task)
    _, dloss = weighted_cross_entropy(yt, ytrue, omega, task)
    grads = dict(backward(spec, w, cache, dloss).params())
    for pname, p in w.params():
        def loss_fn(pm, p=p):
            saved = p.copy()
            p[:] = pm
            yt2, _ = predict(spec, w, sub, x, yh, task=task)
            out, _ = weighted_cross_entropy(yt2, ytrue, omega, task)
            p[:] = saved
            return out
        fd = finite_diff_grad(loss_fn, p, eps=1e-5)
        rel = np.abs(grads[pname] - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4, f"{spec.name}/{pname}"
    return cache


class TestRegistryFidelity:
    def test_all_canonical_names_present(self):
        assert list(REGISTRY) == ["bl_node", "bl_neigh", "ss_ica", "wl", "gcn", "gcn_s",
                                  "gcn_mean", "gs_mean", "gs_max", "nip_mean", "i_nip_mean"]

    @pytest.mark.parametrize("name", list(TABLE))
    def test_row_matches_field_by_field(self, name):
        spec = make_kernel(name, depth=2, hidden_dim=8)
        phi, norm, psi, alpha, beta, tied = TABLE[name]
        assert spec.phi is phi
        assert spec.norm is norm
        assert spec.psi is psi
        assert spec.alpha is alpha
        assert spec.beta is beta
        assert spec.tie_weights is tied

    def test_structural_flags(self):
        assert make_kernel("gcn_s").skip_connections
        assert not make_kernel("gcn").skip_connections
        assert make_kernel("gs_mean").combine is Combine.CONCAT
        assert make_kernel("gs_max").combine is Combine.CONCAT
        assert make_kernel("gcn_mean").combine is Combine.SUM
        assert not make_kernel("wl").differentiable
        assert make_kernel("ss_ica").uses_labels
        assert make_kernel("i_nip_mean").uses_labels
        assert not make_kernel("nip_mean").uses_labels
        assert ITERATIVE_MODELS == ("ss_ica", "i_nip_mean")

    def test_ss_ica_depth_pinned_to_one(self):
        assert make_kernel("ss_ica", depth=4).depth == 1

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown model"):
            make_kernel("gs_lstm")

    def test_tied_weights_share_storage(self):
        w = ModelWeights.init(make_kernel("gcn", depth=3, hidden_dim=4), 6, 2, 0)
        for wp, ws in zip(w.wphi, w.wpsi):
            assert wp is ws
        assert len(w.params()) == 1 + 3 + 1

    def test_concat_widths_double(self):
        spec = make_kernel("gs_mean", depth=2, hidden_dim=4)
        plan = layer_plan(spec, 6, 3)
        assert plan.h_widths == (4, 8, 8)
        assert plan.phi_in == (4, 8)
        w = ModelWeights.init(spec, 6, 3, 0)
        assert w.wphi[1].shape == (8, 4)
        assert w.wl.shape == (8, 3)


class TestPredict:
    def test_zero_weights_multilabel_is_half(self):
        _, sub, x, yh, _ = rand_setup()
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        for _, p in w.params():
            p[:] = 0.0
        yt, _ = predict(spec, w, sub, x, task=Task.MULTI_LABEL)
        assert np.all(yt == 0.5)

    def test_bl_node_ignores_edges(self):
        spec = make_kernel("bl_node", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 4, 2, 3)
        rng = np.random.default_rng(0)
        x_full = rng.random((6, 4))
        outs = []
        for edges in ([(0, 1), (2, 3)], [(0, 5), (1, 4), (2, 5)]):
            g = build_graph(edges, 6)
            sub = khop_subgraph(g, list(range(6)), 2)
            yt, _ = predict(spec, w, sub, x_full, task=Task.MULTI_CLASS)
            outs.append(yt[np.argsort(sub.global_ids)])
        assert np.array_equal(outs[0], outs[1])

    def test_chain_zero_structure_at_depth_two(self, chain6):
        # two MEAN products reach exactly distance 2 on a path: node 0's output
        # moves with node-2 features and is untouched by node-3 features
        spec = make_kernel("nip_mean", depth=2, hidden_dim=8)
        w = ModelWeights.init(spec, 6, 2, 11)
        sub = khop_subgraph(chain6, list(range(6)), 2)
        x = np.abs(np.random.default_rng(1).random((6, 6))) + 0.1
        base, _ = predict(spec, w, sub, x, task=Task.MULTI_LABEL)
        for node, expect_change in ((2, True), (3, False), (4, False)):
            x2 = x.copy()
            x2[node] += 2.0
            out, _ = predict(spec, w, sub, x2, task=Task.MULTI_LABEL)
            changed = not np.array_equal(out[0], base[0])
            assert changed == expect_change, f"perturbing node {node}"

    def test_label_channel_reach_is_depth(self, chain6):
        # the label input enters through the neighbor aggregation at every
        # layer, so its influence travels exactly `depth` hops per call
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=8)
        w = ModelWeights.init(spec, 6, 2, 4)
        sub = khop_subgraph(chain6, list(range(6)), 2)
        x = np.random.default_rng(2).uniform(0.1, 1.0, (6, 6))
        yh = np.random.default_rng(3).random((6, 2))
        base, _ = predict(spec, w, sub, x, yh, task=Task.MULTI_LABEL)
        for node, expect_change in ((2, True), (3, False)):
            yh2 = yh.copy()
            yh2[node] += 0.5
            out, _ = predict(spec, w, sub, x, yh2, task=Task.MULTI_LABEL)
            assert (not np.array_equal(out[0], base[0])) == expect_change

    def test_wl_is_analysis_only(self, triangle):
        spec = make_kernel("wl")
        with pytest.raises(ConfigError):
            ModelWeights.init(spec, 3, 2, 0)
        with pytest.raises(ConfigError):
            predict(spec, None, khop_subgraph(triangle, [0], 1), np.ones((3, 3)))

    def test_missing_label_channel(self):
        _, sub, x, _, _ = rand_setup()
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        with pytest.raises(ConfigError, match="label channel"):
            predict(spec, w, sub, x, None)

    def test_label_width_mismatch(self):
        g, sub, x, _, _ = rand_setup()
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        with pytest.raises(ConfigError):
            predict(spec, w, sub, x, np.zeros((g.n, 5)))

    def test_inputs_short_of_rows_or_not_2d(self):
        g, sub, x, yh, _ = rand_setup(n=30, edges=40)
        need = int(sub.global_ids.max()) + 1
        assert need > 1
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        predict(spec, w, sub, x[:need], yh[:need])
        for bad_x, bad_yh in ((x[: need - 1], yh), (x, yh[: need - 1]),
                              (x[:, 0], yh), (x, yh[:, 0]), (x[None], yh)):
            with pytest.raises(ShapeError, match="one row per graph node"):
                predict(spec, w, sub, bad_x, bad_yh)

    def test_feature_width_mismatch(self):
        _, sub, x, _, _ = rand_setup()
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        with pytest.raises(ShapeError):
            predict(spec, w, sub, x[:, :3])

    def test_output_rows_cover_seed_prefix_only(self):
        _, sub, x, yh, _ = rand_setup(seeds=4)
        spec = make_kernel("gcn_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        yt, _ = predict(spec, w, sub, x, task=Task.MULTI_CLASS)
        assert yt.shape == (4, 3)


@pytest.mark.parametrize("name", TRAINABLE_MODELS)
def test_trimmed_layers_need_no_outer_frontier(name):
    # layer k computes the nodes within C-k hops of the seeds; a ball one hop
    # wider must change neither the seed outputs nor any gradient
    rng = np.random.default_rng(5)
    g = random_graph(60, 110, 5)
    x = rng.random((g.n, 5))
    yh = rng.random((g.n, 3))
    spec = make_kernel(name, depth=2, hidden_dim=4)
    C = spec.depth
    w = ModelWeights.init(spec, 5, 3, 7)
    outs = []
    for radius in (C, C + 1):
        sub = khop_subgraph(g, [0, 1, 2, 1], radius)
        yt, cache = predict(spec, w, sub, x, yh, task=Task.MULTI_LABEL)
        assert [xk.shape[0] for xk in cache.x] == [sub.frontier_offsets[C - k + 1]
                                                  for k in range(C + 1)]
        grads = backward(spec, w, cache, np.linspace(-1.0, 1.0, yt.size).reshape(yt.shape))
        outs.append((yt, grads.params()))
    (y_c, g_c), (y_wide, g_wide) = outs
    assert np.allclose(y_c, y_wide, rtol=0.0, atol=1e-12)
    for (pname, a), (_, b) in zip(g_c, g_wide):
        assert np.allclose(a, b, rtol=0.0, atol=1e-12), pname


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        _, sub, x, yh, _ = rand_setup()
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 1)
        yt, cache = predict(spec, w, sub, x, task=Task.MULTI_CLASS)
        grads = backward(spec, w, cache, np.zeros_like(yt))
        assert all(np.all(a == 0.0) for _, a in grads.params())

    @pytest.mark.parametrize("name", GRAD_CHECK_MODELS)
    @pytest.mark.parametrize("task", [Task.MULTI_CLASS, Task.MULTI_LABEL])
    def test_matches_finite_differences(self, name, task):
        _, sub, x, yh, ytrue = rand_setup()
        spec = make_kernel(name, depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 7)
        assert_grads_match_fd(spec, w, sub, x, yh, ytrue, task)

    @pytest.mark.parametrize("name", ["nip_mean", "gcn_mean"])  # H0 and H_PREV node paths
    @pytest.mark.parametrize("seeds,whole_graph", [(12, True), (1, False)])
    def test_both_input_forms_match_finite_differences(self, name, seeds, whole_graph):
        # a ball whose layer-0 rows reach WHOLE_GRAPH_FRACTION of the graph
        # multiplies all of x by w0; a smaller one gathers its rows first
        g, sub, x, yh, ytrue = rand_setup(seed=13, n=40, edges=50, seeds=seeds)
        assert (layer_rows(sub, 2)[0] >= WHOLE_GRAPH_FRACTION * g.n) == whole_graph
        spec = make_kernel(name, depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 7)
        cache = assert_grads_match_fd(spec, w, sub, x, yh, ytrue, Task.MULTI_CLASS)
        assert (cache.gathered is None) == whole_graph

    def test_tied_gradient_equals_sum_of_untied(self):
        _, sub, x, _, ytrue = rand_setup()
        tied_spec = make_kernel("gcn_mean", depth=2, hidden_dim=4)
        wt = ModelWeights.init(tied_spec, 5, 3, 9)
        yt, cache = predict(tied_spec, wt, sub, x, task=Task.MULTI_CLASS)
        _, dloss = weighted_cross_entropy(yt, ytrue, np.ones(3), Task.MULTI_CLASS)
        tied_grads = dict(backward(tied_spec, wt, cache, dloss).params())

        from dataclasses import replace

        untied_spec = replace(tied_spec, name="gcn_mean_untied", tie_weights=False)
        wu = ModelWeights.init(untied_spec, 5, 3, 0)
        wu.w0[:] = wt.w0
        wu.wl[:] = wt.wl
        for k in range(2):
            wu.wphi[k][:] = wt.wphi[k]
            wu.wpsi[k][:] = wt.wpsi[k]
        yt2, cache2 = predict(untied_spec, wu, sub, x, task=Task.MULTI_CLASS)
        assert np.allclose(yt, yt2)
        untied = dict(backward(untied_spec, wu, cache2, dloss).params())
        for k in (1, 2):
            combined = untied[f"w{k}_phi"] + untied[f"w{k}_psi"]
            assert np.allclose(tied_grads[f"w{k}"], combined, atol=1e-12)

    def test_no_gradient_reaches_label_channel(self):
        _, sub, x, yh, ytrue = rand_setup()
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 2)
        yt, cache = predict(spec, w, sub, x, yh, task=Task.MULTI_CLASS)
        _, dloss = weighted_cross_entropy(yt, ytrue, np.ones(3), Task.MULTI_CLASS)
        grads = backward(spec, w, cache, dloss)
        names = {n for n, _ in grads.params()}
        assert names == {n for n, _ in w.params()}
        # yet the channel itself matters to the forward values
        yt2, _ = predict(spec, w, sub, x, yh + 0.3, task=Task.MULTI_CLASS)
        assert not np.allclose(yt, yt2)

    def test_stale_cache_rejected(self):
        _, sub, x, _, _ = rand_setup()
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 1)
        yt, cache = predict(spec, w, sub, x, task=Task.MULTI_CLASS)
        other = ModelWeights.init(spec, 5, 3, 2)
        with pytest.raises(StateError):
            backward(spec, other, cache, np.zeros_like(yt))

    def test_backward_consumes_the_cache(self):
        # every layer's activations, masks and inputs are released as backward goes
        _, sub, x, _, _ = rand_setup()
        spec = make_kernel("gcn_s", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 1)
        yt, cache = predict(spec, w, sub, x, task=Task.MULTI_CLASS, dropout_rate=0.3,
                            rng=np.random.default_rng(0))
        backward(spec, w, cache, np.ones_like(yt))
        for entries in (cache.x, cache.active, cache.dropout, cache.phi_inputs,
                        cache.psi_inputs):
            assert all(e is None for e in entries)
        with pytest.raises(StateError, match="already consumed"):
            backward(spec, w, cache, np.ones_like(yt))


class TestForwardCache:
    """The cache holds what backward reads: bool ReLU masks, views of x, no copies."""

    def test_masks_are_bool_and_label_concat_is_not_copied(self):
        _, sub, x, yh, _ = rand_setup()
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 2)
        _, cache = predict(spec, w, sub, x, yh, task=Task.MULTI_LABEL, dropout_rate=0.3,
                           rng=np.random.default_rng(0))
        assert len(cache.active) == len(cache.x) == spec.depth + 1
        for mask, xk in zip(cache.active, cache.x):
            assert mask.dtype == bool and mask.shape == xk.shape
        for k in range(spec.depth):
            # the neighbor input is x[k] itself; yhat is multiplied by its own rows of wpsi[k]
            assert np.shares_memory(cache.psi_inputs[k], cache.x[k])
            assert cache.psi_inputs[k].shape[1] == cache.x[k].shape[1]

    def test_whole_graph_inference_cache_stays_small(self):
        # the shape of a hopf round's inference: i_nip_mean C=1 over every node.
        # Keeping the float64 pre-activations, a [h | yhat] copy and the logits
        # held about 8x n*hidden*8 bytes; bool masks and views hold about 4x
        n, hidden, labels = 2000, 16, 10
        rng = np.random.default_rng(4)
        g = random_graph(n, 3 * n, 4)
        sub = khop_subgraph(g, np.arange(n), 1)
        x, yh = rng.random((n, 20)), rng.random((n, labels))
        spec = make_kernel("i_nip_mean", depth=1, hidden_dim=hidden)
        w = ModelWeights.init(spec, 20, labels, 0)
        (yt, cache), _, kept = traced_peak(
            lambda: predict(spec, w, sub, x, yh, task=Task.MULTI_LABEL))
        assert cache.gathered is None and yt.shape == (n, labels)
        assert kept < 6 * n * hidden * 8


class TestMaxpool:
    def test_single_neighbor_identity(self):
        g = build_graph([(0, 1)], 2)
        sub = khop_subgraph(g, [0], 2)
        feats = np.array([[3.0, -1.0], [2.0, 7.0]])
        out = maxpool_aggregate(sub, feats)
        assert out[0].tolist() == [2.0, 7.0]
        assert out[1].tolist() == [3.0, -1.0]

    def test_elementwise_max(self):
        g = build_graph([(0, 1), (0, 2)], 3)
        sub = khop_subgraph(g, [0], 1)
        feats = np.zeros((3, 2))
        feats[sub.global_ids.tolist().index(1)] = [1.0, -2.0]
        feats[sub.global_ids.tolist().index(2)] = [0.0, 5.0]
        out = maxpool_aggregate(sub, feats)
        assert out[0].tolist() == [1.0, 5.0]

    def test_isolated_row_is_zero(self):
        g = build_graph([(0, 1)], 3)
        sub = khop_subgraph(g, [0, 1, 2], 1)
        out = maxpool_aggregate(sub, np.full((3, 2), -9.0))
        iso = sub.global_ids.tolist().index(2)
        assert out[iso].tolist() == [0.0, 0.0]


class TestNimDecay:
    def test_equal_rates_give_powers_of_two(self):
        assert nim_relative_importance(1.0, 1.0, 3) == pytest.approx(0.125)

    def test_skip_variant(self):
        assert nim_relative_importance(1.0, 1.0, 3, skip=True) == pytest.approx(8 / 27)

    def test_k_zero_is_one(self):
        assert nim_relative_importance(0.3, 7.0, 0) == 1.0
        assert nim_relative_importance(0.3, 7.0, 0, skip=True) == 1.0

    def test_both_zero_rejected(self):
        with pytest.raises(ArgumentError):
            nim_relative_importance(0.0, 0.0, 2)
        with pytest.raises(ArgumentError):
            nim_relative_importance(-1.0, 2.0, 2)

    @given(st.floats(min_value=0.01, max_value=10), st.floats(min_value=0.01, max_value=10),
           st.integers(min_value=1, max_value=12))
    def test_strictly_decreasing_in_k(self, alpha, beta, k):
        assert nim_relative_importance(alpha, beta, k) < nim_relative_importance(alpha, beta, k - 1)

    @given(st.floats(min_value=0.01, max_value=10), st.floats(min_value=0.01, max_value=10),
           st.integers(min_value=1, max_value=12))
    def test_skip_dominates(self, alpha, beta, k):
        assert (nim_relative_importance(alpha, beta, k, skip=True)
                > nim_relative_importance(alpha, beta, k))


class TestLinearUnroll:
    def test_identity_when_beta_zero(self, triangle):
        m = linear_unroll_coefficient(triangle, 1.0, 0.0, NormScheme.MEAN, 1)
        assert np.array_equal(m, np.eye(3))

    def test_two_node_path_square(self):
        g = build_graph([(0, 1)], 2)
        m = linear_unroll_coefficient(g, 1.0, 1.0, NormScheme.MEAN, 2)
        # (I + F)^2 with F^2 = I collapses to 2I + 2F
        assert np.allclose(np.diag(m), 2.0)
        assert np.allclose(m, np.array([[2.0, 2.0], [2.0, 2.0]]))

    def test_edgeless_diagonal_matches_closed_form(self):
        g = build_graph([], 5)
        for k in range(7):
            m = linear_unroll_coefficient(g, 1.0, 1.0, NormScheme.MEAN, k)
            ratio = np.diag(m) / 2.0**k
            assert np.allclose(ratio, nim_relative_importance(1.0, 1.0, k), atol=1e-12)

    def test_large_graph_rejected(self):
        g = build_graph([], 500)
        with pytest.raises(ArgumentError):
            linear_unroll_coefficient(g, 1.0, 1.0, NormScheme.MEAN, 2)


def test_weights_save_load_roundtrip(tmp_path):
    for name in ("gcn", "gs_mean", "i_nip_mean"):
        spec = make_kernel(name, depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 13)
        path = tmp_path / f"{name}.bin"
        w.save(path)
        back = ModelWeights.load(path, spec)
        for (n1, a), (n2, b) in zip(w.params(), back.params()):
            assert n1 == n2
            assert np.array_equal(a, b)
        if spec.tie_weights:
            assert back.wphi[0] is back.wpsi[0]


def test_weights_load_rejects_truncated_or_mismatched_snapshots(tmp_path):
    spec = make_kernel("gs_mean", depth=2, hidden_dim=4)
    path = tmp_path / "w.bin"
    ModelWeights.init(spec, 5, 3, 13).save(path)
    raw = path.read_bytes()
    for cut in (10, 20, len(raw) - 8):
        (tmp_path / "cut.bin").write_bytes(raw[:cut])
        with pytest.raises(HopfError, match="truncated"):
            ModelWeights.load(tmp_path / "cut.bin", spec)
    for other in (make_kernel("gcn", depth=2, hidden_dim=4),      # tied names
                  make_kernel("gs_mean", depth=2, hidden_dim=8),  # wider layers
                  make_kernel("gs_mean", depth=3, hidden_dim=4)):  # deeper
        with pytest.raises(HopfError, match="does not fit"):
            ModelWeights.load(path, other)

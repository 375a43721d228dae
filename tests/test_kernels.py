import itertools
import re
import warnings
import weakref
import zipfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hopf.kernels as kernels_mod
from hopf import (ArgumentError, ConfigError, DatasetBundle, HopfError, ModelWeights, NormScheme,
                  Task, backward, build_graph, finite_diff_grad, khop_subgraph,
                  linear_unroll_coefficient, make_kernel, nim_relative_importance,
                  predict, weighted_cross_entropy)
from hopf.kernels import (HIDDEN_BLOCK_ROWS, ITERATIVE_MODELS, REGISTRY,
                          WHOLE_GRAPH_FRACTION, AlphaMode, Combine, KernelSpec, Phi, Psi,
                          _hidden_product, _maxpool_with_argmax, layer_rows,
                          nim_decay_table, param_shapes)
from hopf.training import infer

from conftest import blas_peak_growth, random_graph, traced_peak

# Expected resolved update rule per registry row, field by field:
# (phi, F(A), psi, alpha, tied); beta is 1 wherever psi is not NONE
TABLE = {
    "bl_node":    (Phi.H0,     None,                Psi.NONE,                 AlphaMode.ONE,          False),
    "bl_neigh":   (Phi.NONE,   NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ONE,          False),
    "ss_ica":     (Phi.H0,     NormScheme.MEAN,     Psi.LABELS,               AlphaMode.ONE,          False),
    "gcn":        (Phi.H_PREV, NormScheme.SYM_SELF, Psi.H_PREV,               AlphaMode.INV_DEG_SELF, True),
    "gcn_s":      (Phi.H_PREV, NormScheme.SYM_SELF, Psi.H_PREV,               AlphaMode.INV_DEG_SELF, True),
    "gcn_mean":   (Phi.H_PREV, NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ONE,          True),
    "gs_mean":    (Phi.H_PREV, NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ONE,          False),
    "gs_max":     (Phi.H_PREV, NormScheme.MAXPOOL,  Psi.H_PREV,               AlphaMode.ONE,          False),
    "nip_mean":   (Phi.H0,     NormScheme.MEAN,     Psi.H_PREV,               AlphaMode.ONE,          False),
    "i_nip_mean": (Phi.H0,     NormScheme.MEAN,     Psi.H_PREV_CONCAT_LABELS, AlphaMode.ONE,          False),
}

# Parameter names of each trainable kernel at depth 2 (ss_ica is pinned to one
# layer), in save order: they name the matrices of every weights snapshot
UNTIED_2 = ["w0", "w1_phi", "w1_psi", "w2_phi", "w2_psi", "wl"]
TIED_2 = ["w0", "w1", "w2", "wl"]
PARAM_NAMES = {
    "bl_node": ["w0", "w1_phi", "w2_phi", "wl"],
    "bl_neigh": ["w0", "w1_psi", "w2_psi", "wl"],
    "ss_ica": ["w0", "w1_phi", "w1_psi", "wl"],
    "gcn": TIED_2, "gcn_s": TIED_2, "gcn_mean": TIED_2,
    "gs_mean": UNTIED_2, "gs_max": UNTIED_2, "nip_mean": UNTIED_2, "i_nip_mean": UNTIED_2,
}

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


def assert_grads_match_fd(spec, w, sub, x, yh, ytrue, task, dropout_rate=0.0):
    """Every analytic weight gradient within 1e-4 relative of central differences.

    Every forward draws its dropout masks from a fresh ``default_rng(0)``, so
    each one applies the same masks."""
    omega = np.ones(ytrue.shape[1])

    def forward():
        return predict(spec, w, sub, x, yh, task=task, dropout_rate=dropout_rate,
                       rng=np.random.default_rng(0))

    yt, cache = forward()
    _, dloss = weighted_cross_entropy(yt, ytrue, omega, task)
    grads = dict(backward(cache, dloss).params())
    for pname, p in w.params():
        def loss_fn(pm, p=p):
            saved = p.copy()
            p[:] = pm
            yt2, _ = forward()
            out, _ = weighted_cross_entropy(yt2, ytrue, omega, task)
            p[:] = saved
            return out
        fd = finite_diff_grad(loss_fn, p, eps=1e-5)
        rel = np.abs(grads[pname] - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4, f"{spec.name}/{pname}"
    return cache


class TestRegistryFidelity:
    def test_all_canonical_names_present(self):
        assert list(REGISTRY) == ["bl_node", "bl_neigh", "ss_ica", "gcn", "gcn_s",
                                  "gcn_mean", "gs_mean", "gs_max", "nip_mean", "i_nip_mean"]

    @pytest.mark.parametrize("name", list(TABLE))
    def test_row_matches_field_by_field(self, name):
        spec = make_kernel(name, depth=2, hidden_dim=8)
        phi, norm, psi, alpha, tied = TABLE[name]
        assert spec.phi is phi
        assert spec.norm is norm
        assert spec.psi is psi
        assert spec.alpha is alpha
        assert spec.tie_weights is tied
        assert spec.has_node_path is (phi is not Phi.NONE)
        assert spec.has_neighbor_path is (psi is not Psi.NONE)

    @pytest.mark.parametrize("fields, message", [
        (dict(phi=Phi.NONE, psi=Psi.NONE, tie_weights=False), "at least one"),
        (dict(phi=Phi.H0, psi=Psi.NONE, tie_weights=False, combine=Combine.CONCAT), "concat"),
        (dict(phi=Phi.H_PREV, psi=Psi.NONE, tie_weights=True), "tied weights"),
        (dict(phi=Phi.NONE, psi=Psi.H_PREV, tie_weights=True), "tied weights"),
        (dict(phi=Phi.NONE, psi=Psi.H_PREV, tie_weights=False,
              alpha=AlphaMode.INV_DEG_SELF), "alpha scales the node path"),
    ])
    def test_spec_without_a_path_it_needs_is_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            KernelSpec(name="custom", norm=NormScheme.MEAN, **fields)

    def test_structural_flags(self):
        assert make_kernel("gcn_s").skip_connections
        assert not make_kernel("gcn").skip_connections
        assert make_kernel("gs_mean").combine is Combine.CONCAT
        assert make_kernel("gs_max").combine is Combine.CONCAT
        assert make_kernel("gcn_mean").combine is Combine.SUM
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

    @pytest.mark.parametrize("name", REGISTRY)
    def test_parameter_names_in_order(self, name):
        w = ModelWeights.init(make_kernel(name, depth=2, hidden_dim=4), 5, 3, 0)
        assert [n for n, _ in w.params()] == PARAM_NAMES[name]

    @pytest.mark.parametrize("name", ["gcn", "gcn_s", "gcn_mean"])
    def test_seed_schedule_does_not_depend_on_tying(self, name):
        spec = make_kernel(name, depth=3, hidden_dim=4)
        tied = ModelWeights.init(spec, 5, 3, 21)
        untied = ModelWeights.init(replace(spec, tie_weights=False), 5, 3, 21)
        assert tied.w0.tobytes() == untied.w0.tobytes()
        assert tied.wl.tobytes() == untied.wl.tobytes()
        for k in range(spec.depth):
            # the tied matrix is drawn where the untied node-path one is
            assert tied.wphi[k].tobytes() == untied.wphi[k].tobytes()
            assert not np.array_equal(untied.wpsi[k], untied.wphi[k])

    def test_tied_weights_need_equal_fan_in(self):
        spec = KernelSpec(name="tied_labels", phi=Phi.H0, psi=Psi.LABELS, norm=NormScheme.MEAN,
                          tie_weights=True, hidden_dim=4)
        with pytest.raises(ConfigError, match=r"tied_labels: .* equal fan-in \(4 vs 3\)"):
            param_shapes(spec, 5, 3)

    def test_concat_widths_double(self):
        spec = make_kernel("gs_mean", depth=2, hidden_dim=4)
        assert param_shapes(spec, 6, 3) == {"w0": (6, 4), "w1_phi": (4, 4), "w1_psi": (4, 4),
                                            "w2_phi": (8, 4), "w2_psi": (8, 4), "wl": (8, 3)}
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

    def test_missing_label_channel(self, monkeypatch):
        # a label kernel given no channel reads round one's all-zero one: its outputs
        # and weight gradients equal an explicit zero channel's bit for bit, for both
        # tasks and both input forms (a fraction of 0 forces the whole-graph product)
        g, sub, _, _, ytrue = rand_setup(seed=13, n=40, edges=50, seeds=4)
        x = np.random.default_rng(3).random((g.n, 5))
        for name, task, fraction in itertools.product(("ss_ica", "i_nip_mean"), Task,
                                                      (0.0, 1.01)):
            monkeypatch.setattr(kernels_mod, "WHOLE_GRAPH_FRACTION", fraction)
            spec = make_kernel(name, depth=2, hidden_dim=4)
            w = ModelWeights.init(spec, 5, 3, 7)
            runs = []
            for yhat in (None, np.zeros((g.n, 3))):
                yt, cache = predict(spec, w, sub, x, yhat, task=task)
                assert (cache.gathered is None) == (fraction == 0.0)
                _, dloss = weighted_cross_entropy(yt, ytrue, np.ones(3), task)
                runs.append((yt, backward(cache, dloss).params()))
            (y_none, g_none), (y_zero, g_zero) = runs
            assert np.array_equal(y_none, y_zero), (name, task, fraction)
            for (pname, a), (_, b) in zip(g_none, g_zero):
                assert np.array_equal(a, b), (name, task, fraction, pname)

    def test_label_width_mismatch(self):
        g, sub, x, _, _ = rand_setup()
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        with pytest.raises(ConfigError):
            predict(spec, w, sub, x, np.zeros((g.n, 5)), task=Task.MULTI_CLASS)

    def test_inputs_short_of_rows_or_not_2d(self):
        g, sub, x, yh, _ = rand_setup(n=30, edges=40)
        need = int(sub.global_ids.max()) + 1
        assert need > 1
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        predict(spec, w, sub, x[:need], yh[:need], task=Task.MULTI_CLASS)
        for bad_x, bad_yh in ((x[: need - 1], yh), (x, yh[: need - 1]),
                              (x[:, 0], yh), (x, yh[:, 0]), (x[None], yh)):
            with pytest.raises(ArgumentError, match="one row per graph node"):
                predict(spec, w, sub, bad_x, bad_yh, task=Task.MULTI_CLASS)

    def test_feature_width_mismatch(self):
        _, sub, x, _, _ = rand_setup()
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        with pytest.raises(ArgumentError):
            predict(spec, w, sub, x[:, :3], task=Task.MULTI_CLASS)

    def test_output_rows_cover_seed_prefix_only(self):
        _, sub, x, yh, _ = rand_setup(seeds=4)
        spec = make_kernel("gcn_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 0)
        yt, _ = predict(spec, w, sub, x, task=Task.MULTI_CLASS)
        assert yt.shape == (4, 3)


@pytest.mark.parametrize("name", REGISTRY)
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
        grads = backward(cache, np.linspace(-1.0, 1.0, yt.size).reshape(yt.shape))
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
        grads = backward(cache, np.zeros_like(yt))
        assert all(np.all(a == 0.0) for _, a in grads.params())

    @pytest.mark.parametrize("name", REGISTRY)
    @pytest.mark.parametrize("task", [Task.MULTI_CLASS, Task.MULTI_LABEL])
    def test_matches_finite_differences(self, name, task, monkeypatch):
        # depth 2 in one row block; then depth 3 (ss_ica stays at 1) under dropout 0.4,
        # in 3-row blocks, so backward's transposed products over the ball's 10 and 9
        # rows run three blocks each
        for depth, rate, block_rows in ((2, 0.0, HIDDEN_BLOCK_ROWS), (3, 0.4, 3)):
            monkeypatch.setattr(kernels_mod, "HIDDEN_BLOCK_ROWS", block_rows)
            _, sub, x, yh, ytrue = rand_setup(depth=depth)
            spec = make_kernel(name, depth=depth, hidden_dim=4)
            w = ModelWeights.init(spec, 5, 3, 7)
            assert_grads_match_fd(spec, w, sub, x, yh, ytrue, task, dropout_rate=rate)

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

    @pytest.mark.parametrize("name", ["nip_mean", "i_nip_mean", "gcn"])
    def test_both_input_forms_agree(self, name, monkeypatch):
        # one ball through each input form: a fraction of 0 forces the
        # whole-graph product, one above 1 the gathered rows; x is nonzero
        # outside the ball, so a row the ball does not hold would show
        g, sub, _, yh, ytrue = rand_setup(seed=13, n=40, edges=50, seeds=4)
        x = np.random.default_rng(3).random((g.n, 5))
        spec = make_kernel(name, depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 7)
        runs = []
        for fraction in (0.0, 1.01):
            monkeypatch.setattr(kernels_mod, "WHOLE_GRAPH_FRACTION", fraction)
            yt, cache = predict(spec, w, sub, x, yh, task=Task.MULTI_CLASS)
            assert (cache.gathered is None) == (fraction == 0.0)
            _, dloss = weighted_cross_entropy(yt, ytrue, np.ones(3), Task.MULTI_CLASS)
            runs.append((yt, backward(cache, dloss).params()))
        (y_whole, g_whole), (y_gathered, g_gathered) = runs
        assert np.allclose(y_whole, y_gathered, rtol=0.0, atol=1e-12)
        for (pname, a), (_, b) in zip(g_whole, g_gathered):
            assert np.allclose(a, b, rtol=0.0, atol=1e-12), pname

    def test_tied_gradient_equals_sum_of_untied(self):
        _, sub, x, _, ytrue = rand_setup()
        tied_spec = make_kernel("gcn_mean", depth=2, hidden_dim=4)
        wt = ModelWeights.init(tied_spec, 5, 3, 9)
        yt, cache = predict(tied_spec, wt, sub, x, task=Task.MULTI_CLASS)
        _, dloss = weighted_cross_entropy(yt, ytrue, np.ones(3), Task.MULTI_CLASS)
        tied_grads = dict(backward(cache, dloss).params())

        untied_spec = replace(tied_spec, name="gcn_mean_untied", tie_weights=False)
        wu = ModelWeights.init(untied_spec, 5, 3, 0)
        wu.w0[:] = wt.w0
        wu.wl[:] = wt.wl
        for k in range(2):
            wu.wphi[k][:] = wt.wphi[k]
            wu.wpsi[k][:] = wt.wpsi[k]
        yt2, cache2 = predict(untied_spec, wu, sub, x, task=Task.MULTI_CLASS)
        assert np.allclose(yt, yt2)
        untied = dict(backward(cache2, dloss).params())
        for k in (1, 2):
            combined = untied[f"w{k}_phi"] + untied[f"w{k}_psi"]
            assert np.allclose(tied_grads[f"w{k}"], combined, atol=1e-12)

    def test_no_gradient_reaches_label_channel(self):
        _, sub, x, yh, ytrue = rand_setup()
        spec = make_kernel("i_nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 2)
        yt, cache = predict(spec, w, sub, x, yh, task=Task.MULTI_CLASS)
        _, dloss = weighted_cross_entropy(yt, ytrue, np.ones(3), Task.MULTI_CLASS)
        grads = backward(cache, dloss)
        names = {n for n, _ in grads.params()}
        assert names == {n for n, _ in w.params()}
        # yet the channel itself matters to the forward values
        yt2, _ = predict(spec, w, sub, x, yh + 0.3, task=Task.MULTI_CLASS)
        assert not np.allclose(yt, yt2)

    def test_backward_consumes_the_cache(self):
        # every layer's activations, masks and inputs are released as backward goes
        _, sub, x, _, _ = rand_setup()
        spec = make_kernel("gcn_s", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 1)
        yt, cache = predict(spec, w, sub, x, task=Task.MULTI_CLASS, dropout_rate=0.3,
                            rng=np.random.default_rng(0))
        activations = [weakref.ref(xk) for xk in cache.x]
        backward(cache, np.ones_like(yt))
        for entries in (cache.x, cache.active, cache.dropout, cache.maxpool_argmax):
            assert all(e is None for e in entries)
        # a layer's inputs are views of its activations, and nothing keeps one alive
        assert all(ref() is None for ref in activations)
        with pytest.raises(ArgumentError, match="already consumed"):
            backward(cache, np.ones_like(yt))


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
            assert cache.x[k].shape[1] + yh.shape[1] == w.wpsi[k].shape[0]
        # and no array the cache holds is as wide as [h | yhat]
        concat_width = cache.x[0].shape[1] + yh.shape[1]
        held = [a for v in vars(cache).values() for a in (v if isinstance(v, list) else [v])
                if isinstance(a, np.ndarray)]
        assert held and all(a.shape[-1] != concat_width for a in held)

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

    def test_maxpool_forward_drops_lin_once_pooled(self):
        # gs_max C=2 whose 200-seed ball holds most of a 2,000-node graph. With the
        # layer's output, ReLU mask and argmax allocated before lin, and lin held
        # through the row blocks, the training forward peaked at 6.1x n*hidden*8
        # bytes here; pooling lin once and dropping it before the blocks, at 4.6x
        n, hidden, labels = 2000, 16, 10
        rng = np.random.default_rng(4)
        g = random_graph(n, 3 * n, 4)
        x = rng.random((n, 20))
        sub = khop_subgraph(g, rng.choice(n, 200, replace=False), 2)
        spec = make_kernel("gs_max", depth=2, hidden_dim=hidden)
        w = ModelWeights.init(spec, 20, labels, 0)
        (yt, cache), peak, _ = traced_peak(
            lambda: predict(spec, w, sub, x, task=Task.MULTI_CLASS))
        assert yt.shape == (200, labels) and all(a is not None for a in cache.maxpool_argmax)
        assert peak < 5.5 * n * hidden * 8

    def test_whole_graph_inference_keeps_nothing_for_backward(self, monkeypatch):
        # the same shape through training.infer, which runs predict without gradients.
        # Blocks of 256 rows keep a hopf round's proportions on the 20k-node benchmark
        # bundle, whose 18,400 re-inferred rows make 8 blocks of 2,048; 2,000 rows make 7.
        # Inference through the training forward peaked at 4.9x n*hidden*8 bytes here
        monkeypatch.setattr(kernels_mod, "HIDDEN_BLOCK_ROWS", 256)
        n, hidden, labels = 2000, 16, 10
        rng = np.random.default_rng(4)
        g = random_graph(n, 3 * n, 4)
        x, yh = rng.random((n, 20)), rng.random((n, labels))
        bundle = DatasetBundle(graph=g, x=x, y=np.zeros((n, labels)), task=Task.MULTI_LABEL,
                               name="whole")
        spec = make_kernel("i_nip_mean", depth=1, hidden_dim=hidden)
        w = ModelWeights.init(spec, 20, labels, 0)
        yt, peak, _ = traced_peak(lambda: infer(spec, w, bundle, np.arange(n), yh))
        assert yt.shape == (n, labels)
        assert peak < 4 * n * hidden * 8


# every registry kernel at depths 1-3; ss_ica is pinned to one layer
KERNEL_DEPTHS = [(name, depth) for name in REGISTRY
                 for depth in ((1,) if name == "ss_ica" else (1, 2, 3))]


class TestForwardWithoutGradients:
    """``predict(..., grad=False)``: the training forward's predictions, and no cache."""

    @pytest.mark.parametrize("name,depth", KERNEL_DEPTHS)
    def test_predictions_equal_the_training_forward_bit_for_bit(self, monkeypatch, name, depth):
        n, f, l = 400, 6, 3
        rng = np.random.default_rng(depth)
        g = random_graph(n, 500, 7)
        x, yh = rng.random((n, f)) - 0.3, rng.random((n, l))
        spec = make_kernel(name, depth=depth, hidden_dim=5)
        w = ModelWeights.init(spec, f, l, 1)
        whole = khop_subgraph(g, rng.choice(n, 300, replace=False), depth)
        gathered = khop_subgraph(g, [0, 1], depth)
        assert layer_rows(whole, depth)[0] >= WHOLE_GRAPH_FRACTION * n
        assert layer_rows(gathered, depth)[0] < WHOLE_GRAPH_FRACTION * n
        # one block per product, then many, each written over the layer it reads
        for rows, sub, channel, task in itertools.product(
                (HIDDEN_BLOCK_ROWS, 16), (whole, gathered), (yh, None), Task):
            monkeypatch.setattr(kernels_mod, "HIDDEN_BLOCK_ROWS", rows)
            want, _ = predict(spec, w, sub, x, channel, task=task)
            got, cache = predict(spec, w, sub, x, channel, task=task, grad=False)
            assert cache is None
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (rows, task)

    def test_draws_no_dropout(self):
        _, sub, x, yh, _ = rand_setup()
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 2)
        with pytest.raises(ConfigError, match="dropout"):
            predict(spec, w, sub, x, task=Task.MULTI_CLASS, dropout_rate=0.3,
                    rng=np.random.default_rng(0), grad=False)


@pytest.mark.parametrize("rate", [-0.5, float("nan"), 1.0, 1.5])
@pytest.mark.parametrize("grad", [True, False])
def test_dropout_rate_outside_the_unit_interval_is_rejected(rate, grad):
    # rejected before any work: a negative or NaN rate would otherwise draw no dropout at all
    _, sub, x, _, _ = rand_setup()
    spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
    w = ModelWeights.init(spec, 5, 3, 2)
    with pytest.raises(ConfigError, match=r"dropout_rate must be in \[0, 1\)"):
        predict(spec, w, sub, x, task=Task.MULTI_CLASS, dropout_rate=rate,
                rng=np.random.default_rng(0), grad=grad)


def dense_forward(spec, weights, g, x, yhat, task):
    """``spec``'s predictions for every node of ``g``, written from its row of the
    instantiation table with dense matrices over the whole graph: no ball, no
    trimmed rows, no row blocks, no gather."""
    adj = np.zeros((g.n, g.n))
    for v in range(g.n):
        adj[v, g.neighbors(v)] = 1.0
    deg = adj.sum(axis=1)
    if spec.norm is NormScheme.MEAN:  # D^-1 A, an empty row zero
        f = np.divide(adj, deg[:, None], out=np.zeros_like(adj), where=deg[:, None] > 0)
    elif spec.norm is NormScheme.SYM_SELF:  # (D+I)^-1/2 A (D+I)^-1/2
        s = 1.0 / np.sqrt(deg + 1.0)
        f = s[:, None] * adj * s[None, :]
    alpha = 1.0 / (deg + 1.0) if spec.alpha is AlphaMode.INV_DEG_SELF else np.ones(g.n)
    h0 = h = np.maximum(x @ weights.mats["w0"], 0.0)
    for k in range(1, spec.depth + 1):
        # a tied layer has one matrix w{k} for both paths
        w_phi = weights.mats.get(f"w{k}", weights.mats.get(f"w{k}_phi"))
        w_psi = weights.mats.get(f"w{k}", weights.mats.get(f"w{k}_psi"))
        terms = []
        if spec.phi is not Phi.NONE:
            terms.append(alpha[:, None] * ((h0 if spec.phi is Phi.H0 else h) @ w_phi))
        if spec.psi is not Psi.NONE:
            psi = {Psi.H_PREV: h, Psi.LABELS: yhat,
                   Psi.H_PREV_CONCAT_LABELS: np.hstack([h, yhat])}[spec.psi]
            lin = psi @ w_psi
            if spec.norm is NormScheme.MAXPOOL:  # per-node max over neighbours, zero without any
                terms.append(np.array([lin[adj[v] > 0].max(axis=0) if deg[v] else
                                       np.zeros(lin.shape[1]) for v in range(g.n)]))
            else:
                terms.append(f @ lin)
        pre = np.hstack(terms) if spec.combine is Combine.CONCAT else sum(terms)
        h = np.maximum(pre, 0.0) + (h if spec.skip_connections else 0.0)
    logits = h @ weights.mats["wl"]
    if task is Task.MULTI_LABEL:
        return 1.0 / (1.0 + np.exp(-logits))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestDenseDefinition:
    """``predict`` against :func:`dense_forward`, the update rule as the table states it."""

    @pytest.mark.parametrize("name,depth", KERNEL_DEPTHS)
    def test_predict_matches_the_dense_definition(self, monkeypatch, name, depth):
        n, f, l = 150, 6, 3
        spec = make_kernel(name, depth=depth, hidden_dim=5)
        for graph_seed in range(3):
            rng = np.random.default_rng(depth)
            g = random_graph(n, 180, graph_seed)
            x, yh = rng.random((n, f)) - 0.3, rng.random((n, l))
            w = ModelWeights.init(spec, f, l, graph_seed)
            gathered = khop_subgraph(g, rng.choice(n, 2, replace=False), depth)
            whole = khop_subgraph(g, rng.choice(n, (n // 2, n // 4, n // 10)[depth - 1],
                                                replace=False), depth)
            assert layer_rows(gathered, depth)[0] < WHOLE_GRAPH_FRACTION * n
            assert layer_rows(whole, depth)[0] >= WHOLE_GRAPH_FRACTION * n
            for sub in (gathered, whole):
                # the ball stops short of nodes it reaches: ball and graph degrees differ there
                offsets = sub.frontier_offsets
                assert len(offsets) == depth + 2 and offsets[-1] > offsets[-2]
            for channel, task in itertools.product((yh, None) if spec.uses_labels else (None,),
                                                   Task):
                want = dense_forward(spec, w, g, x, np.zeros((n, l)) if channel is None
                                     else channel, task)
                for rows, sub, grad in itertools.product((HIDDEN_BLOCK_ROWS, 16),
                                                         (gathered, whole), (True, False)):
                    monkeypatch.setattr(kernels_mod, "HIDDEN_BLOCK_ROWS", rows)
                    got, _ = predict(spec, w, sub, x, channel, task=task, grad=grad)
                    seeds = sub.global_ids[: sub.num_seeds]
                    np.testing.assert_allclose(got, want[seeds], rtol=0, atol=1e-13,
                                               err_msg=f"{graph_seed} {rows} {task} {grad}")


class TestMaxpool:
    def test_single_neighbor_identity(self):
        g = build_graph([(0, 1)], 2)
        sub = khop_subgraph(g, [0], 2)
        feats = np.array([[3.0, -1.0], [2.0, 7.0]])
        out = _maxpool_with_argmax(sub, feats, sub.n)[0]
        assert out[0].tolist() == [2.0, 7.0]
        assert out[1].tolist() == [3.0, -1.0]

    def test_elementwise_max(self):
        g = build_graph([(0, 1), (0, 2)], 3)
        sub = khop_subgraph(g, [0], 1)
        feats = np.zeros((3, 2))
        feats[sub.global_ids.tolist().index(1)] = [1.0, -2.0]
        feats[sub.global_ids.tolist().index(2)] = [0.0, 5.0]
        out = _maxpool_with_argmax(sub, feats, sub.n)[0]
        assert out[0].tolist() == [1.0, 5.0]

    def test_isolated_row_is_zero(self):
        g = build_graph([(0, 1)], 3)
        sub = khop_subgraph(g, [0, 1, 2], 1)
        out = _maxpool_with_argmax(sub, np.full((3, 2), -9.0), sub.n)[0]
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

    @pytest.mark.parametrize("alpha,beta", [(float("nan"), 1.0), (1.0, float("inf")),
                                            (float("inf"), 1.0)])
    def test_non_finite_rate_rejected(self, alpha, beta):
        with pytest.raises(ArgumentError, match="finite"):
            nim_relative_importance(alpha, beta, 2)

    def test_rates_whose_sum_overflows_keep_their_ratio(self):
        # 1e308 + 1e308 is inf in float64; both columns must still read 0.5 ** k
        header, rows = nim_decay_table(1e308, 1e308, 3, skip=True)
        assert header == ["k", "importance", "importance_skip"]
        assert rows == [[k, 0.5 ** k, 0.5 ** k] for k in range(4)]

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
        with pytest.raises(ArgumentError, match="unreadable .npz archive"):
            ModelWeights.load(tmp_path / "cut.bin", spec)
    for other in (make_kernel("gcn", depth=2, hidden_dim=4),      # tied names
                  make_kernel("gs_mean", depth=2, hidden_dim=8),  # wider layers
                  make_kernel("gs_mean", depth=3, hidden_dim=4)):  # deeper
        with pytest.raises(HopfError, match="does not fit"):
            ModelWeights.load(path, other)


@pytest.mark.parametrize("name", REGISTRY)
def test_snapshot_is_a_plain_npz_archive(tmp_path, name):
    w = ModelWeights.init(make_kernel(name, depth=2, hidden_dim=4), 5, 3, 0)
    w.save(tmp_path / "w.bin")
    assert [p.name for p in tmp_path.iterdir()] == ["w.bin"]
    with np.load(tmp_path / "w.bin", allow_pickle=False) as archive:
        assert archive.files == PARAM_NAMES[name]
        for member, a in w.params():
            assert archive[member].dtype == np.float64
            assert archive[member].tobytes() == a.tobytes() and archive[member].shape == a.shape


@pytest.mark.parametrize("mask", [0xFF, 0x01])
def test_damaged_snapshot_never_loads_other_weights(tmp_path, mask):
    # every byte flipped in turn, wholly and in its low bit: a flip either changes
    # nothing that loads (a zip timestamp, say) or ends in a HopfError
    spec = make_kernel("bl_node", depth=1, hidden_dim=2)
    w = ModelWeights.init(spec, 3, 2, 5)
    w.save(tmp_path / "w.bin")
    raw = (tmp_path / "w.bin").read_bytes()
    path, failed = tmp_path / "flip.bin", 0
    for i in range(len(raw)):
        path.write_bytes(raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:])
        try:
            back = ModelWeights.load(path, spec)
        except HopfError:
            failed += 1
            continue
        assert list(back.mats) == list(w.mats)
        for name, a in w.params():
            assert back.mats[name].dtype == a.dtype and back.mats[name].tobytes() == a.tobytes()
    assert failed > len(raw) // 2


def test_snapshot_header_claiming_fewer_rows_is_rejected(tmp_path):
    # zip checks a member's CRC-32 once it is read to its end, and it reads 4 KiB
    # ahead: a member larger than that whose row count is flipped lower must not
    # load as its first rows
    spec = make_kernel("bl_node", depth=1, hidden_dim=2)
    path = tmp_path / "w.bin"
    ModelWeights.init(spec, 300, 2, 5).save(path)
    raw = path.read_bytes()
    at = raw.index(b"'shape': (300, 2)") + len(b"'shape': (")
    path.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])  # (200, 2)
    with pytest.raises(ArgumentError, match="runs past its matrix"):
        ModelWeights.load(path, spec)


def _claiming(shape, descr="<f8", name="w0", data=bytes(64)):
    """A snapshot of ``_GOOD`` whose member ``name`` claims ``descr`` ``shape``
    over ``data``."""
    def write(fh):
        with zipfile.ZipFile(fh, "w") as archive:
            for other, a in _GOOD.items():
                with archive.open(f"{other}.npy", "w") as member:
                    if other != name:
                        np.lib.format.write_array(member, a)
                        continue
                    np.lib.format.write_array_header_1_0(
                        member, {"descr": descr, "fortran_order": False, "shape": shape})
                    member.write(data)
    return write


def _w0_twice(fh):
    """A snapshot of ``_GOOD`` followed by a second, well-formed ``w0`` member."""
    with warnings.catch_warnings(), zipfile.ZipFile(fh, "w") as archive:
        warnings.simplefilter("ignore")  # zipfile warns of the duplicate name
        for name, a in [*_GOOD.items(), ("w0", _GOOD["w0"] + 1.0)]:
            with archive.open(f"{name}.npy", "w") as member:
                np.lib.format.write_array(member, a)


def _savez(**arrays):
    return lambda fh: np.savez(fh, **arrays)


_GOOD = ModelWeights.init(make_kernel("bl_node", depth=1, hidden_dim=2), 3, 2, 5).mats


@pytest.mark.parametrize("write", [
    lambda fh: None,                                                     # empty
    lambda fh: fh.write(b"HOPFW001" + bytes(40)),                        # the old format
    lambda fh: np.save(fh, _GOOD["w0"]),                                 # a plain .npy
    _savez(**{**_GOOD, "w0": np.empty((3, 2), dtype=object)}),           # pickled objects
    _savez(**{**_GOOD, "w0": _GOOD["w0"].astype(np.float32)}),           # float32
    _savez(**{**_GOOD, "w0": _GOOD["w0"].ravel()}),                      # not a matrix
    _claiming((10**5, 10**5)),
    _claiming((10**4, 10**4)),
    _claiming((10**9, 0), data=b""),                                     # 10**9 features, 0 bytes
    _claiming((0, 10**9), name="wl", data=b""),                          # 10**9 labels, 0 bytes
    _claiming((10**9, 10**9), descr="|V0", data=b""),                    # 0-byte items
    _w0_twice,
], ids=["empty", "hopfw001", "npy", "object", "float32", "1d", "claims_1e10", "claims_1e8",
        "w0_no_cols", "wl_no_rows", "void", "repeated_w0"])
def test_foreign_snapshot_is_rejected_without_a_large_allocation(tmp_path, write):
    path = tmp_path / "w.bin"
    with open(path, "wb") as fh:
        write(fh)
    spec = make_kernel("bl_node", depth=1, hidden_dim=2)

    def load():
        with pytest.raises(ArgumentError, match=re.escape(str(path))):
            ModelWeights.load(path, spec)

    # numpy reports its array allocations to tracemalloc, untouched pages too, so
    # this bounds what the load could ever make resident
    _, peak, _ = traced_peak(load)
    assert peak < 4 * 2**20


def test_snapshot_is_checked_against_the_spec_without_building_its_weights(tmp_path):
    # a 160 kB w0 of 20000 rows by 1 column: weights for a 512-wide spec and that
    # many features would take 82 MB, and the check must not build them
    path = tmp_path / "w.bin"
    with open(path, "wb") as fh:
        np.savez(fh, w0=np.zeros((20000, 1)), wl=np.zeros((512, 2)))
    spec = make_kernel("bl_node", depth=1, hidden_dim=512)

    def load():
        with pytest.raises(ArgumentError, match="does not fit"):
            ModelWeights.load(path, spec)

    _, peak, _ = traced_peak(load)
    assert peak < 4 * 2**20


# a ball of the whole 20k-node ring, so the input layer multiplies all of x
_WHOLE_GRAPH_SETUP = """
import numpy as np
from hopf import ModelWeights, Task, backward, build_graph, khop_subgraph, make_kernel, predict
n, f = 20000, 100
g = build_graph([(i, (i + 1) % n) for i in range(n)], n)
x = np.random.default_rng(0).random((n, f))
sub = khop_subgraph(g, np.arange(n), 1)
spec = make_kernel("nip_mean", depth=1, hidden_dim=4)
w = ModelWeights.init(spec, f, 3, 0)
"""


def test_whole_graph_input_layer_copies_no_x_in_blas():
    # with two threads OpenBLAS packs the whole left operand of a product
    # into buffers it maps itself, which tracemalloc never sees: as x @ w0
    # that copied all of x, about 16 MB here; the rest of the call takes under 6 MB
    growth, _ = blas_peak_growth(_WHOLE_GRAPH_SETUP, """
y, cache = predict(spec, w, sub, x, task=Task.MULTI_CLASS)
backward(cache, np.ones_like(y))
""")
    x_bytes = 20000 * 100 * 8
    assert growth < x_bytes / 2, f"peak RSS grew by {growth / 1e6:.1f} MB"


# 30 C=2 balls of about 1k-19k rows on a 20k-node graph of mean degree 10; prints the
# most bytes a step on any of them holds by estimate_batch_bytes' count
_VARIED_BALLS_SETUP = """
import numpy as np
from hopf import (DatasetBundle, ModelWeights, Task, backward, build_graph, khop_subgraph,
                  make_kernel, predict)
from hopf.bench import estimate_batch_bytes
n, f, l = 20000, 8, 3
rng = np.random.default_rng(0)
g = build_graph(rng.integers(n, size=(5 * n, 2)), n)
x = rng.random((n, f))
bundle = DatasetBundle(g, x, np.zeros((n, l)), Task.MULTI_CLASS, "varied")
spec = make_kernel("nip_mean", depth=2, hidden_dim=16)
w = ModelWeights.init(spec, f, l, 0)
subs = [khop_subgraph(g, rng.choice(n, size=s, replace=False), 2)
        for s in np.geomspace(10, 600, 30).astype(int)]
print(min(s.n for s in subs), max(s.n for s in subs))
print(max(estimate_batch_bytes(spec, s, bundle) for s in subs))
"""


def test_hidden_products_keep_blas_workspace_small_as_balls_vary():
    # OpenBLAS touches new pages of its pack buffers as a product's row count
    # changes; plain products over these balls grew the peak about 17 MiB
    # beyond the steps' own arrays, row blocks about 4 MiB
    growth, (sizes, own) = blas_peak_growth(_VARIED_BALLS_SETUP, """
for sub in subs:
    y, cache = predict(spec, w, sub, x, task=Task.MULTI_CLASS)
    backward(cache, np.ones_like(y))
""")
    smallest, largest = map(int, sizes.split())
    assert smallest < 1500 and largest > 15000
    beyond = growth - int(own)
    assert beyond < 8 * 2**20, f"peak RSS grew {beyond / 2**20:.1f} MiB beyond the steps' arrays"


_B = HIDDEN_BLOCK_ROWS


@pytest.mark.parametrize("m", [1, 2, _B - 1, _B, _B + 1, _B + 2, 2 * _B + 1, 13128, 20000])
def test_hidden_product_is_the_plain_product_bit_for_bit(m):
    # a short block would make OpenBLAS switch kernels and change last bits
    rng = np.random.default_rng(m)
    # (fan-in, width): forward 16 and 32 wide, the backward W.T of a concat
    # layer, and a label half 10 -> 16
    for k, n in ((16, 16), (32, 16), (16, 32), (10, 16)):
        a = rng.standard_normal((m, 2 * k))
        # C- and F-ordered operands, and a column block such as a concat layer's gradient
        for left in (np.ascontiguousarray(a[:, :k]), np.asfortranarray(a[:, :k]), a[:, :k]):
            for w in (rng.standard_normal((k, n)), rng.standard_normal((n, k)).T):
                got = _hidden_product(left, w)
                assert got.flags.c_contiguous
                assert got.tobytes() == (left @ w).tobytes(), (m, k, n)
                # a label-concat layer's [h | yhat] @ W, its 10-wide label half added per block
                labels, w_labels = rng.random((m, 10)), rng.standard_normal((10, n))
                whole = _hidden_product(left, w) + _hidden_product(labels, w_labels)
                got = _hidden_product(left, w, (labels, w_labels))
                assert got.tobytes() == whole.tobytes(), (m, k, n)

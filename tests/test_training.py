import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopf.training as training_mod
from hopf import (ArgumentError, ConfigError, DatasetBundle, EarlyStopState, Task, TrainConfig,
                  TrainingError, evaluate, gen_benchmark_graph, gen_planted_partition, infer,
                  khop_subgraph, make_kernel, make_splits, row_normalize, train)
from hopf.bench import estimate_batch_bytes
from hopf.kernels import REGISTRY, WHOLE_GRAPH_FRACTION, ModelWeights, layer_rows
from hopf.numerics import AdamState
from hopf.training import SplitSpec, split_folds, train_step

from conftest import random_graph, traced_peak


def planted(seed, noise=0.4, n=400):
    bundle = gen_planted_partition(n, 4, 0.3, 0.01, noise, rng_seed=seed)
    bundle.x = row_normalize(bundle.x)
    return bundle


def quick_config(seed=0, **over):
    # tiny 8-node training splits can miss a class, so weighting stays off here
    base = dict(batch_size=128, hidden_dim=8, learning_rate=1e-2, max_epochs=8,
                use_wce=False, rng_seed=seed, patience=100, min_epochs=1)
    base.update(over)
    return TrainConfig(**base)


SPLIT_PARTS = ("train_nodes", "val_nodes", "test_nodes", "unlabeled_nodes")


class TestMakeSplits:
    def test_fraction_arithmetic_n100(self):
        folds = make_splits(100, rng_seed=0)
        assert len(folds) == 5
        for fold in folds:
            assert fold.test_nodes.size == 20
            assert fold.train_nodes.size == 8
            assert fold.val_nodes.size == 2
            assert fold.unlabeled_nodes.size == 70

    def test_shared_test_set(self):
        folds = make_splits(200, rng_seed=1)
        first = folds[0].test_nodes.tolist()
        assert all(f.test_nodes.tolist() == first for f in folds)

    def test_deterministic(self):
        a = make_splits(150, rng_seed=9)
        b = make_splits(150, rng_seed=9)
        for fa, fb in zip(a, b):
            assert fa.train_nodes.tolist() == fb.train_nodes.tolist()
            assert fa.val_nodes.tolist() == fb.val_nodes.tolist()

    def test_disjoint_and_labeled_fraction(self):
        for fold in make_splits(230, rng_seed=3):
            parts = np.concatenate([fold.train_nodes, fold.val_nodes,
                                    fold.test_nodes, fold.unlabeled_nodes])
            assert np.unique(parts).size == parts.size == 230
            assert fold.train_nodes.size + fold.val_nodes.size == 23

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            make_splits(9, rng_seed=0)

    def test_every_split_has_a_validation_set(self):
        # below 50 nodes the n // 10 // 5 validation nodes would be none, and train
        # would run with no validation loss for patience or early stopping to read
        assert all(fold.val_nodes.size == 1 for fold in make_splits(50, rng_seed=0))
        with pytest.raises(ConfigError, match="need n >= 50"):
            make_splits(49, rng_seed=0)

    def test_fold_does_not_depend_on_fold_count(self):
        # folds are drawn in turn from one rng, so the first k do not depend on k
        few, many = make_splits(180, rng_seed=4, num_folds=2), make_splits(180, rng_seed=4)
        for a, b in zip(few, many):
            for part in SPLIT_PARTS:
                assert np.array_equal(getattr(a, part), getattr(b, part))

    @pytest.mark.parametrize("fold", [0, 1, 7])
    def test_single_fold_from_the_generator_is_the_listed_fold(self, fold):
        # `hopf --fold F` and `neighbor-fraction --fold F` take fold F this way,
        # and it must be the fold that `train` writes as fold F
        single = next(itertools.islice(split_folds(230, 5), fold, None))
        listed = make_splits(230, 5, num_folds=fold + 1)[fold]
        for part in SPLIT_PARTS:
            a, b = getattr(single, part), getattr(listed, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_single_fold_memory_is_flat_in_the_fold(self):
        # listing F + 1 folds held every earlier fold: about 3.4 KB each at n=400
        def peak(fold):
            return traced_peak(lambda: next(itertools.islice(split_folds(400, 0), fold, None)))[1]
        assert peak(1000) < 1.5 * peak(10)


class TestEarlyStopState:
    def test_improvement_resets_patience(self):
        s = EarlyStopState(patience_budget=3, lr_current=0.1)
        assert s.observe(1.0) == "improved"
        assert s.observe(1.1) == "waiting"
        assert s.observe(0.9) == "improved"
        assert s.patience_remaining == 3
        assert s.consecutive_exhaustions == 0

    def test_exhaustion_halves_lr_and_patience(self):
        s = EarlyStopState(patience_budget=2, lr_current=0.1)
        s.observe(1.0)
        assert s.observe(1.5) == "waiting"
        assert s.observe(1.5) == "annealed"
        assert s.lr_current == 0.05
        assert s.patience_budget == 1

    def test_two_consecutive_exhaustions_stop(self):
        s = EarlyStopState(patience_budget=1, lr_current=0.1)
        s.observe(1.0)
        assert s.observe(1.2) == "annealed"
        assert s.observe(1.2) == "stop"
        assert s.stopped

    def test_improvement_breaks_the_streak(self):
        s = EarlyStopState(patience_budget=1, lr_current=0.1)
        s.observe(1.0)
        s.observe(1.2)          # annealed, one exhaustion
        s.observe(0.5)          # improved
        assert s.consecutive_exhaustions == 0
        s.observe(0.9)          # annealed again, still only one in a row
        assert not s.stopped
        assert s.lr_current == 0.025

    def test_lr_sequence_is_halving(self):
        s = EarlyStopState(patience_budget=1, lr_current=1.0)
        s.observe(1.0)
        seen = [s.lr_current]
        for loss in (2.0, 1.5, 2.0, 1.4, 2.0):  # alternate exhaustion/improvement
            s.observe(loss)
            seen.append(s.lr_current)
        distinct = sorted(set(seen), reverse=True)
        for a, b in zip(distinct, distinct[1:]):
            assert b == a / 2


class TestTrainLoop:
    def test_refuses_a_split_without_validation_nodes(self):
        bundle = gen_planted_partition(100, 2, 0.3, 0.05, 0.4, rng_seed=0)
        split = make_splits(100, rng_seed=0)[0]
        no_val = SplitSpec(train_nodes=np.concatenate([split.train_nodes, split.val_nodes]),
                           val_nodes=split.val_nodes[:0], test_nodes=split.test_nodes,
                           unlabeled_nodes=split.unlabeled_nodes)
        with pytest.raises(ConfigError, match="training and validation nodes, got 10 and 0"):
            train(make_kernel("nip_mean", depth=1, hidden_dim=4), bundle, no_val,
                  TrainConfig(hidden_dim=4, max_epochs=1, min_epochs=1))

    def test_zero_learning_rate_freezes_weights(self):
        bundle = planted(0, n=100)
        split = make_splits(100, rng_seed=0)[0]
        spec = make_kernel("gcn_mean", depth=2, hidden_dim=8)
        init = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, 5)
        snapshot = init.copy()
        weights, _ = train(spec, bundle, split, quick_config(learning_rate=0.0, max_epochs=3),
                           init_weights=init)
        for (_, a), (_, b) in zip(weights.params(), snapshot.params()):
            assert np.array_equal(a, b)

    def test_loss_strictly_decreases_on_separable_features(self):
        bundle = gen_planted_partition(200, 4, 0.2, 0.01, 0.0, rng_seed=7)
        bundle.x = row_normalize(bundle.x)
        split = make_splits(200, rng_seed=7)[0]
        cfg = TrainConfig(batch_size=128, hidden_dim=16, learning_rate=1e-2,
                          max_epochs=10, use_wce=True, rng_seed=7,
                          patience=100, min_epochs=1)
        _, hist = train(make_kernel("bl_node", depth=2, hidden_dim=16), bundle, split, cfg)
        losses = [h["train_loss"] for h in hist]
        assert len(losses) == 10
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_one_update_per_epoch_when_batch_covers_train(self, monkeypatch):
        calls = []
        real = training_mod.adam_step

        def counting(param, grad, state, lr):
            calls.append(state.step_count)
            return real(param, grad, state, lr)

        monkeypatch.setattr(training_mod, "adam_step", counting)
        bundle = planted(1, n=100)
        split = make_splits(100, rng_seed=1)[0]
        spec = make_kernel("nip_mean", depth=1, hidden_dim=4)
        cfg = quick_config(seed=1, batch_size=512, max_epochs=4, hidden_dim=4)
        weights, _ = train(spec, bundle, split, cfg)
        assert len(calls) == 4 * len(weights.params())

    def test_divergence_raises_with_location(self):
        bundle = planted(2, n=100)
        split = make_splits(100, rng_seed=2)[0]
        spec = make_kernel("nip_mean", depth=1, hidden_dim=4)
        bad = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, 0)
        bad.w0[0, 0] = np.inf
        with pytest.raises(TrainingError) as err, np.errstate(invalid="ignore"):
            train(spec, bundle, split, quick_config(hidden_dim=4), init_weights=bad)
        assert err.value.epoch == 1

    def test_never_stops_before_min_epochs(self):
        bundle = planted(3, n=100)
        split = make_splits(100, rng_seed=3)[0]
        spec = make_kernel("nip_mean", depth=1, hidden_dim=4)
        cfg = quick_config(seed=3, hidden_dim=4, learning_rate=0.0, max_epochs=60,
                           patience=1, min_epochs=20)
        _, hist = train(spec, bundle, split, cfg)
        # constant val loss exhausts patience immediately, yet the floor holds
        assert len(hist) == 20

    def test_stops_after_two_exhaustions_past_floor(self):
        bundle = planted(3, n=100)
        split = make_splits(100, rng_seed=3)[0]
        spec = make_kernel("nip_mean", depth=1, hidden_dim=4)
        cfg = quick_config(seed=3, hidden_dim=4, learning_rate=0.0, max_epochs=60,
                           patience=1, min_epochs=1)
        _, hist = train(spec, bundle, split, cfg)
        assert len(hist) == 3  # improved, annealed, stop

    def test_sampled_training_is_deterministic(self):
        bundle = planted(4, n=100)
        split = make_splits(100, rng_seed=4)[0]
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        outs = []
        for _ in range(2):
            w, _ = train(spec, bundle, split, quick_config(seed=4, hidden_dim=4, max_epochs=3),
                         sample_caps=[3, 3])
            outs.append(w)
        for (_, a), (_, b) in zip(outs[0].params(), outs[1].params()):
            assert np.array_equal(a, b)

    def test_sampled_batches_draw_distinct_streams(self, monkeypatch):
        # every (epoch, batch) samples its ball from its own stream, apart from
        # the epoch's batch order and the batch's dropout masks
        streams = []
        real = training_mod.sample_neighbors

        def recording(graph, caps, seeds, rng_seed):
            streams.append(np.random.default_rng(rng_seed).random(4).tobytes())
            return real(graph, caps, seeds, rng_seed)

        monkeypatch.setattr(training_mod, "sample_neighbors", recording)
        bundle = planted(4, n=100)
        split = make_splits(100, rng_seed=4)[0]
        cfg = quick_config(seed=4, hidden_dim=4, batch_size=4, max_epochs=2)
        train(make_kernel("nip_mean", depth=2, hidden_dim=4), bundle, split, cfg,
              sample_caps=[3, 3])
        batches = -(-split.train_nodes.size // cfg.batch_size)
        assert batches >= 2 and len(streams) == 2 * batches
        others = {np.random.default_rng(np.random.SeedSequence(key)).random(4).tobytes()
                  for epoch in (1, 2)
                  for key in [(4, epoch)] + [(4, epoch, b) for b in range(batches)]}
        assert len(set(streams)) == len(streams)
        assert not set(streams) & others

    def test_spec_and_config_must_agree_on_hidden_width(self):
        bundle = planted(2, n=100)
        split = make_splits(100, rng_seed=2)[0]
        with pytest.raises(ConfigError, match="4.*64"):
            train(make_kernel("nip_mean", depth=1, hidden_dim=4), bundle, split,
                  quick_config(hidden_dim=64))

    def test_dropout_training_reproducible(self):
        bundle = planted(6, n=100)
        split = make_splits(100, rng_seed=6)[0]
        spec = make_kernel("gs_mean", depth=2, hidden_dim=4)
        runs = []
        for _ in range(2):
            w, _ = train(spec, bundle, split,
                         quick_config(seed=6, hidden_dim=4, max_epochs=3, dropout_rate=0.5))
            runs.append(w)
        for (_, a), (_, b) in zip(runs[0].params(), runs[1].params()):
            assert np.array_equal(a, b)

    def test_benchmark_epoch_runs_the_training_step(self, monkeypatch):
        # bench.time_epoch trains through hopf.training's step, so its forward
        # passes get the config's dropout just as train's do
        from hopf.bench import time_epoch

        real, rates = training_mod.predict, []

        def recording(*args, dropout_rate=0.0, **kwargs):
            rates.append(dropout_rate)
            return real(*args, dropout_rate=dropout_rate, **kwargs)

        monkeypatch.setattr(training_mod, "predict", recording)
        bundle = planted(8, n=100)
        split = make_splits(100, rng_seed=8)[0]
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        cfg = quick_config(seed=8, hidden_dim=4, batch_size=4, dropout_rate=0.5)
        time_epoch(spec, bundle, split.train_nodes, cfg, budget_bytes=None, epoch_seed=0)
        assert rates == [0.5] * (split.train_nodes.size // 4)

    @pytest.mark.parametrize("name", ["ss_ica", "i_nip_mean"])
    def test_no_label_channel_trains_as_a_zero_channel(self, name):
        # train reads round one's all-zero channel when given none: the same weights and
        # history, bit for bit, as an explicit zero matrix, with dropout and L2 drawing on
        # every step
        bundle = planted(9, n=200)
        split = make_splits(200, rng_seed=9)[0]
        spec = make_kernel(name, depth=2, hidden_dim=4)
        cfg = quick_config(seed=9, hidden_dim=4, batch_size=8, dropout_rate=0.2, l2_weight=1e-3)
        runs = [train(spec, bundle, split, cfg, yhat=yhat)
                for yhat in (None, np.zeros_like(bundle.y))]
        (w_none, h_none), (w_zero, h_zero) = runs
        assert h_none == h_zero
        for (pname, a), (_, b) in zip(w_none.params(), w_zero.params()):
            assert np.array_equal(a, b), pname

    def test_benchmark_cells_read_the_zero_channel(self, monkeypatch):
        # run_scaling's steps get no label channel; each batch loss and each cell's
        # status and footprint equal those of steps given an explicit zero matrix
        import hopf.bench as bench_mod

        real, losses = bench_mod.train_step, []

        def recording(spec, weights, adam, sub, bundle, yhat, *rest, **kwargs):
            assert yhat is None
            if zero:
                yhat = np.zeros_like(bundle.y)
            losses[-1].append(real(spec, weights, adam, sub, bundle, yhat, *rest, **kwargs))
            return losses[-1][-1]

        monkeypatch.setattr(bench_mod, "train_step", recording)
        bundle = planted(10, n=200)
        split = make_splits(200, rng_seed=10)[0]
        cfg = quick_config(seed=10, hidden_dim=4, batch_size=8, dropout_rate=0.2)
        cells = []
        for zero in (False, True):
            losses.append([])
            cells.append([(c.status, c.batch_bytes) for c in bench_mod.run_scaling(
                bundle, split, ["i_nip_mean_c1", "nip_mean"], [1, 2], 1, cfg)])
        assert cells[0] == cells[1] and {s for s, _ in cells[0]} == {"ok"}
        assert len(losses[0]) > 0 and losses[0] == losses[1]


def step_on(spec, bundle, config=TrainConfig()):
    """``train_step`` on a ball, as one batch of ``train``; returns the ball."""
    weights = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, config.rng_seed)
    adam = {name: AdamState.for_param(p) for name, p in weights.params()}

    def step(sub):
        train_step(spec, weights, adam, sub, bundle, None, np.ones(bundle.num_labels), config,
                   config.learning_rate, epoch=1, batch=0)
        return sub

    return step


class TestStepMemory:
    def test_step_peak_is_a_few_layers_wide(self):
        # a 128-seed nip_mean C=3 ball covering the graph, as on full_k3 (input layer in
        # whole-graph form). In units U = rows[0]*hidden*8 the forward cache is about 2.9U
        # (activations 2.6U and the ReLU masks; backward weights each layer's block of the
        # normalized adjacency when it reaches it), and backward adds at most a layer's
        # gradient, the layer below's gradient, the aggregated neighbor term and its
        # product: about 6U in all. Allocating every layer's gradient up front and
        # masking into new arrays adds about 3U more.
        bundle = gen_benchmark_graph(2000, 10_000, 50, 10, rng_seed=0)
        seeds = np.random.default_rng(0).choice(2000, 128, replace=False)
        spec = make_kernel("nip_mean", depth=3, hidden_dim=16)
        sub = khop_subgraph(bundle.graph, seeds, spec.depth)
        rows = layer_rows(sub, spec.depth)
        assert rows[0] >= WHOLE_GRAPH_FRACTION * bundle.graph.n
        step = step_on(spec, replace(bundle, task=Task.MULTI_LABEL))
        step(sub)  # first call: lazy imports and caches
        _, peak, _ = traced_peak(lambda: step(sub))
        assert peak < 8.5 * rows[0] * spec.hidden_dim * 8

    @pytest.mark.parametrize("name,depth", [("nip_mean", 1), ("nip_mean", 2), ("nip_mean", 3),
                                            ("i_nip_mean", 1), ("i_nip_mean", 2)])
    @pytest.mark.parametrize("whole_graph", [False, True], ids=["gathered", "whole-graph"])
    def test_batch_estimate_tracks_the_traced_peak(self, name, depth, whole_graph):
        # the models bench-scaling runs; 32 seeds of a sparse graph keep the ball under
        # WHOLE_GRAPH_FRACTION, half the nodes put it over
        n = 3000
        graph = random_graph(n, 4000, 5)
        rng = np.random.default_rng(5)
        x, y = rng.random((n, 100)), (rng.random((n, 10)) < 0.3).astype(np.float64)
        seeds = rng.choice(n, n // 2 if whole_graph else 32, replace=False)
        spec = make_kernel(name, depth=depth)
        bundle = DatasetBundle(graph, x, y, Task.MULTI_LABEL, "random")
        step = step_on(spec, bundle)
        step(khop_subgraph(graph, seeds, depth))  # first call: lazy imports and caches
        sub, peak, _ = traced_peak(lambda: step(khop_subgraph(graph, seeds, depth)))
        assert (layer_rows(sub, depth)[0] >= WHOLE_GRAPH_FRACTION * n) == whole_graph
        estimate = estimate_batch_bytes(spec, sub, bundle)
        assert 0.5 * peak <= estimate <= 2 * peak


class _RowLogger(np.ndarray):
    """ndarray that records every row index pulled out via fancy indexing."""

    def __new__(cls, arr):
        obj = np.asarray(arr).view(cls)
        obj.seen = set()
        return obj

    def __getitem__(self, idx):
        if isinstance(idx, np.ndarray) and idx.dtype != bool:
            self.seen.update(np.atleast_1d(idx).ravel().tolist())
        out = super().__getitem__(idx)
        return np.asarray(out)


class TestLabelIsolation:
    def test_gradient_path_never_reads_heldout_labels(self):
        bundle = planted(8, n=120)
        split = make_splits(120, rng_seed=8)[0]
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        cfg = quick_config(seed=8, hidden_dim=4, max_epochs=4)

        poisoned = bundle.y.copy()
        poisoned[split.test_nodes] = np.nan
        poisoned[split.unlabeled_nodes] = np.nan
        clean_w, _ = train(spec, bundle, split, cfg)
        poisoned_w, _ = train(spec, replace(bundle, y=poisoned), split, cfg)
        for (_, a), (_, b) in zip(clean_w.params(), poisoned_w.params()):
            assert np.array_equal(a, b)

    def test_updates_independent_of_validation_labels(self):
        bundle = planted(9, n=120)
        split = make_splits(120, rng_seed=9)[0]
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        cfg = quick_config(seed=9, hidden_dim=4, max_epochs=5, use_wce=False)

        flipped = bundle.y.copy()
        flipped[split.val_nodes] = np.roll(flipped[split.val_nodes], 1, axis=1)
        # patience is large, so early stopping cannot change the trajectory;
        # the final (last-epoch) weights must be bitwise identical
        w_a, hist_a = train(spec, bundle, split, cfg)
        w_b, hist_b = train(spec, replace(bundle, y=flipped), split, cfg)
        assert [h["train_loss"] for h in hist_a] == [h["train_loss"] for h in hist_b]
        assert [h["val_loss"] for h in hist_a] != [h["val_loss"] for h in hist_b]

    def test_label_read_set_is_train_and_val_only(self):
        bundle = planted(10, n=120)
        split = make_splits(120, rng_seed=10)[0]
        spec = make_kernel("nip_mean", depth=2, hidden_dim=4)
        logger = _RowLogger(bundle.y)
        train(spec, replace(bundle, y=logger), split,
              quick_config(seed=10, hidden_dim=4, max_epochs=3))
        allowed = set(split.train_nodes.tolist()) | set(split.val_nodes.tolist())
        assert logger.seen <= allowed


class TestEvaluate:
    def test_overfit_model_scores_one_on_train(self):
        bundle = gen_planted_partition(50, 2, 0.3, 0.05, 0.0, rng_seed=3)
        bundle.x = row_normalize(bundle.x)
        split = make_splits(50, rng_seed=3)[0]
        spec = make_kernel("bl_node", depth=1, hidden_dim=8)
        cfg = TrainConfig(batch_size=64, hidden_dim=8, learning_rate=1e-2, max_epochs=150,
                          use_wce=False, rng_seed=3, patience=1000, min_epochs=1)
        w, _ = train(spec, bundle, split, cfg)
        ev = evaluate(spec, w, bundle, split.train_nodes)
        assert ev["micro_f1"] == 1.0

    def test_empty_node_set_rejected(self):
        bundle = planted(11, n=100)
        spec = make_kernel("bl_node", depth=1, hidden_dim=4)
        w = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, 0)
        with pytest.raises(ArgumentError):
            evaluate(spec, w, bundle, np.array([], dtype=int))

    def test_repeated_calls_identical(self):
        bundle = planted(12, n=100)
        split = make_splits(100, rng_seed=12)[0]
        spec = make_kernel("gcn", depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, 1)
        a = evaluate(spec, w, bundle, split.test_nodes)
        b = evaluate(spec, w, bundle, split.test_nodes)
        assert a["micro_f1"] == b["micro_f1"]
        assert np.array_equal(a["predictions"], b["predictions"])

    @pytest.mark.parametrize("name", ["ss_ica", "i_nip_mean"])
    def test_label_kernels_read_the_zero_channel(self, name):
        # evaluate passes no channel; its predictions equal inference at an explicit
        # zero matrix bit for bit
        bundle = planted(13, n=100)
        split = make_splits(100, rng_seed=13)[0]
        spec = make_kernel(name, depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, 2)
        ev = evaluate(spec, w, bundle, split.test_nodes)
        zero = infer(spec, w, bundle, split.test_nodes, np.zeros_like(bundle.y))
        assert np.array_equal(ev["predictions"], zero)


class TestInfer:
    @pytest.mark.parametrize("name", REGISTRY)
    @pytest.mark.parametrize("task", [Task.MULTI_CLASS, Task.MULTI_LABEL])
    @pytest.mark.parametrize("with_labels", [True, False])
    @settings(max_examples=8)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           size=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=4))
    def test_rows_do_not_depend_on_batchmates(self, name, task, with_labels,
                                              seed, depth, size, cuts):
        # a node's prediction is the same in the whole set, in any permutation
        # of it and in any part of any split of it; large sets take the
        # whole-graph input layer and small parts gather their rows, so rows
        # of both forms meet here (test_whole_graph_and_gathered_inputs_agree
        # pins both sides for every kernel)
        rng = np.random.default_rng(seed)
        g = random_graph(40, 70, seed)
        spec = make_kernel(name, depth=depth, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, seed)
        x = rng.random((g.n, 5))
        if with_labels:
            yhat = rng.random((g.n, 3))
        else:
            yhat = np.zeros((g.n, 3)) if spec.uses_labels else None
        nodes = rng.choice(g.n, size=size, replace=False)
        bundle = DatasetBundle(g, x, np.zeros((g.n, 3)), task, "random")
        whole = infer(spec, w, bundle, nodes, yhat)
        assert whole.shape == (size, 3)

        perm = rng.permutation(size)
        assert np.allclose(infer(spec, w, bundle, nodes[perm], yhat), whole[perm],
                           rtol=0.0, atol=1e-12)
        parts = np.split(nodes, sorted({c for c in cuts if c < size}))
        pieces = np.vstack([infer(spec, w, bundle, p, yhat) for p in parts])
        assert np.allclose(pieces, whole, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", REGISTRY)
    def test_whole_graph_and_gathered_inputs_agree(self, name):
        # the whole node set's ball covers the graph, so its input layer
        # multiplies all of x; each node alone has a ball below
        # WHOLE_GRAPH_FRACTION of the graph, so it gathers its rows
        rng = np.random.default_rng(3)
        g = random_graph(40, 50, 3)
        spec = make_kernel(name, depth=2, hidden_dim=4)
        w = ModelWeights.init(spec, 5, 3, 3)
        x = rng.random((g.n, 5))
        yhat = rng.random((g.n, 3))
        nodes = np.arange(g.n)
        assert layer_rows(khop_subgraph(g, nodes, spec.depth), spec.depth)[0] == g.n
        bundle = DatasetBundle(g, x, np.zeros((g.n, 3)), Task.MULTI_LABEL, "random")
        whole = infer(spec, w, bundle, nodes, yhat)
        for v in nodes:
            ball = khop_subgraph(g, [v], spec.depth)
            assert layer_rows(ball, spec.depth)[0] < WHOLE_GRAPH_FRACTION * g.n
            alone = infer(spec, w, bundle, nodes[v : v + 1], yhat)
            assert np.allclose(alone, whole[v : v + 1], rtol=0.0, atol=1e-12)

    def test_repeated_nodes_rejected(self):
        bundle = planted(13, n=100)
        spec = make_kernel("nip_mean", depth=1, hidden_dim=4)
        w = ModelWeights.init(spec, bundle.num_features, bundle.num_labels, 0)
        with pytest.raises(ArgumentError):
            infer(spec, w, bundle, np.array([3, 5, 3]))


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(dropout_rate=1.0)
    for name in ("rng_seed", "patience", "min_epochs"):
        with pytest.raises(ConfigError, match=f"{name} must be >= 0, got -1"):
            TrainConfig(**{name: -1})
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"nonsense": 1})
    # integer fields take ints only, number fields finite ints or floats, use_wce a bool
    for bad in ({"hidden_dim": 1.5}, {"max_epochs": True}, {"patience": np.int64(3)},
                {"learning_rate": float("nan")}, {"l2_weight": float("inf")},
                {"dropout_rate": "0.1"}, {"use_wce": 1}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            TrainConfig(**bad)
    assert TrainConfig(learning_rate=1, l2_weight=np.float64(0.5)).learning_rate == 1

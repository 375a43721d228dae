from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopf import (ArgumentError, ConfigError, Task, average_rank, binarize_predictions,
                  finite_diff_grad, micro_f1, shortfall, wce_weights, weighted_cross_entropy)
from hopf.metrics import MetricsRecord, read_scores_csv, write_records_csv


class TestWceWeights:
    def test_balanced_is_all_ones(self):
        assert wce_weights([10, 10, 10]).tolist() == [1.0, 1.0, 1.0]

    def test_imbalanced(self):
        w = wce_weights([10, 30, 60])
        assert w == pytest.approx([10 / 3, 10 / 9, 5 / 9])

    def test_single_label(self):
        assert wce_weights([17]).tolist() == [1.0]

    def test_zero_count_has_remediation_hint(self):
        with pytest.raises(ConfigError, match="training"):
            wce_weights([5, 0, 3])

    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=8))
    def test_weighted_mass_conservation(self, counts):
        # sum_i N_i * omega_i == sum_j N_j; check the identity in exact
        # rationals, and the float evaluation against it
        w = wce_weights(counts)
        exact = sum(Fraction(n) * (Fraction(sum(counts)) / (len(counts) * Fraction(n)))
                    for n in counts)
        assert exact == sum(counts)
        assert float(np.dot(w, counts)) == pytest.approx(sum(counts), rel=1e-12)


class TestWeightedCrossEntropy:
    def test_perfect_one_hot_is_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, _ = weighted_cross_entropy(y, y, np.ones(2), Task.MULTI_CLASS)
        assert 0.0 <= loss < 1e-10

    def test_uniform_four_class_is_log4(self):
        pred = np.full((3, 4), 0.25)
        truth = np.zeros((3, 4))
        truth[:, 1] = 1.0
        loss, _ = weighted_cross_entropy(pred, truth, np.ones(4), Task.MULTI_CLASS)
        assert loss == pytest.approx(np.log(4))

    def test_clamp_never_nan(self):
        pred = np.array([[0.0, 1.0]])
        truth = np.array([[1.0, 0.0]])
        loss, grad = weighted_cross_entropy(pred, truth, np.ones(2), Task.MULTI_LABEL)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    @pytest.mark.parametrize("task", [Task.MULTI_CLASS, Task.MULTI_LABEL])
    def test_gradient_matches_finite_differences(self, task):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.05, 0.95, size=(4, 3))
        if task == Task.MULTI_CLASS:
            pred = pred / pred.sum(axis=1, keepdims=True)
            truth = np.zeros((4, 3))
            truth[np.arange(4), rng.integers(3, size=4)] = 1.0
        else:
            truth = (rng.random((4, 3)) < 0.5).astype(float)
        omega = wce_weights(truth.sum(axis=0) + 1)
        _, grad = weighted_cross_entropy(pred, truth, omega, task)
        fd = finite_diff_grad(
            lambda p: weighted_cross_entropy(p, truth, omega, task)[0], pred, eps=1e-6)
        assert np.max(np.abs(grad - fd)) < 1e-7

    def test_weights_scale_positive_terms(self):
        pred = np.array([[0.5, 0.5]])
        truth = np.array([[1.0, 0.0]])
        l1, _ = weighted_cross_entropy(pred, truth, np.array([1.0, 1.0]), Task.MULTI_LABEL)
        l2, _ = weighted_cross_entropy(pred, truth, np.array([2.0, 2.0]), Task.MULTI_LABEL)
        # only the positive-label term doubles
        assert l2 == pytest.approx(l1 + np.log(2) / 2)


class TestMicroF1:
    def test_perfect(self):
        y = np.array([[1, 0], [0, 1]])
        assert micro_f1(y, y) == 1.0

    def test_hand_counted(self):
        truth = np.array([[1, 0], [1, 1]])  # n1:{a}, n2:{a,b}
        pred = np.array([[1, 0], [1, 0]])   # n1:{a}, n2:{a}
        assert micro_f1(pred, truth) == pytest.approx(0.8)

    def test_disjoint(self):
        truth = np.array([[1, 0]])
        pred = np.array([[0, 1]])
        assert micro_f1(pred, truth) == 0.0

    def test_all_negative_convention(self):
        z = np.zeros((3, 2))
        assert micro_f1(z, z) == 1.0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        truth = (rng.random((6, 4)) < 0.4).astype(int)
        pred = (rng.random((6, 4)) < 0.4).astype(int)
        rows = rng.permutation(6)
        cols = rng.permutation(4)
        assert micro_f1(pred, truth) == micro_f1(pred[rows][:, cols], truth[rows][:, cols])

    def test_binarize_multiclass_argmax(self):
        probs = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        assert binarize_predictions(probs, Task.MULTI_CLASS).tolist() == [[0, 1, 0], [1, 0, 0]]

    def test_binarize_multilabel_threshold(self):
        probs = np.array([[0.49, 0.5, 0.51]])
        assert binarize_predictions(probs, Task.MULTI_LABEL).tolist() == [[0, 1, 1]]


class TestShortfallAndRank:
    def test_best_everywhere_is_zero(self):
        scores = {"a": {"d1": 90.0, "d2": 80.0}, "b": {"d1": 85.0, "d2": 70.0}}
        assert shortfall(scores)["a"] == 0.0

    def test_two_models_one_dataset(self):
        sf = shortfall({"a": {"d": 80.0}, "b": {"d": 40.0}})
        assert sf == {"a": 0.0, "b": pytest.approx(0.5)}

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(0)
        scores = {f"m{i}": {f"d{j}": float(rng.uniform(10, 90)) for j in range(4)}
                  for i in range(5)}
        sf = shortfall(scores)
        assert all(0.0 <= v < 1.0 for v in sf.values())
        assert min(sf.values()) >= 0.0

    def test_zero_best_rejected(self):
        with pytest.raises(ArgumentError):
            shortfall({"a": {"d": 0.0}, "b": {"d": 0.0}})

    def test_rank_single_dataset(self):
        ranks = average_rank({"a": {"d": 3.0}, "b": {"d": 1.0}, "c": {"d": 2.0}})
        assert ranks == {"a": 1.0, "b": 3.0, "c": 2.0}

    def test_rank_ties_share_midrank(self):
        ranks = average_rank({"a": {"d": 5.0}, "b": {"d": 5.0}, "c": {"d": 1.0}})
        assert ranks["a"] == ranks["b"] == 1.5
        assert ranks["c"] == 3.0

    def test_rank_mean_over_datasets(self):
        scores = {
            "a": {"d1": 30.0, "d2": 20.0},
            "b": {"d1": 20.0, "d2": 30.0},
            "c": {"d1": 10.0, "d2": 10.0},
        }
        ranks = average_rank(scores)
        assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_missing_cell_rejected(self):
        with pytest.raises(ArgumentError):
            shortfall({"a": {"d1": 5.0, "d2": 5.0}, "b": {"d1": 5.0}})


def test_records_roundtrip(tmp_path):
    records = [
        MetricsRecord("m1", "data", 0, 0.8, 0.5),
        MetricsRecord("m1", "other", 0, 0.9, 0.4),
        MetricsRecord("m2", "data", 0, 0.6, 0.9),
    ]
    path = tmp_path / "metrics.csv"
    write_records_csv(records, path)
    scores = read_scores_csv(path)
    assert scores == {"m1": {"data": 0.8, "other": 0.9}, "m2": {"data": 0.6}}


def test_repeated_model_dataset_pair_is_rejected(tmp_path):
    # one row per fold: scoring only the last fold would be a silent choice
    path = tmp_path / "metrics.csv"
    write_records_csv([MetricsRecord("m1", "data", 0, 0.8, 0.5),
                       MetricsRecord("m2", "data", 0, 0.6, 0.9),
                       MetricsRecord("m1", "data", 1, 0.9, 0.4)], path)
    with pytest.raises(ArgumentError, match="metrics.csv: model 'm1' on dataset 'data' "
                                            "is scored more than once"):
        read_scores_csv(path)


def test_malformed_scores_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(ArgumentError):
        read_scores_csv(bad)

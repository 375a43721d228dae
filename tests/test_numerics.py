import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from hopf import (AdamState, ArgumentError, NormScheme, TrainingError, adam_step,
                  finite_diff_grad, glorot_init, khop_subgraph, normalize_adjacency,
                  sigmoid, softmax_rows)
from hopf.numerics import dropout_mask


class TestSpmm:
    """scipy's sparse-dense ``@``, as the kernel applies it to ``normalize_adjacency``."""

    def test_mean_triangle_preserves_ones(self, triangle):
        m = normalize_adjacency(khop_subgraph(triangle, [0], 2), NormScheme.MEAN)
        out = m @ np.ones((3, 1))
        assert np.allclose(out, 1.0)

    def test_zero_matrix(self):
        z = sp.csr_matrix((3, 4))
        out = z @ np.arange(8.0).reshape(4, 2)
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_chain_mean_basis_vector(self, chain6):
        # basis vector at interior node 2: both neighbors (1 and 3) have degree
        # 2, so their rows pick up exactly one half
        m = normalize_adjacency(khop_subgraph(chain6, [0], 5), NormScheme.MEAN)
        e2 = np.zeros((6, 1))
        e2[2] = 1.0
        out = (m @ e2).ravel()
        assert out[1] == pytest.approx(0.5)
        assert out[3] == pytest.approx(0.5)
        assert out[2] == 0.0

    def test_agrees_with_dense_product(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            r, inner, c = rng.integers(1, 20, size=3)
            dense_s = (rng.random((r, inner)) < 0.3) * rng.standard_normal((r, inner))
            d = rng.standard_normal((inner, c))
            assert np.allclose(sp.csr_matrix(dense_s) @ d, dense_s @ d)


class TestGlorot:
    @pytest.mark.parametrize("fan_in,fan_out", [(3, 3), (2, 4)])
    def test_limit_is_one(self, fan_in, fan_out):
        w = glorot_init(fan_in, fan_out, 0)
        assert np.all(np.abs(w) <= 1.0)  # sqrt(6/6) = 1

    def test_mean_near_zero(self):
        w = glorot_init(100, 1000, 123)  # 1e5 draws
        limit = np.sqrt(6 / 1100)
        assert abs(w.mean()) < 0.01 * limit

    def test_deterministic_per_seed(self):
        assert np.array_equal(glorot_init(5, 5, 9), glorot_init(5, 5, 9))
        assert not np.array_equal(glorot_init(5, 5, 9), glorot_init(5, 5, 10))

    def test_bad_fans(self):
        with pytest.raises(ArgumentError):
            glorot_init(0, 3, 0)


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_softmax_uniform(self):
        out = softmax_rows(np.zeros((1, 3)))
        assert np.allclose(out, 1 / 3)

    @given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1, max_size=6))
    def test_sigmoid_strictly_inside_unit_interval(self, xs):
        y = sigmoid(np.array(xs))
        assert np.all(y > 0.0) and np.all(y < 1.0)

    @given(st.lists(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
                    min_size=1, max_size=5))
    def test_softmax_rows_sum_to_one(self, rows):
        out = softmax_rows(np.array(rows))
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestAdam:
    def test_zero_grad_no_move(self):
        p = np.array([[1.0, -2.0]])
        state = AdamState.for_param(p)
        adam_step(p, np.zeros_like(p), state, lr=0.1)
        assert np.array_equal(p, [[1.0, -2.0]])
        assert state.step_count == 1

    def test_first_step_is_minus_lr(self):
        p = np.zeros((1, 1))
        state = AdamState.for_param(p)
        adam_step(p, np.ones((1, 1)), state, lr=0.01)
        # bias-corrected m_hat/sqrt(v_hat) = 1 on the first step, up to eps
        assert p[0, 0] == pytest.approx(-0.01, abs=1e-9)

    def test_constant_grad_moves_monotonically(self):
        p = np.zeros((1, 1))
        state = AdamState.for_param(p)
        grad = np.full((1, 1), 3.0)
        adam_step(p, grad, state, lr=0.01)
        first = p[0, 0]
        adam_step(p, grad, state, lr=0.01)
        assert p[0, 0] < first < 0.0

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_sign_pattern_invariant_under_grad_scaling(self, c):
        grad = np.array([[0.5, -1.5, 2.0]])
        steps = []
        for scale in (1.0, c):
            p = np.zeros_like(grad)
            adam_step(p, scale * grad, AdamState.for_param(p), lr=0.01)
            steps.append(np.sign(p))
        assert np.array_equal(steps[0], steps[1])

    def test_nonfinite_grad_rejected(self):
        p = np.zeros((1, 1))
        with pytest.raises(TrainingError):
            adam_step(p, np.array([[np.nan]]), AdamState.for_param(p), lr=0.01)

    def test_three_steps_match_a_hand_written_update_at_each_rate(self):
        # bias correction uses the step count, and each step takes the rate it is given
        grads = [np.array([[0.5, -2.0]]), np.array([[-1.0, 3.0]]), np.array([[0.25, 0.0]])]
        rates = [0.1, 0.05, 0.2]
        p = np.array([[1.0, -1.0]])
        state = AdamState.for_param(p)
        want = p.copy()
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        for t, (g, lr) in enumerate(zip(grads, rates), start=1):
            adam_step(p, g, state, lr)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            want -= lr * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert state.step_count == t
            assert np.array_equal(p, want)


class TestFiniteDiff:
    def test_quadratic(self):
        p = np.array([[0.3, -1.2], [2.0, 0.1]])
        g = finite_diff_grad(lambda m: 0.5 * np.sum(m * m), p, eps=1e-5)
        assert np.max(np.abs(g - p)) < 1e-8

    def test_constant(self):
        g = finite_diff_grad(lambda m: 4.2, np.ones((2, 2)), eps=1e-5)
        assert np.max(np.abs(g)) < 1e-12

    def test_sigmoid_sum(self):
        p = np.array([[0.2, -0.7, 1.5]])
        g = finite_diff_grad(lambda m: float(np.sum(sigmoid(m))), p, eps=1e-5)
        s = sigmoid(p)
        assert np.max(np.abs(g - s * (1 - s))) < 1e-7


def test_dropout_mask_scales_survivors():
    rng = np.random.default_rng(0)
    mask = dropout_mask(rng, (1000, 10), 0.25)
    vals = set(np.unique(mask).tolist())
    assert vals == {0.0, 1.0 / 0.75}
    assert abs((mask > 0).mean() - 0.75) < 0.02

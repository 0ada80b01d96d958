"""Gradient checks for the numpy autograd engine.

Every operator's analytic gradient is compared against central finite
differences; the tolerances are tight because everything runs in float64.
"""

import math

import numpy as np
import pytest

from repro.nn import Tensor, functional as F, no_grad
from repro.nn.functional import cross_entropy, log_softmax, mse

RNG = np.random.default_rng(42)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_unary(op, shape=(3, 4), positive=False, atol=1e-6):
    data = RNG.uniform(0.5 if positive else -2.0, 2.0, size=shape)
    t = Tensor(data.copy(), requires_grad=True)
    out = op(t)
    out.sum().backward() if out.data.size > 1 else out.backward()
    expected = numeric_grad(lambda x: float(op(Tensor(x)).data.sum()), data.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestElementwise:
    def test_add_broadcast(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_grad(self):
        a_data = RNG.normal(size=(2, 3))
        b_data = RNG.normal(size=(2, 3))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b_data)
        np.testing.assert_allclose(b.grad, a_data)

    def test_div_grad(self):
        a_data = RNG.normal(size=(5,))
        b_data = RNG.uniform(0.5, 2.0, size=(5,))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, 1.0 / b_data)
        np.testing.assert_allclose(b.grad, -a_data / b_data**2)

    def test_sub_and_neg(self):
        a = Tensor([3.0], requires_grad=True)
        (1.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])

    def test_pow(self):
        check_unary(lambda t: t.pow(3.0))

    def test_exp(self):
        check_unary(lambda t: t.exp())

    def test_log(self):
        check_unary(lambda t: t.log(), positive=True)

    def test_tanh(self):
        check_unary(lambda t: t.tanh())

    def test_gelu(self):
        check_unary(lambda t: t.gelu(), atol=1e-5)

    def test_relu(self):
        data = np.array([-1.0, 2.0, -0.5, 3.0])
        t = Tensor(data, requires_grad=True)
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0, 1.0])


class TestShapeOps:
    def test_reshape(self):
        t = Tensor(RNG.normal(size=(2, 6)), requires_grad=True)
        t.reshape(3, 4).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 6)))

    def test_transpose(self):
        data = RNG.normal(size=(2, 3))
        t = Tensor(data.copy(), requires_grad=True)
        out = t.transpose(0, 1)
        assert out.shape == (3, 2)
        (out * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        np.testing.assert_allclose(t.grad, np.arange(6.0).reshape(3, 2).T)

    def test_sum_axis(self):
        t = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        t.sum(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_mean(self):
        t = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full(4, 0.25))


class TestMatmul:
    def test_2d(self):
        a_data = RNG.normal(size=(3, 4))
        b_data = RNG.normal(size=(4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_data.T)
        np.testing.assert_allclose(b.grad, a_data.T @ np.ones((3, 2)))

    def test_batched(self):
        a_data = RNG.normal(size=(2, 3, 4))
        b_data = RNG.normal(size=(2, 4, 5))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        expected_a = numeric_grad(
            lambda x: float((x @ b_data).sum()), a_data.copy()
        )
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)

    def test_broadcast_weight(self):
        """(B, T, D) @ (D, K): the shared weight accumulates over batch."""
        a_data = RNG.normal(size=(2, 3, 4))
        w_data = RNG.normal(size=(4, 5))
        w = Tensor(w_data.copy(), requires_grad=True)
        (Tensor(a_data) @ w).sum().backward()
        expected = numeric_grad(lambda x: float((a_data @ x).sum()), w_data.copy())
        np.testing.assert_allclose(w.grad, expected, atol=1e-5)


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self):
        out = Tensor(RNG.normal(size=(4, 7))).softmax()
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4))

    def test_softmax_grad(self):
        data = RNG.normal(size=(2, 5))
        weights = RNG.normal(size=(2, 5))
        t = Tensor(data.copy(), requires_grad=True)
        (t.softmax() * Tensor(weights)).sum().backward()
        expected = numeric_grad(
            lambda x: float((_softmax_np(x) * weights).sum()), data.copy()
        )
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)

    def test_log_softmax_grad(self):
        data = RNG.normal(size=(3, 4))
        weights = RNG.normal(size=(3, 4))
        t = Tensor(data.copy(), requires_grad=True)
        (log_softmax(t) * Tensor(weights)).sum().backward()
        expected = numeric_grad(
            lambda x: float((np.log(_softmax_np(x)) * weights).sum()), data.copy()
        )
        np.testing.assert_allclose(t.grad, expected, atol=1e-6)

    def test_softmax_numerically_stable(self):
        out = Tensor(np.array([[1000.0, 1000.0]])).softmax()
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])


class TestLayerNorm:
    def test_output_normalized(self):
        x = Tensor(RNG.normal(2.0, 3.0, size=(4, 8)))
        out = x.layernorm(Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), np.zeros(4), atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), np.ones(4), atol=1e-3)

    def test_grads_vs_numeric(self):
        x_data = RNG.normal(size=(3, 6))
        w_data = RNG.uniform(0.5, 1.5, size=6)
        b_data = RNG.normal(size=6)
        coeff = RNG.normal(size=(3, 6))

        def forward(xv, wv, bv):
            mu = xv.mean(axis=-1, keepdims=True)
            var = xv.var(axis=-1, keepdims=True)
            xhat = (xv - mu) / np.sqrt(var + 1e-5)
            return float(((xhat * wv + bv) * coeff).sum())

        x = Tensor(x_data.copy(), requires_grad=True)
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (x.layernorm(w, b) * Tensor(coeff)).sum().backward()

        np.testing.assert_allclose(
            x.grad, numeric_grad(lambda v: forward(v, w_data, b_data), x_data.copy()), atol=1e-5
        )
        np.testing.assert_allclose(
            w.grad, numeric_grad(lambda v: forward(x_data, v, b_data), w_data.copy()), atol=1e-5
        )
        np.testing.assert_allclose(
            b.grad, numeric_grad(lambda v: forward(x_data, w_data, v), b_data.copy()), atol=1e-5
        )


class TestArrayKernels:
    """``functional.gelu`` / ``layernorm`` on bare arrays: the one spelling
    of each formula, shared by the Tensor ops and inference (that the ops
    return the kernels' very floats is a property in test_nn_property.py)."""

    def test_gelu_against_scalar_reference(self):
        c = math.sqrt(2.0 / math.pi)
        grid = [0.0, -0.0, 1e-300, -1e-300, 1e-8, 0.1, -0.1, 0.5, 1.0, -1.0, 2.5, -2.5,
                5.0, -5.0, 9.0, -9.0, 40.0, -40.0]
        grid += list(RNG.uniform(-6.0, 6.0, size=200))
        x = np.array(grid)
        got = F.gelu(x)
        for xi, gi in zip(grid, got):
            ref = 0.5 * xi * (1.0 + math.tanh(c * (xi + 0.044715 * xi**3)))
            # Measured against |x|, the scale of the output: the left tail is
            # the cancellation 1 + tanh, so its last bits are tanh's own, and
            # numpy's SIMD tanh is not libm's on every CPU.
            assert abs(gi - ref) <= 1e-15 * abs(xi), (xi, gi, ref)
        assert math.copysign(1.0, got[1]) == -1.0  # gelu(-0.0) is -0.0
        assert got[16] == 40.0 and got[17] == 0.0 and math.copysign(1.0, got[17]) == -1.0

    def test_gelu_where_the_cube_overflows(self):
        # x * x * x reaches +-inf here exactly as pow did, with numpy's
        # overflow warning; tanh saturates and the result is still exact.
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = F.gelu(np.array([1e103, -1e103]))
        assert got[0] == 1e103
        assert got[1] == 0.0 and math.copysign(1.0, got[1]) == -1.0

    def test_layernorm_one_pass_equals_mean_then_var(self):
        """The two-pass body this kernel replaced (``np.var`` recomputes the
        mean it was just given), kept as the reference: the same floats."""

        def two_pass(x, weight, bias, eps):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            inv = 1.0 / np.sqrt(var + eps)
            return (x - mu) * inv * weight + bias

        rng = np.random.default_rng(17)
        for _ in range(1000):
            shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4))) + (
                int(rng.choice([1, 2, 7, 16, 48, 192])),
            )
            scale = 10.0 ** rng.integers(-8, 9)
            x = rng.normal(rng.normal() * scale, scale, size=shape)
            weight = rng.uniform(0.5, 1.5, size=shape[-1])
            bias = rng.normal(size=shape[-1])
            eps = float(rng.choice([1e-5, 1e-12]))
            assert (F.layernorm(x, weight, bias, eps) == two_pass(x, weight, bias, eps)).all()


class TestEmbedding:
    def test_lookup(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = table.embedding(np.array([[0, 2], [3, 2]]))
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[0, 1], [6.0, 7.0, 8.0])

    def test_scatter_add_gradient(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        ids = np.array([[1, 1, 3]])
        table.embedding(ids).sum().backward()
        expected = np.array([[0, 0], [2, 2], [0, 0], [1, 1]], dtype=float)
        np.testing.assert_allclose(table.grad, expected)


class TestDropout:
    def test_eval_mode_identity(self):
        t = Tensor(RNG.normal(size=(5, 5)))
        out = t.dropout(0.5, np.random.default_rng(0), training=False)
        assert out is t

    def test_inverted_scaling_preserves_mean(self):
        data = np.ones((200, 200))
        out = Tensor(data).dropout(0.3, np.random.default_rng(0), training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_grad_masked_like_forward(self):
        t = Tensor(np.ones((10, 10)), requires_grad=True)
        out = t.dropout(0.5, np.random.default_rng(7), training=True)
        out.sum().backward()
        # Gradient is zero exactly where the activation was dropped.
        np.testing.assert_allclose((out.data == 0), (t.grad == 0))


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0, -1.0]]), requires_grad=True)
        loss = cross_entropy(logits, np.array([0]))
        manual = -np.log(_softmax_np(logits.data))[0, 0]
        assert loss.item() == pytest.approx(manual)

    def test_ignore_index(self):
        logits = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        targets = np.array([1, -100, 2, -100])
        loss = cross_entropy(logits, targets)
        loss.backward()
        # Ignored rows receive no gradient.
        np.testing.assert_allclose(logits.grad[1], np.zeros(5))
        np.testing.assert_allclose(logits.grad[3], np.zeros(5))
        assert np.abs(logits.grad[0]).sum() > 0

    def test_all_ignored_raises(self):
        logits = Tensor(RNG.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            cross_entropy(logits, np.array([-100, -100]))

    def test_gradient_vs_numeric(self):
        data = RNG.normal(size=(3, 4))
        targets = np.array([0, 3, 2])
        t = Tensor(data.copy(), requires_grad=True)
        cross_entropy(t, targets).backward()

        def loss_np(x):
            p = _softmax_np(x)
            return float(-np.log(p[np.arange(3), targets]).mean())

        np.testing.assert_allclose(t.grad, numeric_grad(loss_np, data.copy()), atol=1e-6)

    def test_3d_logits(self):
        logits = Tensor(RNG.normal(size=(2, 3, 5)), requires_grad=True)
        targets = np.array([[0, -100, 2], [-100, 4, 1]])
        loss = cross_entropy(logits, targets)
        loss.backward()
        assert logits.grad.shape == (2, 3, 5)

    def test_mse(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])


class TestEngineSemantics:
    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = y + y  # y used twice
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_reused_leaf_accumulates(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        (x * x).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = x * 2.0
        assert not out.requires_grad

    def test_backward_non_scalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_non_grad_tensor(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        out = x
        for _ in range(3000):
            out = out * 1.0001
        out.backward()
        assert x.grad is not None


def _softmax_np(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)

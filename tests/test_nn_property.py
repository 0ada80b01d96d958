"""Property-based gradient checks: random composite expressions.

The per-op checks in test_nn_autograd.py pin each operator; these build
random compositions (the kind of graphs the transformer actually creates)
and verify the end-to-end gradient against central differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor, functional as F
from repro.nn.functional import log_softmax


def numeric_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


# Each op: (autograd form, numpy form); all keep values in a safe range.
UNARY_OPS = {
    "gelu": (
        lambda t: t.gelu(),
        lambda x: 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3))),
    ),
    "softmax": (
        lambda t: t.softmax(),
        lambda x: np.exp(x - x.max(-1, keepdims=True))
        / np.exp(x - x.max(-1, keepdims=True)).sum(-1, keepdims=True),
    ),
    "log_softmax": (
        lambda t: log_softmax(t),
        lambda x: (x - x.max(-1, keepdims=True))
        - np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1, keepdims=True)),
    ),
}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    chain=st.lists(st.sampled_from(sorted(UNARY_OPS)), min_size=1, max_size=4),
)
def test_random_unary_chains(seed, chain):
    rng = np.random.default_rng(seed)
    data = rng.uniform(-2.0, 2.0, size=(2, 3))
    weights = rng.normal(size=(2, 3))

    t = Tensor(data.copy(), requires_grad=True)
    out = t
    for name in chain:
        out = UNARY_OPS[name][0](out)
    (out * Tensor(weights)).sum().backward()

    def np_forward(x):
        y = x
        for name in chain:
            y = UNARY_OPS[name][1](y)
        return float((y * weights).sum())

    expected = numeric_grad(np_forward, data.copy())
    np.testing.assert_allclose(t.grad, expected, atol=2e-5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_mlp_block(seed):
    """A 2-layer MLP with residual + layernorm: the transformer's FFN."""
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=(2, 4))
    w1 = rng.normal(size=(4, 6)) * 0.5
    w2 = rng.normal(size=(6, 4)) * 0.5
    gamma = rng.uniform(0.5, 1.5, size=4)
    beta = rng.normal(size=4) * 0.1
    coeff = rng.normal(size=(2, 4))

    x = Tensor(x_data.copy(), requires_grad=True)
    hidden = (x @ Tensor(w1)).gelu() @ Tensor(w2)
    out = (x + hidden).layernorm(Tensor(gamma), Tensor(beta))
    (out * Tensor(coeff)).sum().backward()

    def np_forward(xv):
        g = 0.5 * (xv @ w1) * (
            1 + np.tanh(np.sqrt(2 / np.pi) * ((xv @ w1) + 0.044715 * (xv @ w1) ** 3))
        )
        resid = xv + g @ w2
        mu = resid.mean(-1, keepdims=True)
        var = resid.var(-1, keepdims=True)
        xhat = (resid - mu) / np.sqrt(var + 1e-5)
        return float(((xhat * gamma + beta) * coeff).sum())

    expected = numeric_grad(np_forward, x_data.copy())
    np.testing.assert_allclose(x.grad, expected, atol=3e-5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_attention_shaped_graph(seed):
    """softmax(QK^T)V with shared input — the self-attention core."""
    rng = np.random.default_rng(seed)
    x_data = rng.normal(size=(3, 4)) * 0.5
    wq = rng.normal(size=(4, 4)) * 0.4
    wk = rng.normal(size=(4, 4)) * 0.4
    wv = rng.normal(size=(4, 4)) * 0.4
    coeff = rng.normal(size=(3, 4))

    x = Tensor(x_data.copy(), requires_grad=True)
    q, k, v = x @ Tensor(wq), x @ Tensor(wk), x @ Tensor(wv)
    attn = (q @ k.transpose(0, 1)).softmax()
    (attn @ v * Tensor(coeff)).sum().backward()

    def np_forward(xv):
        q_, k_, v_ = xv @ wq, xv @ wk, xv @ wv
        scores = q_ @ k_.T
        e = np.exp(scores - scores.max(-1, keepdims=True))
        a = e / e.sum(-1, keepdims=True)
        return float(((a @ v_) * coeff).sum())

    expected = numeric_grad(np_forward, x_data.copy())
    np.testing.assert_allclose(x.grad, expected, atol=3e-5)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
)
def test_broadcast_add_any_shape(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a_data = rng.normal(size=(rows, cols))
    b_data = rng.normal(size=(cols,))
    a = Tensor(a_data.copy(), requires_grad=True)
    b = Tensor(b_data.copy(), requires_grad=True)
    ((a + b) * (a + b)).sum().backward()
    np.testing.assert_allclose(a.grad, 2 * (a_data + b_data), atol=1e-9)
    np.testing.assert_allclose(b.grad, (2 * (a_data + b_data)).sum(axis=0), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
    scale=st.sampled_from([1e-6, 1.0, 30.0, 1e6]),
)
def test_tensor_ops_and_array_kernels_are_one_formula(seed, shape, scale):
    """Training (Tensor ops) and inference (bare arrays) share each kernel:
    the very same floats, whatever the shape or magnitude."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * scale
    weight = rng.uniform(0.5, 1.5, size=shape[-1])
    bias = rng.normal(size=shape[-1])
    assert (Tensor(x).gelu().data == F.gelu(x)).all()
    for axis in (0, -1):
        assert (Tensor(x).softmax(axis=axis).data == F.softmax(x, axis=axis)).all()
    for eps in (1e-5, 1e-12):
        normed = Tensor(x).layernorm(Tensor(weight), Tensor(bias), eps)
        assert (normed.data == F.layernorm(x, weight, bias, eps)).all()

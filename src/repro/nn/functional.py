"""Array kernels, loss functions and stateless helpers for the engine.

The kernels at the top (``gelu``, ``layernorm``, ``softmax``) are plain
ndarray -> ndarray functions and the only place each formula is written:
the ``Tensor`` ops of the same names take their forward values from them
and add a backward, and the BERT inference forward composes them on bare
arrays with no tape at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # Annotations only: ``tensor.py`` imports the kernels below, so the
    # losses reach the tape through their argument (``a._make``).
    from repro.nn.tensor import Tensor

GELU_C = math.sqrt(2.0 / math.pi)
GELU_CUBIC = 0.044715


def gelu_with_tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(gelu(x), t)`` where ``t`` is the tanh term the gradient reuses.

    The cube is spelled ``x * x * x``: numpy fast-paths only squares, any
    other power is one libm ``pow`` call per element (~80x the cost here).
    """
    t = np.tanh(GELU_C * (x + GELU_CUBIC * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation, as used by BERT)."""
    return gelu_with_tanh(x)[0]


def layernorm_with_stats(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(layernorm(x), xhat, inv_std)``; the gradient reuses the last two.

    One pass: the mean is taken once and the centred values feed the
    variance. These are the very operations ``x.mean`` / ``x.var`` run
    (``np.var`` just recomputes the mean first), so the floats are equal.
    """
    n = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    return xhat * weight + bias, xhat, inv


def layernorm(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Layer normalization over the last axis with affine parameters."""
    return layernorm_with_stats(x, weight, bias, eps)[0]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax built from primitive ops."""
    a = logits
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    probs = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

    return a._make(out_data, (a,), backward)


def cross_entropy(
    logits: Tensor, targets: np.ndarray, ignore_index: int = -100
) -> Tensor:
    """Mean cross-entropy over positions whose target != ``ignore_index``.

    ``logits`` has shape ``(..., V)`` and ``targets`` the matching leading
    shape. This is the masked-LM loss: un-masked positions carry the
    ignore index and contribute nothing.
    """
    targets = np.asarray(targets, dtype=np.int64)
    flat_logits = logits.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    active = flat_targets != ignore_index
    n_active = int(active.sum())
    if n_active == 0:
        raise ValueError("cross_entropy: every target is the ignore index")

    logp = log_softmax(flat_logits, axis=-1)
    # Gather log-probabilities of the target classes as a primitive op so
    # the backward pass scatters into exactly those entries.
    a = logp
    rows = np.nonzero(active)[0]
    cols = flat_targets[active]
    picked = a.data[rows, cols]
    out_data = np.array(-picked.sum() / n_active)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[rows, cols] = -float(grad) / n_active
            a._accumulate(g)

    return a._make(out_data, (a,), backward)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target array."""
    diff = pred - np.asarray(target, dtype=np.float64)
    return (diff * diff).mean()

"""A minimal reverse-mode automatic differentiation engine on numpy.

This is the from-scratch substitute for the deep-learning framework the
paper's BERT implementation runs on (the sandbox has no torch/TF and no
network). It provides exactly the operator set a transformer encoder
needs — broadcast arithmetic, (batched) matmul, softmax, LayerNorm, GELU,
embedding lookup, a row gather, dropout, and a fused masked cross-entropy
— plus an Adam optimizer and a small Module/Parameter system.

Gradients are validated against numerical differentiation in
``tests/test_nn_autograd.py``.
"""

from repro.nn.tensor import Tensor
from repro.nn import functional
from repro.nn.module import Dropout, Embedding, LayerNorm, Linear, Module, Parameter
from repro.nn.optim import Adam, clip_grad_norm

__all__ = [
    "Adam",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Parameter",
    "Tensor",
    "clip_grad_norm",
    "functional",
]

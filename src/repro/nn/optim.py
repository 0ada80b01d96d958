"""Optimizers and gradient utilities."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.nn.module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm.
    """
    params = [p for p in parameters if p.grad is not None]
    total = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class Adam:
    """Adam with linear warmup, moments decayed by ``BETAS`` and the
    denominator kept off zero by ``EPS``.

    The learning-rate schedule follows BERT's: linear warmup for
    ``warmup_steps`` then constant (the runs here are short enough that
    decay adds nothing).

    The moments are kept flat, one vector over every parameter, so a step
    is a handful of array ops however many parameters there are. The
    update is written back into each parameter's own array, slice by
    slice: no parameter becomes a view into optimizer memory.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        warmup_steps: int = 0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr!r}")
        self.parameters = list(parameters)
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.t = 0
        self._sizes = [p.data.size for p in self.parameters]
        total = sum(self._sizes)
        self._m, self._v = np.zeros(total), np.zeros(total)
        self._g, self._tmp = np.empty(total), np.empty(total)

    def current_lr(self) -> float:
        if self.warmup_steps and self.t < self.warmup_steps:
            return self.lr * (self.t + 1) / self.warmup_steps
        return self.lr

    def step(self) -> None:
        """Apply one update using the accumulated gradients.

        A parameter whose ``grad`` is None is skipped: its moments and
        its values stay as they are.
        """
        lr = self.current_lr()
        self.t += 1
        b1, b2 = self.BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        live = [p for p in self.parameters if p.grad is not None]
        if not live:
            return
        grads = [p.grad.ravel() for p in live]
        if len(live) == len(self.parameters):
            # In place, in buffers kept across steps: a fresh temporary this
            # size costs more in page faults than the arithmetic does.
            moments = None
            g = np.concatenate(grads, out=self._g)
            m, v, tmp = self._m, self._v, self._tmp
        else:
            moments = np.repeat([p.grad is not None for p in self.parameters], self._sizes)
            g = np.concatenate(grads)
            m, v, tmp = self._m[moments], self._v[moments], np.empty_like(g)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        v += np.multiply(tmp, g, out=tmp)
        # update = (m / bc1) / (sqrt(v / bc2) + eps), scaled by lr
        denom = np.sqrt(np.divide(v, bc2, out=tmp), out=tmp)
        denom += self.EPS
        update = np.divide(m, bc1, out=g)
        update /= denom
        update *= lr
        if moments is not None:
            self._m[moments], self._v[moments] = m, v
        start = 0
        for p in live:
            stop = start + p.data.size
            p.data -= update[start:stop].reshape(p.data.shape)
            start = stop

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

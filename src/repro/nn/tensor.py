"""The autograd ``Tensor``: a numpy array plus a reverse-mode tape."""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.nn import functional as F

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the ``with`` block (inference)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (undo numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]


class Tensor:
    """An N-d array that records the operations applied to it.

    Calling :meth:`backward` on a scalar result propagates gradients to
    every ``requires_grad`` tensor that contributed to it. Data is always
    float64 unless explicitly constructed otherwise, which keeps gradient
    checks tight; the models here are small enough that speed is fine.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad and _grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward_fn = _backward_fn

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        needs = _grad_enabled() and any(p.requires_grad for p in parents)
        if not needs:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)

    # -- bookkeeping --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        # ndarray.item() accepts any size-1 array; float() only 0-d ones.
        return float(self.data.item())

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 and must match this tensor's shape; calling
        it on a non-scalar without an explicit gradient is an error.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)

        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(t: "Tensor") -> None:
            stack = [(t, False)]
            while stack:
                node, expanded = stack.pop()
                if expanded:
                    order.append(node)
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    if p.requires_grad:
                        stack.append((p, False))

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        a, b = self, Tensor._lift(other)
        out_data = a.data + b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        a, b = self, Tensor._lift(other)
        out_data = a.data * b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        a, b = self, Tensor._lift(other)
        out_data = a.data / b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data**2), b.shape))

        return Tensor._make(out_data, (a, b), backward)

    def pow(self, exponent: float) -> "Tensor":
        a = self
        out_data = a.data**exponent

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * exponent * a.data ** (exponent - 1))

        return Tensor._make(out_data, (a,), backward)

    def exp(self) -> "Tensor":
        a = self
        out_data = np.exp(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * out_data)

        return Tensor._make(out_data, (a,), backward)

    def log(self) -> "Tensor":
        a = self
        out_data = np.log(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad / a.data)

        return Tensor._make(out_data, (a,), backward)

    def tanh(self) -> "Tensor":
        a = self
        out_data = np.tanh(a.data)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (a,), backward)

    # -- shape ops ------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        a = self
        out_data = a.data.reshape(shape)
        original = a.shape

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (a,), backward)

    def transpose(self, axis1: int, axis2: int) -> "Tensor":
        a = self
        out_data = np.swapaxes(a.data, axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._make(out_data, (a,), backward)

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not a.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

        return Tensor._make(out_data, (a,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- linear algebra ---------------------------------------------------------

    def matmul(self, other: "Tensor") -> "Tensor":
        a, b = self, Tensor._lift(other)
        out_data = a.data @ b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                ga = grad @ np.swapaxes(b.data, -1, -2)
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ grad
                b._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (a, b), backward)

    __matmul__ = matmul

    # -- neural-network primitives ------------------------------------------------

    def softmax(self, axis: int = -1) -> "Tensor":
        a = self
        out_data = F.softmax(a.data, axis)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                dot = (grad * out_data).sum(axis=axis, keepdims=True)
                a._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (a,), backward)

    def gelu(self) -> "Tensor":
        """GELU activation (tanh approximation, as used by BERT)."""
        a = self
        x = a.data
        out_data, t = F.gelu_with_tanh(x)

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                dinner = F.GELU_C * (1.0 + 3 * F.GELU_CUBIC * x**2)
                dgelu = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
                a._accumulate(grad * dgelu)

        return Tensor._make(out_data, (a,), backward)

    def relu(self) -> "Tensor":
        a = self
        mask = a.data > 0
        out_data = a.data * mask

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * mask)

        return Tensor._make(out_data, (a,), backward)

    def layernorm(self, weight: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        """Layer normalization over the last axis with affine parameters."""
        a = self
        out_data, xhat, inv = F.layernorm_with_stats(a.data, weight.data, bias.data, eps)

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                weight._accumulate(
                    _unbroadcast(grad * xhat, weight.shape)
                )
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(grad, bias.shape))
            if a.requires_grad:
                gx = grad * weight.data
                term1 = gx
                term2 = gx.mean(axis=-1, keepdims=True)
                term3 = xhat * (gx * xhat).mean(axis=-1, keepdims=True)
                a._accumulate(inv * (term1 - term2 - term3))

        return Tensor._make(out_data, (a, weight, bias), backward)

    def embedding(self, ids: np.ndarray) -> "Tensor":
        """Row lookup: ``self`` is a (V, D) table, ``ids`` an int array."""
        table = self
        ids = np.asarray(ids, dtype=np.int64)
        out_data = table.data[ids]

        def backward(grad: np.ndarray) -> None:
            if table.requires_grad:
                g = np.zeros_like(table.data)
                np.add.at(g, ids.reshape(-1), grad.reshape(-1, table.data.shape[-1]))
                table._accumulate(g)

        return Tensor._make(out_data, (table,), backward)

    def dropout(self, p: float, rng: np.random.Generator, training: bool) -> "Tensor":
        """Inverted dropout; identity when not training or ``p == 0``."""
        if not training or p <= 0.0:
            return self
        a = self
        keep = (rng.random(a.shape) >= p) / (1.0 - p)
        out_data = a.data * keep

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(grad * keep)

        return Tensor._make(out_data, (a,), backward)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

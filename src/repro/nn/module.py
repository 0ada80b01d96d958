"""Parameter containers and standard layers."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data: np.ndarray) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class with recursive parameter discovery and train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> Iterator[Parameter]:
        seen: set[int] = set()
        for value in vars(self).values():
            yield from _parameters_of(value, seen)

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        seen: set[int] = set()
        for name, value in vars(self).items():
            yield from _named_parameters_of(name, value, seen)

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            for module in _modules_of(value):
                module._set_mode(training)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted attribute path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={missing}, extra={extra}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _parameters_of(value, seen: set[int]) -> Iterator[Parameter]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        for sub in vars(value).values():
            yield from _parameters_of(sub, seen)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _parameters_of(item, seen)


def _named_parameters_of(name: str, value, seen: set[int]) -> Iterator[tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield name, value
    elif isinstance(value, Module):
        for sub_name, sub in vars(value).items():
            yield from _named_parameters_of(f"{name}.{sub_name}", sub, seen)
    elif isinstance(value, (list, tuple)):
        for idx, item in enumerate(value):
            yield from _named_parameters_of(f"{name}.{idx}", item, seen)


def _modules_of(value) -> Iterator[Module]:
    if isinstance(value, Module):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _modules_of(item)


class Linear(Module):
    """Affine map ``x @ W + b`` with Xavier-uniform initialization."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator) -> None:
        super().__init__()
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-bound, bound, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Embedding(Module):
    """Lookup table of shape ``(num_embeddings, dim)``."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight.embedding(ids)


class LayerNorm(Module):
    """Layer normalization over the last axis, ``EPS`` added to the variance."""

    EPS = 1e-5

    def __init__(self, dim: int) -> None:
        super().__init__()
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return x.layernorm(self.weight, self.bias, self.EPS)


class Dropout(Module):
    """Inverted dropout driven by an explicit RNG for reproducibility."""

    def __init__(self, p: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p!r}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        return x.dropout(self.p, self.rng, self.training)

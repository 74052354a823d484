"""Module system and basic layers (Linear, Embedding, LayerNorm, Dropout)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Minimal torch-style module: parameter discovery, train/eval mode,
    ``state_dict``/``load_state_dict`` for checkpointing."""

    def __init__(self):
        self.training = True

    # -- parameter / submodule discovery --------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # -- training mode ---------------------------------------------------- #
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # -- checkpointing ------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if strict and (missing or extra):
            raise KeyError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, param in own.items():
            if name in state:
                value = np.asarray(state[name], dtype=np.float64)
                if value.shape != param.data.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                    )
                param.data = value.copy()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine map ``y = x @ W + b`` with Xavier-uniform init."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or spawn_rng(0, f"linear-{in_features}-{out_features}")
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Parameter(rng.uniform(-bound, bound, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table ``(num_embeddings, dim)`` with N(0, 0.02) init (as BERT)."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or spawn_rng(0, f"embedding-{num_embeddings}-{dim}")
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight.take_rows(np.asarray(indices, dtype=np.int64))


class LayerNorm(Module):
    """Layer normalization over the last axis with learned scale/shift."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered * ((variance + self.eps) ** -0.5)
        return normalized * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity when ``training`` is False or p == 0."""

    def __init__(self, p: float = 0.1, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or spawn_rng(0, f"dropout-{p}")

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Run modules in order; accepts interleaved callables (e.g. activations)."""

    def __init__(self, *stages):
        super().__init__()
        self.stages = list(stages)

    def forward(self, x: Tensor) -> Tensor:
        for stage in self.stages:
            x = stage(x)
        return x

"""Adam (BERT's optimizer) and global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Adam with decoupled weight decay (AdamW-style, as used to train BERT)."""

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            if self.weight_decay:
                param.data -= self.lr * self.weight_decay * param.data
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


class GradClipper:
    """Clip the global L2 norm of gradients (BERT uses max-norm 1.0)."""

    def __init__(self, parameters: list[Parameter], max_norm: float = 1.0):
        self.parameters = list(parameters)
        self.max_norm = max_norm

    def clip(self) -> float:
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float(np.sum(param.grad**2))
        norm = float(np.sqrt(total))
        if norm > self.max_norm and norm > 0.0:
            scale = self.max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad *= scale
        return norm

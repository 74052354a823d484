"""Adam and gradient clipping."""

import numpy as np
import pytest

from repro.nn.layers import Linear, Parameter
from repro.nn.losses import mse_loss
from repro.nn.optim import Adam, GradClipper
from repro.nn.tensor import Tensor


def _fit(optimizer_factory, steps=300) -> float:
    rng = np.random.default_rng(0)
    layer = Linear(4, 1)
    optimizer = optimizer_factory(layer.parameters())
    x = rng.normal(size=(64, 4))
    target = x @ np.array([[1.0], [-2.0], [0.5], [3.0]])
    loss = None
    for _ in range(steps):
        optimizer.zero_grad()
        loss = mse_loss(layer(Tensor(x)), target)
        loss.backward()
        optimizer.step()
    return loss.item()


def test_adam_converges():
    assert _fit(lambda p: Adam(p, lr=0.05)) < 1e-5


def test_adam_weight_decay_shrinks_weights():
    param = Parameter(np.ones(4) * 10)
    optimizer = Adam([param], lr=0.1, weight_decay=0.5)
    param.grad = np.zeros(4)
    optimizer.step()
    assert np.all(np.abs(param.data) < 10.0)


def test_adam_skips_gradless_params():
    param = Parameter(np.ones(3))
    optimizer = Adam([param], lr=0.1)
    optimizer.step()  # no grad: no change, no crash
    assert np.array_equal(param.data, np.ones(3))


def test_grad_clipper_scales_down():
    param = Parameter(np.zeros(4))
    param.grad = np.ones(4) * 10.0  # norm 20
    clipper = GradClipper([param], max_norm=1.0)
    norm = clipper.clip()
    assert norm == pytest.approx(20.0)
    assert np.linalg.norm(param.grad) == pytest.approx(1.0)


def test_grad_clipper_leaves_small_grads():
    param = Parameter(np.zeros(4))
    param.grad = np.full(4, 0.01)
    before = param.grad.copy()
    GradClipper([param], max_norm=1.0).clip()
    assert np.array_equal(param.grad, before)

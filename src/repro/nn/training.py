"""The one training loop: minibatch Adam with global-norm gradient clipping
and early stopping on validation loss.

Pre-training (§III-C), cross-encoder fine-tuning (§III-D) and the
dual-encoder baselines (§IV-A1) all train through :func:`fit`. A caller
supplies only ``batch_loss(chunk) -> Tensor``, a closure that turns a list
of its own examples into a scalar loss; :func:`predict` runs the matching
graph-free forward over examples in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.nn.layers import Module, Parameter
from repro.nn.optim import Adam, GradClipper
from repro.nn.tensor import Tensor, no_grad


@dataclass
class TrainHistory:
    """Per-epoch mean losses of a :func:`fit` run."""

    train_losses: list[float] = field(default_factory=list)
    valid_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False


def _mean_loss(model: Module, data: Sequence, batch_loss: Callable[[list], Tensor],
               batch_size: int, order: np.ndarray, optimizer: Adam | None = None,
               clipper: GradClipper | None = None) -> float:
    """Example-weighted mean of ``batch_loss`` over ``data`` in ``order``:
    one clipped optimizer step per batch in train mode when ``optimizer``
    is given, else in eval mode without a graph."""
    if optimizer is None:
        model.eval()
    else:
        model.train()
    total, count = 0.0, 0
    for start in range(0, len(data), batch_size):
        chunk = [data[i] for i in order[start : start + batch_size]]
        if optimizer is None:
            with no_grad():
                value = batch_loss(chunk).item()
        else:
            optimizer.zero_grad()
            loss = batch_loss(chunk)
            loss.backward()
            clipper.clip()
            optimizer.step()
            value = loss.item()
        total += value * len(chunk)
        count += len(chunk)
    return total / max(1, count)


def fit(
    model: Module,
    parameters: Sequence[Parameter],
    train: Sequence,
    valid: Sequence,
    batch_loss: Callable[[list], Tensor],
    *,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    patience: int,
    rng: np.random.Generator,
    restore_best: bool = True,
) -> TrainHistory:
    """Optimize ``parameters`` on ``batch_loss`` over ``train``, reshuffled
    by ``rng`` every epoch with gradients clipped to global norm 1.0 (as in
    BERT), stopping early on the mean ``valid`` loss (the epoch's training
    loss when ``valid`` is empty).

    An epoch that does not beat the best validation loss by 1e-6 counts
    towards ``patience``; ``patience`` such epochs in a row end the run.
    With ``restore_best`` the model ends on its best-validation weights,
    otherwise on the last epoch's.
    """
    parameters = list(parameters)
    optimizer = Adam(parameters, lr=learning_rate)
    clipper = GradClipper(parameters)
    history = TrainHistory()
    best, best_state, since_best = float("inf"), None, 0
    for _ in range(epochs):
        train_loss = _mean_loss(
            model, train, batch_loss, batch_size, rng.permutation(len(train)),
            optimizer, clipper,
        )
        valid_loss = (
            _mean_loss(model, valid, batch_loss, batch_size, np.arange(len(valid)))
            if valid
            else train_loss
        )
        history.train_losses.append(train_loss)
        history.valid_losses.append(valid_loss)
        if valid_loss < best - 1e-6:
            best, since_best = valid_loss, 0
            if restore_best:
                best_state = model.state_dict()
        else:
            since_best += 1
            if since_best >= patience:
                history.stopped_early = True
                break
    if best_state is not None:
        model.load_state_dict(best_state)
    return history


def predict(model: Module, data: Sequence, forward: Callable[[list], np.ndarray],
            *, batch_size: int) -> np.ndarray:
    """``forward`` over ``data`` in order, ``batch_size`` examples at a
    time, in eval mode without a graph; the outputs concatenated (an empty
    array for no data)."""
    model.eval()
    with no_grad():
        outputs = [
            forward(data[start : start + batch_size])
            for start in range(0, len(data), batch_size)
        ]
    return np.concatenate(outputs) if outputs else np.zeros(0)

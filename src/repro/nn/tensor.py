"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` plus an optional gradient buffer and a
backward closure. Calling :meth:`Tensor.backward` on a scalar loss walks the
graph in reverse topological order; each node's closure reads the node's
gradient and accumulates into its parents.

Only the operations the library needs are implemented, each with a
broadcasting-aware gradient. All gradients are verified against central
finite differences in ``tests/nn/test_autograd.py``.

Inference is the same ops under :func:`no_grad`: every op still runs its
numpy immediately and returns the array it computes with gradients on, bit
for bit, but records no parents and no backward closure — a forward pass
builds no graph. There an op costs its numpy plus one tensor wrapper: a
Python number operand goes to numpy as it is (no 0-d array), the result
is wrapped without a conversion, and ``x - y`` is one subtraction, which
is bitwise ``x + (-y)``. On the lake benchmark's trunk (one CPU of a
2-vCPU host) a batch-of-1 forward costs about 1.75x the same ufuncs in
plain numpy, a batch-16 pass over a 10k-column lake about 1.15x; the rest
is module dispatch and the one wrapper per op.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Sequence

import numpy as np


class _GradMode(threading.local):
    """Per-thread grad flag: concurrent inference threads (the lake
    server's request threads) must not re-enable graph construction under
    each other's feet the way a shared global would."""

    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Whether ops record the autodiff graph in the *current* thread."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ #
    # basics
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """The same data, cut out of the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------ #
    # backward
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (scalar unless ``grad`` is given).

        Leaves (and this tensor) keep their gradients; an interior node's
        is released once it has been passed on, so a graph's gradients
        are not all held at once.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        order = _topological_order(self)
        self._accumulate(grad)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward()
                if node is not self:
                    node.grad = None

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        if not _grad_mode.enabled:
            return _wrap(self.data + _operand(other))
        other = _as_tensor(other)
        out = _node(self.data + other.data, (self, other))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad)
                other._accumulate(out.grad)
            out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = _node(-self.data, (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(-out.grad)
            out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        if not _grad_mode.enabled:
            # Bitwise ``x + (-y)``: IEEE subtraction is the addition of the
            # negation.
            return _wrap(self.data - _operand(other))
        return self + (-_as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        if not _grad_mode.enabled:
            return _wrap(_operand(other) - self.data)
        return _as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        if not _grad_mode.enabled:
            return _wrap(self.data * _operand(other))
        other = _as_tensor(other)
        out = _node(self.data * other.data, (self, other))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad * other.data)
                other._accumulate(out.grad * self.data)
            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if not _grad_mode.enabled:
            return _wrap(self.data / _operand(other))
        other = _as_tensor(other)
        out = _node(self.data / other.data, (self, other))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad / other.data)
                other._accumulate(-out.grad * self.data / (other.data**2))
            out._backward = backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        if not _grad_mode.enabled:
            return _wrap(_operand(other) / self.data)
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = _node(self.data**exponent, (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))
            out._backward = backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not _grad_mode.enabled:
            return _wrap(self.data @ _operand(other))
        other = _as_tensor(other)
        out = _node(self.data @ other.data, (self, other))
        if out._parents:
            def backward() -> None:
                a, b, g = self.data, other.data, out.grad
                if a.ndim == 1 and b.ndim == 1:
                    self._accumulate(g * b)
                    other._accumulate(g * a)
                    return
                a2 = a[None, :] if a.ndim == 1 else a
                b2 = b[:, None] if b.ndim == 1 else b
                g2 = g
                if a.ndim == 1:
                    g2 = np.expand_dims(g2, -2)
                if b.ndim == 1:
                    g2 = np.expand_dims(g2, -1)
                grad_a = g2 @ np.swapaxes(b2, -1, -2)
                grad_b = np.swapaxes(a2, -1, -2) @ g2
                if a.ndim == 1:
                    grad_a = grad_a.reshape(a.shape) if grad_a.size == a.size else _unbroadcast(grad_a, (1,) + a.shape).reshape(a.shape)
                if b.ndim == 1:
                    grad_b = grad_b.reshape(b.shape) if grad_b.size == b.size else _unbroadcast(grad_b, b.shape + (1,)).reshape(b.shape)
                self._accumulate(_unbroadcast(grad_a, a.shape) if grad_a.shape != a.shape else grad_a)
                other._accumulate(_unbroadcast(grad_b, b.shape) if grad_b.shape != b.shape else grad_b)
            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out = _node(np.exp(self.data), (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad * out.data)
            out._backward = backward
        return out

    def log(self) -> "Tensor":
        out = _node(np.log(self.data), (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad / self.data)
            out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out = _node(np.tanh(self.data), (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad * (1.0 - out.data**2))
            out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = _node(value, (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad * out.data * (1.0 - out.data))
            out._backward = backward
        return out

    def relu(self) -> "Tensor":
        out = _node(np.maximum(self.data, 0.0), (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad * (self.data > 0.0))
            out._backward = backward
        return out

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation, as in BERT).

        The cube is two multiplies, not ``x**3``: ``np.power`` has no fast
        loop for a cube on common numpy builds (~60x ``x * x * x``), and
        the two differ by a few ulps at most.
        """
        c = math.sqrt(2.0 / math.pi)
        x = self.data
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        out = _node(0.5 * x * (1.0 + t), (self,))
        if out._parents:
            def backward() -> None:
                dinner = c * (1.0 + 3 * 0.044715 * x**2)
                grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
                self._accumulate(out.grad * grad)
            out._backward = backward
        return out

    # ------------------------------------------------------------------ #
    # reductions and shape ops
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out._parents:
            def backward() -> None:
                grad = out.grad
                if not keepdims and axis is not None:
                    grad = np.expand_dims(grad, axis)
                self._accumulate(np.broadcast_to(grad, self.data.shape))
            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.data.shape
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = math.prod(shape[a] for a in axis)
        else:
            count = shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _node(self.data.reshape(shape), (self,))
        if out._parents:
            def backward() -> None:
                self._accumulate(out.grad.reshape(self.data.shape))
            out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = axes or tuple(reversed(range(self.ndim)))
        out = _node(self.data.transpose(axes), (self,))
        if out._parents:
            inverse = tuple(np.argsort(axes))
            def backward() -> None:
                self._accumulate(out.grad.transpose(inverse))
            out._backward = backward
        return out

    def __getitem__(self, key) -> "Tensor":
        out = _node(self.data[key], (self,))
        if out._parents:
            def backward() -> None:
                grad = np.zeros_like(self.data)
                np.add.at(grad, key, out.grad)
                self._accumulate(grad)
            out._backward = backward
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup): out[i...] = self[indices[i...]]."""
        indices = np.asarray(indices, dtype=np.int64)
        out = _node(self.data[indices], (self,))
        if out._parents:
            def backward() -> None:
                grad = np.zeros_like(self.data)
                np.add.at(grad, indices, out.grad)
                self._accumulate(grad)
            out._backward = backward
        return out


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _operand(value):
    """A binary op's other operand as numpy takes it: a tensor's array, a
    Python number as it is (numpy computes with it as the float64 a 0-d
    array of it would hold), anything else as a float64 array."""
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, (float, int)):
        return value
    return np.asarray(value, dtype=np.float64)


_new = object.__new__


def _wrap(data) -> Tensor:
    """A tensor of an op's result, with no graph. An op on float64 tensors
    returns a float64 array, which is taken as it is; a NumPy scalar (a
    full reduction, a scalar index) becomes a 0-d array."""
    out = _new(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    out._backward = None
    out._parents = ()
    return out


def _node(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    """Create an op output; tracks parents only when the graph is active."""
    out = _wrap(data)
    if _grad_mode.enabled and any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out.requires_grad = any(p.requires_grad for p in parents)
    return out


def _topological_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from ``root`` in reverse-topological (child-first) order."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


# ---------------------------------------------------------------------- #
# free functions
# ---------------------------------------------------------------------- #
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [_as_tensor(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out._parents:
        sizes = [t.data.shape[axis] for t in tensors]
        def backward() -> None:
            offsets = np.cumsum([0] + sizes)
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * out.grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(out.grad[tuple(slicer)])
        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [_as_tensor(t) for t in tensors]
    out = _node(np.stack([t.data for t in tensors], axis=axis), tuple(tensors))
    if out._parents:
        def backward() -> None:
            pieces = np.split(out.grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(np.squeeze(piece, axis=axis))
        out._backward = backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax built from primitive ops."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax built from primitive ops."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

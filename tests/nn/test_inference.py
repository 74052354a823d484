"""Inference is the eager ops under ``no_grad``: no graph, the same bits.

Turning the graph off may only drop the bookkeeping. Every op and layer
returns, bit for bit, the array it returns with gradients on, and records
no parents, no backward closure and no ``requires_grad``. LayerNorm and
softmax run the ufunc sequences written out below, and GELU's cube is
``x * x * x`` — the arithmetic every stored lake vector was computed with
(``tests/core/test_inference_digest.py`` pins the vectors themselves).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import LayerNorm, Linear
from repro.nn.tensor import Tensor, concat, log_softmax, no_grad, softmax, stack
from repro.nn.transformer import TransformerEncoderConfig, TransformerEncoderLayer

RNG = np.random.default_rng(7)
A = RNG.normal(size=(2, 3, 4))
B = RNG.normal(size=(2, 3, 4))
W = RNG.normal(size=(4, 5))
MASK = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
C = math.sqrt(2.0 / math.pi)


def _norm(dim: int) -> LayerNorm:
    layer = LayerNorm(dim)
    layer.gamma.data = RNG.normal(size=dim)
    layer.beta.data = RNG.normal(size=dim)
    return layer


LINEAR = Linear(4, 5)
NORM = _norm(4)
ATTENTION = MultiHeadSelfAttention(4, 2)
ENCODER_LAYER = TransformerEncoderLayer(
    TransformerEncoderConfig(dim=4, num_heads=2, ffn_dim=8, dropout=0.0)
)

#: name -> f(a, b): every op and layer the trunk's forward is built from.
OPS = {
    "add": lambda a, b: a + b,
    "radd": lambda a, b: 2.0 + a,
    "sub": lambda a, b: a - b,
    "rsub": lambda a, b: 1.0 - a,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * b,
    "rmul": lambda a, b: 0.5 * a,
    "div": lambda a, b: a / (b * b + 1.0),
    "rdiv": lambda a, b: 1.0 / (a * a + 1.0),
    "pow": lambda a, b: (a * a + 1.0) ** -0.5,
    "sqrt": lambda a, b: (a * a).sqrt(),
    "matmul": lambda a, b: a @ b.transpose(0, 2, 1),
    "matmul_const": lambda a, b: a @ Tensor(W),
    "exp": lambda a, b: a.exp(),
    "log": lambda a, b: (a * a + 1.0).log(),
    "tanh": lambda a, b: a.tanh(),
    "sigmoid": lambda a, b: a.sigmoid(),
    "relu": lambda a, b: a.relu(),
    "gelu": lambda a, b: a.gelu(),
    "sum": lambda a, b: a.sum(axis=-1, keepdims=True),
    "mean": lambda a, b: a.mean(axis=(0, 2)),
    "reshape": lambda a, b: a.reshape(6, 4),
    "transpose": lambda a, b: a.transpose(2, 0, 1),
    "getitem": lambda a, b: a[:, 1:, ::2],
    "take_rows": lambda a, b: a.reshape(6, 4).take_rows(np.array([[0, 5], [3, 3]])),
    "concat": lambda a, b: concat([a, b], axis=1),
    "stack": lambda a, b: stack([a, b]),
    "softmax": lambda a, b: softmax(a),
    "log_softmax": lambda a, b: log_softmax(a, axis=1),
    "linear": lambda a, b: LINEAR(a),
    "layernorm": lambda a, b: NORM(a),
    "attention": lambda a, b: ATTENTION(a, MASK),
    "encoder_layer": lambda a, b: ENCODER_LAYER(a, MASK),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_no_grad_forward_is_the_training_forward_without_a_graph(op):
    trained = OPS[op](Tensor(A, requires_grad=True), Tensor(B, requires_grad=True))
    assert trained._parents  # with gradients on, the op records its graph
    with no_grad():
        inferred = OPS[op](Tensor(A), Tensor(B))
    assert np.array_equal(inferred.data, trained.data)
    assert inferred._parents == ()
    assert inferred._backward is None
    assert not inferred.requires_grad


def test_layernorm_runs_the_stored_ufunc_sequence():
    layer = _norm(32)
    x = RNG.normal(3.0, 5.0, size=(4, 9, 32))
    inv_n = 1.0 / 32.0
    mean = x.sum(axis=-1, keepdims=True) * inv_n
    centered = x - mean
    variance = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    scale = np.power(variance + layer.eps, -0.5)
    expected = centered * scale * layer.gamma.data + layer.beta.data
    with no_grad():
        assert np.array_equal(layer(Tensor(x)).data, expected)


def test_softmax_runs_the_stored_ufunc_sequence():
    scores = RNG.normal(scale=4.0, size=(3, 2, 9, 9))
    scores[..., -2:] += -1e9  # masked keys, as attention adds them
    shifted = np.exp(scores + -scores.max(axis=-1, keepdims=True))
    expected = shifted / shifted.sum(axis=-1, keepdims=True)
    with no_grad():
        assert np.array_equal(softmax(Tensor(scores)).data, expected)


def test_gelu_forward_is_the_two_multiply_formula():
    x = RNG.normal(scale=3.0, size=(64, 32))
    expected = 0.5 * x * (1.0 + np.tanh(C * (x + 0.044715 * (x * x * x))))
    assert np.array_equal(Tensor(x, requires_grad=True).gelu().data, expected)
    with no_grad():
        assert np.array_equal(Tensor(x).gelu().data, expected)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=64))
@example([-2.0000000000000004, -1.9999999999999998, 0.0, -0.0, 5e-324, 1e6])
def test_gelu_within_4_ulp_of_the_power_form(values):
    """``x * x * x`` against ``np.power(x, 3)``, in ulps of the input:
    in the negative tail ``1 + tanh(...)`` cancels, so both forms carry
    far fewer correct bits than the result's own magnitude suggests and
    its ulp is no yardstick."""
    x = np.array(values)
    power_form = 0.5 * x * (1.0 + np.tanh(C * (x + 0.044715 * np.power(x, 3))))
    with no_grad():
        got = Tensor(x).gelu().data
    assert np.all(np.abs(got - power_form) <= 4 * np.spacing(np.abs(x)))

"""Neural substrate: reverse-mode autodiff + transformer encoder in numpy.

The paper builds on HuggingFace BERT; this package is the from-scratch
replacement. It provides:

- :mod:`repro.nn.tensor` — a reverse-mode autodiff :class:`Tensor` over numpy
  arrays with broadcasting-aware gradients. There is one engine: training
  and inference run the same eager ops, and inference wraps them in
  ``no_grad`` so no graph is recorded.
- :mod:`repro.nn.layers` — ``Module`` base class plus Linear, Embedding,
  LayerNorm and Dropout.
- :mod:`repro.nn.attention` / :mod:`repro.nn.transformer` — multi-head
  self-attention and the BERT-style encoder stack (pre-LN off; GELU; learned
  pooler over the first token, as BERT's pooler does).
- :mod:`repro.nn.losses` — cross-entropy (with ignore index, for MLM),
  mean-squared error, binary cross-entropy with logits.
- :mod:`repro.nn.optim` — Adam and SGD with gradient clipping and linear
  warmup schedules.
- :mod:`repro.nn.serialization` — ``state_dict`` save/load via ``.npz``.
"""

from repro.nn.tensor import Tensor, concat, no_grad, stack
from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    Sequential,
)
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.transformer import (
    TransformerEncoder,
    TransformerEncoderConfig,
    TransformerEncoderLayer,
)
from repro.nn.losses import bce_with_logits_loss, cross_entropy_loss, mse_loss
from repro.nn.optim import Adam, GradClipper, LinearWarmupSchedule, Sgd
from repro.nn.serialization import load_state_dict, save_state_dict

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "no_grad",
    "Dropout",
    "Embedding",
    "LayerNorm",
    "Linear",
    "Module",
    "Parameter",
    "Sequential",
    "MultiHeadSelfAttention",
    "TransformerEncoder",
    "TransformerEncoderConfig",
    "TransformerEncoderLayer",
    "bce_with_logits_loss",
    "cross_entropy_loss",
    "mse_loss",
    "Adam",
    "GradClipper",
    "LinearWarmupSchedule",
    "Sgd",
    "load_state_dict",
    "save_state_dict",
]

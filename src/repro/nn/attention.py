"""Multi-head bidirectional self-attention (the BERT flavor, §III-B).

"The self-attention in BERT is bi-directional: each token can attend to the
tokens on both its left and the right side."
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor, softmax
from repro.utils.rng import spawn_rng

#: Additive mask value for padded positions (large negative, pre-softmax).
NEG_INF = -1e9


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product multi-head self-attention.

    Inputs are ``(batch, seq, dim)``; ``attention_mask`` is a ``(batch, seq)``
    float array with 1 for real tokens and 0 for padding.
    """

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.0, seed: int = 0):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim={dim} not divisible by num_heads={num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        rng = spawn_rng(seed, f"mhsa-{dim}-{num_heads}")
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.output = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (B, S, D) -> (B, H, S, Hd)
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        batch, seq, _ = x.shape
        q = self._split_heads(self.query(x), batch, seq)
        k = self._split_heads(self.key(x), batch, seq)
        v = self._split_heads(self.value(x), batch, seq)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(self.head_dim))
        if attention_mask is not None:
            bias = (1.0 - np.asarray(attention_mask, dtype=np.float64)) * NEG_INF
            scores = scores + Tensor(bias[:, None, None, :])
        weights = self.dropout(softmax(scores, axis=-1))
        context = weights @ v  # (B, H, S, Hd)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.dim)
        return self.output(merged)

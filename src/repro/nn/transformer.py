"""BERT-style transformer encoder stack.

Post-LN layout as in the original BERT: each sublayer is
``x = LayerNorm(x + Dropout(Sublayer(x)))`` and the feed-forward uses GELU.
A learned tanh pooler over the first token reproduces BERT's
``pooler_output``, which the paper's cross-encoder head consumes (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class TransformerEncoderConfig:
    """Size hyper-parameters of the encoder trunk."""

    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    dropout: float = 0.1
    seed: int = 0


class TransformerEncoderLayer(Module):
    """One post-LN encoder block: self-attention + GELU feed-forward."""

    def __init__(self, config: TransformerEncoderConfig, layer_index: int = 0):
        super().__init__()
        seed = config.seed * 1000 + layer_index
        rng = spawn_rng(seed, f"encoder-layer-{layer_index}")
        self.attention = MultiHeadSelfAttention(
            config.dim, config.num_heads, dropout=config.dropout, seed=seed
        )
        self.attention_norm = LayerNorm(config.dim)
        self.ffn_in = Linear(config.dim, config.ffn_dim, rng=rng)
        self.ffn_out = Linear(config.ffn_dim, config.dim, rng=rng)
        self.ffn_norm = LayerNorm(config.dim)
        self.dropout = Dropout(config.dropout, rng=rng)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        attended = self.attention(x, attention_mask)
        x = self.attention_norm(x + self.dropout(attended))
        ff = self.ffn_out(self.ffn_in(x).gelu())
        return self.ffn_norm(x + self.dropout(ff))


class TransformerEncoder(Module):
    """A stack of encoder layers plus BERT's tanh pooler on token 0."""

    def __init__(self, config: TransformerEncoderConfig):
        super().__init__()
        self.config = config
        self.layers = [
            TransformerEncoderLayer(config, i) for i in range(config.num_layers)
        ]
        pool_rng = spawn_rng(config.seed, "pooler")
        self.pooler = Linear(config.dim, config.dim, rng=pool_rng)

    def forward(self, x: Tensor, attention_mask: np.ndarray | None = None) -> Tensor:
        """Token-level hidden states ``(batch, seq, dim)``."""
        for layer in self.layers:
            x = layer(x, attention_mask)
        return x

    def pool(self, hidden: Tensor) -> Tensor:
        """BERT pooler output: tanh(W · h[CLS]) of shape ``(batch, dim)``."""
        first_token = hidden[:, 0, :]
        return self.pooler(first_token).tanh()

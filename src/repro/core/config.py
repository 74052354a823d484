"""Configuration objects for TabSketchFM."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.nn.transformer import TransformerEncoderConfig
from repro.sketch.pipeline import SketchConfig


@dataclass(frozen=True)
class SketchSelection:
    """Which sketch families feed the input embedding (Tables III/IV).

    The paper ablates three groups: column MinHash sketches (cell values +
    words), numerical sketches, and the table-level content snapshot. A
    disabled group contributes a zero vector in the embedding sum, exactly
    like an absent feature.
    """

    use_minhash: bool = True
    use_numeric: bool = True
    use_snapshot: bool = True

    def tag(self) -> str:
        parts = []
        if self.use_minhash:
            parts.append("mh")
        if self.use_numeric:
            parts.append("num")
        if self.use_snapshot:
            parts.append("cs")
        return "+".join(parts) if parts else "none"


@dataclass(frozen=True)
class TabSketchFMConfig:
    """All hyper-parameters of the model and its input layer.

    The paper uses BERT-base (12 layers, hidden 768, 118M parameters); this
    reproduction defaults to a laptop-scale trunk (2 layers, hidden 64) —
    see README "Scale-down substitutions" for the rationale. Every structural
    element of the input layer is preserved at full fidelity.
    """

    vocab_size: int = 2048
    dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    dropout: float = 0.1
    max_seq_len: int = 160
    #: Upper bound on the within-column token position embedding table.
    max_token_positions: int = 32
    #: Upper bound on column positions (0 reserved for the description).
    max_columns: int = 32
    #: column types: 0 pad/description, 1 string, 2 int, 3 float, 4 date.
    num_column_types: int = 5
    #: segments: table A vs table B in the cross-encoder.
    num_segments: int = 2
    sketch: SketchConfig = field(default_factory=lambda: SketchConfig(num_perm=64))
    selection: SketchSelection = field(default_factory=SketchSelection)
    seed: int = 0

    @property
    def minhash_input_dim(self) -> int:
        """Width of per-position MinHash vectors: values ‖ words halves."""
        return 2 * self.sketch.num_perm

    def encoder_config(self) -> TransformerEncoderConfig:
        return TransformerEncoderConfig(
            dim=self.dim,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            ffn_dim=self.ffn_dim,
            dropout=self.dropout,
            seed=self.seed,
        )

    def with_selection(self, selection: SketchSelection) -> "TabSketchFMConfig":
        return replace(self, selection=selection)

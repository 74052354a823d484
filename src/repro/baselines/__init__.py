"""Baselines the paper compares against (§IV-A1, §IV-C).

Two families:

**Trainable pair models** (Table II) built on a shared value-based text
encoder with the paper's dual-encoder recipe — each baseline differs in what
it *sees* and whether its trunk is frozen, which is what drives the paper's
ordering (see README "Scale-down substitutions"):

- Vanilla BERT — column headers only, trainable;
- TaBERT-style — linearized rows (values visible), trainable;
- TUTA-style — a 256-token table sequence, table-level embedding, trainable;
- TAPAS-style — row serialization with an empty-query prefix, frozen trunk;
- TABBIE-style — mean-pooled per-row embeddings, frozen trunk.

**Search systems** (Tables V-VIII):

- SBERT — top-100-values column sentences through the frozen encoder;
- Josie — exact set-containment top-k;
- LSH Forest — MinHash prefix-tree top-k;
- DeepJoin — column-to-text serialization + embedding index;
- WarpGate — word-embedding column vectors + SimHash LSH;
- D3L — five-evidence union scorer;
- SANTOS — relationship-signature union search;
- Starmie — contrastive column encoder + greedy column matching.
"""

from repro.baselines.encoders import (
    TextTableEncoder,
    serialize_headers,
    serialize_rows,
    serialize_table_sequence,
)
from repro.baselines.dual_encoder import (
    BASELINE_FACTORIES,
    DualEncoderModel,
    DualEncoderTrainer,
    make_baseline,
)
from repro.baselines.sbert_search import SbertSearcher
from repro.baselines.josie import JosieSearcher
from repro.baselines.lshforest_search import LshForestSearcher
from repro.baselines.deepjoin import DeepJoinSearcher
from repro.baselines.warpgate import WarpGateSearcher
from repro.baselines.d3l import D3lSearcher
from repro.baselines.santos import SantosSearcher
from repro.baselines.starmie import StarmieSearcher

__all__ = [
    "TextTableEncoder",
    "serialize_headers",
    "serialize_rows",
    "serialize_table_sequence",
    "BASELINE_FACTORIES",
    "DualEncoderModel",
    "DualEncoderTrainer",
    "make_baseline",
    "SbertSearcher",
    "JosieSearcher",
    "LshForestSearcher",
    "DeepJoinSearcher",
    "WarpGateSearcher",
    "D3lSearcher",
    "SantosSearcher",
    "StarmieSearcher",
]

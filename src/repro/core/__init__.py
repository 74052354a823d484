"""TabSketchFM core: the paper's primary contribution.

- :mod:`repro.core.config` — model hyper-parameters and sketch-ablation flags.
- :mod:`repro.core.inputs` — turns a :class:`~repro.sketch.TableSketch` (or a
  pair, for cross-encoding) into the model's aligned input arrays: token ids,
  within-column token positions, column positions, column types, segment ids,
  per-position MinHash vectors and numerical-sketch vectors (Fig. 1).
- :mod:`repro.core.model` — the encoder that sums the six embeddings of
  §III-B and runs the BERT-style trunk; plus the MLM head.
- :mod:`repro.core.pretrain` — whole-column masking, column-shuffle
  augmentation and the MLM objective (§III-C, Figs. 2a/3).
- :mod:`repro.core.finetune` — cross-encoders for binary / regression /
  multi-label LakeBench tasks (§III-D, Fig. 2b), and ``TaskType``, which
  holds each task family's labels, loss and predictions. Both train
  through the one loop, :func:`repro.nn.training.fit`, each supplying
  only its batch loss.
- :mod:`repro.core.engine` — the batched ``EmbeddingEngine``: one shared
  forward per batch produces table *and* column embeddings, with dynamic
  padding and length bucketing for lake-scale offline indexing.
- :mod:`repro.core.embed` — per-table embedding shim over the engine and
  the normalized SBERT-concatenation of §IV-C (TabSketchFM-SBERT).
- :mod:`repro.core.searcher` — the TaBERT-FT / TUTA-FT dual-encoder search
  adapters.
- :mod:`repro.core.ablation` — the sketch subsets used in Tables III/IV.

The paper's search recipe over these embeddings (§IV-C) is served by
:mod:`repro.lake`: :class:`repro.lake.catalog.TabSketchFMSearcher` indexes a
benchmark's tables in a storeless :class:`~repro.lake.catalog.LakeCatalog`
and ranks through the same :meth:`~repro.search.tables.TableSearcher.rank`
call the lake service makes.
"""

from repro.core.config import SketchSelection, TabSketchFMConfig
from repro.core.inputs import EncodedTable, InputEncoder, PairEncoding
from repro.core.model import TabSketchFM
from repro.core.pretrain import (
    MaskedExample,
    PretrainConfig,
    Pretrainer,
    augment_tables,
    make_masked_examples,
)
from repro.core.finetune import (
    CrossEncoder,
    FinetuneConfig,
    Finetuner,
    PairExample,
    TaskType,
)
from repro.core.embed import TableEmbedder, concat_normalized
from repro.core.engine import EmbeddingEngine, TableEmbeddings, sketch_corpus
from repro.core.searcher import DualEncoderSearcher
from repro.core.ablation import ablation_selections

__all__ = [
    "SketchSelection",
    "TabSketchFMConfig",
    "EncodedTable",
    "InputEncoder",
    "PairEncoding",
    "TabSketchFM",
    "MaskedExample",
    "PretrainConfig",
    "Pretrainer",
    "augment_tables",
    "make_masked_examples",
    "CrossEncoder",
    "FinetuneConfig",
    "Finetuner",
    "PairExample",
    "TaskType",
    "TableEmbedder",
    "concat_normalized",
    "EmbeddingEngine",
    "TableEmbeddings",
    "sketch_corpus",
    "DualEncoderSearcher",
    "ablation_selections",
]

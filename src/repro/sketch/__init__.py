"""Sketching stack: MinHash, numerical sketches, content snapshots, LSH.

This package replaces the ``datasketch`` dependency the paper used and adds
the index structures its baselines need:

- :mod:`repro.sketch.minhash` — min-wise hashing over string sets with a
  universal hash family; supports Jaccard and containment estimation.
- :mod:`repro.sketch.numeric` — the paper's per-column "numerical sketch":
  ``[unique count, NaN count, cell width, 10th..90th percentile, mean, std,
  min, max]`` (§III-A).
- :mod:`repro.sketch.content` — the table-level content snapshot: a MinHash
  over the first 10 000 rows serialized as strings (§III-A).
- :mod:`repro.sketch.pipeline` — assembles all sketches for a table into a
  :class:`~repro.sketch.pipeline.TableSketch`, the model's raw input;
  ``sketch_batch`` is the one (batched, hash-once) sketch path, to the
  batch arrays a lake stores (``sketch_corpus`` is its objects), and
  ``value_signatures`` signs a table with only what join and subset read.
- :mod:`repro.sketch.lsh` — LSH Forest over MinHash (the LSH-Forest join
  baseline).
- :mod:`repro.sketch.simhash` — SimHash over dense vectors (WarpGate's index).
"""

from repro.sketch.minhash import (
    MinHash,
    MinHasher,
    estimate_containment,
    estimate_jaccard,
)
from repro.sketch.numeric import (
    NUMERICAL_SKETCH_DIM,
    NumericalSketch,
    numerical_sketch,
)
from repro.sketch.content import content_snapshot
from repro.sketch.interactions import INTERACTION_DIM, interaction_features
from repro.sketch.pipeline import (
    ColumnSketch,
    SketchBatch,
    SketchConfig,
    TableSketch,
    sketch_batch,
    sketch_corpus,
    sketch_table,
    value_signatures,
)
from repro.sketch.lsh import LshForest
from repro.sketch.simhash import SimHashIndex

__all__ = [
    "INTERACTION_DIM",
    "interaction_features",
    "MinHash",
    "MinHasher",
    "estimate_containment",
    "estimate_jaccard",
    "NUMERICAL_SKETCH_DIM",
    "NumericalSketch",
    "numerical_sketch",
    "content_snapshot",
    "ColumnSketch",
    "SketchBatch",
    "SketchConfig",
    "TableSketch",
    "sketch_batch",
    "sketch_corpus",
    "sketch_table",
    "value_signatures",
    "LshForest",
    "SimHashIndex",
]

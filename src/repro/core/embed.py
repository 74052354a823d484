"""Embedding extraction for search (§III-E, §IV-C).

"We extract the table embeddings from the finetuned TabSketchFM, and use that
to create nearest neighbor indexes for search tasks." For union search the
paper uses *column* embeddings instead (following Starmie) — the mean of each
column's contextualized token states.

Also implements the TabSketchFM-SBERT combination: "we concatenated the two
embeddings after normalizing them so the means and variances of the two
vectors were in the same scale."
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import EmbeddingEngine
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.sketch.pipeline import TableSketch


class TableEmbedder:
    """Per-table embedding API — a compatibility shim over the batched
    :class:`~repro.core.engine.EmbeddingEngine` (each call is a batch of
    one, so table and column embeddings still come from a single forward).

    Column embeddings are the first+last-layer average over the column's
    token span — the standard "first-last-avg" recipe from the
    sentence-embedding literature: the input layer carries the undiluted
    sketch geometry (value overlap), the last layer carries table context.
    Columns beyond the encoder's sequence budget fall back to the table
    embedding, which the shared forward has already produced.
    """

    def __init__(self, model: TabSketchFM, encoder: InputEncoder):
        self.model = model
        self.encoder = encoder
        self.engine = EmbeddingEngine(model, encoder)

    @property
    def dim(self) -> int:
        return self.model.config.dim

    # ------------------------------------------------------------------ #
    def table_embedding(self, sketch: TableSketch) -> np.ndarray:
        """Pooler output for a single-table input, shape ``(dim,)``."""
        return self.engine.embed_batch([sketch])[0].table

    def column_embeddings(self, sketch: TableSketch) -> np.ndarray:
        """Per-column embeddings, shape ``(n_cols, dim)`` (see class doc)."""
        return self.engine.embed_batch([sketch])[0].columns

    # ------------------------------------------------------------------ #
    def table_embeddings(self, sketches: list[TableSketch]) -> np.ndarray:
        """Stacked table embeddings, shape ``(n_tables, dim)`` — batched."""
        return self.engine.table_embeddings(sketches)


def finalize_column_vectors(
    columns: np.ndarray,
    sketch: TableSketch,
    sbert=None,
    table=None,
) -> list[tuple[str, np.ndarray]]:
    """Index-ready ``(column, vector)`` pairs: trunk columns ‖ optional
    SBERT value half.

    The one construction of a served column vector: every
    :class:`repro.lake.catalog.LakeCatalog` record (and so every
    :class:`repro.lake.catalog.TabSketchFMSearcher` index) and every
    external query's :meth:`~repro.lake.catalog.LakeCatalog.column_vector_pairs`
    come from here. The SBERT half needs raw cell values: with ``sbert``
    set and no ``table``, this raises a clear ``ValueError``.
    """
    if sbert is not None and table is None:
        raise ValueError(
            f"table {sketch.table_name!r} has no Table object but sbert is "
            "enabled; the SBERT half needs raw cell values"
        )
    out: list[tuple[str, np.ndarray]] = []
    for index, column_sketch in enumerate(sketch.column_sketches):
        vector = columns[index]
        if sbert is not None:
            value_vec = sbert.encode_column(table.column(column_sketch.name))
            vector = concat_normalized(vector, value_vec)
        out.append((column_sketch.name, vector))
    return out


def standardize(vector: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance rescaling of one vector (degenerate-safe)."""
    std = float(np.std(vector))
    if std == 0.0:
        return vector - float(np.mean(vector))
    return (vector - float(np.mean(vector))) / std


def concat_normalized(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """TabSketchFM-SBERT combination: standardize each part, then concat.

    Standardizing puts "the means and variances of the two vectors ... in the
    same scale" so that neither embedding dominates nearest-neighbour
    distances (§IV-C1). Each half is additionally scaled by 1/sqrt(width):
    with per-dim unit variance, a wider half would otherwise contribute more
    to distances purely by having more dimensions.
    """
    left = standardize(first) / np.sqrt(max(1, first.size))
    right = standardize(second) / np.sqrt(max(1, second.size))
    return np.concatenate([left, right])

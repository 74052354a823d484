"""Cross-table sketch interaction features for the pair encoder.

**Scale-down substitution** (README "Scale-down substitutions"): BERT-base
learns to compare MinHash signatures across positions internally — it has
12 layers, 118M parameters and 730k pre-training examples to discover that
two positions agreeing in many signature slots means their columns share
values. A 2-layer
laptop-scale trunk trained on a few hundred pairs cannot re-derive that
comparison primitive; it memorizes instead. We therefore compute the slot
agreement statistics *explicitly* and inject them at the [CLS] position of
pair encodings, so the model learns the task mapping on top of the same
information the paper's model extracts internally.

The features respect the sketch-ablation switches: disabling a sketch family
(Tables III/IV) zeroes its interaction features too, so ablations measure
exactly what the paper's do.

Feature layout (``INTERACTION_DIM`` floats):

====  =====================================================================
 0    content-snapshot slot agreement between the two tables
 1-3  values-MinHash column-pair agreement: max / mean-of-row-maxes(A→B) /
      mean-of-row-maxes(B→A)
 4-6  words-MinHash agreements, same aggregation
 7-9  numerical-sketch proximity (1 − normalized L1), same aggregation
 10   column-count ratio  min(|A|,|B|) / max(|A|,|B|)
 11   fraction of column-type matches under the best value-MinHash pairing
 12   *min* of B's per-column best value-MinHash agreements — the
      conjunctive subset statistic: B ⊆ A requires EVERY column of B to
      match some column of A
 13   min of B's per-column best numerical-sketch proximities, same idea
====  =====================================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sketch.minhash import estimate_jaccard
from repro.sketch.numeric import numeric_inputs
from repro.sketch.pipeline import TableSketch

if TYPE_CHECKING:  # avoid a module cycle with repro.core.config
    from repro.core.config import SketchSelection

INTERACTION_DIM = 14


class _FullSelection:
    """Default: every sketch family enabled."""

    use_minhash = True
    use_numeric = True
    use_snapshot = True


def _pairwise_stats(matrix: np.ndarray) -> tuple[float, float, float]:
    """(max, mean of row maxes, mean of column maxes) of a score matrix."""
    if matrix.size == 0:
        return 0.0, 0.0, 0.0
    return (
        float(matrix.max()),
        float(matrix.max(axis=1).mean()),
        float(matrix.max(axis=0).mean()),
    )


def _minhash_matrix(first: TableSketch, second: TableSketch, kind: str) -> np.ndarray:
    rows = []
    for a in first.column_sketches:
        row = []
        for b in second.column_sketches:
            mh_a = a.values_minhash if kind == "values" else a.words_minhash
            mh_b = b.values_minhash if kind == "values" else b.words_minhash
            if mh_a.is_empty() or mh_b.is_empty():
                row.append(0.0)
            else:
                row.append(estimate_jaccard(mh_a, mh_b))
        rows.append(row)
    return np.asarray(rows) if rows else np.zeros((0, 0))


def _numeric_matrix(first: TableSketch, second: TableSketch) -> np.ndarray:
    if not first.n_cols or not second.n_cols:
        return np.zeros((0, 0))
    rows = numeric_inputs(
        [c.numeric for c in first.column_sketches + second.column_sketches]
    )
    a, b = rows[: first.n_cols], rows[first.n_cols :]
    l1 = np.abs(a[:, None, :] - b[None, :, :]).mean(axis=-1)
    # Proximity in [0, 1]: identical sketches → 1. The sharp kernel keeps
    # scale-shifted distributions (whose squashed stats differ by only a few
    # hundredths) visibly apart from genuine matches.
    return np.exp(-12.0 * l1)


def interaction_features(
    first: TableSketch,
    second: TableSketch,
    selection: "SketchSelection | None" = None,
) -> np.ndarray:
    """The 12-dim cross-table interaction vector (ablation-aware)."""
    selection = selection or _FullSelection()
    out = np.zeros(INTERACTION_DIM, dtype=np.float64)

    if selection.use_snapshot and not (
        first.snapshot.is_empty() or second.snapshot.is_empty()
    ):
        out[0] = estimate_jaccard(first.snapshot, second.snapshot)

    values_matrix = None
    if selection.use_minhash:
        values_matrix = _minhash_matrix(first, second, "values")
        out[1:4] = _pairwise_stats(values_matrix)
        out[4:7] = _pairwise_stats(_minhash_matrix(first, second, "words"))
        if values_matrix.size:
            # Conjunctive subset statistic: the worst of B's best matches.
            out[12] = float(values_matrix.max(axis=0).min())

    if selection.use_numeric:
        numeric_matrix = _numeric_matrix(first, second)
        out[7:10] = _pairwise_stats(numeric_matrix)
        if numeric_matrix.size:
            out[13] = float(numeric_matrix.max(axis=0).min())

    n_a, n_b = first.n_cols, second.n_cols
    if n_a and n_b:
        out[10] = min(n_a, n_b) / max(n_a, n_b)

    if selection.use_minhash and values_matrix is not None and values_matrix.size:
        best = values_matrix.argmax(axis=1)
        matches = sum(
            1
            for i, j in enumerate(best)
            if first.column_sketches[i].ctype == second.column_sketches[int(j)].ctype
        )
        out[11] = matches / n_a
    return out

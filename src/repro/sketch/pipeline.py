"""Assemble all of a table's sketches into the model's raw input (§III-A).

For every table we produce a :class:`TableSketch`:

- one table-level **content snapshot** (MinHash over the first 10k rows);
- per column, a :class:`ColumnSketch` holding
  - the **cell-values MinHash** (all columns),
  - the **words MinHash** (string columns only; empty signature otherwise),
  - the **numerical sketch** vector,
  - the inferred column type.

The model input layer consumes the *normalized* forms: MinHash signatures
scaled to [0, 1] and the normalized numerical-statistics vector.

Sketching is **batch-first and hash-once**: :func:`sketch_corpus` is the one
sketch path (``sketch_table(t)`` is ``sketch_corpus([t])[0]``). A batch
collects every set that gets a signature — each column's distinct values and
words, each table's row strings — hashes each distinct string of the batch
once, and reads all signatures off one permutation pass. A set's signature
is a function of the set alone, so batched sketches are bit-identical to
per-table ones at any batch composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.sketch.content import CONTENT_SNAPSHOT_ROWS, row_strings
from repro.sketch.minhash import DEFAULT_NUM_PERM, MinHash, MinHasher, word_set
from repro.sketch.numeric import (
    NumericAccumulator,
    NumericalSketch,
    numerical_profile,
)
from repro.table.schema import Column, ColumnType, Table
from repro.utils.hashing import hash_strings

#: Cells (rows x columns) :func:`sketch_corpus` gathers before it hashes a
#: batch. Bounds the scratch state (row strings, the distinct-string table,
#: raw hashes: a few MB) so a whole lake can be passed in one call; large
#: enough that the per-batch numpy overhead is amortized.
_BATCH_CELLS = 1 << 14


@dataclass(frozen=True)
class SketchConfig:
    """Knobs for sketch construction.

    ``num_perm`` is the MinHash signature width; ``snapshot_rows`` bounds the
    content snapshot. ``seed`` fixes the hash family — every sketch that will
    ever be compared must share it.
    """

    num_perm: int = DEFAULT_NUM_PERM
    snapshot_rows: int = CONTENT_SNAPSHOT_ROWS
    seed: int = 1

    def build_hasher(self) -> MinHasher:
        return MinHasher(num_perm=self.num_perm, seed=self.seed)


@dataclass(frozen=True)
class ColumnSketch:
    """All sketches of one column."""

    name: str
    ctype: ColumnType
    values_minhash: MinHash
    words_minhash: MinHash  # empty signature for non-string columns
    numeric: NumericalSketch
    n_values: int  # distinct non-null count, for containment estimation
    #: Mergeable state behind ``numeric`` / ``n_values``. ``None`` only on
    #: sketches deserialized from a pre-live-tables store; such columns
    #: cannot be appended to until the table is re-ingested or updated.
    numeric_acc: NumericAccumulator | None = None

    def merge(self, delta: "ColumnSketch") -> "ColumnSketch":
        """Sketch of this column with ``delta``'s rows appended.

        MinHash halves merge exactly (slotwise min); the numerical state
        merges through :class:`NumericAccumulator` (exact under its caps,
        documented approximation beyond). The column type is frozen at
        ingest: the delta must have been sketched with this column's type.
        """
        if self.name != delta.name:
            raise ValueError(f"column name mismatch: {self.name!r} vs {delta.name!r}")
        if self.ctype != delta.ctype:
            raise ValueError(
                f"column {self.name!r}: delta sketched as {delta.ctype.name}, "
                f"stored column is {self.ctype.name}"
            )
        if self.numeric_acc is None or delta.numeric_acc is None:
            raise ValueError(
                f"column {self.name!r} predates mergeable sketch state; "
                "re-ingest or update the table before appending"
            )
        acc = self.numeric_acc.merge(delta.numeric_acc)
        return ColumnSketch(
            name=self.name,
            ctype=self.ctype,
            values_minhash=self.values_minhash.merge(delta.values_minhash),
            words_minhash=self.words_minhash.merge(delta.words_minhash),
            numeric=acc.to_sketch(),
            n_values=acc.n_distinct,
            numeric_acc=acc,
        )

    def minhash_vector(self, num_perm: int) -> np.ndarray:
        """The concatenated [values ‖ words] MinHash model input.

        For string columns both halves are populated (E_{C||W} in Fig. 1);
        for numeric/date columns the words half is zero (E_C only).

        Slots pass through :func:`repro.sketch.minhash.slot_features`: a
        bijective per-slot re-randomization into uniform [-1, 1] features
        whose dot products are proportional to slot agreement (raw minima
        share a huge common mode that linear projections cannot separate).
        Absent halves stay 0 (the neutral value).
        """
        from repro.sketch.minhash import slot_features

        vec = np.zeros(2 * num_perm, dtype=np.float64)
        vec[:num_perm] = slot_features(self.values_minhash)
        if self.ctype == ColumnType.STRING and not self.words_minhash.is_empty():
            vec[num_perm:] = slot_features(self.words_minhash)
        return vec


@dataclass(frozen=True)
class TableSketch:
    """All sketches of one table, plus identifying metadata."""

    table_name: str
    description: str
    column_sketches: list[ColumnSketch]
    snapshot: MinHash
    config: SketchConfig = field(default=SketchConfig())

    @property
    def n_cols(self) -> int:
        return len(self.column_sketches)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.column_sketches]

    def snapshot_vector(self) -> np.ndarray:
        """Content-snapshot model input (E_CS in Fig. 1), zero-padded to the
        same 2*num_perm width as column MinHash vectors and slot-decorrelated
        like them (see :meth:`ColumnSketch.minhash_vector`)."""
        from repro.sketch.minhash import slot_features

        vec = np.zeros(2 * self.config.num_perm, dtype=np.float64)
        vec[: self.config.num_perm] = slot_features(self.snapshot)
        return vec

    def merge(self, delta: "TableSketch") -> "TableSketch":
        """Sketch of this table with ``delta``'s rows appended — O(delta).

        The delta must carry the same column names in the same order and
        the same :class:`SketchConfig` (same hash family). Column sketches
        merge pairwise; the content snapshot merges by MinHash union. Note
        the snapshot caveat: a cold rebuild only snapshots the first
        ``config.snapshot_rows`` rows, while merged snapshots cover every
        appended row — merge-vs-rebuild snapshot parity therefore holds
        exactly while the total row count stays under that limit.
        """
        if self.config != delta.config:
            raise ValueError("sketch configs differ; cannot merge")
        if self.column_names != delta.column_names:
            raise ValueError(
                f"column mismatch: table has {self.column_names}, "
                f"delta has {delta.column_names}"
            )
        return TableSketch(
            table_name=self.table_name,
            description=self.description,
            column_sketches=[
                ours.merge(theirs)
                for ours, theirs in zip(self.column_sketches, delta.column_sketches)
            ],
            snapshot=self.snapshot.merge(delta.snapshot),
            config=self.config,
        )


def _hash_sets(sets: Sequence[set[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Raw FNV-1a hashes of every set's members, set after set.

    Returns ``(raw, bounds)`` with set ``j``'s hashes at
    ``raw[bounds[j]:bounds[j + 1]]``. A string that occurs in several sets
    (a join key in two columns, a one-word cell in both the values and the
    words set) is hashed once.
    """
    members = list(chain.from_iterable(sets))
    bounds = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=bounds[1:])
    distinct = list(set(members))
    hash_of = dict(zip(distinct, hash_strings(distinct).tolist()))
    raw = np.fromiter(
        map(hash_of.__getitem__, members), dtype=np.uint64, count=len(members)
    )
    return raw, bounds


def _sketch_batch(
    columns: Sequence[Column], row_sets: Sequence[set[str]], hasher: MinHasher
) -> tuple[list[ColumnSketch], list[MinHash]]:
    """Column sketches for ``columns`` and one snapshot per set of rows."""
    non_nulls = [column.non_null_values() for column in columns]
    sets: list[set[str]] = []  # values, words per column; then the row sets
    for column, non_null in zip(columns, non_nulls):
        values = set(non_null)
        # Words MinHash is for string columns only (§III-A); the empty set
        # yields the empty signature for the other types.
        is_string = column.inferred_type == ColumnType.STRING
        sets += [values, word_set(values) if is_string else set()]
    sets += row_sets
    raw, bounds = _hash_sets(sets)
    signatures = hasher.signatures(raw, np.diff(bounds))
    column_sketches = []
    for i, (column, non_null) in enumerate(zip(columns, non_nulls)):
        value_hashes = raw[bounds[2 * i] : bounds[2 * i + 1]]
        numeric, acc = numerical_profile(
            column, non_null=non_null, distinct_hashes=value_hashes
        )
        column_sketches.append(
            ColumnSketch(
                name=column.name,
                ctype=column.inferred_type,
                values_minhash=MinHash(signatures[2 * i]),
                words_minhash=MinHash(signatures[2 * i + 1]),
                numeric=numeric,
                n_values=len(value_hashes),
                numeric_acc=acc,
            )
        )
    snapshots = [MinHash(row) for row in signatures[2 * len(columns) :]]
    return column_sketches, snapshots


def sketch_column(column: Column, hasher: MinHasher) -> ColumnSketch:
    """Sketch one column: values MinHash, words MinHash, numerical sketch."""
    return _sketch_batch([column], [], hasher)[0][0]


def _cell_bounded(tables: Iterable[Table]) -> Iterator[list[Table]]:
    batch: list[Table] = []
    cells = 0
    for table in tables:
        batch.append(table)
        cells += table.n_rows * table.n_cols
        if cells >= _BATCH_CELLS:
            yield batch
            batch, cells = [], 0
    if batch:
        yield batch


def sketch_corpus(
    tables: Iterable[Table],
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> list[TableSketch]:
    """Produce the full :class:`TableSketch` of every table, in order.

    Bit-identical to sketching each table on its own, whatever the batch:
    ingest, the query path and append deltas all come through here. Passing
    a pre-built ``hasher`` avoids recreating the hash family per call.
    """
    config = config or SketchConfig()
    hasher = hasher or config.build_hasher()
    if hasher.num_perm != config.num_perm:
        raise ValueError("hasher num_perm does not match config.num_perm")
    sketches = []
    for batch in _cell_bounded(tables):
        column_sketches, snapshots = _sketch_batch(
            [column for table in batch for column in table.columns],
            [set(row_strings(table, config.snapshot_rows)) for table in batch],
            hasher,
        )
        remaining = iter(column_sketches)
        for table, snapshot in zip(batch, snapshots):
            sketches.append(
                TableSketch(
                    table_name=table.name,
                    description=table.description,
                    column_sketches=list(islice(remaining, table.n_cols)),
                    snapshot=snapshot,
                    config=config,
                )
            )
    return sketches


def sketch_table(
    table: Table,
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> TableSketch:
    """The :class:`TableSketch` of one table: ``sketch_corpus([table])[0]``."""
    return sketch_corpus([table], config, hasher)[0]

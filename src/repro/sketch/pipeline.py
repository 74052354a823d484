"""Assemble all of a table's sketches into the model's raw input (§III-A).

For every table we produce a :class:`TableSketch`:

- one table-level **content snapshot** (MinHash over the first 10k rows);
- per column, a :class:`ColumnSketch` holding
  - the **cell-values MinHash** (all columns),
  - the **words MinHash** (string columns only; empty signature otherwise),
  - the **numerical sketch** vector,
  - the inferred column type.

The model input layer (:mod:`repro.core.inputs`) consumes featurized
forms of these: :func:`repro.sketch.minhash.slot_features` of every
signature and :func:`repro.sketch.numeric.numeric_inputs` of every
numerical sketch, each mapped a batch of tables at a time.

Sketching is **batch-first and hash-once**: :func:`sketch_corpus` is the one
sketch path (``sketch_table(t)`` is ``sketch_corpus([t])[0]``). A batch
collects every set that gets a signature — each column's distinct values and
words, each table's row strings — hashes each distinct string of the batch
once, and reads all signatures off one permutation pass. The batch's
numeric state comes from one
:func:`~repro.sketch.numeric.numeric_accumulators` call, which reads every
column's value hashes as one run of that hash array, and its numerical
sketches from one :func:`~repro.sketch.numeric.numeric_sketches` call. A
set's signature and a column's numerical sketch are functions of the set
and the column alone, so batched sketches are bit-identical to per-table
ones at any batch composition.

That batch step is :func:`sketch_arrays`: signature rows and accumulators,
no sketch object. :func:`sketch_corpus` wraps its output in
:class:`TableSketch` objects; an append runs it on the delta's rows alone
(:func:`sketch_rows`), under the stored column types, and merges the
arrays into the stored record
(:func:`repro.lake.serialization.merge_rows`).

Join and subset read only one part of a sketch: each column's values
signature and distinct non-null count (:class:`JoinRows`).
:func:`value_signatures` signs a batch of tables with just that part — no
type inference, words, numerical profile or content snapshot — and equals
the :class:`JoinRows` of the tables' :func:`sketch_corpus` sketches bit for
bit, because both take each column's distinct non-null cells from one
helper and sign them through the same hash-once pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.sketch.content import CONTENT_SNAPSHOT_ROWS, joined_rows, row_strings
from repro.sketch.minhash import DEFAULT_NUM_PERM, MinHash, MinHasher, word_set
from repro.sketch.numeric import (
    NumericAccumulator,
    NumericalSketch,
    numeric_accumulators,
    numeric_sketches,
)
from repro.table.schema import Column, ColumnType, Table, cells_by_column, is_null
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


class JoinRows(NamedTuple):
    """What join and subset index and rank a table by: its columns, their
    values signatures (``uint64[n_cols, num_perm]``, a row per column, as
    the store keeps them) and their distinct-value counts
    (``int64[n_cols]``)."""

    table: str
    columns: list[str]
    signatures: np.ndarray
    sizes: np.ndarray


def _distinct_cells(values: list[str]) -> tuple[set[str], set[str]]:
    """A column's distinct non-null cells and its distinct null cells.

    :func:`~repro.table.schema.is_null` is asked once per distinct cell,
    not once per cell.
    """
    cells = set(values)
    nulls = set(filter(is_null, cells))
    cells -= nulls
    return cells, nulls


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


class SketchArrays(NamedTuple):
    """A batch's sketches as arrays (:func:`sketch_arrays`): column ``i``'s
    values and words signatures are row ``i`` of ``values`` and ``words``
    (``uint64[n_cols, num_perm]``), each set of rows' content snapshot a
    row of ``snapshots``, and each column's numeric state its
    :class:`NumericAccumulator` plus the sorted numeric values it was
    built from (``numbers``, which only a cold sketch reads)."""

    values: np.ndarray
    words: np.ndarray
    snapshots: np.ndarray
    accumulators: list[NumericAccumulator]
    numbers: list[np.ndarray]


def sketch_arrays(
    columns: Sequence[list[str]],
    ctypes: Sequence[ColumnType],
    row_sets: Sequence[set[str]],
    hasher: MinHasher,
) -> SketchArrays:
    """The array-level sketch of a batch: every column's cells
    (``columns[i]``, sketched as ``ctypes[i]``) and one snapshot per set of
    row strings, with no sketch object built.

    Each column's distinct non-null cells and (string columns only) its
    words, and every row set, are hashed once per distinct string of the
    batch (:func:`_hash_sets`) and signed in one
    :meth:`MinHasher.signatures` pass; the numeric state is the
    accumulator half of :func:`~repro.sketch.numeric.numerical_profiles`.
    :func:`sketch_corpus` builds its sketches on this step, and an append
    runs it on its delta's rows alone (:func:`sketch_rows`).
    """
    n = len(columns)
    split = [_distinct_cells(cells) for cells in columns]
    values = [distinct for distinct, _ in split]
    # Each column's cells minus its nulls, in order: non_null_values().
    non_nulls = [
        [cell for cell in cells if cell not in nulls] if nulls else cells
        for cells, (_, nulls) in zip(columns, split)
    ]
    # Words MinHash is for string columns only (§III-A); the empty set
    # yields the empty signature for the other types.
    words = [
        word_set(cells) if ctype == ColumnType.STRING else set()
        for cells, ctype in zip(values, ctypes)
    ]
    # Every column's values first, so their hashes are one run of ``raw``.
    raw, bounds = _hash_sets([*values, *words, *row_sets])
    signatures = hasher.signatures(raw, np.diff(bounds))
    accumulators, numbers = numeric_accumulators(
        [len(cells) for cells in columns],
        ctypes,
        non_nulls,
        raw[: bounds[n]],
        bounds[: n + 1],
    )
    return SketchArrays(
        signatures[:n], signatures[n : 2 * n], signatures[2 * n :],
        accumulators, numbers,
    )


def _sketch_batch(
    columns: Sequence[Column], row_sets: Sequence[set[str]], hasher: MinHasher
) -> tuple[list[ColumnSketch], list[MinHash]]:
    """Column sketches for ``columns`` and one snapshot per set of rows:
    :func:`sketch_arrays` of the batch, with each column's cold numerical
    sketch (:func:`~repro.sketch.numeric.numeric_sketches`)."""
    ctypes = [column.inferred_type for column in columns]
    arrays = sketch_arrays(
        [column.values for column in columns], ctypes, row_sets, hasher
    )
    numerics = numeric_sketches(arrays.accumulators, arrays.numbers)
    column_sketches = [
        ColumnSketch(
            name=column.name,
            ctype=ctype,
            values_minhash=MinHash(values),
            words_minhash=MinHash(words),
            numeric=numeric,
            n_values=acc.n_distinct,
            numeric_acc=acc,
        )
        for column, ctype, values, words, numeric, acc in zip(
            columns, ctypes, arrays.values, arrays.words, numerics,
            arrays.accumulators,
        )
    ]
    return column_sketches, [MinHash(row) for row in arrays.snapshots]


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


def _configured(
    config: SketchConfig | None, hasher: MinHasher | None
) -> tuple[SketchConfig, MinHasher]:
    """The config and hasher a batch entry point runs with."""
    config = config or SketchConfig()
    hasher = hasher or config.build_hasher()
    if hasher.num_perm != config.num_perm:
        raise ValueError("hasher num_perm does not match config.num_perm")
    return config, hasher


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
    config, hasher = _configured(config, hasher)
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


def value_signatures(
    tables: Iterable[Table],
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> list[JoinRows]:
    """The :class:`JoinRows` of every table, in order, without sketching it.

    Each column's distinct non-null cells are hashed once per distinct
    string of the batch and signed in one permutation pass; nothing else
    of the sketch is built, and no column's type is inferred. Equal, bit
    for bit, to the rows stacked from the tables' :func:`sketch_corpus`
    sketches, whatever the batch.
    """
    _, hasher = _configured(config, hasher)
    joins = []
    for batch in _cell_bounded(tables):
        raw, bounds = _hash_sets([
            _distinct_cells(column.values)[0]
            for table in batch
            for column in table.columns
        ])
        sizes = np.diff(bounds)
        signatures = hasher.signatures(raw, sizes)
        start = 0
        for table in batch:
            stop = start + table.n_cols
            joins.append(JoinRows(
                table.name,
                table.header,
                signatures[start:stop],
                sizes[start:stop],
            ))
            start = stop
    return joins


def sketch_rows(
    rows: Sequence[Sequence[str]],
    ctypes: Sequence[ColumnType],
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> SketchArrays:
    """The :func:`sketch_arrays` of one table's ``rows`` (one cell per
    column, in column order), column ``i`` sketched as ``ctypes[i]``: the
    delta an append merges. Bit for bit the arrays of the
    :func:`sketch_table` of the same rows with those column types, with no
    table or sketch object built."""
    config, hasher = _configured(config, hasher)
    columns = cells_by_column(rows, len(ctypes))
    row_set = set(joined_rows(columns, config.snapshot_rows))
    return sketch_arrays(columns, ctypes, [row_set], hasher)


def sketch_table(
    table: Table,
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> TableSketch:
    """The :class:`TableSketch` of one table: ``sketch_corpus([table])[0]``."""
    return sketch_corpus([table], config, hasher)[0]

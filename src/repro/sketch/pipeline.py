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

Sketching is **batch-first and hash-once**: :func:`sketch_batch` is the one
sketch path (``sketch_table(t)`` is ``sketch_corpus([t])[0]``). A batch
collects every set that gets a signature — each column's distinct values and
words, each table's row strings — hashes each distinct string of the batch
once, and reads all signatures off one permutation pass. The batch's
numeric state comes from one
:func:`~repro.sketch.numeric.numeric_accumulators` call, which reads every
column's value hashes as one run of that hash array, and its numerical
statistics from one :func:`~repro.sketch.numeric.numeric_stats` call. A
set's signature and a column's numerical sketch are functions of the set
and the column alone, so batched sketches are bit-identical to per-table
ones at any batch composition.

That batch step is :func:`sketch_arrays`: signature rows and accumulators,
no sketch object. :func:`sketch_batch` packs each pass straight to the
member arrays a lake stores and returns them as one :class:`SketchBatch`,
the form a new table travels in to the lake's records, the input encoder
and the column table; :func:`sketch_corpus` is its objects
(:meth:`SketchBatch.sketches`), for the paper paths. An append runs
:func:`sketch_arrays` on the delta's rows alone (:func:`sketch_rows`),
under the stored column types, and merges the arrays into the stored
record (:func:`repro.lake.serialization.merge_rows`).

Join and subset read only one part of a sketch: each column's values
signature and distinct non-null count (:class:`JoinRows`).
:func:`value_signatures` signs a batch of tables with just that part — no
type inference, words, numerical profile or content snapshot — and equals
the :class:`JoinRows` of the tables' :func:`sketch_corpus` sketches bit for
bit, because both take each column's distinct non-null cells from one
helper and sign them through the same hash-once pass.
"""

from __future__ import annotations

import dataclasses
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
    numeric_stats,
    pack_accumulators,
    stats_rows,
    unpack_accumulators,
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


#: Packed members with one row per table; a batch stacks them. Every other
#: member has a row per column, or (:data:`RUN_MEMBERS`) a run per column.
TABLE_MEMBERS = ("snapshot_sig",)
#: Members holding each column's run of values, by the member of per-column
#: run lengths that delimits them.
RUN_MEMBERS = {"acc_sample": "acc_sample_len", "acc_distinct": "acc_distinct_len"}


def concat_members(
    tables: Sequence[dict[str, np.ndarray]], table_members: Sequence[str] = TABLE_MEMBERS
) -> dict[str, np.ndarray]:
    """Many tables' members as one set of batch arrays: each member the row
    concatenation of theirs, stacked for ``table_members``. Only the
    members every table has are kept, in the first table's order."""
    keys = [key for key in tables[0] if all(key in arrays for arrays in tables)]
    return {
        key: (np.stack if key in table_members else np.concatenate)(
            [arrays[key] for arrays in tables]
        )
        for key in keys
    }


def split_members(
    members: dict[str, np.ndarray],
    widths: Sequence[int],
    table_members: Sequence[str] = TABLE_MEMBERS,
) -> list[dict[str, np.ndarray]]:
    """Each table's members out of batch arrays, table ``t`` owning
    ``widths[t]`` columns: views of its rows (of its row, for
    ``table_members``), and of its columns' runs for :data:`RUN_MEMBERS`.
    The inverse of :func:`concat_members`."""
    widths = np.asarray(widths, dtype=np.int64)
    col_ends = np.cumsum(widths)
    col_starts = col_ends - widths
    col_bounds = list(zip(col_starts.tolist(), col_ends.tolist()))
    bounds = {}
    for key, lengths in RUN_MEMBERS.items():
        if key in members:
            run_ends = np.concatenate([[0], np.cumsum(members[lengths])])
            bounds[key] = list(
                zip(run_ends[col_starts].tolist(), run_ends[col_ends].tolist())
            )
    tables: list[dict[str, np.ndarray]] = []
    for slot in range(len(col_bounds)):
        rows = {}
        for key, member in members.items():
            if key in table_members:
                rows[key] = member[slot]
            else:
                start, end = bounds.get(key, col_bounds)[slot]
                rows[key] = member[start:end]
        tables.append(rows)
    return tables


class SketchBatch(NamedTuple):
    """Tables' sketches as batch arrays: the form a new table travels in
    from the hash pass to the lake's records, the input encoder and the
    column table, with no sketch object built.

    ``members`` are every table's packed members row-concatenated, in
    archive order: ``snapshot_sig`` (a row per table), then a row per
    column of ``values_sig`` / ``words_sig`` (``uint64[., num_perm]``),
    ``numeric_stats`` (:func:`~repro.sketch.numeric.stats_rows`' raw
    rows), ``n_values`` and ``ctypes``, and the ``acc_*`` arrays of
    :func:`~repro.sketch.numeric.pack_accumulators` (left out when a
    table has no mergeable state). Table ``t`` is ``names[t]``, described
    by ``descriptions[t]``, with the columns ``columns[t]``.
    :meth:`table_members` cuts each table's rows out as views, the form a
    lake record holds; :meth:`sketches` builds the objects.
    """

    config: SketchConfig
    names: list[str]
    descriptions: list[str]
    columns: list[list[str]]
    members: dict[str, np.ndarray]

    @property
    def widths(self) -> list[int]:
        """Each table's column count."""
        return [len(columns) for columns in self.columns]

    def metas(self) -> list[dict]:
        """Each table's JSON-safe metadata, which a lake's manifest keeps
        beside its members: name, description, columns and sketch config."""
        config = dataclasses.asdict(self.config)
        return [
            {
                "table_name": name,
                "description": description,
                "columns": columns,
                "sketch_config": dict(config),
            }
            for name, description, columns in zip(
                self.names, self.descriptions, self.columns
            )
        ]

    def table_members(self) -> list[dict[str, np.ndarray]]:
        """Each table's members as read-only views of the batch arrays
        (:func:`split_members`), which this marks read-only."""
        for array in self.members.values():
            array.flags.writeable = False
        return split_members(self.members, self.widths)

    @classmethod
    def of_tables(
        cls,
        config: SketchConfig,
        metas: Sequence[tuple[str, str, list[str]]],
        tables: Sequence[dict[str, np.ndarray]],
    ) -> "SketchBatch":
        """One batch of tables given as ``(name, description, columns)``
        and their packed members, gathered with :func:`concat_members`
        (a table's ``snapshot_sig`` is its one row)."""
        names, descriptions, columns = (list(part) for part in zip(*metas))
        return cls(config, names, descriptions, columns, concat_members(tables))

    @classmethod
    def of_sketches(
        cls, sketches: Sequence["TableSketch"], config: SketchConfig | None = None
    ) -> "SketchBatch":
        """The arrays of sketch objects, gathered member by member (the
        ``acc_*`` arrays only if every column has its accumulator)."""
        if config is None:
            config = sketches[0].config if sketches else SketchConfig()
        columns = [column for sketch in sketches for column in sketch.column_sketches]

        def signatures(rows: list[np.ndarray]) -> np.ndarray:
            return (
                np.stack(rows).astype(np.uint64, copy=False)
                if rows
                else np.zeros((0, config.num_perm), dtype=np.uint64)
            )

        members = {
            "snapshot_sig": signatures([s.snapshot.signature for s in sketches]),
            "values_sig": signatures([c.values_minhash.signature for c in columns]),
            "words_sig": signatures([c.words_minhash.signature for c in columns]),
            "numeric_stats": stats_rows([c.numeric for c in columns]),
            "n_values": np.asarray([c.n_values for c in columns], dtype=np.int64),
            "ctypes": np.asarray([int(c.ctype) for c in columns], dtype=np.int64),
        }
        accs = [c.numeric_acc for c in columns]
        # Legacy sketch state (a pre-live-tables archive round-tripping
        # through an update path) has no accumulators: leave the arrays out
        # rather than invent approximate ones; appends to it are refused.
        if all(acc is not None for acc in accs):
            members.update(pack_accumulators(accs))
        return cls(
            config,
            [s.table_name for s in sketches],
            [s.description for s in sketches],
            [s.column_names for s in sketches],
            members,
        )

    def sketches(self) -> list["TableSketch"]:
        """The batch as sketch objects. Each owns its arrays: a signature
        member is copied out once for the batch, the numeric members are
        read as Python numbers in one conversion each, so the members may
        be read-only views."""
        members = self.members
        values = np.array(members["values_sig"], dtype=np.uint64)
        words = np.array(members["words_sig"], dtype=np.uint64)
        snapshots = np.array(members["snapshot_sig"], dtype=np.uint64)
        stats = np.asarray(members["numeric_stats"], dtype=np.float64).tolist()
        n_columns = len(stats)
        # Accumulators are absent in pre-live-tables archives.
        accs = (
            unpack_accumulators(members)
            if "acc_scalars" in members
            else [None] * n_columns
        )
        column_sketches = [
            ColumnSketch(
                name=name,
                ctype=ColumnType(ctype),
                values_minhash=MinHash(values_sig),
                words_minhash=MinHash(words_sig),
                numeric=NumericalSketch.from_row(row),
                n_values=n_values,
                numeric_acc=acc,
            )
            for name, ctype, values_sig, words_sig, row, n_values, acc in zip(
                chain.from_iterable(self.columns),
                members["ctypes"].tolist(),
                values,
                words,
                stats,
                members["n_values"].tolist(),
                accs,
            )
        ]
        remaining = iter(column_sketches)
        return [
            TableSketch(
                table_name=name,
                description=description,
                column_sketches=list(islice(remaining, len(columns))),
                snapshot=MinHash(snapshot),
                config=self.config,
            )
            for name, description, columns, snapshot in zip(
                self.names, self.descriptions, self.columns, snapshots
            )
        ]


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


def _packed(
    columns: Sequence[Column], row_sets: Sequence[set[str]], hasher: MinHasher
) -> dict[str, np.ndarray]:
    """The packed members of one hash pass: :func:`sketch_arrays` of the
    columns and row sets, each column's cold numerical statistics
    (:func:`~repro.sketch.numeric.numeric_stats`) and its packed
    accumulator."""
    ctypes = [column.inferred_type for column in columns]
    arrays = sketch_arrays(
        [column.values for column in columns], ctypes, row_sets, hasher
    )
    accs = pack_accumulators(arrays.accumulators)
    return {
        "snapshot_sig": arrays.snapshots,
        "values_sig": arrays.values,
        "words_sig": arrays.words,
        "numeric_stats": numeric_stats(
            arrays.accumulators, arrays.numbers, accs["acc_scalars"]
        ),
        "n_values": accs["acc_scalars"][:, 10].astype(np.int64),
        "ctypes": np.asarray(ctypes, dtype=np.int64),
        **accs,
    }


def sketch_batch(
    tables: Iterable[Table],
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> SketchBatch:
    """The :class:`SketchBatch` of every table, in order: the sketch path.

    Tables are hashed a bounded number of cells at a time
    (:func:`sketch_arrays`), each pass packed straight to member arrays,
    and the passes' arrays concatenated. Bit-identical to sketching each
    table on its own, whatever the batch: ingest, the query path and the
    paper's sketches all come through here. Passing a pre-built ``hasher``
    avoids recreating the hash family per call.
    """
    config, hasher = _configured(config, hasher)
    metas: list[tuple[str, str, list[str]]] = []
    passes = []
    for batch in _cell_bounded(tables):
        metas += [(t.name, t.description, t.header) for t in batch]
        passes.append(_packed(
            [column for table in batch for column in table.columns],
            [set(row_strings(table, config.snapshot_rows)) for table in batch],
            hasher,
        ))
    if not passes:
        return SketchBatch.of_sketches([], config)
    members = passes[0] if len(passes) == 1 else concat_members(passes, ())
    names, descriptions, columns = (list(part) for part in zip(*metas))
    return SketchBatch(config, names, descriptions, columns, members)


def sketch_corpus(
    tables: Iterable[Table],
    config: SketchConfig | None = None,
    hasher: MinHasher | None = None,
) -> list[TableSketch]:
    """Produce the full :class:`TableSketch` of every table, in order:
    the objects of its :func:`sketch_batch`."""
    return sketch_batch(tables, config, hasher).sketches()


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

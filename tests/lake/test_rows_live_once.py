"""Each column's vector, values signature and size live once: in the column
table.

A record the catalog serves holds no array of its own for
``column_vectors``, ``values_sig`` or ``n_values``; it reads them from its
table's block of the catalog's :class:`~repro.search.index.KnnIndex`, bit
for bit, after every kind of write and after a warm open. A record the
catalog stops serving, replaced or removed, keeps answering the rows it
had.
"""

from __future__ import annotations

import numpy as np

from repro.lake.catalog import LakeCatalog
from repro.lake.store import TABLE_HELD, LakeStore

ROWS = [["late", "7", "tag9"]]


def _bits(array) -> tuple:
    return (array.dtype.str, array.shape, array.tobytes())


def _answers(record) -> tuple:
    """Everything a record answers that the column table holds for it."""
    join = record.join_rows()
    return (
        _bits(record.column_vectors),
        tuple(_bits(record.members[key]) for key in TABLE_HELD),
        _bits(join.signatures),
        _bits(join.sizes),
        [(column, _bits(vector)) for column, vector in record.vector_pairs()],
        {key: _bits(array) for key, array in record.members.items()},
    )


def _assert_served_from_the_table(catalog: LakeCatalog) -> None:
    index = catalog.searcher.index
    for name, record in catalog.records.items():
        # What the record keeps itself: none of the table's three.
        own = {key for key, array in record._members.items() if array is not None}
        assert own == set(record.members) - set(TABLE_HELD), name
        assert record._vectors is None and record._table is index, name
        rows = catalog.searcher.rows(name)
        block = slice(rows.start, rows.stop)
        assert _bits(record.column_vectors) == _bits(index._matrix()[block])
        join = record.join_rows()
        assert _bits(join.signatures) == _bits(
            np.ascontiguousarray(index.signatures[:, block].T)
        )
        assert _bits(join.sizes) == _bits(index.sizes[block])
        assert _bits(record.members["values_sig"]) == _bits(join.signatures)
        assert _bits(record.members["n_values"]) == _bits(join.sizes)
        for array in (record.column_vectors, *record.members.values()):
            assert not array.flags.writeable


def test_served_records_read_their_rows_from_the_column_table(
    tmp_path, lake_embedder, lake_tables, small_archives
):
    names = list(lake_tables)
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path, "fp"))
    catalog.add_tables({name: lake_tables[name] for name in names[:-1]})
    _assert_served_from_the_table(catalog)

    kept = {}  # name -> (a record the catalog stopped serving, its answers)

    def stop_serving(name: str) -> None:
        record = catalog.records[name]
        kept[f"{name}@{record.version}{record.embedding_stale}"] = (
            record, _answers(record)
        )

    stop_serving(names[0])
    catalog.append_rows(names[0], ROWS)
    _assert_served_from_the_table(catalog)

    stop_serving(names[0])
    assert catalog.refresh_stale() == [names[0]]
    _assert_served_from_the_table(catalog)

    stop_serving(names[1])
    donor = lake_tables[names[2]]
    catalog.update_table(donor.with_columns(donor.columns[:2], name=names[1]))
    _assert_served_from_the_table(catalog)

    stop_serving(names[3])
    assert catalog.remove_table(names[3])
    catalog.add_table(lake_tables[names[-1]])
    _assert_served_from_the_table(catalog)

    for label, (record, answers) in kept.items():
        assert record._table is None, label
        assert _answers(record) == answers, label

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.searcher.insertions == 0
    _assert_served_from_the_table(warm)
    for name, record in catalog.records.items():
        assert _answers(warm.records[name]) == _answers(record), name


def test_an_assigned_record_keeps_its_own_rows_and_the_table_keeps_its(
    lake_embedder, lake_tables
):
    """Assigning a served record's vectors or sketch makes it hold its own
    rows, as a record no catalog serves does, and leaves the table's."""
    catalog = LakeCatalog(lake_embedder)
    catalog.add_tables(lake_tables)
    first, second = (catalog.records[name] for name in list(lake_tables)[:2])
    table_bits = _bits(catalog.searcher.index._matrix())
    vectors = first.column_vectors + 0.25
    first.column_vectors = vectors
    assert first._table is None and first.column_vectors is vectors
    sketch = second.sketch
    second.sketch = sketch
    assert second._table is None
    assert _bits(second.members["values_sig"]) == _bits(
        catalog.searcher.index.block_signatures(second.name)[0]
    )
    assert _bits(catalog.searcher.index._matrix()) == table_bits

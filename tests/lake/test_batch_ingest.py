"""A cold ingest travels as batch arrays, and they are the object path's bits.

``LakeCatalog.add_tables`` sketches a call's tables straight to batch
arrays (:func:`~repro.sketch.pipeline.sketch_batch`), encodes and embeds
them from those arrays, and gives each record row views of them; a refresh
encodes the stored members the same way. The sketch objects stay the
reference: over drawn tables (an empty one, one with no column, an
all-null column, a numeric column past ``RESERVOIR_CAP``, one too wide for
``max_seq_len``) ingested in drawn ``add_tables`` chunks, every record's
members must equal ``pack_table_sketch(sketch_table(t))`` and its vectors
``embed_corpus`` of its chunk's sketches at the catalog's batch size, bit
for bit; and after drawn appends, each refreshed record's vectors must
equal those a cold ingest of the same rows gives. ``RESERVOIR_CAP`` is
shrunk to 12, so the wide numeric column resamples while the appended
tables stay exact.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import pack_table_sketch
from repro.sketch import numeric
from repro.sketch.pipeline import sketch_table
from repro.table.schema import table_from_rows

RESERVOIR_CAP = 12
#: Cells a drawn table or an appended row draws from: numbers, text,
#: blanks, dates and a cell that no numeric column parses.
CELLS = ("", "0", "7", "-2.5", "1e3", "late", "x y", "n/a", "grp", "2021-01-05")
#: Edge tables no append touches (the numeric column is past the cap, and
#: the one without columns takes no row).
FIXED = ("numbers", "nothing")


def _edge_tables() -> list:
    width = 31  # past the tiny trunk's max_seq_len of 96 tokens
    return [
        table_from_rows("empty", ["entity", "count"], []),
        table_from_rows("nothing", [], []),
        table_from_rows(
            "nulls", ["entity", "blank"], [[f"v{i}", ""] for i in range(5)]
        ),
        table_from_rows(
            "numbers", ["n", "tag"],
            [[str(i * 1.5), f"t{i % 3}"] for i in range(3 * RESERVOIR_CAP)],
        ),
        table_from_rows(
            "wide",
            [f"very long column name number {i}" for i in range(width)],
            [[str(i * j) for i in range(width)] for j in range(3)],
            description="a table too wide for the sequence budget",
        ),
    ]


@st.composite
def _tables(draw) -> list:
    drawn = []
    for t in range(draw(st.integers(1, 6), label="tables")):
        width = draw(st.integers(1, 4))
        rows = draw(st.lists(
            st.lists(st.sampled_from(CELLS), min_size=width, max_size=width),
            max_size=6,
        ))
        drawn.append(table_from_rows(
            f"t{t}", [f"c{j}" for j in range(width)], rows, description=f"drawn {t}"
        ))
    tables = _edge_tables() + drawn
    return draw(st.permutations(tables))


def _chunks(draw, tables: list) -> list[list]:
    cuts = sorted(draw(st.sets(st.integers(1, len(tables) - 1)), label="cuts"))
    bounds = [0, *cuts, len(tables)]
    return [tables[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _bits(array) -> tuple:
    return (array.dtype.str, array.shape, array.tobytes())


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_batch_ingest_is_the_object_path_bit_for_bit(
    lake_embedder, monkeypatch, data
):
    monkeypatch.setattr(numeric, "RESERVOIR_CAP", RESERVOIR_CAP)
    tables = data.draw(_tables())
    batch_size = data.draw(st.integers(1, 4), label="batch_size")
    catalog = LakeCatalog(lake_embedder, batch_size=batch_size)
    config = catalog.sketch_config
    engine = lake_embedder.engine
    for chunk in _chunks(data.draw, tables):
        catalog.add_tables({table.name: table for table in chunk})
        sketches = [sketch_table(table, config) for table in chunk]
        expected = engine.embed_corpus(sketches, batch_size=batch_size)
        for table, sketch, embedding in zip(chunk, sketches, expected):
            record = catalog.records[table.name]
            members, meta = pack_table_sketch(sketch)
            assert list(record.members) == list(members)
            for key, array in members.items():
                assert _bits(record.members[key]) == _bits(array), (table.name, key)
                assert not record.members[key].flags.writeable
            assert record.sketch_meta == meta
            assert _bits(record.column_vectors) == _bits(embedding.columns), table.name
            assert _bits(record.table_embedding) == _bits(embedding.table), table.name

    appended = {}
    for table in tables:
        if table.name in FIXED or not data.draw(st.booleans(), label=table.name):
            continue
        rows = data.draw(st.lists(
            st.lists(st.sampled_from(CELLS), min_size=table.n_cols, max_size=table.n_cols),
            min_size=1, max_size=3,
        ))
        catalog.append_rows(table.name, rows)
        appended[table.name] = rows
    refreshed = catalog.refresh_stale()
    assert sorted(refreshed) == sorted(appended)

    # The cold ingest of the same rows, the column types frozen at ingest,
    # in the refresh's order and batch.
    by_name = {table.name: table for table in tables}
    cold_tables = {}
    for name in refreshed:
        table = by_name[name]
        whole = table_from_rows(
            name, table.header, [*table.rows(), *appended[name]],
            description=table.description,
        )
        for column, stored in zip(whole.columns, table.columns):
            column.ctype = stored.inferred_type
        cold_tables[name] = whole
    cold = LakeCatalog(lake_embedder, batch_size=batch_size)
    cold.add_tables(cold_tables)
    for name in refreshed:
        record, expected = catalog.records[name], cold.records[name]
        assert not record.embedding_stale
        for key, array in expected.members.items():
            assert _bits(record.members[key]) == _bits(array), (name, key)
        assert _bits(record.column_vectors) == _bits(expected.column_vectors), name
        assert _bits(record.table_embedding) == _bits(expected.table_embedding), name


def test_the_edge_tables_span_the_budget(lake_embedder, monkeypatch):
    """The fixed tables reach what the property needs: a numeric column
    past the shrunk sample cap, and columns past the sequence budget."""
    monkeypatch.setattr(numeric, "RESERVOIR_CAP", RESERVOIR_CAP)
    config = lake_embedder.model.config.sketch
    edges = {table.name: table for table in _edge_tables()}
    wide = sketch_table(edges["wide"], config)
    encoder = lake_embedder.encoder
    assert encoder.encode_table(wide).length > encoder.config.max_seq_len
    numbers = sketch_table(edges["numbers"], config).column_sketches[0]
    assert not numbers.numeric_acc.sample_exact


@pytest.mark.parametrize("batch_size", [1, 16])
def test_an_ingest_writes_its_new_tables_in_one_block(
    lake_embedder, lake_tables, monkeypatch, batch_size
):
    """A call's new tables reach the column table in one block write, and
    the rows stand as one write per table leaves them."""
    catalog = LakeCatalog(lake_embedder, batch_size=batch_size)
    writes = []
    real = catalog.searcher.index.append_blocks

    def append_blocks(blocks, *args, **kwargs):
        writes.append([name for name, _ in blocks])
        return real(blocks, *args, **kwargs)

    monkeypatch.setattr(catalog.searcher.index, "append_blocks", append_blocks)
    catalog.add_tables(lake_tables)
    assert writes == [list(lake_tables)]

    one_by_one = LakeCatalog(lake_embedder, batch_size=batch_size)
    for name, table in lake_tables.items():
        record = catalog.records[name]
        join = record.join_rows()
        one_by_one.searcher.add_table(
            name, record.column_names, record.column_vectors,
            join.signatures, join.sizes,
        )
    left, right = catalog.searcher.index, one_by_one.searcher.index
    assert left.keys() == right.keys()
    assert _bits(left._matrix()) == _bits(right._matrix())
    assert _bits(left.signatures) == _bits(right.signatures)
    assert _bits(left.sizes) == _bits(right.sizes)
    for name in lake_tables:
        assert left.block_rows(name) == right.block_rows(name)

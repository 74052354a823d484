"""A record holds its sketch packed, and no write builds sketch objects.

:class:`~repro.lake.store.LakeTableRecord` keeps its sketch's packed
members (a warm open: its rows of the archive it read; an ingest: its rows
of the sketch batch's arrays, which the store then writes as they are) and
``record.sketch`` unpacks them on read. Four checks:

- a derandomized property over drawn lakegen lakes: after ingest, warm
  open, ``append_rows``, ``update_table``, ``refresh_stale`` and
  ``reshard``, every ``record.sketch`` equals, bit for bit, the sketch a
  cold ``sketch_table`` or an in-memory merge of the same rows gives;
- counts of ``unpack_table_sketch`` and ``pack_table_sketch`` calls: a warm
  open, the join index, member queries in every mode, ``stats``, a bulk
  ingest, an update, an append and a refresh pack and unpack nothing (a
  new table's members are views of its sketch batch's arrays, and an
  append calls no ``sketch_batch``: it merges its delta's arrays);
- the members are read-only, so no write through one record reaches the
  rows of another that shares its archive;
- a deterministic memory guard: on the seed-7 1 000-column lakegen lake, a
  warm open and an ingest each add at most :data:`OBJECTS_PER_COLUMN`
  GC-tracked objects per column (2.4 measured; 8.1 for an ingest and 8.3
  for a warm open when a record held its unpacked sketch).
"""

from __future__ import annotations

import dataclasses
import gc
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lake import catalog as catalog_module
from repro.lake import store as store_module
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.lakegen.generator import LakeSpec, generate_manifest, iter_tables
from repro.sketch.pipeline import sketch_table
from repro.table.schema import table_from_rows

MODES = ("join", "union", "subset")
#: Bound on the GC-tracked objects a catalog holds per column (a record's
#: own objects spread over its columns, plus the index's key per column).
OBJECTS_PER_COLUMN = 3
#: Cells an appended row draws from: numbers, text, blanks and a cell that
#: no numeric column parses.
CELLS = ("", "0", "7", "-2.5", "1e3", "late", "x y", "n/a")


def _bits(value):
    """``value`` as exactly comparable parts: arrays by dtype, shape and
    bytes, dataclasses field by field, floats by their (round-trip) repr."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(
                (f.name, _bits(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_bits(item) for item in value)
    return repr(value)


def _assert_records_are(catalog: LakeCatalog, expected: dict) -> None:
    assert catalog.table_names() == list(expected)
    for name, sketch in expected.items():
        assert _bits(catalog.records[name].sketch) == _bits(sketch), name


def _merged(sketch, rows, config):
    """``sketch`` with ``rows`` appended, merged in memory: the delta is
    sketched cold under the stored column types."""
    delta = table_from_rows(
        sketch.table_name, sketch.column_names, rows, description=sketch.description
    )
    for column, stored in zip(delta.columns, sketch.column_sketches):
        column.ctype = stored.ctype
    return sketch.merge(sketch_table(delta, config))


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_a_record_unpacks_to_the_cold_or_merged_sketch(
    tmp_path, lake_embedder, small_archives, data
):
    spec = LakeSpec(
        columns=data.draw(st.integers(10, 30), label="columns"),
        seed=data.draw(st.integers(0, 10_000), label="seed"),
    )
    tables = list(iter_tables(generate_manifest(spec)))
    root = tempfile.mkdtemp(dir=tmp_path)
    catalog = LakeCatalog(lake_embedder, store=LakeStore(root, "fp"))
    config = catalog.sketch_config
    catalog.add_tables({table.name: table for table in tables})
    expected = {table.name: sketch_table(table, config) for table in tables}
    _assert_records_are(catalog, expected)
    names = list(expected)
    for _ in range(data.draw(st.integers(2, 7), label="steps")):
        step = data.draw(
            st.sampled_from(("append", "update", "refresh", "reopen", "reshard"))
        )
        if step == "append":
            name = data.draw(st.sampled_from(names))
            width = len(expected[name].column_names)
            rows = data.draw(st.lists(
                st.lists(st.sampled_from(CELLS), min_size=width, max_size=width),
                min_size=1, max_size=3,
            ))
            catalog.append_rows(name, rows)
            expected[name] = _merged(expected[name], rows, config)
        elif step == "update":
            name = data.draw(st.sampled_from(names))
            donor = data.draw(st.sampled_from(tables))
            table = donor.with_columns(donor.columns, name=name)
            catalog.update_table(table)
            expected[name] = sketch_table(table, config)
        elif step == "refresh":
            catalog.refresh_stale()
        else:
            if step == "reshard":
                catalog.store.reshard(4 if catalog.n_shards == 1 else 1, "fp")
            catalog = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
        _assert_records_are(catalog, expected)


@pytest.fixture()
def counted(monkeypatch) -> dict:
    """Calls of ``unpack_table_sketch`` and ``pack_table_sketch`` as the
    store (which builds and packs every record's sketch) looks them up."""
    calls = {"unpack": 0, "pack": 0}
    for kind in calls:
        real = getattr(store_module, f"{kind}_table_sketch")

        def wrapped(*args, _real=real, _kind=kind):
            calls[_kind] += 1
            return _real(*args)

        monkeypatch.setattr(store_module, f"{kind}_table_sketch", wrapped)
    return calls


def test_an_ingest_packs_nothing_and_a_refresh_unpacks_nothing(
    tmp_path, lake_embedder, lake_tables, counted
):
    """A new table travels as batch arrays from the hash pass to its
    record, and a refresh encodes the stored members: no write packs or
    unpacks a sketch, nor does a warm open, a member query or ``stats``."""
    names = list(lake_tables)
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path / "lake", "fp"))
    catalog.add_tables({name: lake_tables[name] for name in names[:6]})
    assert counted == {"unpack": 0, "pack": 0}

    catalog = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path / "lake"))
    service = LakeService(catalog, cache_size=0)
    assert len(catalog.joins) == sum(
        len(record.column_names) for record in catalog.records.values()
    )
    for name in names[:6]:
        for mode in MODES:
            assert service.discover(DiscoveryRequest(mode=mode, k=3, table=name)).hits
    catalog.stats()
    service.stats()
    catalog.add_tables({name: lake_tables[name] for name in names[6:]})
    assert counted == {"unpack": 0, "pack": 0}

    for name in names[:4]:
        catalog.append_rows(name, [["late", "2", "tag9"]])
    catalog.update_table(lake_tables[names[5]])
    assert len(catalog.refresh_stale()) == 4
    assert counted == {"unpack": 0, "pack": 0}


def test_an_append_builds_no_sketch(
    tmp_path, lake_embedder, lake_tables, counted, monkeypatch
):
    """An append merges its delta's arrays into the packed record: no
    sketch is unpacked, packed or sketched from a table, in memory or on
    a warm-opened store, and the merged members are those of the
    object-level merge."""
    root = tmp_path / "lake"
    live = LakeCatalog(lake_embedder, store=LakeStore(root, "fp"))
    live.add_tables(lake_tables)
    config = live.sketch_config
    sketched = []
    real = catalog_module.sketch_batch

    def sketch_batch(*args, **kwargs):
        sketched.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(catalog_module, "sketch_batch", sketch_batch)
    rows = [["late", "1", "tag9"], ["", "2.5", "x y"]]
    for reopen in (False, True):
        if reopen:
            live = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
        counted.update(unpack=0, pack=0)
        expected = {}
        for name in list(lake_tables)[:3]:
            before = live.records[name]
            record = live.append_rows(name, rows)
            expected[name] = (before, record)
        assert counted == {"unpack": 0, "pack": 0} and sketched == []
        for name, (before, record) in expected.items():
            assert record.version == before.version + 1 and record.embedding_stale
            assert record.n_rows == before.n_rows + len(rows)
            merged, _ = store_module.pack_table_sketch(
                _merged(before.sketch, rows, config)
            )
            assert list(record.members) == list(merged)
            for key, array in record.members.items():
                assert _bits(array) == _bits(merged[key]), (name, key)
                assert not array.flags.writeable


def _snapshot(catalog: LakeCatalog) -> dict:
    return {
        name: (
            {key: array.tobytes() for key, array in record.members.items()},
            record.column_vectors.tobytes(),
        )
        for name, record in catalog.records.items()
    }


def test_members_are_read_only_and_a_write_leaves_its_neighbours(
    tmp_path, lake_embedder, lake_tables, small_archives
):
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path / "lake", "fp"))
    catalog.add_tables(lake_tables)
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path / "lake"))
    assert any(
        "slot" in entry for shard in warm.store.shards for entry in shard.entries()
    )
    for live in (catalog, warm):
        for record in live.records.values():
            for array in record.members.values():
                assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                record.members["values_sig"][0, 0] = 0
    for record in warm.records.values():
        assert not record.column_vectors.flags.writeable

    names = list(lake_tables)
    before = _snapshot(warm)
    warm.append_rows(names[0], [["late", "1", "tag9"]])
    warm.update_table(lake_tables[names[2]].with_columns(
        lake_tables[names[2]].columns[:2], name=names[1]
    ))
    record = warm.records[names[3]]
    sketch = record.sketch
    sketch.column_sketches[0].values_minhash.signature[:] = 0
    record.sketch = dataclasses.replace(sketch, description="rewritten")
    after = _snapshot(warm)
    for name in names[4:]:
        assert after[name] == before[name], name


def _objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_a_catalog_holds_few_objects_per_column(tmp_path, lake_embedder):
    tables = {
        table.name: table
        for table in iter_tables(generate_manifest(LakeSpec(columns=1000, seed=7)))
    }
    n_columns = sum(table.n_cols for table in tables.values())
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path / "lake", "fp"))
    before = _objects()
    catalog.add_tables(tables)
    ingest = (_objects() - before) / n_columns
    del catalog

    before = _objects()
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path / "lake"))
    opened = (_objects() - before) / n_columns
    assert len(warm) == len(tables)
    assert ingest <= OBJECTS_PER_COLUMN, ingest
    assert opened <= OBJECTS_PER_COLUMN, opened

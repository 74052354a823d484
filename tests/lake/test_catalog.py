"""Incremental `LakeCatalog` semantics: deltas touch one table only, warm
loads touch none, and the index stays consistent with a cold rebuild."""

import numpy as np
import pytest

from repro.lake.catalog import LakeCatalog
from repro.lake.store import LakeStore


def test_add_counts_one_embed_call_per_table(lake_embedder, lake_tables):
    catalog = LakeCatalog(lake_embedder)
    for table in lake_tables.values():
        catalog.add_table(table)
    assert catalog.embed_calls == len(lake_tables)
    assert len(catalog) == len(lake_tables)
    assert catalog.searcher.n_tables == len(lake_tables)


def test_adding_one_table_embeds_only_that_table(cold_catalog, lake_tables):
    before = cold_catalog.embed_calls
    extra = next(iter(lake_tables.values()))
    renamed = extra.with_columns(extra.columns, name="fresh")
    cold_catalog.add_table(renamed)
    assert cold_catalog.embed_calls == before + 1


def test_duplicate_add_rejected(cold_catalog, lake_tables):
    name = next(iter(lake_tables))
    with pytest.raises(ValueError, match="already in catalog"):
        cold_catalog.add_table(lake_tables[name])


def test_remove_table_clears_index_and_registry(cold_catalog):
    assert cold_catalog.remove_table("g0t0")
    assert "g0t0" not in cold_catalog
    assert not cold_catalog.searcher.has_table("g0t0")
    assert not cold_catalog.remove_table("g0t0")
    # Removal never invokes the trunk.
    assert cold_catalog.embed_calls == 9


def test_update_reembeds_only_the_updated_table(cold_catalog, lake_tables):
    before = cold_catalog.embed_calls
    table = lake_tables["g1t1"]
    cold_catalog.update_table(table)
    assert cold_catalog.embed_calls == before + 1
    assert "g1t1" in cold_catalog


def test_warm_load_matches_cold_and_embeds_nothing(
    tmp_path, lake_embedder, lake_tables
):
    store = LakeStore(tmp_path, "fp")
    cold = LakeCatalog(lake_embedder, store=store)
    for table in lake_tables.values():
        cold.add_table(table)

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.embed_calls == 0
    assert warm.table_names() == cold.table_names()
    for name in lake_tables:
        assert np.array_equal(warm.query_vectors(name), cold.query_vectors(name))


def test_mutations_persist_through_store(tmp_path, lake_embedder, lake_tables):
    store = LakeStore(tmp_path, "fp")
    catalog = LakeCatalog(lake_embedder, store=store)
    names = list(lake_tables)
    for name in names[:4]:
        catalog.add_table(lake_tables[name])
    catalog.remove_table(names[1])

    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.table_names() == [names[0], names[2], names[3]]


def test_bulk_add_performs_ceil_n_over_b_forwards(lake_embedder, lake_tables):
    """Batched ingest: N tables cost exactly ceil(N / batch_size) trunk
    forwards, and the result matches a sequential per-table build."""
    batched = LakeCatalog(lake_embedder, batch_size=4)
    batched.add_tables(lake_tables)  # 9 tables
    assert batched.embed_calls == 3  # ceil(9 / 4)
    assert len(batched) == len(lake_tables)

    sequential = LakeCatalog(lake_embedder)
    for table in lake_tables.values():
        sequential.add_table(table)
    assert sequential.embed_calls == len(lake_tables)
    for name in lake_tables:
        assert np.allclose(
            batched.query_vectors(name), sequential.query_vectors(name),
            atol=1e-8,
        )


def test_bulk_add_sketches_bit_identical_to_per_table_add(
    lake_embedder, lake_tables
):
    """Batched ``add_tables`` ≡ per-table ``add_table``: one sketch path,
    so the stored sketches agree to the bit however tables were grouped."""
    batched = LakeCatalog(lake_embedder, batch_size=16)
    batched.add_tables(lake_tables)
    assert batched.embed_calls == 1  # ceil(9 / 16)
    assert len(batched) == len(lake_tables)

    sequential = LakeCatalog(lake_embedder)
    for table in lake_tables.values():
        sequential.add_table(table)
    for name in lake_tables:
        ours, theirs = batched.records[name].sketch, sequential.records[name].sketch
        assert np.array_equal(ours.snapshot.signature, theirs.snapshot.signature)
        for a, b in zip(ours.column_sketches, theirs.column_sketches, strict=True):
            assert (a.name, a.ctype, a.n_values) == (b.name, b.ctype, b.n_values)
            assert np.array_equal(a.values_minhash.signature, b.values_minhash.signature)
            assert np.array_equal(a.words_minhash.signature, b.words_minhash.signature)
            assert a.numeric == b.numeric
            assert np.array_equal(a.numeric_acc.sample, b.numeric_acc.sample)
            assert np.array_equal(a.numeric_acc.distinct, b.numeric_acc.distinct)


def test_bulk_add_duplicate_rejected_before_any_embedding(
    lake_embedder, lake_tables, cold_catalog
):
    before = cold_catalog.embed_calls
    with pytest.raises(ValueError, match="already in catalog"):
        cold_catalog.add_tables(lake_tables)
    assert cold_catalog.embed_calls == before


@pytest.mark.parametrize("failing_forward", [1, 2, 3])
def test_bulk_add_registers_nothing_when_a_forward_raises(
    tmp_path, lake_embedder, lake_tables, monkeypatch, failing_forward
):
    """`add_tables` registers nothing unless every embedding returned:
    whichever of a 3-batch ingest's forwards raises, the records, the
    index, the forward charge and every byte of the store are exactly as
    before the call — and the same call, retried, succeeds."""
    names = list(lake_tables)
    catalog = LakeCatalog(
        lake_embedder, store=LakeStore(tmp_path, "fp"), batch_size=3
    )
    catalog.add_tables({name: lake_tables[name] for name in names[:2]})
    delta = {name: lake_tables[name] for name in names[2:]}  # 7 tables, 3 forwards

    def state() -> dict:
        return {
            "records": dict(catalog.records),
            "indexed_columns": len(catalog.searcher.index),
            "insertions": catalog.searcher.insertions,
            "embed_calls": catalog.embed_calls,
            "store": {
                str(path.relative_to(tmp_path)): path.read_bytes()
                for path in tmp_path.rglob("*")
                if path.is_file()
            },
        }

    before = state()
    forward = catalog.engine._forward_group
    calls = 0

    def flaky_forward(encodeds, n_cols):
        nonlocal calls
        calls += 1
        if calls == failing_forward:
            raise RuntimeError(f"forward {calls} failed")
        return forward(encodeds, n_cols)

    monkeypatch.setattr(catalog.engine, "_forward_group", flaky_forward)
    with pytest.raises(RuntimeError, match=f"forward {failing_forward} failed"):
        catalog.add_tables(delta)
    assert calls == failing_forward, "later batches must not run after a failure"
    assert state() == before

    catalog.add_tables(delta)
    assert catalog.table_names() == names
    assert catalog.embed_calls == before["embed_calls"] + 3
    clean = LakeCatalog(lake_embedder, batch_size=3)
    clean.add_tables({name: lake_tables[name] for name in names[:2]})
    clean.add_tables(delta)
    for name in names:
        assert np.array_equal(catalog.query_vectors(name), clean.query_vectors(name))
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.table_names() == names
    assert warm.embed_calls == 0 and warm.searcher.insertions == 0

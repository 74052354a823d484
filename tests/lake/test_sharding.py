"""Shard-count parity property tests.

The whole point of sharding is that it is *invisible* to query semantics:
for randomized lakes, a store partitioned into N ∈ {2, 4} shards must return
byte-identical query rankings, ``stats()``, and ``table_names()`` to the
one-shard store — cold-built or after a close → warm ``open`` round
trip — and a lake built
through incremental mutations must, at every N, serve the rankings the
flat-layout code recorded for the same corpus (``data/flat_store``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.embed import TableEmbedder
from repro.lake.api import DiscoveryRequest
from repro.lake.bundle import load_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.search.backend import ShardedIndex, stable_shard
from repro.table.schema import Table, table_from_rows

MODES = ("join", "union", "subset")
SHARD_COUNTS = (2, 4)


@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """Every store here states its shard count, so running the module once
    per default (the directory-wide fixture this overrides) would only
    repeat it."""
    return LakeStore.DEFAULT_SHARDS


def _random_tables(seed: int, n: int = 12) -> dict[str, Table]:
    """A randomized lake: varying widths, lengths, and mixed content."""
    rng = np.random.default_rng(seed)
    vocab = [f"tok{i:02d}" for i in range(40)]
    tables: dict[str, Table] = {}
    for t in range(n):
        n_cols = int(rng.integers(2, 5))
        n_rows = int(rng.integers(8, 24))
        header = [f"col{c}" for c in range(n_cols)]
        rows = [
            [
                vocab[int(rng.integers(0, len(vocab)))]
                if c % 2 == 0
                else str(round(float(rng.normal(t, 3.0)), 2))
                for c in range(n_cols)
            ]
            for _ in range(n_rows)
        ]
        name = f"rand{seed}t{t:02d}"
        tables[name] = table_from_rows(
            name, header, rows, description=f"random lake {seed} table {t}"
        )
    return tables


def _ranked(service, query, mode="union", k=10, column=None) -> list[str]:
    """Ranked table names for a member name or an external ``Table``."""
    named = {"payload": query} if isinstance(query, Table) else {"table": query}
    request = DiscoveryRequest(mode=mode, k=k, column=column, **named)
    return service.discover(request).tables()


def _rankings(service: LakeService, names, probe: Table, k: int = 5) -> dict:
    """Every mode over every member plus an external probe table."""
    out = {
        mode: {name: _ranked(service, name, mode=mode, k=k) for name in names}
        for mode in MODES
    }
    out["external"] = {
        mode: _ranked(service, probe, mode=mode, k=k) for mode in MODES
    }
    return out


def _comparable_stats(catalog: LakeCatalog) -> dict:
    """Catalog stats minus the one field that *names* the layout."""
    stats = catalog.stats()
    stats.pop("n_shards")
    return stats


@pytest.mark.parametrize("seed", [0, 1])
def test_sharded_store_matches_one_shard_store(tmp_path, lake_embedder, seed):
    tables = _random_tables(seed)
    names = list(tables)
    source = tables[names[0]]
    probe = source.with_columns(source.columns, name="external-probe")

    one_store = LakeStore(tmp_path / "one", "fp", n_shards=1)
    one = LakeCatalog(lake_embedder, store=one_store)
    one.add_tables(tables)
    one_stats = _comparable_stats(one)
    one_rankings = _rankings(LakeService(one), names, probe)

    for n_shards in SHARD_COUNTS:
        root = tmp_path / f"sharded{n_shards}"
        store = LakeStore(root, "fp", n_shards=n_shards)
        catalog = LakeCatalog(lake_embedder, store=store)
        catalog.add_tables(tables)

        assert catalog.table_names() == one.table_names()
        assert store.table_names() == one_store.table_names()
        assert _comparable_stats(catalog) == one_stats
        assert _rankings(LakeService(catalog), names, probe) == one_rankings

        # Close → warm open: the persisted per-shard indexes are adopted
        # (zero insertions, zero trunk forwards) and answers stay identical.
        warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
        assert warm.embed_calls == 0
        assert warm.searcher.insertions == 0
        assert warm.table_names() == one.table_names()
        assert _comparable_stats(warm) == {
            **one_stats,
            "embed_calls": 0,
            "index_insertions": 0,
        }
        assert _rankings(LakeService(warm), names, probe) == one_rankings


@pytest.mark.parametrize("n_shards", (1,) + SHARD_COUNTS)
def test_parity_survives_incremental_mutations(tmp_path, flat_fixture, n_shards):
    """Bulk add, remove, staged replace: at every shard count the lake
    serves what the flat-layout code recorded for the same sequence (so
    every count equals every other), live and after a warm open."""
    model, encoder, _ = load_bundle(flat_fixture.lake)
    store = LakeStore(tmp_path, "fp", n_shards=n_shards)
    catalog = LakeCatalog(TableEmbedder(model, encoder), store=store)
    flat_fixture.build_state(catalog)
    flat_fixture.assert_serves(LakeService(catalog))

    warm = LakeCatalog.from_store(
        TableEmbedder(model, encoder), LakeStore.open(tmp_path)
    )
    assert warm.searcher.insertions == 0 and warm.embed_calls == 0
    assert warm.store.table_names() == catalog.table_names()
    flat_fixture.assert_serves(LakeService(warm))


def test_sharded_catalog_routes_tables_to_owning_shard(tmp_path, lake_embedder):
    """Structural invariant behind the parity: every table's columns live
    in exactly the shard its name hashes to, in store and index alike."""
    tables = _random_tables(seed=3, n=8)
    store = LakeStore(tmp_path, "fp", n_shards=4)
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_tables(tables)
    index = catalog.searcher.index
    assert isinstance(index, ShardedIndex)
    for name, record in catalog.records.items():
        owner = stable_shard(name, 4)
        assert name in store.shards[owner]
        assert all(
            name not in shard
            for k, shard in enumerate(store.shards)
            if k != owner
        )
        sub_tables = {entry.table for entry in index.subs[owner].keys()}
        assert name in sub_tables

"""Shard-count parity property tests.

Sharding partitions the store on disk and is *invisible* to query
semantics: the catalog serves one column index at every shard count. For
randomized lakes, a store partitioned into N ∈ {2, 4} shards must return
the one-shard store's answers bit for bit — every hit's table, score,
distance sum and match distances — and its ``stats()`` and
``table_names()``, cold-built or after a close → warm ``open`` round trip.
A lake built through incremental mutations must do the same, and at every
N serve the rankings the flat-layout code recorded for the same corpus
(``data/flat_store``).
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
from repro.search.backend import stable_shard
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


def _ranked(service, query, mode="union", k=10, column=None) -> list:
    """The whole answer for a member name or an external ``Table``, to the
    bit: each hit's table, score, matched count, distance sum and matches,
    floats as ``float.hex``."""
    named = {"payload": query} if isinstance(query, Table) else {"table": query}
    request = DiscoveryRequest(mode=mode, k=k, column=column, **named)
    return [
        (
            hit.table,
            hit.score.hex(),
            hit.n_matched_columns,
            hit.distance_sum.hex(),
            [(m.query_column, m.table_column, m.distance.hex()) for m in hit.matches],
        )
        for hit in service.discover(request).hits
    ]


def _rankings(
    service: LakeService, names, probe: Table | None = None, k: int = 5
) -> dict:
    """Every mode over every member, plus an external probe table if one
    is given."""
    out = {
        mode: {name: _ranked(service, name, mode=mode, k=k) for name in names}
        for mode in MODES
    }
    if probe is not None:
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

        # Close → warm open: the index is assembled from the stored vectors
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
    serves what the flat-layout code recorded for the same sequence, and
    bit for bit what the one-shard lake serves, live and after a warm
    open."""
    model, encoder, _ = load_bundle(flat_fixture.lake)
    embedder = TableEmbedder(model, encoder)
    served = {}
    for count in sorted({1, n_shards}):
        store = LakeStore(tmp_path / f"s{count}", "fp", n_shards=count)
        catalog = LakeCatalog(embedder, store=store)
        flat_fixture.build_state(catalog)
        served[count] = _rankings(LakeService(catalog), catalog.table_names())
    flat_fixture.assert_serves(LakeService(catalog))
    assert served[n_shards] == served[1]

    warm = LakeCatalog.from_store(embedder, LakeStore.open(store.root))
    assert warm.searcher.insertions == 0 and warm.embed_calls == 0
    assert warm.store.table_names() == catalog.table_names()
    flat_fixture.assert_serves(LakeService(warm))
    assert _rankings(LakeService(warm), warm.table_names()) == served[1]


def _index_rows(catalog: LakeCatalog) -> tuple[list, bytes]:
    """The served index's row keys and vector bytes, in row order."""
    index = catalog.searcher.index
    return index.keys(), index.state_arrays()[0]["vectors"].tobytes()


@pytest.mark.parametrize("n_shards", (2, 3, 4, 8))
def test_index_rows_match_the_one_shard_lake(tmp_path, lake_embedder, n_shards):
    """The invariant behind bit parity: after adds, a removal and an
    in-place update, an N-shard catalog serves the one-shard catalog's
    index row for row — same keys, same vector bytes — live and after a
    warm open."""
    tables = _random_tables(seed=5, n=10)
    names = list(tables)
    rows = {}
    for count in (1, n_shards):
        root = tmp_path / f"s{count}"
        catalog = LakeCatalog(
            lake_embedder, store=LakeStore(root, "fp", n_shards=count)
        )
        catalog.add_tables(dict(list(tables.items())[:6]))
        catalog.add_tables(dict(list(tables.items())[6:]))
        catalog.remove_table(names[2])
        changed = tables[names[4]]
        catalog.update_table(
            changed.with_columns(changed.columns[::-1], name=names[4])
        )
        rows[count] = _index_rows(catalog)
        warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
        assert _index_rows(warm) == rows[count]
    assert rows[n_shards] == rows[1]
    assert len({entry.table for entry in rows[1][0]}) == len(names) - 1


def test_sharded_catalog_routes_tables_to_owning_shard(tmp_path, lake_embedder):
    """Every table's artifacts live in exactly the shard its name hashes
    to."""
    tables = _random_tables(seed=3, n=8)
    store = LakeStore(tmp_path, "fp", n_shards=4)
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_tables(tables)
    for name in catalog.records:
        owner = stable_shard(name, 4)
        assert name in store.shards[owner]
        assert all(
            name not in shard
            for k, shard in enumerate(store.shards)
            if k != owner
        )

"""Live tables: O(delta) appends, per-table versions, staleness semantics,
and the process-kill-safe update path — across catalog, service, HTTP, CLI, and
replica surfaces.

The parity tier pins the tentpole guarantee: ingest-prefix-then-append,
after the lazy re-embed, ranks identically to a cold ingest of the full
table (the merged sketches are bitwise equal for the exact halves and
bitwise-under-caps for the numeric vector, so the trunk sees identical
inputs). Runs at 1 and at 4 shards (the ``lake_layout_shards`` fixture).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.lake.api import DiscoveryError, DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.server import ServerThread
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.table.schema import table_from_rows

DELTA_ROWS = [
    ["grp9val0", "900", "tag0"],
    ["grp9val1", "901", "tag1"],
    ["grp9val2", "902", "tag2"],
]


@pytest.fixture()
def persisted_catalog(tmp_path, lake_embedder, lake_tables) -> LakeCatalog:
    catalog = LakeCatalog(
        lake_embedder, store=LakeStore(tmp_path / "lake", "fp")
    )
    catalog.add_tables(dict(lake_tables))
    return catalog


# --------------------------------------------------------------------- #
# Catalog: append semantics
# --------------------------------------------------------------------- #
def test_append_bumps_version_and_marks_stale(persisted_catalog):
    registry = obs.get_registry()
    registry.reset()
    before = persisted_catalog.records["g0t0"]
    merged = persisted_catalog.append_rows("g0t0", DELTA_ROWS)
    assert merged.version == before.version + 1
    assert merged.embedding_stale
    assert merged.n_rows == before.n_rows + len(DELTA_ROWS)
    assert persisted_catalog.stale_tables() == ["g0t0"]
    assert registry.get("lake_rows_appended_total").value == len(DELTA_ROWS)
    stats = persisted_catalog.stats()
    assert stats["stale_tables"] == 1
    assert stats["max_version"] == merged.version


def test_append_reembeds_only_the_appended_table(persisted_catalog):
    """The acceptance shape: one append re-embeds one table's columns —
    a single batched forward — never the rest of the lake."""
    persisted_catalog.append_rows("g1t1", DELTA_ROWS)
    before = persisted_catalog.embed_calls
    refreshed = persisted_catalog.refresh_stale()
    assert refreshed == ["g1t1"]
    assert persisted_catalog.embed_calls == before + 1
    assert not persisted_catalog.records["g1t1"].embedding_stale
    # Version is a *data* version: the re-embed does not bump it.
    assert persisted_catalog.records["g1t1"].version == 2
    assert persisted_catalog.refresh_stale() == []  # idempotent


def test_a_repeated_name_is_refreshed_and_written_once(
    tmp_path, lake_embedder, lake_tables
):
    """Names reach a refresh from the wire and the CLI unchecked; a name
    given twice is one table, embedded once and written as one archive,
    so no row of the store is dead on arrival."""
    store = LakeStore(tmp_path / "lake", "fp")
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_table(lake_tables["g0t1"])
    catalog.append_rows("g0t1", DELTA_ROWS)
    before = catalog.embed_calls
    assert catalog.refresh_stale(["g0t1", "g0t1"]) == ["g0t1"]
    assert catalog.embed_calls == before + 1
    assert store.stats()["dead_bytes"] == 0
    assert not catalog.stale_tables()


def test_append_unknown_empty_and_ragged(persisted_catalog):
    with pytest.raises(KeyError, match="ghost"):
        persisted_catalog.append_rows("ghost", DELTA_ROWS)
    with pytest.raises(ValueError, match="at least one row"):
        persisted_catalog.append_rows("g0t0", [])
    with pytest.raises(ValueError):
        persisted_catalog.append_rows("g0t0", [["only-one-cell"]])


def test_append_refuses_legacy_records(persisted_catalog):
    record = persisted_catalog.records["g0t0"]
    record.sketch = dataclasses.replace(
        record.sketch,
        column_sketches=[
            dataclasses.replace(c, numeric_acc=None)
            for c in record.sketch.column_sketches
        ],
    )
    with pytest.raises(ValueError, match="mergeable sketch state"):
        persisted_catalog.append_rows("g0t0", DELTA_ROWS)


def test_append_refuses_sbert_catalogs(lake_embedder, lake_tables):
    from repro.text.sbert import HashedSentenceEncoder

    catalog = LakeCatalog(lake_embedder, sbert=HashedSentenceEncoder(dim=8))
    catalog.add_table(lake_tables["g0t0"])
    with pytest.raises(ValueError, match="SBERT"):
        catalog.append_rows("g0t0", DELTA_ROWS)


# --------------------------------------------------------------------- #
# Append-vs-rebuild parity
# --------------------------------------------------------------------- #
def test_append_then_refresh_matches_cold_ingest(lake_embedder, lake_tables):
    """Prefix-ingest + append + refresh == cold full ingest, hit for hit."""
    cold = LakeCatalog(lake_embedder)
    cold.add_tables(dict(lake_tables))

    target = lake_tables["g0t0"]
    rows = [list(row) for row in target.rows()]
    split = len(rows) - 6
    truncated = {
        name: (
            table_from_rows(
                name, table.header, rows[:split],
                description=table.description,
            )
            if name == "g0t0"
            else table
        )
        for name, table in lake_tables.items()
    }
    live = LakeCatalog(lake_embedder)
    live.add_tables(truncated)
    live.append_rows("g0t0", rows[split:])
    live.refresh_stale()

    merged = live.records["g0t0"]
    rebuilt = cold.records["g0t0"]
    assert merged.n_rows == rebuilt.n_rows
    for got, want in zip(
        merged.sketch.column_sketches, rebuilt.sketch.column_sketches
    ):
        assert np.array_equal(
            got.values_minhash.signature, want.values_minhash.signature
        )
        assert got.n_values == want.n_values
        assert got.numeric.to_vector().tolist() == (
            want.numeric.to_vector().tolist()
        )
    # Identical sketches -> identical trunk inputs -> identical vectors.
    assert np.array_equal(merged.column_vectors, rebuilt.column_vectors)

    for mode in ("union", "join", "subset"):
        request = DiscoveryRequest(
            mode=mode, k=5, table="g0t0",
            column="entity" if mode == "join" else None,
        )
        live_hits = LakeService(live).discover(request).hits
        cold_hits = LakeService(cold).discover(request).hits
        assert [(h.table, h.score) for h in live_hits] == [
            (h.table, h.score) for h in cold_hits
        ]


# --------------------------------------------------------------------- #
# Persistence: versions survive the store
# --------------------------------------------------------------------- #
def test_version_and_staleness_survive_warm_reopen(
    tmp_path, persisted_catalog, lake_embedder
):
    persisted_catalog.append_rows("g2t0", DELTA_ROWS)
    warm = LakeCatalog.from_store(
        lake_embedder, LakeStore.open(tmp_path / "lake")
    )
    assert warm.embed_calls == 0, "warm open must not re-embed"
    record = warm.records["g2t0"]
    assert record.version == 2 and record.embedding_stale
    assert warm.stale_tables() == ["g2t0"]
    assert warm.records["g0t0"].version == 1
    # The warm catalog can refresh and keep serving.
    assert warm.refresh_stale() == ["g2t0"]
    assert not warm.records["g2t0"].embedding_stale


def test_legacy_manifest_entries_default_to_version_one(
    tmp_path, persisted_catalog, unmigrated
):
    """Pre-live-tables manifests carry no version fields; ``migrate`` loads
    them as version 1, not-stale, instead of failing."""
    import json

    from repro.lake.legacy import migrate

    for manifest in sorted((tmp_path / "lake").rglob("manifest.json")):
        data = json.loads(manifest.read_text())
        for entry in data.get("tables", []):
            entry.pop("version", None)
            entry.pop("embedding_stale", None)
        manifest.write_text(json.dumps(data))
    unmigrated(tmp_path / "lake")
    migrate(tmp_path / "lake")
    store = LakeStore.open(tmp_path / "lake")
    record = store.load_table("g0t0")
    assert record.version == 1 and not record.embedding_stale


# --------------------------------------------------------------------- #
# Service: lazy refresh, allow_stale, pinned versions
# --------------------------------------------------------------------- #
def test_strict_query_lazily_refreshes(persisted_catalog):
    service = LakeService(persisted_catalog)
    service.append_rows("g0t0", DELTA_ROWS)
    embeds = persisted_catalog.embed_calls
    result = service.discover(DiscoveryRequest(mode="union", k=4, table="g0t1"))
    assert result.diagnostics["refreshed"] == 1
    assert persisted_catalog.embed_calls == embeds + 1
    for hit in result.hits:
        assert hit.stale is False
    # Subsequent strict queries have nothing to refresh.
    again = service.discover(DiscoveryRequest(mode="union", k=4, table="g0t1"))
    assert "refreshed" not in again.diagnostics


def test_allow_stale_serves_stale_hits_with_stamps(persisted_catalog):
    service = LakeService(persisted_catalog)
    service.append_rows("g0t0", DELTA_ROWS)
    embeds = persisted_catalog.embed_calls
    result = service.discover(
        DiscoveryRequest(mode="union", k=9, table="g0t1", allow_stale=True)
    )
    assert persisted_catalog.embed_calls == embeds, "allow_stale must not embed"
    by_table = {hit.table: hit for hit in result.hits}
    assert by_table["g0t0"].stale is True
    assert by_table["g0t0"].version == 2
    assert by_table["g0t2"].stale is False
    assert by_table["g0t2"].version == 1


def test_strict_join_and_subset_leave_the_refresh_to_union(persisted_catalog):
    """Join and subset read signatures, merged at append, never a vector:
    a strict one serves a stale table as it is, stamped stale, with no
    trunk forward; the first strict union query then refreshes once."""
    service = LakeService(persisted_catalog)
    service.append_rows("g0t0", DELTA_ROWS)
    engine = persisted_catalog.engine
    stamps = {}
    for mode, column in (("join", "entity"), ("subset", None)):
        forwards = engine.forward_calls
        result = service.discover(
            DiscoveryRequest(mode=mode, k=9, table="g0t1", column=column)
        )
        assert engine.forward_calls == forwards, mode
        assert "refreshed" not in result.diagnostics, mode
        stamps.update({hit.table: hit.stale for hit in result.hits})
    assert stamps["g0t0"] is True and stamps["g0t2"] is False
    assert persisted_catalog.stale_tables() == ["g0t0"]
    forwards = engine.forward_calls
    result = service.discover(DiscoveryRequest(mode="union", k=4, table="g0t1"))
    assert result.diagnostics["refreshed"] == 1
    assert engine.forward_calls > forwards
    assert persisted_catalog.stale_tables() == []


def test_a_strict_pinned_join_refreshes_first(persisted_catalog):
    """A pin demands a fresh embedding whatever the mode, so a strict
    pinned join still refreshes before its pin is checked."""
    service = LakeService(persisted_catalog)
    service.append_rows("g0t0", DELTA_ROWS)
    result = service.discover(
        DiscoveryRequest(mode="join", k=3, table="g0t0", column="entity", pin_version=2)
    )
    assert result.diagnostics["refreshed"] == 1
    assert persisted_catalog.stale_tables() == []


def test_pinned_version_refuses_stale_table(persisted_catalog):
    """The typed staleness refusal: a caller pinning a version while
    tolerating staleness gets a version-conflict, never silent stale
    vectors under a version they asked to trust."""
    service = LakeService(persisted_catalog)
    service.append_rows("g0t0", DELTA_ROWS)
    with pytest.raises(DiscoveryError) as excinfo:
        service.discover(
            DiscoveryRequest(
                mode="union", k=3, table="g0t0",
                allow_stale=True, pin_version=2,
            )
        )
    assert excinfo.value.code == "version-conflict"
    assert excinfo.value.status == 409
    # A strict pinned query refreshes first, then the pin holds.
    result = service.discover(
        DiscoveryRequest(mode="union", k=3, table="g0t0", pin_version=2)
    )
    assert result.hits
    # Pinning any other version conflicts.
    with pytest.raises(DiscoveryError) as stale_pin:
        service.discover(
            DiscoveryRequest(mode="union", k=3, table="g0t0", pin_version=1)
        )
    assert stale_pin.value.code == "version-conflict"


def test_pin_version_requires_member_query(persisted_catalog, lake_tables):
    with pytest.raises(DiscoveryError, match="catalog-member"):
        DiscoveryRequest(
            mode="union", k=3, payload=lake_tables["g0t0"], pin_version=1
        ).validated()


def test_update_counts_once_and_bumps_version(persisted_catalog, lake_tables):
    registry = obs.get_registry()
    registry.reset()
    record = persisted_catalog.update_table(lake_tables["g0t0"])
    assert record.version == 2 and not record.embedding_stale
    assert registry.get("lake_tables_updated_total").value == 1
    added = registry.get("lake_tables_added_total")
    removed = registry.get("lake_tables_removed_total")
    assert (added.value if added else 0) == 0
    assert (removed.value if removed else 0) == 0


# --------------------------------------------------------------------- #
# HTTP surface
# --------------------------------------------------------------------- #
def test_http_append_update_and_conflict(persisted_catalog, lake_tables):
    service = LakeService(persisted_catalog)
    with ServerThread(service) as server:
        with LakeClient(port=server.port) as client:
            answer = client.append_rows("g0t0", DELTA_ROWS)
            assert answer["table_version"] == 2
            assert answer["embedding_stale"] is True
            assert answer["appended"] == len(DELTA_ROWS)

            with pytest.raises(DiscoveryError) as excinfo:
                client.query(
                    DiscoveryRequest(
                        mode="union", k=3, table="g0t0",
                        allow_stale=True, pin_version=2,
                    )
                )
            assert excinfo.value.code == "version-conflict"

            result = client.query(
                DiscoveryRequest(mode="union", k=3, table="g0t0")
            )
            assert all(hit.stale is False for hit in result.hits)

            answer = client.update_table(lake_tables["g1t0"])
            assert answer["table_version"] == 2

            with pytest.raises(DiscoveryError) as missing:
                client.append_rows("ghost", DELTA_ROWS)
            assert missing.value.code == "not-found"
            with pytest.raises(DiscoveryError) as empty:
                client.append_rows("g0t0", [])
            assert empty.value.code == "bad-request"
            with pytest.raises(DiscoveryError) as typed:
                client.append_rows("g0t0", [[1, 2, 3]])
            assert typed.value.code == "bad-request"

            stats = client.stats()
            assert stats["max_version"] == 2


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
def test_cli_append_and_update(tmp_path, lake_tables, capsys):
    import repro.lake.__main__ as cli
    from repro.table.csvio import write_csv

    csv_dir = tmp_path / "csvs"
    for name, table in lake_tables.items():
        write_csv(table, csv_dir / f"{name}.csv")
    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    capsys.readouterr()

    delta = table_from_rows("delta", ["entity", "count", "tag"], DELTA_ROWS)
    write_csv(delta, tmp_path / "delta.csv")
    cli.main([
        "append", "--lake", lake, "--table", "g0t0",
        "--csv", str(tmp_path / "delta.csv"),
    ])
    out = capsys.readouterr().out
    assert f"appended {len(DELTA_ROWS)} rows" in out and "version 2" in out

    cli.main(["update", "--lake", lake, "--csv", str(csv_dir / "g0t1.csv")])
    out = capsys.readouterr().out
    assert "updated 'g0t1' [version 2]" in out

    with pytest.raises(SystemExit, match="not-found"):
        cli.main([
            "append", "--lake", lake, "--table", "ghost",
            "--csv", str(tmp_path / "delta.csv"),
        ])


# --------------------------------------------------------------------- #
# Replica: versions survive snapshot shipping
# --------------------------------------------------------------------- #
def test_versions_survive_snapshot_shipping(
    tmp_path, persisted_catalog, lake_embedder
):
    persisted_catalog.append_rows("g0t0", DELTA_ROWS)
    publisher = SnapshotPublisher(tmp_path / "lake", tmp_path / "snapshots")
    generation = publisher.publish()

    replica = ReplicaService(lake_embedder, tmp_path / "snapshots")
    assert replica.generation == generation
    record = replica.catalog.records["g0t0"]
    assert record.version == 2
    # The replica refreshed eagerly at adoption (in memory only)...
    assert not record.embedding_stale
    assert replica.catalog.stale_tables() == []
    result = replica.discover(DiscoveryRequest(mode="union", k=9, table="g0t1"))
    by_table = {hit.table: hit for hit in result.hits}
    assert by_table["g0t0"].version == 2 and by_table["g0t0"].stale is False
    # ...without writing into the shared snapshot generation: a fresh load
    # of the same artifacts still sees the shipped stale flag.
    shipped = LakeStore.open(
        tmp_path / "snapshots" / f"gen-{generation:06d}"
    ).load_table("g0t0")
    assert shipped.version == 2 and shipped.embedding_stale
    # Replicas stay read-only for appends too.
    with pytest.raises(DiscoveryError, match="read-only"):
        replica.append_rows("g0t0", DELTA_ROWS)

"""`repro.obs` wired through the lake: Timings as a span projection, the
histogram/Timings reconciliation the acceptance gate demands, the
slow-query log, the service-level stats satellites, and the store's
commit span and manifest-bytes counter."""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro import obs
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore, LakeTableRecord


@pytest.fixture()
def service(cold_catalog) -> LakeService:
    return LakeService(cold_catalog)


# --------------------------------------------------------------------- #
# Timings as a span projection
# --------------------------------------------------------------------- #
def test_member_query_timings_projection(service):
    result = service.discover(DiscoveryRequest(mode="union", k=5, table="g0t0"))
    timings = result.timings
    # Member queries reuse stored vectors: no sketch, no embed...
    assert timings.sketch_ms == 0.0
    assert timings.embed_ms == 0.0
    # ...but the index search and the end-to-end total are real work.
    assert timings.index_ms > 0.0
    assert timings.total_ms >= timings.index_ms
    assert result.diagnostics["cache_hit"] is None


def test_external_query_cache_hit_keeps_index_and_total(service, lake_tables):
    request = DiscoveryRequest(mode="union", k=5, payload=lake_tables["g0t0"])
    cold = service.discover(request)
    assert cold.diagnostics["cache_hit"] is False
    assert cold.timings.sketch_ms > 0.0
    assert cold.timings.embed_ms > 0.0
    warm = service.discover(request)
    assert warm.diagnostics["cache_hit"] is True
    # The docstring's contract: only the stages the cache skips go to zero.
    assert warm.timings.sketch_ms == 0.0
    assert warm.timings.embed_ms == 0.0
    assert warm.timings.index_ms > 0.0
    assert warm.timings.total_ms >= warm.timings.index_ms


def test_batch_queries_carry_amortized_stage_timings(service, lake_tables):
    requests = [
        DiscoveryRequest(mode="union", k=5, payload=lake_tables[name])
        for name in ("g0t1", "g1t1", "g2t1")
    ]
    results = service.discover_batch(requests)
    for result in results:
        assert result.timings.sketch_ms > 0.0
        assert result.timings.embed_ms > 0.0
        assert result.timings.total_ms > 0.0


def test_request_id_lands_in_diagnostics(service):
    with obs.bind_request_id("rid-in-proc-42"):
        result = service.discover(
            DiscoveryRequest(mode="union", k=3, table="g0t0")
        )
    assert result.diagnostics["request_id"] == "rid-in-proc-42"
    # Outside any binding the key is simply absent.
    bare = service.discover(DiscoveryRequest(mode="union", k=3, table="g0t1"))
    assert "request_id" not in bare.diagnostics


# --------------------------------------------------------------------- #
# The acceptance reconciliation: histogram sum vs summed Timings
# --------------------------------------------------------------------- #
def test_query_histogram_reconciles_with_timings(service, lake_tables):
    registry = obs.get_registry()
    registry.reset()
    totals = 0.0
    count = 0
    for name in ("g0t0", "g1t0", "g2t0", "g0t1", "g1t1"):
        for mode in ("union", "join"):
            result = service.discover(
                DiscoveryRequest(mode=mode, k=5, table=name)
            )
            totals += result.timings.total_ms
            count += 1
    hist = registry.get("lake_query_duration_ms")
    assert _observed(hist, "count") == count
    assert _observed(hist, "sum") == pytest.approx(totals, rel=0.01)
    assert registry.get("lake_queries_total").value == count


def _observed(histogram, field: str) -> float:
    """A histogram's ``count`` or ``sum`` over every label combination, as
    its ``collect()`` snapshot reports them."""
    return sum(value[field] for value in histogram.collect()["values"])


def _over_one_union_query(catalog: LakeCatalog, read) -> float:
    """How far ``read()`` moves while the catalog answers one member union
    query of ``g0t0``."""
    service = LakeService(catalog)
    before = read()
    service.discover(DiscoveryRequest(mode="union", k=5, table="g0t0"))
    return read() - before


def test_a_union_query_counts_each_query_column_once(
    tmp_path, lake_embedder, lake_tables
):
    """``index_queries_total`` counts query rows: a member union query of q
    columns adds exactly q to the family, at any shard count (the
    directory's ``lake_layout_shards`` runs it at 1 and at 4)."""
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path, "fp"))
    catalog.add_tables(lake_tables)
    queries = obs.get_registry().get("index_queries_total")
    added = _over_one_union_query(catalog, lambda: queries.value)
    assert added == len(catalog.records["g0t0"].column_names)


def test_a_union_query_times_one_index_call(tmp_path, lake_embedder, lake_tables):
    """All of a union query's columns go to the index in one call, so the
    ``index_query_duration_ms`` family gains exactly one observation, at
    any shard count."""
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path, "fp"))
    catalog.add_tables(lake_tables)
    timings = obs.get_registry().get("index_query_duration_ms")
    assert _over_one_union_query(catalog, lambda: _observed(timings, "count")) == 1


# --------------------------------------------------------------------- #
# Slow-query log
# --------------------------------------------------------------------- #
def test_slow_log_records_span_breakdowns(service):
    for name in ("g0t0", "g0t1", "g1t0"):
        service.discover(DiscoveryRequest(mode="union", k=5, table=name))
    entries = service.slow_log.snapshot()
    assert len(entries) == 3
    slowest = [entry["total_ms"] for entry in entries]
    assert slowest == sorted(slowest, reverse=True)
    for entry in entries:
        assert entry["mode"] == "union"
        assert entry["spans"]["name"] == "lake.discover"
        assert entry["timings"]["total_ms"] == entry["total_ms"]


def test_slow_log_capacity_keeps_the_slowest():
    log = obs.SlowQueryLog(capacity=2)
    for total in (5.0, 1.0, 9.0, 3.0):
        log.record({"total_ms": total})
    kept = [entry["total_ms"] for entry in log.snapshot()]
    assert kept == [9.0, 5.0]


# --------------------------------------------------------------------- #
# Service stats satellites
# --------------------------------------------------------------------- #
def test_stats_observability_fields(service, lake_tables):
    before = service.stats()
    assert before["uptime_s"] >= 0.0
    assert before["queries_total"] == 0
    assert before["cache_hit_rate"] is None  # no lookups yet

    request = DiscoveryRequest(mode="union", k=5, payload=lake_tables["g0t0"])
    service.discover(request)  # miss
    service.discover(request)  # hit
    service.discover(DiscoveryRequest(mode="union", k=5, table="g0t1"))

    after = service.stats()
    assert after["queries_total"] == 3
    assert after["queries_served"] == after["queries_total"]
    assert after["cache_hits"] == 1
    assert after["cache_misses"] == 1
    assert after["cache_hit_rate"] == pytest.approx(0.5)
    assert after["cache_evictions"] == 0
    assert after["uptime_s"] >= before["uptime_s"]
    # Ingest counting rides the same stats payload.
    assert after["ingests_total"] == 0


# --------------------------------------------------------------------- #
# Store commits: one span, one latency sample, manifest bytes by kind
# --------------------------------------------------------------------- #
def _store_with(tmp_path, cold_catalog, n_tables: int):
    """A one-shard store holding ``n_tables`` copies of one record."""
    record = next(iter(cold_catalog.records.values()))
    store = LakeStore(tmp_path / "lake", "fp", n_shards=1)

    def named(name: str) -> LakeTableRecord:
        return LakeTableRecord(
            sketch=replace(record.sketch, table_name=name),
            column_vectors=record.column_vectors,
            table_embedding=record.table_embedding,
            n_rows=record.n_rows,
        )

    store.save_tables([named(f"t{i:03d}") for i in range(n_tables)])
    return store, named


def _flush_spans(root: obs.Span) -> list:
    return [child for child in root.children if child.name == "store.flush"]


def test_a_remove_records_one_flush_span_and_one_latency_sample(
    tmp_path, cold_catalog
):
    store, _ = _store_with(tmp_path, cold_catalog, 3)
    registry = obs.get_registry()
    registry.reset()
    with obs.span("test") as root:
        assert store.remove_table("t001")
    (flush,) = _flush_spans(root)
    assert flush.meta == {"shard": 0, "manifest": "journal"}
    assert _observed(registry.get("lake_store_flush_duration_ms"), "count") == 1


def test_an_append_to_a_200_entry_shard_renames_nothing_and_writes_under_1kb(
    tmp_path, cold_catalog, monkeypatch
):
    """The manifest half of an append is one journal line, not the
    shard's whole manifest; the counter tells the two apart."""
    store, named = _store_with(tmp_path, cold_catalog, 200)
    registry = obs.get_registry()
    registry.reset()
    renames = []
    real_replace = os.replace
    monkeypatch.setattr(
        os, "replace", lambda *args: (renames.append(args), real_replace(*args))
    )
    with obs.span("test") as root:
        store.save_table(replace(named("t100"), n_rows=99, version=2))
    assert renames == []
    manifest_bytes = registry.get("lake_store_manifest_bytes_total")
    assert 0 < manifest_bytes.labels(shard="0", kind="journal").value < 1024
    assert manifest_bytes.labels(shard="0", kind="compaction").value == 0
    (flush,) = _flush_spans(root)
    assert flush.meta["manifest"] == "journal"
    assert LakeStore.open(tmp_path / "lake").load_table("t100").n_rows == 99

"""`LakeService` query facade: warm/cold equivalence, incremental
consistency against cold rebuilds, caching, batching, and thread safety."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.lake.api import DiscoveryError, DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService, table_digest
from repro.lake.store import LakeStore
from repro.sketch.numeric import numerical_sketch
from repro.table.schema import Table, table_from_rows

MODES = ("join", "union", "subset")


def _ranked(service, query, mode="union", k=10, column=None) -> list[str]:
    """Ranked table names for a member name or an external ``Table``."""
    return service.discover(_request(query, mode, k, column)).tables()


def _request(query, mode="union", k=10, column=None) -> DiscoveryRequest:
    named = {"payload": query} if isinstance(query, Table) else {"table": query}
    return DiscoveryRequest(mode=mode, k=k, column=column, **named)


def _ranked_batch(service, queries, mode="union", k=10) -> list[list[str]]:
    requests = [_request(query, mode, k) for query in queries]
    return [result.tables() for result in service.discover_batch(requests)]


def _all_queries(service, names, k=5):
    return {
        mode: {name: _ranked(service, name, mode=mode, k=k) for name in names}
        for mode in MODES
    }


def test_warm_service_answers_identical_to_cold(
    tmp_path, lake_embedder, lake_tables
):
    store = LakeStore(tmp_path, "fp")
    cold_catalog = LakeCatalog(lake_embedder, store=store)
    for table in lake_tables.values():
        cold_catalog.add_table(table)
    cold = _all_queries(LakeService(cold_catalog), lake_tables)

    warm_catalog = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    warm = _all_queries(LakeService(warm_catalog), lake_tables)
    assert warm == cold
    assert warm_catalog.embed_calls == 0


def test_incremental_mutations_match_cold_rebuild(lake_embedder, lake_tables):
    names = list(lake_tables)
    kept = [n for n in names if n != "g2t0"]

    # Mutated: add everything, query, remove one, query again.
    mutated = LakeService(LakeCatalog(lake_embedder))
    for table in lake_tables.values():
        mutated.add_table(table)
    _all_queries(mutated, names)  # exercise the index pre-removal
    mutated.remove_table("g2t0")
    after_removal = _all_queries(mutated, kept)

    # Cold rebuild on the same final table set.
    cold = LakeService(LakeCatalog(lake_embedder))
    for name in kept:
        cold.add_table(lake_tables[name])
    assert after_removal == _all_queries(cold, kept)

    # Removed table no longer appears anywhere.
    for per_mode in after_removal.values():
        for results in per_mode.values():
            assert "g2t0" not in results

    # Re-adding restores cold-equivalent answers on the full set.
    mutated.add_table(lake_tables["g2t0"])
    full_cold = LakeService(LakeCatalog(lake_embedder))
    for table in lake_tables.values():
        full_cold.add_table(table)
    assert _all_queries(mutated, names) == _all_queries(full_cold, names)


def test_external_query_table_uses_lru_cache(cold_catalog, lake_tables):
    service = LakeService(cold_catalog)
    probe = lake_tables["g1t2"].with_columns(
        lake_tables["g1t2"].columns, name="probe"
    )
    embeds_before = cold_catalog.embed_calls
    first = _ranked(service, probe, mode="union", k=4)
    assert cold_catalog.embed_calls == embeds_before + 1
    second = _ranked(service, probe, mode="union", k=4)
    assert second == first
    # Second query hit the cache — no further trunk work.
    assert cold_catalog.embed_calls == embeds_before + 1
    assert service._cache.hits == 1
    # The probe resembles group 1; its nearest union candidates are group 1.
    assert first[0].startswith("g1")


def test_member_name_query_excludes_itself(cold_catalog):
    service = LakeService(cold_catalog)
    for mode in MODES:
        assert "g0t0" not in _ranked(service, "g0t0", mode=mode, k=9)


def test_cache_eviction_respects_capacity(cold_catalog, lake_tables):
    service = LakeService(cold_catalog, cache_size=2)
    probes = [
        table.with_columns(table.columns, name=f"probe{i}")
        for i, table in enumerate(list(lake_tables.values())[:3])
    ]
    for probe in probes:
        _ranked(service, probe, k=2)
    assert len(service._cache) == 2
    assert service._cache.get(table_digest(probes[0])) is None


def test_query_validation(cold_catalog, lake_tables):
    service = LakeService(cold_catalog)
    for kwargs, code, fragment in (
        ({"mode": "merge"}, "bad-request", "query mode"),
        ({"query": "missing"}, "not-found", "not in catalog"),
        ({"mode": "join", "column": "ghost"}, "not-found", "no column"),
        # column= names a join column; any other mode refuses it.
        ({"mode": "union", "column": "ghost"}, "bad-request", "join mode"),
    ):
        with pytest.raises(DiscoveryError, match=fragment) as excinfo:
            _ranked(service, kwargs.pop("query", "g0t0"), **kwargs)
        assert excinfo.value.code == code


def test_query_batch_fails_fast_before_embedding(cold_catalog, lake_tables):
    """An unknown member name aborts the batch *before* the batched
    embedding pass pays for payloads that would be discarded."""
    service = LakeService(cold_catalog)
    probe = lake_tables["g0t1"].with_columns(
        lake_tables["g0t1"].columns, name="failfast-probe"
    )
    before = cold_catalog.embed_calls
    with pytest.raises(DiscoveryError, match="not in catalog") as excinfo:
        _ranked_batch(service, [probe, "missing"], mode="union", k=3)
    assert excinfo.value.code == "not-found"
    assert cold_catalog.embed_calls == before, "no wasted trunk forwards"


def test_out_of_range_shard_filter_fails_before_any_work(
    cold_catalog, lake_tables
):
    """A shard filter past the lake's shards is a cheap failure: the batch
    raises before refreshing, sketching, embedding, caching or counting."""
    catalog = cold_catalog
    catalog.append_rows("g1t1", [["grp1new", "7", "tag0"]])
    service = LakeService(catalog)
    probe = lake_tables["g0t1"].with_columns(
        lake_tables["g0t1"].columns, name="shard-probe"
    )
    before = (
        catalog.engine.forward_calls,
        len(service._cache),
        service.query_count,
        catalog.stale_tables(),
    )
    requests = [
        DiscoveryRequest(mode="union", k=3, payload=probe),
        DiscoveryRequest(mode="union", k=3, payload=probe, shards=(7,)),
    ]
    with pytest.raises(DiscoveryError) as excinfo:
        service.discover_batch(requests)
    assert excinfo.value.code == "bad-request"
    assert str(excinfo.value) == (
        f"shard filter [7] out of range for a {catalog.n_shards}-shard lake"
    )
    assert (
        catalog.engine.forward_calls,
        len(service._cache),
        service.query_count,
        catalog.stale_tables(),
    ) == before == (before[0], 0, 0, ["g1t1"])


def test_unknown_join_column_fails_before_any_work(cold_catalog, lake_tables):
    """A join column the query table lacks — a payload's header or a
    member's stored columns — is a cheap failure: the batch raises before
    refreshing, sketching, embedding, caching or counting."""
    catalog = cold_catalog
    catalog.append_rows("g1t1", [["grp1new", "7", "tag0"]])
    service = LakeService(catalog)
    probe = lake_tables["g0t1"].with_columns(
        lake_tables["g0t1"].columns, name="column-probe"
    )

    def work():
        return (
            catalog.engine.forward_calls,
            len(service._cache),
            service.query_count,
            catalog.stale_tables(),
        )

    before = work()
    for requests in (
        [DiscoveryRequest(mode="join", k=3, payload=probe, column="ghost")],
        [
            DiscoveryRequest(mode="union", k=3, payload=probe),
            DiscoveryRequest(mode="join", k=3, table="g0t0", column="ghost"),
        ],
    ):
        with pytest.raises(DiscoveryError) as excinfo:
            service.discover_batch(requests)
        assert excinfo.value.code == "not-found"
        assert str(excinfo.value) == "query table has no column 'ghost'"
        assert work() == before == (before[0], 0, 0, ["g1t1"])


def test_query_batch_shares_cache(cold_catalog, lake_tables):
    service = LakeService(cold_catalog)
    probe = lake_tables["g0t1"].with_columns(
        lake_tables["g0t1"].columns, name="probe"
    )
    before = cold_catalog.embed_calls
    results = _ranked_batch(service, [probe, probe, "g0t0"], mode="union", k=3)
    assert len(results) == 3
    assert results[0] == results[1]
    # One distinct uncached payload -> one batched embedding pass; the
    # duplicate dedupes by digest and the member name never embeds.
    assert cold_catalog.embed_calls == before + 1
    assert service._cache.misses == 1
    assert service.stats()["queries_served"] == 3
    # A later lone query answers from the cache the batch populated.
    assert _ranked(service, probe, mode="union", k=3) == results[0]
    assert cold_catalog.embed_calls == before + 1
    assert service._cache.hits == 1


def test_query_batch_embeds_distinct_externals_in_one_pass(
    lake_embedder, lake_tables
):
    """The satellite guarantee: N distinct uncached external query tables
    cost ``ceil(N / batch_size)`` trunk forwards, not N serial ones."""
    catalog = LakeCatalog(lake_embedder, batch_size=4)
    for table in lake_tables.values():
        catalog.add_table(table)
    service = LakeService(catalog)
    probes = [
        table.with_columns(table.columns, name=f"batchprobe{i}")
        for i, table in enumerate(list(lake_tables.values())[:6])
    ]
    # 6 distinct + 2 duplicates + 1 member at batch_size=4 -> ceil(6/4) = 2.
    queries = probes + [probes[0], probes[3], "g0t0"]
    before = catalog.embed_calls
    results = _ranked_batch(service, queries, mode="union", k=4)
    assert len(results) == len(queries)
    assert catalog.embed_calls == before + 2
    assert results[len(probes)] == results[0]
    assert results[len(probes) + 1] == results[3]
    # Batched answers match the serial one-at-a-time path exactly.
    serial = LakeService(catalog)
    for query, result in zip(queries, results):
        assert _ranked(serial, query, mode="union", k=4) == result


def test_batched_totals_include_their_share(cold_catalog, lake_tables):
    """A batched query's total includes the sketch and embed time charged
    to it, and the latency histogram observes exactly that total."""
    service = LakeService(cold_catalog)
    registry = obs.get_registry()
    registry.reset()
    probes = [
        table.with_columns(table.columns, name=f"share{i}")
        for i, table in enumerate(list(lake_tables.values())[:4])
    ]
    results = service.discover_batch([_request(probe, k=3) for probe in probes])
    for result in results:
        timings = result.timings
        assert timings.sketch_ms > 0.0 and timings.embed_ms > 0.0
        parts = timings.sketch_ms + timings.embed_ms + timings.index_ms
        assert parts <= timings.total_ms
    observed = registry.get("lake_query_duration_ms").collect()["values"]
    assert sum(value["count"] for value in observed) == len(results)
    assert sum(value["sum"] for value in observed) == pytest.approx(
        sum(result.timings.total_ms for result in results), rel=0.01
    )


def test_concurrent_reads_are_consistent(cold_catalog):
    service = LakeService(cold_catalog)
    names = cold_catalog.table_names()
    expected = {name: _ranked(service, name, mode="union", k=4) for name in names}
    failures: list[str] = []

    def worker():
        for _ in range(5):
            for name in names:
                if _ranked(service, name, mode="union", k=4) != expected[name]:
                    failures.append(name)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


def test_stats_shape(tmp_path, lake_embedder, lake_tables):
    store = LakeStore(tmp_path, "fp")
    catalog = LakeCatalog(lake_embedder, store=store)
    service = LakeService(catalog)
    service.add_table(next(iter(lake_tables.values())))
    stats = service.stats()
    assert stats["n_tables"] == 1
    assert stats["store"]["n_tables"] == 1
    assert stats["queries_served"] == 0


def test_overflowing_numeric_cell_keeps_sketches_and_vectors_finite(
    tmp_path, lake_embedder, lake_tables
):
    """A cell beyond float64's range ("1e400") is unparseable, like any
    other non-number. Parsed as ``inf`` it made the column's mean, std and
    percentiles inf/nan, so a payload carrying it found no hits and its
    stored column vectors were non-finite; its queries ranked on nan
    distances (or found nothing)."""
    amounts = ["1.5", "2", "1e400", "3"]
    rows = [[f"grp0val{i}", amounts[i % 4]] for i in range(24)]
    table = table_from_rows("amounts", ["entity", "amount"], rows)
    sketch = numerical_sketch(table.columns[1])
    assert np.all(np.isfinite(sketch.to_vector()))
    assert (sketch.min_value, sketch.max_value) == (1.5, 3.0)

    store = LakeStore(tmp_path, "fp")
    catalog = LakeCatalog(lake_embedder, store=store)
    for member in lake_tables.values():
        catalog.add_table(member)
    record = catalog.add_table(table)
    assert np.all(np.isfinite(record.column_vectors))
    assert np.all(np.isfinite(store.load_table("amounts").column_vectors))

    service = LakeService(catalog)
    payload = table_from_rows("amounts_query", ["entity", "amount"], rows)
    for mode in MODES:
        hits = service.discover(_request(payload, mode)).hits
        assert hits, mode
        for hit in hits:
            assert np.isfinite(hit.score), (mode, hit)
            assert all(np.isfinite(m.distance) for m in hit.matches), (mode, hit)

"""`repro.lake` service bench — the §V deployment recipe, measured.

Not a paper table: quantifies the offline-index / online-query split the
paper recommends ("we recommend indexing the datalake offline and at query
time only compute embeddings for the query table"). Four phases over a
100-table lake:

- **cold build** — sketch + embed + index every table, persisting to disk;
- **warm load**  — reopen the store; must re-embed *nothing*;
- **incremental** — add 1 table to the standing catalog; must re-embed only
  that table and be >= 10x faster than a cold rebuild of the grown lake;
- **query** — external-table query latency, cold vs LRU-cached.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.common import MODEL_DIM, MODEL_HEADS, MODEL_LAYERS, emit, model_config
from repro.core import InputEncoder, TabSketchFM
from repro.core.embed import TableEmbedder
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.table.schema import Table, table_from_rows
from repro.text import WordPieceTokenizer

N_TABLES = 100
N_ROWS = 40
QUERY_REPEATS = 20


def _make_tables(n: int, offset: int = 0) -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for t in range(offset, offset + n):
        group = t % 10
        base = [f"grp{group}entity{i}" for i in range(N_ROWS)]
        rows = [
            [value, str((group + 1) * i), f"tag{(i + t) % 5}"]
            for i, value in enumerate(base[: N_ROWS - (t % 7)])
        ]
        name = f"lake{t:04d}"
        tables[name] = table_from_rows(
            name, ["entity", "count", "tag"], rows, description=f"group {group}"
        )
    return tables


def _embedder() -> TableEmbedder:
    tables = _make_tables(4)
    texts: list[str] = []
    for table in tables.values():
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=600)
    config = model_config(len(tokenizer.vocabulary))
    model = TabSketchFM(config)
    return TableEmbedder(model, InputEncoder(config, tokenizer))


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("lake_bench")
    embedder = _embedder()
    fingerprint = config_fingerprint(embedder.model.config, model=embedder.model)
    tables = _make_tables(N_TABLES)

    # -- cold build (persisting) -------------------------------------- #
    started = time.perf_counter()
    store = LakeStore(root, fingerprint)
    catalog = LakeCatalog(embedder, store=store)
    for table in tables.values():
        catalog.add_table(table)
    cold_build_s = time.perf_counter() - started
    assert catalog.embed_calls == N_TABLES

    # -- warm load ----------------------------------------------------- #
    started = time.perf_counter()
    warm = LakeCatalog.from_store(embedder, LakeStore.open(root, fingerprint))
    warm_load_s = time.perf_counter() - started
    assert warm.embed_calls == 0, "warm load must skip all sketching/embedding"
    service = LakeService(warm)

    # -- incremental add of 1 table ------------------------------------ #
    extra = _make_tables(1, offset=N_TABLES)
    started = time.perf_counter()
    before = warm.embed_calls
    service.add_table(next(iter(extra.values())))
    incremental_s = time.perf_counter() - started
    assert warm.embed_calls == before + 1, "delta must re-embed only the new table"
    # Cold-rebuild counterpoint on the same grown table set — persisted like
    # the incremental path, since rebuilding a *persistent* lake is the real
    # alternative to the 1-table delta.
    rebuild_root = tmp_path_factory.mktemp("lake_rebuild")
    started = time.perf_counter()
    rebuild = LakeCatalog(embedder, store=LakeStore(rebuild_root, fingerprint))
    for table in {**tables, **extra}.values():
        rebuild.add_table(table)
    rebuild_s = time.perf_counter() - started

    # -- query latency: uncached vs LRU-cached ------------------------- #
    probe = DiscoveryRequest(
        mode="union", k=10,
        payload=next(iter(_make_tables(1, offset=N_TABLES + 1).values())),
    )
    started = time.perf_counter()
    first = service.discover(probe).tables()
    uncached_ms = 1000.0 * (time.perf_counter() - started)
    started = time.perf_counter()
    for _ in range(QUERY_REPEATS):
        assert service.discover(probe).tables() == first
    cached_ms = 1000.0 * (time.perf_counter() - started) / QUERY_REPEATS

    rows = [
        {"phase": "cold build (100 tables)", "seconds": round(cold_build_s, 3)},
        {"phase": "warm load (100 tables)", "seconds": round(warm_load_s, 3)},
        {"phase": "incremental add (1 table)", "seconds": round(incremental_s, 3)},
        {"phase": "cold rebuild (101 tables)", "seconds": round(rebuild_s, 3)},
        {"phase": "query, uncached (ms)", "seconds": round(uncached_ms, 3)},
        {"phase": "query, cached (ms)", "seconds": round(cached_ms, 3)},
    ]
    extra_payload = {
        "speedups": {
            "warm_vs_cold": round(cold_build_s / max(warm_load_s, 1e-9), 1),
            "incremental_vs_rebuild": round(rebuild_s / max(incremental_s, 1e-9), 1),
            "cached_vs_uncached_query": round(uncached_ms / max(cached_ms, 1e-9), 1),
        },
        "cache": {"hits": service._cache.hits, "misses": service._cache.misses},
    }
    return service, probe, rows, extra_payload


def bench_lake_service(benchmark, experiment):
    service, probe, rows, extra_payload = experiment
    emit(
        "lake_service",
        "Lake service — cold build vs warm load vs incremental vs cached query",
        rows,
        extra=extra_payload,
    )
    benchmark.pedantic(lambda: service.discover(probe), rounds=10, iterations=5)
    speedups = extra_payload["speedups"]
    # Acceptance: a 1-table delta beats a full rebuild by >= 10x, warm load
    # skips embedding entirely, and the LRU cache pays for itself. The
    # warm-vs-cold ratio is disk-read-bound on the warm side; the batched
    # EmbeddingEngine cut the cold build ~4x, so the bar is 3x (the hard
    # invariant — zero re-embeds on warm load — is asserted above exactly).
    assert speedups["incremental_vs_rebuild"] >= 10.0
    assert speedups["warm_vs_cold"] >= 3.0
    assert speedups["cached_vs_uncached_query"] >= 2.0

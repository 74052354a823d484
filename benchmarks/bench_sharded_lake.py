"""Sharded lake bench — bulk ingest vs a per-table loop, and query cost vs
shards.

Not a paper table: two measurements on a 180-table / 540-column synthetic
lake (≥500 columns) in a 4-shard `LakeStore`:

- **ingest** — one bulk ``add_tables`` (batched sketch → batched trunk
  forwards → per-shard writes) against an ``add_table`` loop (one forward
  and one index re-persist per table). ``ingest_speedup_bulk`` is the
  ratio.
- **query** — union-query latency against 1-, 4-, and 8-shard stores (the
  fan-out + top-k array merge path; one shard is the same path with one
  sub-index, whose answer passes through unmerged), with the ranking-parity
  invariant across shard counts asserted on every member.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.common import emit, model_config
from repro.core import InputEncoder, TabSketchFM
from repro.core.embed import TableEmbedder
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.table.schema import Table, table_from_rows
from repro.text import WordPieceTokenizer

N_TABLES = 180  # x 3 columns = 540 indexed columns
N_ROWS = 40
QUERY_SHARD_COUNTS = (1, 4, 8)
N_QUERY_PROBES = 30


def _make_tables(n: int, offset: int = 0) -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for t in range(offset, offset + n):
        group = t % 12
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
    embedder = _embedder()
    tables = _make_tables(N_TABLES)
    n_columns = sum(t.n_cols for t in tables.values())
    assert n_columns >= 500, "the acceptance bar wants a >=500-column lake"

    def fingerprint(n_shards: int) -> str:
        return config_fingerprint(
            embedder.model.config, model=embedder.model, n_shards=n_shards
        )

    rows: list[dict] = []

    # -- ingest: serial per-table baseline ------------------------------ #
    serial_root = tmp_path_factory.mktemp("sharded_ingest_serial")
    started = time.perf_counter()
    serial = LakeCatalog(
        embedder, store=LakeStore(serial_root, fingerprint(4), n_shards=4)
    )
    for table in tables.values():
        serial.add_table(table)
    serial_s = time.perf_counter() - started
    rows.append(
        {"phase": "ingest, serial per-table loop", "seconds": round(serial_s, 3)}
    )

    # -- ingest: one bulk add_tables ----------------------------------- #
    bulk_root = tmp_path_factory.mktemp("sharded_ingest_bulk")
    started = time.perf_counter()
    reference = LakeCatalog(
        embedder, store=LakeStore(bulk_root, fingerprint(4), n_shards=4)
    )
    reference.add_tables(tables)
    bulk_s = time.perf_counter() - started
    rows.append({"phase": "ingest, bulk add_tables", "seconds": round(bulk_s, 3)})

    # -- query latency vs shard count ----------------------------------- #
    # Stored vectors are reused across layouts (save + warm open), so the
    # measured cost is pure index fan-out + merge, never re-embedding.
    records = [reference.records[name] for name in reference.table_names()]
    probes = list(tables)[:: max(1, N_TABLES // N_QUERY_PROBES)][:N_QUERY_PROBES]
    query_ms: dict[int, float] = {}
    rankings: dict[int, dict[str, list[str]]] = {}
    for n_shards in QUERY_SHARD_COUNTS:
        root = tmp_path_factory.mktemp(f"sharded_query_{n_shards}")
        store = LakeStore(root, fingerprint(n_shards), n_shards=n_shards)
        store.save_tables(records)
        warm = LakeCatalog.from_store(embedder, store)
        assert warm.embed_calls == 0
        service = LakeService(warm)
        started = time.perf_counter()
        rankings[n_shards] = {
            name: service.discover(
                DiscoveryRequest(mode="union", k=10, table=name)
            ).tables()
            for name in probes
        }
        query_ms[n_shards] = (
            1000.0 * (time.perf_counter() - started) / len(probes)
        )
        rows.append(
            {
                "phase": f"union query, {n_shards} shard(s) (ms)",
                "seconds": round(query_ms[n_shards], 3),
            }
        )
    for n_shards in QUERY_SHARD_COUNTS[1:]:
        assert rankings[n_shards] == rankings[QUERY_SHARD_COUNTS[0]], (
            "rankings must be shard-count-invariant"
        )

    extra = {
        "lake": {"n_tables": N_TABLES, "n_columns": n_columns},
        "speedups": {
            "ingest_speedup_bulk": round(serial_s / max(bulk_s, 1e-9), 1),
            "query_overhead_8shards_vs_1shard": round(
                query_ms[8] / max(query_ms[1], 1e-9), 2
            ),
        },
    }
    probe = DiscoveryRequest(
        mode="union", k=10,
        payload=next(iter(_make_tables(1, offset=N_TABLES).values())),
    )
    service = LakeService(reference)
    return service, probe, rows, extra


def bench_sharded_lake(benchmark, experiment):
    service, probe, rows, extra = experiment
    emit(
        "sharded_lake",
        "Sharded lake — bulk ingest and query latency vs shards",
        rows,
        extra=extra,
    )
    benchmark.pedantic(lambda: service.discover(probe), rounds=10, iterations=5)
    speedups = extra["speedups"]
    # Acceptance: on a >=500-column lake, one bulk add_tables ingests >=2x
    # faster than the per-table loop, and the sharded fan-out does not blow
    # up query latency.
    assert speedups["ingest_speedup_bulk"] >= 2.0
    assert speedups["query_overhead_8shards_vs_1shard"] < 10.0

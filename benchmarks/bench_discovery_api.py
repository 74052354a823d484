"""Discovery API bench — in-process vs HTTP, and the parity proof.

Not a paper table: quantifies the cost of the network hop the versioned
Discovery API adds (`repro.lake.server` / `repro.lake.client`) and proves
the acceptance criterion along the way: for identical
:class:`DiscoveryRequest` s, the in-process `LakeService` and a
`LakeClient` over HTTP return **identical ranked (table, score) hits**
across all three modes, member and external queries.

Measured phases over a ~60-table lake:

- **in-process**     — `service.discover` latency (the floor);
- **http x1**        — one client, sequential requests (adds one JSON
  round-trip + socket hop);
- **http x8 / x32**  — concurrent clients; throughput should *rise* with
  concurrency because the asyncio front-end answers from a thread pool
  while each request's index work releases the GIL in BLAS.
"""

from __future__ import annotations

import threading
import time

import pytest

from benchmarks.common import emit, model_config
from repro.core import InputEncoder, TabSketchFM
from repro.core.embed import TableEmbedder
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.server import ServerThread
from repro.lake.service import LakeService
from repro.table.schema import Table, table_from_rows
from repro.text import WordPieceTokenizer

N_TABLES = 60
N_ROWS = 30
MODES = ("join", "union", "subset")
CONCURRENCY = (1, 8, 32)
QUERIES_PER_CLIENT = 12


def _make_tables(n: int) -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for t in range(n):
        group = t % 6
        rows = [
            [f"grp{group}entity{i}", str((group + 1) * i), f"tag{(i + t) % 5}"]
            for i in range(N_ROWS - (t % 5))
        ]
        name = f"api{t:03d}"
        tables[name] = table_from_rows(
            name, ["entity", "count", "tag"], rows, description=f"group {group}"
        )
    return tables


def _embedder(tables: dict[str, Table]) -> TableEmbedder:
    texts: list[str] = []
    for table in tables.values():
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=600)
    config = model_config(len(tokenizer.vocabulary))
    model = TabSketchFM(config)
    return TableEmbedder(model, InputEncoder(config, tokenizer))


def _service(tables, embedder) -> LakeService:
    catalog = LakeCatalog(embedder)
    catalog.add_tables(tables)
    return LakeService(catalog)


def _member_requests(tables, k: int = 10) -> list[DiscoveryRequest]:
    names = sorted(tables)
    return [
        DiscoveryRequest(mode=MODES[i % len(MODES)], k=k, table=names[i])
        for i in range(len(names))
    ]


@pytest.fixture(scope="module")
def experiment():
    tables = _make_tables(N_TABLES)
    embedder = _embedder(tables)
    service = _service(tables, embedder)
    requests = _member_requests(tables)

    # ---- parity proof: all modes, member + external ------------------ #
    parity_checked = 0
    probe = next(iter(tables.values()))
    external = probe.with_columns(probe.columns, name="api-probe")
    with ServerThread(service) as server:
        client = LakeClient(port=server.port)
        for mode in MODES:
            for query in (
                DiscoveryRequest(mode=mode, k=10, table=sorted(tables)[0]),
                DiscoveryRequest(mode=mode, k=10, payload=external),
            ):
                local = service.discover(query).scored()
                remote = client.query(query).scored()
                assert remote == local, f"HTTP vs in-process divergence: {mode}"
                scores = [score for _, score in local]
                assert scores == sorted(scores, reverse=True), (
                    "scores must be monotone with the ranking"
                )
                parity_checked += 1
        client.close()

    # ---- in-process floor -------------------------------------------- #
    started = time.perf_counter()
    for request in requests:
        service.discover(request)
    inproc_s = time.perf_counter() - started
    inproc_ms = 1000.0 * inproc_s / len(requests)

    # ---- HTTP at increasing client concurrency ----------------------- #
    rows = [
        {
            "path": "in-process",
            "clients": 0,
            "latency_ms": round(inproc_ms, 3),
            "qps": round(len(requests) / inproc_s, 1),
        }
    ]
    http_x1_ms = None
    with ServerThread(service, max_workers=max(CONCURRENCY)) as server:
        for n_clients in CONCURRENCY:
            latencies: list[float] = []
            lock = threading.Lock()
            barrier = threading.Barrier(n_clients + 1)

            def worker(seed: int) -> None:
                client = LakeClient(port=server.port)
                mine: list[float] = []
                barrier.wait()
                for i in range(QUERIES_PER_CLIENT):
                    request = requests[(seed + i) % len(requests)]
                    t0 = time.perf_counter()
                    client.query(request)
                    mine.append(time.perf_counter() - t0)
                client.close()
                with lock:
                    latencies.extend(mine)

            threads = [
                threading.Thread(target=worker, args=(17 * i,))
                for i in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - started
            total = n_clients * QUERIES_PER_CLIENT
            mean_ms = 1000.0 * sum(latencies) / len(latencies)
            if n_clients == 1:
                http_x1_ms = mean_ms
            rows.append(
                {
                    "path": "http",
                    "clients": n_clients,
                    "latency_ms": round(mean_ms, 3),
                    "qps": round(total / wall_s, 1),
                }
            )

    extra = {
        "parity": {
            "checked": parity_checked,
            "modes": list(MODES),
            "identical_ranked_hits": True,
        },
        "overhead": {
            "http_x1_vs_inprocess_ms": round(http_x1_ms - inproc_ms, 3),
        },
    }
    return service, requests, rows, extra


def bench_discovery_api(benchmark, experiment):
    service, requests, rows, extra = experiment
    emit(
        "discovery_api",
        "Discovery API — in-process vs HTTP latency/throughput (1/8/32 clients)",
        rows,
        extra=extra,
    )
    benchmark.pedantic(
        lambda: service.discover(requests[0]), rounds=10, iterations=5
    )
    by_clients = {row["clients"]: row for row in rows if row["path"] == "http"}
    # Concurrency must buy throughput: 8 clients beat 1 client's qps.
    assert by_clients[8]["qps"] > by_clients[1]["qps"]
    assert extra["parity"]["identical_ranked_hits"]

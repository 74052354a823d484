"""Observability overhead bench — the <3% acceptance gate.

`repro.obs` instruments the whole serving path: a ``lake.discover`` span
tree per query (always on — it *is* the ``Timings`` source, replacing the
``perf_counter`` pairs the service used to pay anyway), plus gated
recording (counters, latency histograms, the slow-query log). This bench
measures what the *gated* part costs on the leanest serving path there
is — sub-millisecond member queries, where a fixed per-query cost is
proportionally at its worst.

Measurement design: each request runs enabled and disabled back-to-back
(order alternating per repetition), so both arms of a pair share the
same instantaneous machine conditions — CPU frequency, cache state,
allocator phase. The overhead estimate is the **median of the paired
deltas** normalized by the disabled-arm p50; adjacent pairing plus the
median makes the estimate robust to the scheduler spikes and slow drift
that dominate raw percentile comparisons at this latency scale.

The acceptance criterion is that recording costs under 3% at the p50 —
observability must be cheap enough to leave on in production serving.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.common import emit, model_config
from repro import obs
from repro.core import InputEncoder, TabSketchFM
from repro.core.embed import TableEmbedder
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.table.schema import Table, table_from_rows
from repro.text import WordPieceTokenizer

N_TABLES = 60
N_ROWS = 24
MODES = ("join", "union", "subset")
#: Paired repetitions; each rep runs every request once per arm,
#: adjacent in time, with the arm order flipped between reps.
REPS = 24
WARMUP_PASSES = 3
#: The gate the ISSUE sets: gated recording must cost < 3% at the median.
MAX_OVERHEAD_PCT = 3.0


def _make_tables(n: int) -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for t in range(n):
        group = t % 5
        rows = [
            [f"grp{group}entity{i}", str((group + 1) * i), f"tag{(i + t) % 4}"]
            for i in range(N_ROWS - (t % 4))
        ]
        name = f"obs{t:03d}"
        tables[name] = table_from_rows(
            name, ["entity", "count", "tag"], rows, description=f"group {group}"
        )
    return tables


def _service(tables: dict[str, Table]) -> LakeService:
    texts: list[str] = []
    for table in tables.values():
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=600)
    config = model_config(len(tokenizer.vocabulary))
    model = TabSketchFM(config)
    embedder = TableEmbedder(model, InputEncoder(config, tokenizer))
    catalog = LakeCatalog(embedder)
    catalog.add_tables(tables)
    return LakeService(catalog)


def _requests(tables: dict[str, Table], k: int = 10) -> list[DiscoveryRequest]:
    names = sorted(tables)
    return [
        DiscoveryRequest(mode=MODES[i % len(MODES)], k=k, table=names[i])
        for i in range(len(names))
    ]


def _timed_ms(service, request) -> float:
    t0 = time.perf_counter()
    service.discover(request)
    return 1000.0 * (time.perf_counter() - t0)


@pytest.fixture(scope="module")
def experiment():
    tables = _make_tables(N_TABLES)
    service = _service(tables)
    requests = _requests(tables)

    # Steady state for the slow-query log: on a long-running server the
    # top-N threshold has converged, so a p50 query never builds an
    # entry (only the genuinely slow tail does — and that's not what a
    # median measures). Prime the heap above this workload's latencies.
    obs.set_enabled(True)
    for _ in range(service.slow_log.capacity):
        service.slow_log.record({"total_ms": 1e9, "query": "warmup-sentinel"})

    # Warm both arms: index caches, allocator, and the metric children.
    for _ in range(WARMUP_PASSES):
        for request in requests:
            obs.set_enabled(True)
            _timed_ms(service, request)
            obs.set_enabled(False)
            _timed_ms(service, request)

    deltas_ms: list[float] = []
    samples = {True: [], False: []}
    try:
        for rep in range(REPS):
            order = (True, False) if rep % 2 == 0 else (False, True)
            for request in requests:
                pair = {}
                for enabled in order:
                    obs.set_enabled(enabled)
                    pair[enabled] = _timed_ms(service, request)
                deltas_ms.append(pair[True] - pair[False])
                samples[True].append(pair[True])
                samples[False].append(pair[False])
    finally:
        obs.set_enabled(True)

    rows = []
    for enabled in (False, True):
        arm = samples[enabled]
        p50 = statistics.median(arm)
        mean = statistics.fmean(arm)
        rows.append(
            {
                "recording": "enabled" if enabled else "disabled",
                "queries": len(arm),
                "p50_ms": round(p50, 4),
                "mean_ms": round(mean, 4),
                "qps": round(1000.0 / mean, 1),
            }
        )
    # Median paired delta over the disabled-arm median: the p50 shift
    # attributable to recording, with same-instant noise cancelled.
    median_delta_ms = statistics.median(deltas_ms)
    overhead_pct = 100.0 * median_delta_ms / statistics.median(samples[False])
    extra = {
        "overhead": {
            "p50_overhead_pct": round(overhead_pct, 3),
            "median_paired_delta_us": round(1000.0 * median_delta_ms, 2),
            "budget_pct": MAX_OVERHEAD_PCT,
            "note": "spans run in both arms (they are the Timings source); "
                    "the delta is the gated recording: counters, histograms, "
                    "slow-query log",
        }
    }
    return service, requests, rows, extra, overhead_pct


def bench_obs_overhead(benchmark, experiment):
    service, requests, rows, extra, overhead_pct = experiment
    emit(
        "obs_overhead",
        "repro.obs overhead — discover() p50 with recording enabled vs disabled",
        rows,
        extra=extra,
    )
    benchmark.pedantic(
        lambda: service.discover(requests[0]), rounds=10, iterations=5
    )
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"gated recording costs {overhead_pct:.2f}% at p50 — "
        f"over the {MAX_OVERHEAD_PCT}% budget"
    )

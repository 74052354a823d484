"""Observability overhead bench — the <3% acceptance gate.

`repro.obs` instruments the whole serving path: a ``lake.discover`` span
tree per query (it *is* the ``Timings`` source, replacing the
``perf_counter`` pairs the service used to pay anyway), plus recording
(counters, gauges, latency histograms, the slow-query log). Recording has
no off switch, so this bench measures what it costs on the leanest
serving path there is — sub-millisecond member queries, where a fixed
per-query cost is proportionally at its worst.

Measurement design: each repetition runs one whole pass of the requests
with recording on and one with it stubbed out — counter / gauge ``inc``
and ``set``, histogram ``observe`` and ``SlowQueryLog.would_record`` /
``record`` replaced by no-ops through :func:`unittest.mock.patch` for the
length of the pass (re-patching around each call would slow the next
call and bias the off arm). The arm order flips between repetitions, and
each request's on and off times within a repetition form one paired
delta. The overhead estimate is the **median of the paired deltas**
normalized by the off-arm p50; pairing plus the median keeps the estimate
robust to the scheduler spikes and slow drift that dominate raw
percentile comparisons at this latency scale.

The acceptance criterion is that recording costs under 3% at the p50 —
cheap enough that it is always on in production serving.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from unittest import mock

import pytest

from benchmarks.common import emit, model_config
from repro.core import InputEncoder, TabSketchFM
from repro.core.embed import TableEmbedder
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.obs import SlowQueryLog
from repro.obs.metrics import _HistogramChild, _ValueChild
from repro.table.schema import Table, table_from_rows
from repro.text import WordPieceTokenizer

N_TABLES = 60
N_ROWS = 24
MODES = ("join", "union", "subset")
#: Paired repetitions; each rep runs one pass of every request per arm,
#: with the arm order flipped between reps.
REPS = 24
WARMUP_PASSES = 3
#: Recording must cost < 3% of the off arm at the median.
MAX_OVERHEAD_PCT = 3.0
#: What the off arm stubs out: every recording call on the query path.
RECORDING_CALLS = (
    (_ValueChild, "inc"),
    (_ValueChild, "set"),
    (_HistogramChild, "observe"),
    (SlowQueryLog, "would_record"),
    (SlowQueryLog, "record"),
)


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


def _pass_ms(service, requests, recording: bool) -> list[float]:
    """One timed pass over ``requests``; with ``recording`` off, every
    recording call is a no-op for the whole pass."""
    with contextlib.ExitStack() as stubs:
        if not recording:
            for owner, name in RECORDING_CALLS:
                stubs.enter_context(
                    mock.patch.object(owner, name, lambda *args, **kwargs: False)
                )
        return [_timed_ms(service, request) for request in requests]


@pytest.fixture(scope="module")
def experiment():
    tables = _make_tables(N_TABLES)
    service = _service(tables)
    requests = _requests(tables)

    # Steady state for the slow-query log: on a long-running server the
    # top-N threshold has converged, so a p50 query never builds an
    # entry (only the genuinely slow tail does — and that's not what a
    # median measures). Prime the heap above this workload's latencies.
    for _ in range(service.slow_log.capacity):
        service.slow_log.record({"total_ms": 1e9, "query": "warmup-sentinel"})

    # Warm both arms: index caches, allocator, and the metric children.
    for _ in range(WARMUP_PASSES):
        for recording in (True, False):
            _pass_ms(service, requests, recording)

    deltas_ms: list[float] = []
    samples = {True: [], False: []}
    for rep in range(REPS):
        order = (True, False) if rep % 2 == 0 else (False, True)
        passes = {
            recording: _pass_ms(service, requests, recording)
            for recording in order
        }
        deltas_ms.extend(on - off for on, off in zip(passes[True], passes[False]))
        for recording, times in passes.items():
            samples[recording].extend(times)

    rows = []
    for recording in (False, True):
        arm = samples[recording]
        p50 = statistics.median(arm)
        mean = statistics.fmean(arm)
        rows.append(
            {
                "recording": "on" if recording else "stubbed",
                "queries": len(arm),
                "p50_ms": round(p50, 4),
                "mean_ms": round(mean, 4),
                "qps": round(1000.0 / mean, 1),
            }
        )
    # Median paired delta over the off-arm median: the p50 shift
    # attributable to recording, with shared drift cancelled.
    median_delta_ms = statistics.median(deltas_ms)
    overhead_pct = 100.0 * median_delta_ms / statistics.median(samples[False])
    extra = {
        "overhead": {
            "p50_overhead_pct": round(overhead_pct, 3),
            "median_paired_delta_us": round(1000.0 * median_delta_ms, 2),
            "budget_pct": MAX_OVERHEAD_PCT,
            "note": "spans run in both arms (they are the Timings source); "
                    "the delta is recording: counters, gauges, histograms, "
                    "slow-query log",
        }
    }
    return service, requests, rows, extra, overhead_pct


def bench_obs_overhead(benchmark, experiment):
    service, requests, rows, extra, overhead_pct = experiment
    emit(
        "obs_overhead",
        "repro.obs overhead — discover() p50 with recording on vs stubbed out",
        rows,
        extra=extra,
    )
    benchmark.pedantic(
        lambda: service.discover(requests[0]), rounds=10, iterations=5
    )
    assert overhead_pct < MAX_OVERHEAD_PCT, (
        f"recording costs {overhead_pct:.2f}% at p50 — "
        f"over the {MAX_OVERHEAD_PCT}% budget"
    )

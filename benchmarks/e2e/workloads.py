"""The four workloads. Names are stable; later issues refer to them.

Every workload is a **closed loop with one client** issued from this one
process (`query_external_http` adds only the in-process ``ServerThread``):
the reference box has two cores, so a second load process would measure
the scheduler. Each timed phase follows an untimed warm-up.

A workload fills ``run.e2e`` with the end-to-end metrics. Its two time
axes, ``throughput_per_s`` and ``p50_ms``, are taken **at the reference
speed**: every measured duration is rescaled by the
:class:`~benchmarks.e2e.stack.HostReference` tick timed next to it, so a
slow minute of the shared host does not read as a slow program; the
durations as the clock gave them are kept in ``run.raw``. When the
tracer is enabled it additionally replays its own inputs stage by stage
through the layers' public functions (:mod:`benchmarks.e2e.replay`) and
fills ``run.layer``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.lake.api import DiscoveryError, DiscoveryRequest
from repro.lake.client import LakeClient
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.server import ServerThread
from repro.lake.service import LakeService
from repro.lakegen.driver import (
    DEFAULT_BLEND,
    ChurnSpec,
    ServiceTarget,
    evaluate_recall,
    run_churn,
)

from benchmarks.e2e import replay
from benchmarks.e2e.stack import (
    CACHE_SIZE,
    INGEST_CHUNK,
    K,
    MODES,
    SETUP_CHUNK,
    chunks,
    member_request,
    mismatches,
    new_service,
    p50,
    p95,
    payload_request,
    rankings,
    sample_requests,
    store_usage,
    warm_service,
)

#: Requests whose rankings are compared across a restart / across the wire.
CHECK_SAMPLE = 50
#: Recall floors at this configuration. Recall is exact for a seed but moves
#: between seeds: over seeds 1-40 union is 0.897-0.992 and subset 0.614-0.786,
#: so the issue's 0.95 / 0.60 (set from seeds 7 and 8) fail on one seed in
#: three. These sit below every seed seen and far above a broken index. Join
#: (0.03-0.09) has none: ROADMAP item 2's known defect.
RECALL_FLOORS = {"union": 0.80, "subset": 0.50}

HOT_PAYLOADS = 32
HOT_SHARE = 0.30
#: Churn ops per `--seconds`: about 60 ms an op at 10k columns.
CHURN_OPS_PER_SECOND = 20
#: Requests per `--seconds` in the traced passes, which run a fixed count
#: (the untraced ones run on the clock): about half what the clock allows,
#: because every traced request is also replayed.
TRACED_MEMBER_QUERIES_PER_SECOND = 300
TRACED_HTTP_QUERIES_PER_SECOND = 60
WARMUP_QUERIES = 30
#: A query loop runs in blocks this long, a reference tick before each.
BLOCK_SECONDS = 0.25


def provision(run, root, n_shards: int) -> LakeService:
    """Set-up ingest of the whole lake into an empty on-disk store."""
    service = new_service(run.model, root, n_shards)
    for chunk in chunks(run.lake, SETUP_CHUNK):
        service.add_tables(chunk)
    return service


def reopen(run, root, n_shards: int, before: list, sample: list) -> LakeService:
    """Warm-open ``root`` in a fresh catalog and check that it serves
    exactly the rankings the closed catalog served."""
    with run.tracer.span("lake.catalog.from_store", "lake.catalog") as span:
        service = warm_service(run.model, root, n_shards)
    run.layer["lake.catalog.from_store_s"] = span.seconds
    run.check(
        "warm-opened rankings equal pre-close rankings",
        len(sample),
        mismatches(before, rankings(service, sample)),
    )
    catalog = service.catalog
    run.check(
        "warm open runs no forward and inserts no index row",
        1,
        int(catalog.embed_calls != 0 or catalog.searcher.insertions != 0),
    )
    return service


def store_metrics(run, root, columns: int) -> None:
    files, size = store_usage(root)
    run.e2e["store_bytes_per_col"] = size / columns
    run.layer["lake.store.files"] = files
    run.layer["lake.store.bytes"] = size


def engine_counters(run, catalog) -> None:
    """Exact counts: trunk forwards and catalog-charged embed calls."""
    run.layer["core.engine.forwards"] = catalog.engine.forward_calls
    run.layer["lake.catalog.embed_calls"] = catalog.embed_calls
    stats = catalog.engine.fusion_stats
    lookups = stats["cache_hits"] + stats["cache_misses"]
    run.layer["core.engine.kernel_cache_hit_rate"] = (
        stats["cache_hits"] / lookups if lookups else 0.0
    )


def check_recall(run, recall: dict) -> None:
    for mode in MODES:
        stats = recall[mode]
        run.layer[f"quality.recall_at_10_{mode}"] = stats["recall_at_k"]
        run.samples[f"quality.recall_at_10_{mode}"] = stats["evaluated"]
        floor = RECALL_FLOORS.get(mode)
        if floor is not None:
            run.check(
                f"recall@10 [{mode}] {stats['recall_at_k']:.3f} >= {floor}",
                1,
                int(stats["recall_at_k"] < floor),
            )


def closed_loop(run, issue, traced_count: int) -> list:
    """One client, the next request only after the previous reply, in blocks
    of `BLOCK_SECONDS` with a reference tick before each: on the clock for
    ``run.seconds`` untraced, a fixed count traced. ``issue(i)`` sends
    request ``i`` and returns its milliseconds. Returns the blocks as
    ``(tick, [ms, ...], wall seconds)``."""
    reference, tracer = run.reference, run.tracer
    blocks = []
    issued = 0
    deadline = time.perf_counter() + run.seconds

    def more() -> bool:
        if tracer.enabled:
            return issued < traced_count
        return time.perf_counter() < deadline

    while more():
        tick = reference.tick()
        started = time.perf_counter()
        block_end = started + BLOCK_SECONDS
        block_ms = []
        while more() and time.perf_counter() < block_end:
            block_ms.append(issue(issued))
            issued += 1
        if block_ms:
            blocks.append((tick, block_ms, time.perf_counter() - started))
    reference.tick()  # the last block's right-hand neighbour
    return blocks


def report_loop(run, blocks: list) -> list[float]:
    """The two time axes of a query loop: the median of the rescaled
    latencies, and the median block's rescaled rate — a stall inside one
    block costs that block, not the run. Returns the latencies as measured."""
    scale = run.reference.scale
    measured = [ms for _, block_ms, _ in blocks for ms in block_ms]
    run.e2e["p50_ms"] = p50(
        [ms * scale(tick) for tick, block_ms, _ in blocks for ms in block_ms]
    )
    run.e2e["throughput_per_s"] = p50(
        [len(block_ms) / (wall * scale(tick)) for tick, block_ms, wall in blocks]
    )
    run.samples["p50_ms"] = len(measured)
    run.raw["p50_ms"] = p50(measured)
    run.raw["throughput_per_s"] = len(measured) / sum(wall for _, _, wall in blocks)
    return measured


# --------------------------------------------------------------------- #
# ingest_cold
# --------------------------------------------------------------------- #
def ingest_cold(run) -> None:
    """The paper's offline indexing cost: the whole lake through
    ``LakeService.add_tables`` in 64-table chunks into an empty on-disk
    store, then a warm open. Fixed work (one lake), not ``--seconds``: a
    chunk's cost grows with the index it re-saves, so stopping on a clock
    would make columns/s depend on how far the run got."""
    lake, tracer = run.lake, run.tracer
    root = run.work.path("lake")
    service = new_service(run.model, root, n_shards=1)
    run.setup_done()

    chunk_ms: list[float] = []
    ticks: list[int] = []
    for op, chunk in enumerate(chunks(lake, INGEST_CHUNK)):
        ticks.append(run.reference.tick())
        with tracer.span("lake.catalog.add_tables", "lake.catalog", op=op) as span:
            service.add_tables(chunk)
        chunk_ms.append(span.ms)
    run.reference.tick()
    ingest_s = sum(chunk_ms) / 1000.0
    rescaled = [ms * run.reference.scale(tick) for tick, ms in zip(ticks, chunk_ms)]
    run.check(
        "every manifest table ingested",
        len(chunk_ms),
        int(len(service.catalog) != len(lake.names)),
    )
    run.e2e["throughput_per_s"] = 1000.0 * lake.columns / sum(rescaled)
    run.e2e["p50_ms"] = p50(rescaled)
    run.samples["p50_ms"] = len(chunk_ms)
    run.raw["throughput_per_s"] = lake.columns / ingest_s
    run.raw["p50_ms"] = p50(chunk_ms)
    run.layer["lake.catalog.add_tables_s"] = ingest_s
    engine_counters(run, service.catalog)
    store_metrics(run, root, lake.columns)

    sample = sample_requests(lake, run.seed, CHECK_SAMPLE)
    before = rankings(service, sample)
    del service
    reopen(run, root, 1, before, sample)

    if tracer.enabled:
        snapshots = run.work.path("snapshots")
        with tracer.span("lake.replica.publish", "lake.replica") as span:
            generation = SnapshotPublisher(root, snapshots).publish()
        run.layer["lake.replica.publish_s"] = span.seconds
        with tracer.span("lake.replica.adopt", "lake.replica") as span:
            replica = ReplicaService(run.model.embedder(), snapshots)
        run.layer["lake.replica.adopt_s"] = span.seconds
        run.check(
            "replica adopted the published generation and ranks like the leader",
            len(sample) + 1,
            int(replica.generation != generation)
            + mismatches(before, rankings(replica, sample)),
        )
        replay.ingest(run, run.work.path("replay"))
        replay.warm_open(run, root, 1)


# --------------------------------------------------------------------- #
# query_member
# --------------------------------------------------------------------- #
def query_member(run) -> None:
    """Index-dominated reads on a warm-opened 4-shard store: stored
    vectors, no sketch, no trunk, no cache, no wire. A trunk or sketch
    optimisation must show no change here."""
    lake, tracer = run.lake, run.tracer
    root = run.work.path("lake")
    service = provision(run, root, n_shards=4)
    sample = sample_requests(lake, run.seed, CHECK_SAMPLE)
    before = rankings(service, sample)
    store_metrics(run, root, lake.columns)
    del service
    service = reopen(run, root, 4, before, sample)
    run.setup_done()

    # Every planted truth entry once: the accuracy half of the scorecard.
    check_recall(run, evaluate_recall(ServiceTarget(service), lake.manifest, k=K))

    rng = np.random.default_rng(run.seed + 1)
    names = lake.names

    def request(i: int):
        return member_request(names[int(rng.integers(len(names)))], MODES[i % 3])

    for i in range(WARMUP_QUERIES):
        service.discover(request(i))

    results = []
    requests = []
    self_hits = 0

    def issue(i: int) -> float:
        nonlocal self_hits
        req = request(i)
        with tracer.span("lake.service.discover", "lake.service", op=i) as span:
            result = service.discover(req)
        self_hits += req.table in result.tables()
        if tracer.enabled:
            requests.append(req)
            results.append(result)
        return span.ms

    query_ms = report_loop(run, closed_loop(
        run, issue, round(TRACED_MEMBER_QUERIES_PER_SECOND * run.seconds)
    ))
    run.check(
        "leave-one-out: no query table among its own hits", len(query_ms), self_hits
    )
    run.layer["lake.service.discover_member_ms_p50"] = p50(query_ms)
    run.layer["lake.service.discover_member_ms_p95"] = p95(query_ms)
    engine_counters(run, service.catalog)
    run.check(
        "member queries ran no trunk forward",
        1,
        int(service.catalog.engine.forward_calls != 0),
    )

    if tracer.enabled:
        replay.service_timings(run, results)
        replay.member_queries(run, service, requests)
        replay.warm_open(run, root, 4)


# --------------------------------------------------------------------- #
# query_external_http
# --------------------------------------------------------------------- #
class PayloadStream:
    """Seeded payload-query stream: 70 % never-seen tables (renamed copies
    of members), 30 % drawn from a hot set of 32 payloads — fewer than the
    128-entry LRU holds, so both the hit and the miss path are exercised."""

    def __init__(self, lake, seed: int):
        self.lake = lake
        self.rng = np.random.default_rng(seed)
        self.hot = [
            payload_request(self._member(), f"hot{j:02d}", "union").payload
            for j in range(HOT_PAYLOADS)
        ]
        self.issued = 0

    def _member(self):
        names = self.lake.names
        return self.lake.tables[names[int(self.rng.integers(len(names)))]]

    def next(self):
        i = self.issued
        self.issued += 1
        mode = MODES[i % 3]
        if self.rng.random() < HOT_SHARE:
            table = self.hot[int(self.rng.integers(HOT_PAYLOADS))]
            return payload_request(table, table.name, mode)
        return payload_request(self._member(), f"ext{i:06d}", mode)

    def warm(self, discover) -> None:
        for table in self.hot:
            discover(payload_request(table, table.name, "union"))


def same_answer(local, remote) -> bool:
    """Hit for hit: same tables, exact scores, same evidence counts."""
    return local.scored() == remote.scored() and [
        h.n_matched_columns for h in local.hits
    ] == [h.n_matched_columns for h in remote.hits]


def query_external_http(run) -> None:
    """The paper's online path end to end: JSON encode, HTTP framing,
    strict decode, ``sketch_table``, encode, batch-of-1 trunk forward,
    index, result codec, wire."""
    lake, tracer = run.lake, run.tracer
    root = run.work.path("lake")
    service = provision(run, root, n_shards=1)
    sample = sample_requests(lake, run.seed, CHECK_SAMPLE)
    before = rankings(service, sample)
    store_metrics(run, root, lake.columns)
    del service
    service = reopen(run, root, 1, before, sample)
    catalog = service.catalog

    server = ServerThread(service).start()
    client = LakeClient(host=server.host, port=server.port)
    try:
        stream = PayloadStream(lake, run.seed + 2)
        stream.warm(client.query)
        run.setup_done()

        requests = []
        remote = []
        errors = 0

        def issue(i: int) -> float:
            nonlocal errors
            req = stream.next()
            with tracer.span("lake.client.query", "lake.server+client", op=i) as span:
                try:
                    result = client.query(req)
                except (DiscoveryError, OSError):
                    result = None
                    errors += 1
            if tracer.enabled:
                requests.append(req)
                remote.append(result)
            return span.ms

        query_ms = report_loop(run, closed_loop(
            run, issue, round(TRACED_HTTP_QUERIES_PER_SECOND * run.seconds)
        ))
        n = len(query_ms)
        run.check("client.query answered without a typed or socket error", n, errors)
        run.layer["lake.client.query_ms_p50"] = p50(query_ms)
        run.layer["lake.client.query_ms_p95"] = p95(query_ms)
        run.layer["lake.server.failed"] = errors

        # Over the wire == in process, hit for hit, on a fixed sample.
        probe = PayloadStream(lake, run.seed + 3)
        wrong = 0
        for _ in range(CHECK_SAMPLE):
            req = probe.next()
            wrong += not same_answer(service.discover(req), client.query(req))
        run.check("LakeClient.query equals in-process discover", CHECK_SAMPLE, wrong)

        if tracer.enabled:
            # The identical request list in process, on a service whose
            # cache starts exactly where the served one started.
            local_service = LakeService(catalog, cache_size=CACHE_SIZE)
            PayloadStream(lake, run.seed + 2).warm(local_service.discover)
            # Through the codec first: the server sketches freshly decoded
            # tables, whose column types are not yet inferred; the lake's own
            # Table objects would make the in-process twin unfairly cheap.
            requests = [
                DiscoveryRequest.from_dict(json.loads(json.dumps(r.to_dict())))
                for r in requests
            ]
            local = replay.local_payload_pass(run, local_service, requests)
            run.check(
                "every traced client.query equals its in-process twin",
                n,
                sum(
                    1
                    for a, b in zip(local, remote)
                    if b is None or not same_answer(a, b)
                ),
            )
            replay.service_timings(run, local)
            replay.payload_queries(
                run, catalog, requests, local, query_ms, stream.hot
            )
    finally:
        # Close the keep-alive connection first and let the server see the
        # EOF: stopping the loop with a handler parked in wait_closed()
        # prints a CancelledError traceback.
        client.close()
        time.sleep(0.05)
        server.stop()
    engine_counters(run, catalog)
    if tracer.enabled:
        replay.warm_open(run, root, 1)


# --------------------------------------------------------------------- #
# churn_live
# --------------------------------------------------------------------- #
class TimedTarget(ServiceTarget):
    """`ServiceTarget` that times every op `run_churn` issues, by kind, a
    reference tick before each."""

    def __init__(self, service: LakeService, tracer, reference):
        super().__init__(service)
        self.tracer = tracer
        self.reference = reference
        #: ``(kind, milliseconds as measured, reference tick)`` per op.
        self.ops: list[tuple[str, float, int]] = []
        self.appends: list[tuple[str, list]] = []
        self.refreshed = 0

    def _timed(self, kind: str, layer: str, call, *args):
        tick = self.reference.tick()
        span = self.tracer.span(f"churn.{kind}", layer, op=len(self.ops))
        try:
            with span:
                return call(*args)
        finally:
            self.ops.append((kind, span.ms, tick))

    def discover(self, request):
        return self._timed("query", "lake.service", self.service.discover, request)

    def add_tables(self, tables) -> None:
        self._timed("ingest", "lake.catalog", self.service.add_tables, tables)

    def append_rows(self, name, rows) -> None:
        self.appends.append((name, rows))
        self._timed("append", "lake.catalog", self.service.append_rows, name, rows)

    def update_table(self, table) -> None:
        self._timed("update", "lake.catalog", self.service.update_table, table)

    def remove_table(self, name) -> bool:
        return self._timed("remove", "lake.catalog", self.service.remove_table, name)

    def refresh_stale(self, names=None) -> list:
        out = self._timed("refresh", "lake.catalog", self.service.refresh_stale, names)
        self.refreshed += len(out)
        return out

    def ms(self, kind: str) -> list[float]:
        return [ms for op, ms, _ in self.ops if op == kind]

    def rescaled_ms(self, kind: str) -> list[float]:
        """At the reference speed (see `HostReference`)."""
        scale = self.reference.scale
        return [ms * scale(tick) for op, ms, tick in self.ops if op == kind]


def nominal_ops_per_s(ms_of_kind) -> float:
    """Ops/s of the *nominal* blend: 1 / sum_k share_k * median_latency_k.

    Not all-ops / wall: a 100-op churn draws its op kinds binomially (15
    appends give or take 4), and how much a `refresh` or a lazily refreshing
    strict query costs depends on how many appends happened to precede it, so
    that ratio moves 15-25 % from seed to seed with no change in the program.
    Weighting each kind's *median* latency by its nominal share measures the
    same mix without either draw. What the median hides — the strict query
    that pays a lazy re-embed — is per-layer
    `lake.service.discover_member_ms_p95`."""
    weighted = 0.0
    weight = 0.0
    for kind, share in DEFAULT_BLEND:
        samples = ms_of_kind(kind)
        if samples:
            weighted += share * p50(samples)
            weight += share
    return 1000.0 * weight / weighted


def churn_live(run) -> None:
    """Writes beside reads on the same store, index and sketch layers the
    other workloads use read-only or in bulk: mergeable-sketch append,
    staged update, per-delta index re-save, lazy re-embed on strict
    queries. Then: is every acknowledged write readable after a restart?"""
    lake, tracer = run.lake, run.tracer
    root = run.work.path("lake")
    service = provision(run, root, n_shards=1)
    catalog = service.catalog
    run.setup_done()

    target = TimedTarget(service, tracer, run.reference)
    # Never fewer than 60, so that a smoke run still issues an append.
    ops = max(60, round(CHURN_OPS_PER_SECOND * run.seconds))
    record = run_churn(target, lake.manifest, ChurnSpec(ops=ops, seed=run.seed + 4))
    run.reference.tick()
    run.check("churn op raised no typed error", ops, sum(record["errors"].values()))
    appends = target.ms("append")
    run.e2e["p50_ms"] = p50(target.rescaled_ms("append"))
    run.samples["p50_ms"] = len(appends)
    run.e2e["throughput_per_s"] = nominal_ops_per_s(target.rescaled_ms)
    run.raw["p50_ms"] = p50(appends)
    run.raw["throughput_per_s"] = nominal_ops_per_s(target.ms)
    run.layer["lake.catalog.append_rows_ms_p50"] = p50(appends)
    run.layer["lake.catalog.append_rows_ms_p95"] = p95(appends)
    run.samples["lake.catalog.append_rows_ms_p50"] = len(appends)
    queries = target.ms("query")
    run.layer["lake.service.discover_member_ms_p50"] = p50(queries)
    run.layer["lake.service.discover_member_ms_p95"] = p95(queries)
    refresh_s = sum(target.ms("refresh")) / 1000.0
    run.layer["lake.catalog.refresh_tables_per_s"] = (
        target.refreshed / refresh_s if target.refreshed else 0.0
    )
    run.layer["lake.catalog.add_tables_s"] = sum(target.ms("ingest")) / 1000.0

    if tracer.enabled:
        replay.appends(run, catalog, target.appends)

    # Strict queries: whatever churn left stale is re-embedded before it is
    # scored, so this proves the append path converges.
    check_recall(run, evaluate_recall(ServiceTarget(service), lake.manifest, k=K))
    engine_counters(run, catalog)

    sample = sample_requests(lake, run.seed, CHECK_SAMPLE)
    before = rankings(service, sample)
    versions = {name: r.version for name, r in catalog.records.items()}
    store_metrics(run, root, catalog.stats()["n_columns"])
    del service, target
    warm = reopen(run, root, 1, before, sample)
    reopened = {name: r.version for name, r in warm.catalog.records.items()}
    run.check(
        "acknowledged writes are readable after restart (tables + versions)",
        len(versions),
        sum(1 for name in versions.keys() | reopened.keys()
            if versions.get(name) != reopened.get(name)),
    )
    run.check(
        "nothing is stale after the strict recall pass",
        1,
        int(bool(warm.catalog.stale_tables())),
    )
    if tracer.enabled:
        replay.warm_open(run, root, 1)


WORKLOADS = {
    "ingest_cold": ingest_cold,
    "query_member": query_member,
    "query_external_http": query_external_http,
    "churn_live": churn_live,
}

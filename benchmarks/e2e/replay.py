"""Stage-by-stage replays for the traced run.

A traced workload first makes its composite calls (``add_tables``,
``discover``, ``client.query``, ``append_rows``, ``from_store``) under
spans, then hands the *same inputs* to the functions here, which push them
through each layer's public functions in the order
``LakeCatalog.add_tables`` / ``LakeService.discover`` call them. Replay
spans carry the composite call's op id, so per op

    unattributed = 1 - (replayed stage sum) / (composite call's wall)

is what the named layers fail to explain (catalog/service glue, locks,
``repro.obs`` bookkeeping). A negative value means the replay ran slower
than the real call did. For the HTTP workload the wire is itself a named
layer, measured by difference against the in-process twin of each request.
Nothing here is timed for an end-to-end metric.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.core.embed import finalize_column_vectors
from repro.core.engine import sketch_corpus
from repro.core.inputs import batch_encodings
from repro.lake.api import DiscoveryRequest, DiscoveryResult
from repro.lake.serialization import pack_table_sketch, unpack_table_sketch
from repro.lake.service import table_digest
from repro.lake.store import LakeStore, LakeTableRecord
from repro.lakegen.generator import materialize_table
from repro.search.backend import make_index
from repro.search.tables import ColumnEntry, TableSearcher
from repro.sketch.pipeline import sketch_table
from repro.table.schema import table_from_rows

from benchmarks.e2e.stack import BATCH_SIZE, INGEST_CHUNK, K, chunks, p50, p95


def attribute(run, composite: "set[str]", stages: "set[str]", wire=None) -> None:
    """Split the composite calls' wall by layer, from the replayed stages of
    the same ops. ``wire`` is a ``(layer, seconds)`` measured by difference
    rather than replayed. Fills ``run.attribution`` and
    ``trace.unattributed_share``."""
    tracer = run.tracer
    whole = tracer.seconds_by_op(composite)
    parts = tracer.seconds_by_op(stages)
    wall = sum(whole[op] for op in parts)
    layers = tracer.self_seconds_by_layer(stages)
    explained = sum(parts.values())
    if wire is not None:
        layer, seconds = wire
        layers[layer] = {"self_s": seconds, "spans": len(parts)}
        explained += seconds
    run.attribution = {
        "composite": sorted(composite),
        "composite_s": wall,
        "layers": layers,
    }
    run.layer["trace.unattributed_share"] = 1.0 - explained / wall


def encode_standalone(model, sketches) -> tuple[float, int]:
    """`InputEncoder.encode_single` + `batch_encodings` exactly as the
    engine batches them (length-sorted groups of 16): ``(seconds, tokens)``."""
    pad_id = model.tokenizer.vocabulary.pad_id
    started = time.perf_counter()
    encodings = [model.encoder.encode_single(s, pad=False) for s in sketches]
    encodings.sort(key=lambda e: e.length)
    for start in range(0, len(encodings), BATCH_SIZE):
        batch_encodings(
            encodings[start : start + BATCH_SIZE], pad_token_id=pad_id
        )
    return time.perf_counter() - started, sum(e.length for e in encodings)


# --------------------------------------------------------------------- #
# ingest_cold
# --------------------------------------------------------------------- #
def ingest(run, root) -> None:
    """sketch_corpus -> InputEncoder -> embed_corpus -> finalize_column_vectors
    -> TableSearcher.add_table -> LakeStore.save_tables -> save_index, chunk by
    chunk into a second empty store, so each save_index re-saves an index of
    the size the composite call saved."""
    tracer, model, lake = run.tracer, run.model, run.lake
    config = model.config.sketch
    hasher = config.build_hasher()
    engine = model.embedder().engine
    searcher = TableSearcher(model.config.dim)
    store = LakeStore(root, model.fingerprint(1), n_shards=1)
    spec = searcher.backend_spec
    store.record_index_spec(spec)

    totals = dict.fromkeys(
        ("sketch", "encode", "embed", "add", "pack", "save_tables"), 0.0
    )
    tokens = 0
    for op, chunk in enumerate(chunks(lake, INGEST_CHUNK)):
        # Fresh Table objects: a Column caches its inferred type, and the
        # composite pass already paid that inference on the lake's own.
        tables = [materialize_table(lake.manifest, name) for name in chunk]
        with tracer.span("sketch.sketch_corpus", "sketch", op=op) as span:
            sketches = sketch_corpus(tables, config, hasher)
        totals["sketch"] += span.seconds
        encode_s, n_tokens = encode_standalone(model, sketches)
        totals["encode"] += encode_s
        tokens += n_tokens
        with tracer.span("core.engine.embed_corpus", "core.engine", op=op) as span:
            embeddings = engine.embed_corpus(sketches, batch_size=BATCH_SIZE)
        tracer.child(span, "core.inputs.encode", "core.inputs", encode_s)
        totals["embed"] += span.seconds
        with tracer.span("core.embed.finalize_column_vectors", "core.embed", op=op):
            records = []
            for table, sketch, embedding in zip(tables, sketches, embeddings):
                vectors = finalize_column_vectors(
                    embedding.columns, sketch, table=table
                )
                records.append(LakeTableRecord(
                    sketch=sketch,
                    column_vectors=np.stack([v for _, v in vectors]),
                    table_embedding=embedding.table,
                    n_rows=table.n_rows,
                ))
        with tracer.span("search.add_table", "search.tables", op=op) as span:
            for record in records:
                searcher.add_table(
                    record.name, record.column_names, record.column_vectors
                )
        totals["add"] += span.seconds
        started = time.perf_counter()
        for record in records:
            pack_table_sketch(record.sketch)
        pack_s = time.perf_counter() - started
        totals["pack"] += pack_s
        with tracer.span("lake.store.save_tables", "lake.store", op=op) as span:
            store.save_tables(records)
        tracer.child(span, "lake.serialization.pack", "lake.serialization", pack_s)
        totals["save_tables"] += span.seconds
        with tracer.span("lake.store.save_index", "lake.store", op=op) as span:
            store.save_index(searcher.index, spec)
        save_index_ms = span.ms  # the last chunk: at full lake size

    n_tables = len(lake.names)
    layer = run.layer
    layer["sketch.cols_per_s"] = lake.columns / totals["sketch"]
    layer["core.inputs.encode_tables_per_s"] = n_tables / totals["encode"]
    layer["core.inputs.tokens_per_table"] = tokens / n_tables
    layer["core.engine.embed_cols_per_s"] = lake.columns / totals["embed"]
    layer["search.add_cols_per_s"] = lake.columns / totals["add"]
    layer["lake.serialization.pack_us_per_table"] = 1e6 * totals["pack"] / n_tables
    layer["lake.store.save_tables_cols_per_s"] = lake.columns / totals["save_tables"]
    layer["lake.store.save_index_ms"] = save_index_ms
    attribute(
        run,
        {"lake.catalog.add_tables"},
        {
            "sketch.sketch_corpus",
            "core.engine.embed_corpus",
            "core.embed.finalize_column_vectors",
            "search.add_table",
            "lake.store.save_tables",
            "lake.store.save_index",
        },
    )


# --------------------------------------------------------------------- #
# warm open (every workload opens its store warm once)
# --------------------------------------------------------------------- #
def warm_open(run, root, n_shards: int) -> None:
    """What `LakeCatalog.from_store` does underneath: open, load_all,
    load_index — and how much of load_all is sketch unpacking."""
    tracer, model = run.tracer, run.model
    with tracer.span("lake.store.open", "lake.store", op="warm"):
        store = LakeStore.open(root, expected_fingerprint=model.fingerprint(n_shards))
    with tracer.span("lake.store.load_all", "lake.store", op="warm") as load_all:
        records = list(store.load_all())
    packed = [pack_table_sketch(record.sketch) for record in records]
    started = time.perf_counter()
    for arrays, meta in packed:
        unpack_table_sketch(arrays, meta)
    unpack_s = time.perf_counter() - started
    tracer.child(load_all, "lake.serialization.unpack", "lake.serialization", unpack_s)
    with tracer.span("lake.store.load_index", "lake.store", op="warm") as load_index:
        store.load_index(model.config.dim)
    run.layer["lake.store.load_all_s"] = load_all.seconds
    run.layer["lake.store.load_index_ms"] = load_index.ms
    run.layer["lake.serialization.unpack_us_per_table"] = (
        1e6 * unpack_s / max(1, len(records))
    )


# --------------------------------------------------------------------- #
# queries
# --------------------------------------------------------------------- #
def service_timings(run, results: "list[DiscoveryResult]") -> None:
    """Medians of the public `DiscoveryResult.timings`. Sketch and embed are
    taken over the results that paid them (cache misses)."""
    paid = [r.timings for r in results if r.timings.embed_ms > 0.0]
    layer = run.layer
    layer["lake.service.timings_sketch_ms"] = p50([t.sketch_ms for t in paid]) if paid else 0.0
    layer["lake.service.timings_embed_ms"] = p50([t.embed_ms for t in paid]) if paid else 0.0
    layer["lake.service.timings_index_ms"] = p50([r.timings.index_ms for r in results])
    layer["lake.service.overhead_ms"] = p50([
        r.timings.total_ms
        - r.timings.sketch_ms
        - r.timings.embed_ms
        - r.timings.index_ms
        for r in results
    ])


def named_vectors(request: DiscoveryRequest, pairs: list) -> list:
    if request.mode == "join" and request.column is not None:
        return [(request.column, dict(pairs)[request.column])]
    return pairs


def rank(tracer, searcher, request, pairs, exclude, excluded_columns, op):
    """The searcher call `LakeService._search` makes, with the index
    `query_many` it contains timed standalone on the same matrix. Returns
    ``(rank_ms, query_many_ms, matrix, want)``."""
    named = named_vectors(request, pairs)
    matrix = np.stack([vector for _, vector in named])
    want = K * searcher.candidate_factor + excluded_columns
    started = time.perf_counter()
    searcher.index.query_many(matrix, want)
    query_many_s = time.perf_counter() - started
    with tracer.span("search.rank_tables", "search.tables", op=op) as span:
        if request.mode == "join":
            searcher.join_tables_scored(named, K, exclude_table=exclude)
        else:
            searcher.near_tables_scored(named, K, exclude_table=exclude)
    tracer.child(span, "search.index.query_many", "search.index", query_many_s)
    return span.ms, query_many_s * 1000.0, matrix, want


def member_queries(run, service, requests: "list[DiscoveryRequest]") -> None:
    """record.vector_pairs -> searcher, per traced member query; plus the
    flat-vs-sharded `query_many` comparison on the same query matrices."""
    tracer = run.tracer
    catalog = service.catalog
    searcher = catalog.searcher
    sharded = searcher.index
    flat = make_index(catalog.index_spec, catalog.dim)
    flat.add_many([
        (ColumnEntry(record.name, column), vector)
        for record in catalog.records.values()
        for column, vector in record.vector_pairs()
    ])

    rank_ms, sharded_ms, flat_ms, subs_ms = [], [], [], []
    for op, request in enumerate(requests):
        with tracer.span("lake.catalog.vector_pairs", "lake.catalog", op=op):
            pairs = catalog.records[request.table].vector_pairs()
        ranked, query_many, matrix, want = rank(
            tracer, searcher, request, pairs, request.table, len(pairs), op
        )
        rank_ms.append(ranked - query_many)
        sharded_ms.append(query_many)
        started = time.perf_counter()
        flat.query_many(matrix, want)
        flat_ms.append((time.perf_counter() - started) * 1000.0)
        started = time.perf_counter()
        for sub in sharded.subs:
            sub.query_many(matrix, want)
        subs_ms.append((time.perf_counter() - started) * 1000.0)
    layer = run.layer
    layer["search.query_many_ms"] = p50(flat_ms)
    layer["search.sharded_query_many_ms"] = p50(sharded_ms)
    layer["search.shard_merge_ms"] = p50(sharded_ms) - p50(subs_ms)
    layer["search.rank_tables_ms"] = p50(rank_ms)
    attribute(
        run,
        {"lake.service.discover"},
        {"lake.catalog.vector_pairs", "search.rank_tables"},
    )


def local_payload_pass(run, service, requests) -> "list[DiscoveryResult]":
    """The traced request list through in-process `discover`."""
    tracer = run.tracer
    results = []
    hit_ms, miss_ms = [], []
    for op, request in enumerate(requests):
        with tracer.span("lake.service.discover", "lake.service", op=op) as span:
            result = service.discover(request)
        results.append(result)
        (hit_ms if result.diagnostics["cache_hit"] else miss_ms).append(span.ms)
    layer = run.layer
    layer["lake.service.cache_hit_rate"] = len(hit_ms) / len(requests)
    for label, values in (("hit", hit_ms), ("miss", miss_ms)):
        layer[f"lake.service.discover_{label}_ms_p50"] = p50(values) if values else 0.0
        layer[f"lake.service.discover_{label}_ms_p95"] = p95(values) if values else 0.0
        run.samples[f"lake.service.discover_{label}_ms_p50"] = len(values)
    return results


def payload_queries(run, catalog, requests, local, client_ms, hot) -> None:
    """to_dict/json -> strict decode -> digest -> sketch_table ->
    column_vector_pairs -> searcher -> result codec, per traced payload
    query; a request the service answered from its cache skips the sketch
    and the trunk here too (``hot`` are the payloads its cache started with)."""
    tracer, model = run.tracer, run.model
    hasher = catalog.sketch_config.build_hasher()
    cached: dict[str, list] = {
        table_digest(table): catalog.column_vector_pairs(
            table, sketch_table(table, catalog.sketch_config, hasher)
        )
        for table in hot
    }
    request_bytes = []
    times: dict[str, list[float]] = {
        name: [] for name in (
            "request_encode", "request_decode", "result_encode", "result_decode",
            "sketch", "embed",
        )
    }

    for op, (request, result) in enumerate(zip(requests, local)):
        with tracer.span("lake.api.request_encode", "lake.api", op=op) as span:
            body = json.dumps(request.to_dict()).encode("utf-8")
        times["request_encode"].append(span.ms)
        request_bytes.append(len(body))
        with tracer.span("lake.api.request_decode", "lake.api", op=op) as span:
            decoded = DiscoveryRequest.from_dict(json.loads(body.decode("utf-8")))
        times["request_decode"].append(span.ms)
        with tracer.span("lake.service.table_digest", "lake.service", op=op):
            digest = table_digest(decoded.payload)
        if result.diagnostics["cache_hit"] and digest in cached:
            pairs = cached[digest]
        else:
            with tracer.span("sketch.sketch_table", "sketch", op=op) as span:
                sketch = sketch_table(decoded.payload, catalog.sketch_config, hasher)
            times["sketch"].append(span.ms)
            encode_s, _ = encode_standalone(model, [sketch])
            with tracer.span(
                "lake.catalog.column_vector_pairs", "core.engine", op=op
            ) as span:
                pairs = catalog.column_vector_pairs(decoded.payload, sketch)
            tracer.child(span, "core.inputs.encode", "core.inputs", encode_s)
            times["embed"].append(span.ms)
            cached[digest] = pairs
        rank(tracer, catalog.searcher, decoded, pairs, None, 0, op)
        with tracer.span("lake.api.result_encode", "lake.api", op=op) as span:
            wire = json.dumps(result.to_dict()).encode("utf-8")
        times["result_encode"].append(span.ms)
        with tracer.span("lake.api.result_decode", "lake.api", op=op) as span:
            DiscoveryResult.from_dict(json.loads(wire.decode("utf-8")))
        times["result_decode"].append(span.ms)

    layer = run.layer
    for name in ("request_encode", "request_decode", "result_encode", "result_decode"):
        layer[f"lake.api.{name}_us"] = 1000.0 * p50(times[name])
    layer["lake.api.payload_request_bytes"] = p50(request_bytes)
    layer["sketch.query_table_ms"] = p50(times["sketch"])
    layer["core.engine.embed_one_ms"] = p50(times["embed"])
    local_ms = [
        s.ms for s in tracer.spans
        if s.parent is None and s.name == "lake.service.discover"
    ]
    layer["lake.server.http_overhead_ms"] = p50(client_ms) - p50(local_ms)
    # What the wire adds is a named layer measured by difference (client wall
    # - in-process wall, less the codec the replay times itself); what is left
    # over is the in-process service glue.
    codec = {
        "lake.api.request_encode",
        "lake.api.request_decode",
        "lake.api.result_encode",
        "lake.api.result_decode",
    }
    wire_s = (sum(client_ms) - sum(local_ms)) / 1000.0 - sum(
        tracer.seconds_by_op(codec).values()
    )
    attribute(
        run,
        {"lake.client.query"},
        codec | {
            "lake.service.table_digest",
            "sketch.sketch_table",
            "lake.catalog.column_vector_pairs",
            "search.rank_tables",
        },
        wire=("lake.server+client", wire_s),
    )


# --------------------------------------------------------------------- #
# churn_live
# --------------------------------------------------------------------- #
def appends(run, catalog, issued: "list[tuple[str, list]]") -> None:
    """delta sketch -> TableSketch.merge -> save_table -> save_index, for
    every append churn issued. The store writes re-save the table's current
    record and then the index (in that order, as `append_rows` does), so the
    store stays consistent and warm-openable."""
    tracer = run.tracer
    store = catalog.store
    hasher = catalog.sketch_config.build_hasher()
    merge_ms, save_index_ms = [], []
    append_ops = [
        s.op for s in tracer.spans if s.parent is None and s.name == "churn.append"
    ]
    for op, (name, rows) in zip(append_ops, issued):
        record = catalog.records[name]
        with tracer.span("sketch.sketch_delta", "sketch", op=op):
            delta = table_from_rows(
                name, record.column_names, [list(row) for row in rows],
                description=record.sketch.description,
            )
            for column, stored in zip(delta.columns, record.sketch.column_sketches):
                column.ctype = stored.ctype
            delta_sketch = sketch_table(delta, catalog.sketch_config, hasher)
        with tracer.span("sketch.merge", "sketch", op=op) as span:
            record.sketch.merge(delta_sketch)
        merge_ms.append(span.ms)
        with tracer.span("lake.store.save_table", "lake.store", op=op):
            store.save_table(record)
        with tracer.span("lake.store.save_index", "lake.store", op=op) as span:
            store.save_index(catalog.searcher.index, catalog.index_spec)
        save_index_ms.append(span.ms)
    run.layer["sketch.merge_ms"] = p50(merge_ms)
    run.layer["lake.store.save_index_ms"] = p50(save_index_ms)
    attribute(
        run,
        {"churn.append"},
        {
            "sketch.sketch_delta",
            "sketch.merge",
            "lake.store.save_table",
            "lake.store.save_index",
        },
    )

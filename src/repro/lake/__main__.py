"""CLI for the standing-lake service: ``python -m repro.lake <command>``.

Commands::

    ingest  --lake LAKE --csv-dir DIR   # build or incrementally extend a lake
    query   --lake LAKE (--table NAME | --csv FILE) [--mode union|join|subset]
    serve   --lake LAKE [--port P]      # asyncio HTTP front-end (/v1/query...)
    publish --lake LAKE --snapshots DIR # snapshot the lake as a new generation
    replica --snapshots DIR [--port P]  # read-only server over snapshots
    frontend --backends H:P,H:P [...]   # round-robin proxy over replicas
    append  --lake LAKE --table NAME --csv FILE  # O(delta) row append
    refresh --lake LAKE [--tables N,N]  # eagerly re-embed stale tables
    update  --lake LAKE --csv FILE      # staged table replace (version bump)
    remove  --lake LAKE --table NAME    # drop one table (incremental)
    reshard --lake LAKE --shards N      # migrate to an N-shard layout
    stats   --lake LAKE [--metrics]     # catalog + store (+ obs) statistics

``query`` / ``append`` / ``refresh`` / ``update`` are thin serializers:
each builds one :class:`DiscoveryRequest` or op, hands it to a target
(:mod:`repro.lake.target` — the local lake, or with ``--server HOST:PORT``
a running ``serve`` instance), and prints the answer in one format
whichever side of the wire answered (``query --json`` emits the full
:class:`DiscoveryResult` envelope — the same schema the HTTP body
carries, pretty-printed with sorted keys).

Column search is exact (one vector index, no option). ``--shards`` picks
the shard count for a *new* lake (default 1); it is folded into the lake's
config fingerprint, so an existing lake always reopens with the shard count
it was built with, and naming a different one fails fast instead of
silently serving mismatched artifacts; ``reshard`` is the one-shot in-place
migration between shard counts (no re-embedding — stored vectors are
re-routed and the per-shard indexes rebuilt). A lake an older build wrote
under an HNSW index is refused with an ``error:`` line saying to re-ingest.

``ingest`` on a fresh directory trains the WordPiece vocabulary on the CSV
corpus, builds the trunk, and persists model + vocab + artifacts. On an
existing lake it warm-loads the bundle and embeds *only* CSVs not already
in the catalog — the offline-index / online-query split of §V.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.config import TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.lake.api import API_VERSION, DiscoveryError, DiscoveryRequest
from repro.lake.bundle import has_bundle, load_bundle, save_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.frontend import LakeFrontend, parse_backends
from repro.lake.replica import (
    ReplicaService,
    SnapshotPublisher,
    generation_dir_name,
    read_marker,
)
from repro.lake.server import LakeServer, access_log
from repro.lake.serialization import FingerprintMismatchError, config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.lake.target import ClientTarget, ServiceTarget
from repro.sketch.pipeline import SketchConfig
from repro.table.csvio import read_csv
from repro.text.sbert import HashedSentenceEncoder
from repro.text.tokenizer import WordPieceTokenizer


def _read_csv_dir(csv_dir: str) -> list:
    paths = sorted(Path(csv_dir).glob("*.csv"))
    if not paths:
        sys.exit(f"error: no *.csv files under {csv_dir!r}")
    return [read_csv(path) for path in paths]


# --------------------------------------------------------------------- #
def cmd_ingest(args: argparse.Namespace) -> None:
    if args.shards is not None and args.shards < 1:
        # Fail here, before the vocab/trunk build: never leave a half-built
        # bundle behind.
        sys.exit(f"error: --shards must be >= 1, got {args.shards}")
    tables = _read_csv_dir(args.csv_dir)
    started = time.perf_counter()
    if has_bundle(args.lake):
        on_disk = LakeStore.peek_n_shards(args.lake) or 1
        if args.shards is not None and args.shards != on_disk:
            sys.exit(
                f"error: lake has {on_disk} shard(s); run "
                f"`python -m repro.lake reshard --lake {args.lake} "
                f"--shards {args.shards}` to change the layout"
            )
        catalog = LakeService.open(args.lake).catalog
        print(
            f"warm lake: {len(catalog)} tables already indexed "
            f"[{catalog.index_spec.canonical()} backend, "
            f"{catalog.n_shards} shard(s)]"
        )
    else:
        texts: list[str] = []
        for table in tables:
            texts.append(table.description)
            texts.extend(table.header)
        tokenizer = WordPieceTokenizer.train(texts, vocab_size=args.vocab_size)
        config = TabSketchFMConfig(
            vocab_size=len(tokenizer.vocabulary),
            dim=args.dim,
            num_layers=args.layers,
            num_heads=args.heads,
            ffn_dim=2 * args.dim,
            dropout=0.0,
            sketch=SketchConfig(num_perm=args.num_perm, seed=args.sketch_seed),
            seed=args.seed,
        )
        model = TabSketchFM(config)
        encoder = InputEncoder(config, tokenizer)
        sbert = HashedSentenceEncoder(dim=args.sbert_dim) if args.sbert_dim else None
        save_bundle(args.lake, model, tokenizer, sbert=sbert)
        n_shards = (
            args.shards if args.shards is not None else LakeStore.DEFAULT_SHARDS
        )
        fingerprint = config_fingerprint(
            config, sbert=sbert, model=model, n_shards=n_shards
        )
        store = LakeStore(args.lake, fingerprint, n_shards=n_shards)
        catalog = LakeCatalog(
            TableEmbedder(model, encoder), sbert=sbert, store=store
        )
        print(
            f"new lake at {args.lake} (fingerprint {fingerprint}, "
            f"{catalog.index_spec.canonical()} backend, {n_shards} shard(s))"
        )
    fresh = {t.name: t for t in tables if t.name not in catalog}
    skipped = len(tables) - len(fresh)
    forwards_before = catalog.embed_calls
    catalog.add_tables(fresh, batch_size=args.batch_size)
    forwards = catalog.embed_calls - forwards_before
    elapsed = time.perf_counter() - started
    print(
        f"ingested {len(fresh)} tables ({skipped} already present) in {elapsed:.2f}s "
        f"[{forwards} batched forwards @ batch {args.batch_size}]; "
        f"catalog now {len(catalog)} tables / "
        f"{catalog.stats()['n_columns']} columns"
    )


def _on_target(args: argparse.Namespace, op):
    """``op(target)`` on the lake ``--lake`` names or on the server
    ``--server`` names — the one place that choice is made."""
    if args.lake is None and args.server is None:
        sys.exit(
            f"error: {args.command} needs --lake (local) or --server HOST:PORT"
        )
    if args.lake is not None and args.server is not None:
        sys.exit("error: --lake and --server are mutually exclusive")
    if args.server is None:
        return op(ServiceTarget(LakeService.open(args.lake)))
    target = ClientTarget.connect(args.server)
    try:
        return op(target)
    except OSError as exc:
        sys.exit(f"error: cannot reach server {args.server}: {exc}")
    finally:
        target.close()


def cmd_query(args: argparse.Namespace) -> None:
    request = DiscoveryRequest(
        mode=args.mode, k=args.k, table=args.table,
        payload=read_csv(args.csv) if args.csv else None,
        column=args.column, min_score=args.min_score,
    )
    started = time.perf_counter()
    result = _on_target(args, lambda target: target.discover(request))
    elapsed = 1000.0 * (time.perf_counter() - started)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return
    print(f"{args.mode} results for {result.query!r} (k={args.k}, {elapsed:.1f}ms):")
    for rank, hit in enumerate(result.hits, start=1):
        if args.mode == "join" and hit.matches:
            best = min(hit.matches, key=lambda m: m.distance)
            evidence = f"  [{best.query_column} -> {best.table_column}]"
        else:
            evidence = (
                f"  [{hit.n_matched_columns} cols, "
                f"sum_d={hit.distance_sum:.4f}]"
            )
        print(f"  {rank:2d}. {hit.table}  score={hit.score:.4f}{evidence}")
    if not result.hits:
        print("  (no matches)")


def cmd_append(args: argparse.Namespace) -> None:
    rows = [list(row) for row in read_csv(args.csv).rows()]
    if not rows:
        sys.exit(f"error: {args.csv!r} has no data rows to append")
    answer = _on_target(args, lambda target: target.append_rows(args.table, rows))
    print(
        f"appended {answer['appended']} rows to {args.table!r} "
        f"[version {answer['table_version']}, "
        f"embedding_stale={answer['embedding_stale']}]"
    )


def cmd_refresh(args: argparse.Namespace) -> None:
    tables = (
        [name for name in args.tables.split(",") if name]
        if args.tables is not None
        else None
    )
    answer = _on_target(args, lambda target: target.refresh(tables))
    refreshed = answer["refreshed"]
    print(
        f"refreshed {len(refreshed)} stale table(s)"
        + (f": {', '.join(refreshed)}" if refreshed else "")
        + f" [{answer['stale_remaining']} still stale]"
    )


def cmd_update(args: argparse.Namespace) -> None:
    table = read_csv(args.csv)
    answer = _on_target(args, lambda target: target.update_table(table))
    print(
        f"updated {table.name!r} [version {answer['table_version']}]; "
        f"catalog has {answer['n_tables']} tables"
    )


def cmd_remove(args: argparse.Namespace) -> None:
    service = LakeService.open(args.lake)
    if service.remove_table(args.table):
        print(f"removed {args.table!r}; {len(service.catalog)} tables remain")
    else:
        sys.exit(f"error: table {args.table!r} not in catalog")


def cmd_stats(args: argparse.Namespace) -> None:
    payload = LakeService.open(args.lake).stats()
    if args.metrics:
        payload["metrics"] = obs.get_registry().collect()
    print(json.dumps(payload, indent=2, sort_keys=True))


# --------------------------------------------------------------------- #
def _serve_forever(server, what: str, detail: str) -> None:
    """Run one listener (anything with ``start`` / ``serve_forever`` /
    ``close`` / ``host`` / ``port``) until Ctrl-C, announcing the bound
    port once it is known. One JSON access-log line per request goes to
    stderr while observability is enabled ($REPRO_OBS_ENABLED, default on).
    """
    if not access_log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        access_log.addHandler(handler)
        access_log.setLevel(logging.INFO)

    async def run() -> None:
        await server.start()
        print(
            f"lake {what} listening on http://{server.host}:{server.port} "
            f"[{detail}]",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print(f"lake {what} shutting down")


def cmd_serve(args: argparse.Namespace) -> None:
    service = LakeService.open(args.lake)
    stats = service.stats()
    _serve_forever(
        LakeServer(service, host=args.host, port=args.port, max_workers=args.workers),
        "server",
        f"{stats['n_tables']} tables, {stats['index_backend']} backend, "
        f"{stats['n_shards']} shard(s), api {stats['api_version']}",
    )


def cmd_publish(args: argparse.Namespace) -> None:
    publisher = SnapshotPublisher(args.lake, args.snapshots)
    started = time.perf_counter()
    generation = publisher.publish()
    marker = read_marker(Path(args.snapshots) / generation_dir_name(generation))
    elapsed = time.perf_counter() - started
    print(
        f"published generation {generation} to {args.snapshots} in "
        f"{elapsed:.2f}s [{marker['n_tables']} tables / "
        f"{marker['n_columns']} columns, fingerprint {marker['fingerprint']}]"
    )


def cmd_replica(args: argparse.Namespace) -> None:
    snapshots = Path(args.snapshots)
    if not has_bundle(snapshots):
        sys.exit(
            f"error: no weight bundle under {args.snapshots!r} "
            "(run `publish` from an ingested lake first)"
        )
    model, encoder, sbert = load_bundle(snapshots)
    replica = ReplicaService(
        TableEmbedder(model, encoder),
        snapshots,
        sbert=sbert,
        poll_interval=args.poll_interval,
    )
    replica.start_polling()
    info = replica.generation_info()
    try:
        _serve_forever(
            LakeServer(
                replica, host=args.host, port=args.port, max_workers=args.workers
            ),
            "replica",
            f"generation {info['generation']}, "
            f"poll {args.poll_interval:g}s, api {API_VERSION}",
        )
    finally:
        replica.stop_polling()


def cmd_frontend(args: argparse.Namespace) -> None:
    backends = parse_backends(args.backends)
    listed = ",".join(f"{h}:{p}" for h, p in backends)
    probing = (
        f", health probes every {args.health_interval}s"
        if args.health_interval > 0
        else ""
    )
    _serve_forever(
        LakeFrontend(
            backends,
            host=args.host,
            port=args.port,
            health_interval=args.health_interval,
        ),
        "frontend",
        f"round-robin over {len(backends)} backend(s): {listed}{probing}",
    )


def cmd_reshard(args: argparse.Namespace) -> None:
    if args.shards < 1:
        sys.exit(f"error: --shards must be >= 1, got {args.shards}")
    started = time.perf_counter()
    old_n, n_tables = LakeService.reshard(args.lake, args.shards)
    if old_n == args.shards:
        print(f"lake already has {old_n} shard(s); nothing to do")
        return
    elapsed = time.perf_counter() - started
    print(
        f"resharded {args.lake}: {old_n} -> {args.shards} shard(s), "
        f"{n_tables} tables re-routed and indexes rebuilt in "
        f"{elapsed:.2f}s (no re-embedding)"
    )


# --------------------------------------------------------------------- #
def _add_target_flags(parser: argparse.ArgumentParser, route: str) -> None:
    """``--lake`` / ``--server``: where :func:`_on_target` sends the op."""
    parser.add_argument("--lake", default=None, help="lake directory (local)")
    parser.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help=f"go through a running `serve` instance ({route}) instead of "
             "opening the lake locally — same request, same answer",
    )


def _add_listen_flags(
    parser: argparse.ArgumentParser, port: int, workers_for: str | None
) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=port,
        help=f"listen port (default {port}; 0 = ephemeral — the bound port "
             "is printed)",
    )
    if workers_for is not None:
        parser.add_argument(
            "--workers", type=int, default=4,
            help=f"thread-pool size for blocking {workers_for} work",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lake",
        description="Persistent TabSketchFM data-lake service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="build or extend a lake from CSVs")
    ingest.add_argument("--lake", required=True, help="lake directory")
    ingest.add_argument("--csv-dir", required=True, help="directory of *.csv files")
    ingest.add_argument("--num-perm", type=int, default=32)
    ingest.add_argument("--sketch-seed", type=int, default=1)
    ingest.add_argument("--dim", type=int, default=32)
    ingest.add_argument("--layers", type=int, default=1)
    ingest.add_argument("--heads", type=int, default=2)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--vocab-size", type=int, default=1500)
    ingest.add_argument(
        "--sbert-dim", type=int, default=0,
        help="enable the TabSketchFM-SBERT variant with this value-encoder dim",
    )
    ingest.add_argument(
        "--batch-size", type=int, default=16,
        help="tables per trunk forward during batched ingest",
    )
    ingest.add_argument(
        "--shards", type=int, default=None,
        help="shard count for a NEW lake (default: 1); an existing lake "
             "keeps its shard count — use `reshard` to change it",
    )
    ingest.set_defaults(func=cmd_ingest)

    query = sub.add_parser("query", help="answer one discovery query")
    _add_target_flags(query, "POST /v1/query")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", help="name of a table already in the lake")
    group.add_argument("--csv", help="path to an external query CSV")
    query.add_argument("--mode", choices=("join", "union", "subset"), default="union")
    query.add_argument("-k", type=int, default=10)
    query.add_argument("--column", help="query column for join mode")
    query.add_argument(
        "--min-score", type=float, default=None,
        help="drop hits scoring below this bar (scores are monotone with "
             "the ranking; join: 1/(1+d), union/subset: n_matched + "
             "1/(1+sum_d))",
    )
    query.add_argument(
        "--json", action="store_true",
        help="print the full DiscoveryResult JSON envelope (the schema "
             "the HTTP response body carries, pretty-printed) instead of "
             "the human-readable ranking",
    )
    query.set_defaults(func=cmd_query)

    serve = sub.add_parser(
        "serve",
        help="expose the lake over HTTP: POST /v1/query, /v1/query_batch, "
             "/v1/tables, DELETE /v1/tables/{name}, GET /v1/stats, "
             "/v1/healthz, /v1/metrics, /v1/slow_queries (asyncio, "
             "blocking work in a thread pool)",
    )
    serve.add_argument("--lake", required=True)
    _add_listen_flags(serve, 8765, "catalog")
    serve.set_defaults(func=cmd_serve)

    publish = sub.add_parser(
        "publish",
        help="snapshot the lake's store artifacts as the next versioned "
             "generation under a snapshot dir (atomic: replicas only ever "
             "see complete generations)",
    )
    publish.add_argument("--lake", required=True, help="ingested lake directory")
    publish.add_argument(
        "--snapshots", required=True,
        help="snapshot directory generations are published into",
    )
    publish.set_defaults(func=cmd_publish)

    replica = sub.add_parser(
        "replica",
        help="serve the v1 API read-only from the newest complete snapshot "
             "generation, polling for new ones and blue/green-swapping "
             "them in (ingest routes answer 400: mutations go to the leader)",
    )
    replica.add_argument(
        "--snapshots", required=True, help="snapshot directory to serve from"
    )
    _add_listen_flags(replica, 0, "query")
    replica.add_argument(
        "--poll-interval", type=float, default=2.0,
        help="seconds between snapshot-dir polls for new generations",
    )
    replica.set_defaults(func=cmd_replica)

    frontend = sub.add_parser(
        "frontend",
        help="round-robin HTTP proxy fanning queries across replica "
             "servers (read-only routes fail over; bodies relay verbatim)",
    )
    frontend.add_argument(
        "--backends", required=True, metavar="HOST:PORT,HOST:PORT",
        help="comma-separated replica addresses",
    )
    _add_listen_flags(frontend, 0, None)
    frontend.add_argument(
        "--health-interval", type=float, default=0.0,
        help="seconds between /v1/stats health probes; unhealthy or "
             "stale-generation backends leave rotation until a probe "
             "clears them (default 0 = probing off)",
    )
    frontend.set_defaults(func=cmd_frontend)

    append = sub.add_parser(
        "append",
        help="append a CSV's data rows to one stored table: sketches merge "
             "in O(delta), the per-table version bumps, and the embedding "
             "goes stale until the next strict query re-embeds it",
    )
    _add_target_flags(append, "POST /v1/tables/{name}/rows")
    append.add_argument("--table", required=True, help="stored table name")
    append.add_argument(
        "--csv", required=True,
        help="CSV whose data rows are appended; columns must match the "
             "stored table's column order",
    )
    append.set_defaults(func=cmd_append)

    refresh = sub.add_parser(
        "refresh",
        help="eagerly re-embed stale tables (the operator-facing twin of "
             "the lazy refresh a strict query pays implicitly): one "
             "batched pass over everything stale, or --tables to restrict",
    )
    _add_target_flags(refresh, "POST /v1/refresh")
    refresh.add_argument(
        "--tables", default=None, metavar="NAME,NAME",
        help="comma-separated table names to restrict the sweep "
             "(default: every stale table)",
    )
    refresh.set_defaults(func=cmd_refresh)

    update = sub.add_parser(
        "update",
        help="replace one stored table from a CSV (staged write — a crash "
             "mid-update leaves the previous artifacts intact; bumps the "
             "per-table version)",
    )
    _add_target_flags(update, "PUT /v1/tables")
    update.add_argument(
        "--csv", required=True,
        help="replacement CSV (the table name is the file stem)",
    )
    update.set_defaults(func=cmd_update)

    remove = sub.add_parser("remove", help="drop one table from the lake")
    remove.add_argument("--lake", required=True)
    remove.add_argument("--table", required=True)
    remove.set_defaults(func=cmd_remove)

    reshard = sub.add_parser(
        "reshard",
        help="one-shot in-place migration to a different shard count "
             "(re-routes stored vectors, rebuilds per-shard indexes; "
             "never re-embeds)",
    )
    reshard.add_argument("--lake", required=True)
    reshard.add_argument("--shards", type=int, required=True,
                         help="target shard count")
    reshard.set_defaults(func=cmd_reshard)

    stats = sub.add_parser("stats", help="print catalog + store statistics")
    stats.add_argument("--lake", required=True)
    stats.add_argument(
        "--metrics", action="store_true",
        help="include the repro.obs metrics registry (counters, gauges, "
             "histogram quantiles) under a 'metrics' key",
    )
    stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except DiscoveryError as exc:
        # Typed API failures (local or relayed from a remote server).
        sys.exit(f"error: {exc.code}: {exc.message}")
    except (KeyError, ValueError) as exc:
        # Expected user-facing failures (unknown table/column/mode, a lake
        # recorded under an unsupported index) — print the message, not a
        # traceback.
        message = exc.args[0] if exc.args else str(exc)
        sys.exit(f"error: {message}")
    except (FingerprintMismatchError, FileNotFoundError) as exc:
        # A refused store, or no ingested lake / lake store where one was named.
        sys.exit(f"error: {exc}")


if __name__ == "__main__":
    main()

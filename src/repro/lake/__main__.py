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

``query`` is a thin serializer of the versioned Discovery API
(:mod:`repro.lake.api`): it builds one :class:`DiscoveryRequest`, asks
either the local lake or — with ``--server HOST:PORT`` — a running
``serve`` instance through :class:`~repro.lake.client.LakeClient`, and
prints the scored hits (``--json`` emits the full
:class:`DiscoveryResult` envelope — the same schema the HTTP body
carries, pretty-printed with sorted keys).

``--index-backend`` picks the vector-index backend for a *new* lake
(``exact`` or ``hnsw``, optionally with hyperparameters, e.g.
``hnsw:m=16,ef_search=48``). ``--shards`` picks the shard count for a
*new* lake (default 1). Both are folded into the lake's config
fingerprint: an existing lake always reopens under the backend and
shard count it was built with, and naming a
different one fails fast instead of silently serving mismatched
artifacts; ``reshard`` is the one-shot in-place migration between shard
counts (no re-embedding — stored vectors are re-routed and the per-shard
indexes rebuilt).

``ingest`` on a fresh directory trains the WordPiece vocabulary on the CSV
corpus, builds the trunk, and persists model + vocab + artifacts. On an
existing lake it warm-loads the bundle and embeds *only* CSVs not already
in the catalog — the offline-index / online-query split of §V.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from repro.core.config import TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.lake.api import API_VERSION, DiscoveryError, DiscoveryRequest
from repro.lake.bundle import has_bundle, load_bundle, save_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.server import LakeServer
from repro.lake.serialization import FingerprintMismatchError, config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import MANIFEST_NAME, STORE_FILES, LakeStore
from repro.search.backend import normalize_index_spec, validate_index_spec
from repro.sketch.pipeline import SketchConfig
from repro.table.csvio import read_csv
from repro.text.sbert import HashedSentenceEncoder
from repro.text.tokenizer import WordPieceTokenizer


def _load_service(lake: str, index_backend: str | None = None) -> LakeService:
    """Warm-load a lake directory into a ready service (no re-embedding,
    no index re-insertion — the persisted index is deserialized).

    ``index_backend=None`` serves whatever backend the lake was built
    with; an explicit spec is checked against the store fingerprint, so a
    backend switch surfaces as a :class:`FingerprintMismatchError`. The
    shard count always comes from the on-disk layout.
    """
    if not has_bundle(lake):
        sys.exit(f"error: {lake!r} is not an ingested lake (run `ingest` first)")
    _recover_interrupted_reshard(lake)
    model, encoder, sbert = load_bundle(lake)
    spec = normalize_index_spec(
        index_backend if index_backend is not None else LakeStore.peek_index_spec(lake)
    )
    n_shards = LakeStore.peek_n_shards(lake) or 1
    fingerprint = config_fingerprint(
        model.config, sbert=sbert, model=model, index_spec=spec, n_shards=n_shards
    )
    store = LakeStore.open(lake, expected_fingerprint=fingerprint)
    catalog = LakeCatalog.from_store(
        TableEmbedder(model, encoder), store, sbert=sbert, index_backend=spec
    )
    return LakeService(catalog)


def _read_csv_dir(csv_dir: str) -> list:
    paths = sorted(Path(csv_dir).glob("*.csv"))
    if not paths:
        sys.exit(f"error: no *.csv files under {csv_dir!r}")
    return [read_csv(path) for path in paths]


# --------------------------------------------------------------------- #
def cmd_ingest(args: argparse.Namespace) -> None:
    if args.index_backend is not None:
        # Fail a typo'd spec here, before the vocab/trunk build pays for it.
        validate_index_spec(args.index_backend)
    if args.shards is not None and args.shards < 1:
        # Same early-exit rule: never leave a half-built bundle behind.
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
        service = _load_service(args.lake, index_backend=args.index_backend)
        catalog = service.catalog
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
        spec = normalize_index_spec(args.index_backend)
        n_shards = (
            args.shards if args.shards is not None else LakeStore.DEFAULT_SHARDS
        )
        fingerprint = config_fingerprint(
            config, sbert=sbert, model=model, index_spec=spec, n_shards=n_shards
        )
        store = LakeStore(args.lake, fingerprint, n_shards=n_shards)
        catalog = LakeCatalog(
            TableEmbedder(model, encoder), sbert=sbert, store=store,
            index_backend=spec,
        )
        print(
            f"new lake at {args.lake} (fingerprint {fingerprint}, "
            f"{spec.canonical()} backend, {n_shards} shard(s))"
        )
    fresh = {t.name: t for t in tables if t.name not in catalog}
    skipped = len(tables) - len(fresh)
    forwards_before = catalog.embed_calls
    catalog.add_tables(fresh, batch_size=args.batch_size)
    added = len(fresh)
    forwards = catalog.embed_calls - forwards_before
    elapsed = time.perf_counter() - started
    print(
        f"ingested {added} tables ({skipped} already present) in {elapsed:.2f}s "
        f"[{forwards} batched forwards @ batch {args.batch_size}]; "
        f"catalog now {len(catalog)} tables / "
        f"{catalog.stats()['n_columns']} columns"
    )


def cmd_query(args: argparse.Namespace) -> None:
    if args.lake is None and args.server is None:
        sys.exit("error: query needs --lake (local) or --server HOST:PORT")
    if args.lake is not None and args.server is not None:
        sys.exit("error: --lake and --server are mutually exclusive")
    if args.index_backend is not None:
        validate_index_spec(args.index_backend)
    if args.csv:
        request = DiscoveryRequest(
            mode=args.mode, k=args.k, payload=read_csv(args.csv),
            column=args.column, min_score=args.min_score,
        )
    else:
        request = DiscoveryRequest(
            mode=args.mode, k=args.k, table=args.table,
            column=args.column, min_score=args.min_score,
        )
    started = time.perf_counter()
    if args.server is not None:
        host, _, port = args.server.rpartition(":")
        if not host or not port.isdigit():
            sys.exit(f"error: --server wants HOST:PORT, got {args.server!r}")
        try:
            with LakeClient(host=host, port=int(port)) as client:
                if args.index_backend is not None:
                    # The remote twin of the local fingerprint guard: assert
                    # the serving lake's backend before trusting its answers.
                    serving = client.stats().get("index_backend")
                    wanted = normalize_index_spec(args.index_backend).canonical()
                    if serving != wanted:
                        sys.exit(
                            f"error: server lake uses index backend "
                            f"{serving!r}, not the asserted {wanted!r}"
                        )
                result = client.query(request)
        except OSError as exc:
            sys.exit(f"error: cannot reach server {args.server}: {exc}")
    else:
        service = _load_service(args.lake, index_backend=args.index_backend)
        result = service.discover(request)
    elapsed = 1000.0 * (time.perf_counter() - started)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return
    print(f"{args.mode} results for {result.query!r} (k={args.k}, {elapsed:.1f}ms):")
    for rank, hit in enumerate(result.hits, start=1):
        evidence = ""
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


def cmd_serve(args: argparse.Namespace) -> None:
    import asyncio
    import logging

    # One JSON access-log line per request on stderr while observability
    # is enabled ($REPRO_OBS_ENABLED, default on).
    from repro.lake.server import access_log

    if not access_log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        access_log.addHandler(handler)
        access_log.setLevel(logging.INFO)

    service = _load_service(args.lake, index_backend=args.index_backend)
    stats = service.stats()

    async def run() -> None:
        server = LakeServer(
            service, host=args.host, port=args.port, max_workers=args.workers
        )
        await server.start()
        print(
            f"lake server listening on http://{args.host}:{server.port} "
            f"[{stats['n_tables']} tables, {stats['index_backend']} backend, "
            f"{stats['n_shards']} shard(s), api {stats['api_version']}]",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("lake server shutting down")


def cmd_publish(args: argparse.Namespace) -> None:
    from repro.lake.replica import SnapshotPublisher, read_marker, generation_dir_name

    try:
        publisher = SnapshotPublisher(args.lake, args.snapshots)
    except FileNotFoundError as exc:
        sys.exit(f"error: {exc}")
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
    import asyncio
    import logging

    from repro.lake.replica import ReplicaService
    from repro.lake.server import access_log

    if not access_log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        access_log.addHandler(handler)
        access_log.setLevel(logging.INFO)

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

    async def run() -> None:
        server = LakeServer(
            replica, host=args.host, port=args.port, max_workers=args.workers
        )
        await server.start()
        print(
            f"lake replica listening on http://{args.host}:{server.port} "
            f"[generation {info['generation']}, "
            f"poll {args.poll_interval:g}s, api {API_VERSION}]",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("lake replica shutting down")
    finally:
        replica.stop_polling()


def cmd_frontend(args: argparse.Namespace) -> None:
    import asyncio

    from repro.lake.frontend import LakeFrontend, parse_backends

    try:
        backends = parse_backends(args.backends)
    except ValueError as exc:
        sys.exit(f"error: {exc}")

    async def run() -> None:
        frontend = LakeFrontend(
            backends,
            host=args.host,
            port=args.port,
            health_interval=args.health_interval,
        )
        await frontend.start()
        listed = ",".join(f"{h}:{p}" for h, p in backends)
        probing = (
            f", health probes every {args.health_interval}s"
            if args.health_interval > 0
            else ""
        )
        print(
            f"lake frontend listening on http://{args.host}:{frontend.port} "
            f"[round-robin over {len(backends)} backend(s): {listed}"
            f"{probing}]",
            flush=True,
        )
        try:
            await frontend.serve_forever()
        finally:
            await frontend.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("lake frontend shutting down")


def _parse_server(spec: str) -> tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        sys.exit(f"error: --server wants HOST:PORT, got {spec!r}")
    return host, int(port)


def cmd_append(args: argparse.Namespace) -> None:
    if args.lake is None and args.server is None:
        sys.exit("error: append needs --lake (local) or --server HOST:PORT")
    if args.lake is not None and args.server is not None:
        sys.exit("error: --lake and --server are mutually exclusive")
    delta = read_csv(args.csv)
    rows = [list(row) for row in delta.rows()]
    if not rows:
        sys.exit(f"error: {args.csv!r} has no data rows to append")
    if args.server is not None:
        host, port = _parse_server(args.server)
        try:
            with LakeClient(host=host, port=port) as client:
                answer = client.append_rows(args.table, rows)
        except OSError as exc:
            sys.exit(f"error: cannot reach server {args.server}: {exc}")
        print(
            f"appended {answer['appended']} rows to {args.table!r} "
            f"[version {answer['table_version']}, "
            f"embedding_stale={answer['embedding_stale']}]"
        )
    else:
        service = _load_service(args.lake)
        record = service.append_rows(args.table, rows)
        print(
            f"appended {len(rows)} rows to {args.table!r} "
            f"[version {record.version}, embedding stale until the next "
            "strict query re-embeds it]"
        )


def cmd_refresh(args: argparse.Namespace) -> None:
    if args.lake is None and args.server is None:
        sys.exit("error: refresh needs --lake (local) or --server HOST:PORT")
    if args.lake is not None and args.server is not None:
        sys.exit("error: --lake and --server are mutually exclusive")
    tables = (
        [name for name in args.tables.split(",") if name]
        if args.tables is not None
        else None
    )
    if args.server is not None:
        host, port = _parse_server(args.server)
        try:
            with LakeClient(host=host, port=port) as client:
                answer = client.refresh_stale(tables)
        except OSError as exc:
            sys.exit(f"error: cannot reach server {args.server}: {exc}")
        refreshed = answer["refreshed"]
        print(
            f"refreshed {len(refreshed)} stale table(s)"
            + (f": {', '.join(refreshed)}" if refreshed else "")
            + f" [{answer['stale_remaining']} still stale]"
        )
    else:
        service = _load_service(args.lake)
        refreshed = service.refresh_stale(tables)
        remaining = len(service.catalog.stale_tables())
        print(
            f"refreshed {len(refreshed)} stale table(s)"
            + (f": {', '.join(refreshed)}" if refreshed else "")
            + f" [{remaining} still stale]"
        )


def cmd_update(args: argparse.Namespace) -> None:
    if args.lake is None and args.server is None:
        sys.exit("error: update needs --lake (local) or --server HOST:PORT")
    if args.lake is not None and args.server is not None:
        sys.exit("error: --lake and --server are mutually exclusive")
    table = read_csv(args.csv)
    if args.server is not None:
        host, port = _parse_server(args.server)
        try:
            with LakeClient(host=host, port=port) as client:
                answer = client.update_table(table)
        except OSError as exc:
            sys.exit(f"error: cannot reach server {args.server}: {exc}")
        print(
            f"updated {table.name!r} [version {answer['table_version']}]; "
            f"catalog has {answer['n_tables']} tables"
        )
    else:
        service = _load_service(args.lake)
        record = service.update_table(table)
        print(
            f"updated {table.name!r} [version {record.version}]; "
            f"catalog has {len(service.catalog)} tables"
        )


def cmd_remove(args: argparse.Namespace) -> None:
    service = _load_service(args.lake)
    if service.remove_table(args.table):
        print(f"removed {args.table!r}; {len(service.catalog)} tables remain")
    else:
        sys.exit(f"error: table {args.table!r} not in catalog")


def cmd_stats(args: argparse.Namespace) -> None:
    from repro import obs

    service = _load_service(args.lake)
    payload = service.stats()
    if args.metrics:
        payload["metrics"] = obs.get_registry().collect()
    print(json.dumps(payload, indent=2, sort_keys=True))


_RESHARD_BACKUP = ".reshard.old"
_RESHARD_STAGE = ".reshard.tmp"
#: Tables staged per write batch during reshard — bounds peak memory to a
#: chunk of records instead of the whole lake.
RESHARD_CHUNK = 256


def _swap_store_layout(lake_root: Path, staged_root: Path) -> None:
    """Replace the lake's store files with the staged re-sharded ones.

    The old layout is parked under ``.reshard.old`` until the new one is
    fully moved in. The root manifest moves out first and in last, so a
    kill anywhere inside the swap window leaves the root without a
    manifest but with the complete backup, which
    :func:`_recover_interrupted_reshard` rolls back on the next command.
    """
    backup = lake_root / _RESHARD_BACKUP
    if backup.exists():
        shutil.rmtree(backup)
    backup.mkdir()
    for name in STORE_FILES:
        source = lake_root / name
        if source.exists():
            shutil.move(str(source), str(backup / name))
    for name in reversed(STORE_FILES):
        source = staged_root / name
        if source.exists():
            shutil.move(str(source), str(lake_root / name))
    shutil.rmtree(staged_root)
    shutil.rmtree(backup)


def _recover_interrupted_reshard(lake: str) -> None:
    """Roll back a reshard that died mid-swap, then sweep stage dirs.

    A backup dir plus a missing root manifest means the kill landed inside
    the swap window: the backup is the last complete store, so it moves
    back. A backup beside an intact root manifest means the kill landed
    after the new layout was fully in place — the backup (and any stage
    dir) is just debris.
    """
    lake_root = Path(lake)
    backup = lake_root / _RESHARD_BACKUP
    if backup.exists():
        if not (lake_root / MANIFEST_NAME).exists():
            print(
                f"recovering interrupted reshard: restoring previous store "
                f"layout at {lake}"
            )
            # Whatever the backup holds is the previous store, whichever
            # layout wrote it.
            for source in backup.iterdir():
                target = lake_root / source.name
                if target.exists():  # partial move-in from the crash
                    shutil.rmtree(target) if target.is_dir() else target.unlink()
                shutil.move(str(source), str(target))
        shutil.rmtree(backup)
    stage = lake_root / _RESHARD_STAGE
    if stage.exists():
        shutil.rmtree(stage)


def cmd_reshard(args: argparse.Namespace) -> None:
    if args.shards < 1:
        sys.exit(f"error: --shards must be >= 1, got {args.shards}")
    if not has_bundle(args.lake):
        sys.exit(f"error: {args.lake!r} is not an ingested lake (run `ingest` first)")
    _recover_interrupted_reshard(args.lake)
    old_n = LakeStore.peek_n_shards(args.lake)
    if old_n is None:
        sys.exit(f"error: {args.lake!r} has no lake store (run `ingest` first)")
    if args.shards == old_n:
        print(f"lake already has {old_n} shard(s); nothing to do")
        return
    started = time.perf_counter()
    model, encoder, sbert = load_bundle(args.lake)
    spec = normalize_index_spec(LakeStore.peek_index_spec(args.lake))
    old_fingerprint = config_fingerprint(
        model.config, sbert=sbert, model=model, index_spec=spec, n_shards=old_n
    )
    store = LakeStore.open(args.lake, expected_fingerprint=old_fingerprint)
    new_fingerprint = config_fingerprint(
        model.config, sbert=sbert, model=model, index_spec=spec,
        n_shards=args.shards,
    )
    staged = Path(args.lake) / _RESHARD_STAGE
    if staged.exists():
        shutil.rmtree(staged)
    staged_store = LakeStore(staged, new_fingerprint, n_shards=args.shards)
    # Stream records through in global-order chunks: peak memory is one
    # chunk of sketches+vectors, never the whole lake.
    n_tables = 0
    chunk: list = []
    for record in store.load_all():
        chunk.append(record)
        n_tables += 1
        if len(chunk) >= RESHARD_CHUNK:
            staged_store.save_tables(chunk)
            chunk = []
    if chunk:
        staged_store.save_tables(chunk)
    # Rebuild + persist the per-shard indexes from the stored vectors —
    # zero trunk forwards; resharding never re-embeds.
    catalog = LakeCatalog.from_store(
        TableEmbedder(model, encoder), staged_store, sbert=sbert,
        index_backend=spec,
    )
    assert catalog.embed_calls == 0, "reshard must not re-embed"
    _swap_store_layout(Path(args.lake), staged)
    elapsed = time.perf_counter() - started
    print(
        f"resharded {args.lake}: {old_n} -> {args.shards} shard(s), "
        f"{n_tables} tables re-routed and indexes rebuilt in "
        f"{elapsed:.2f}s (no re-embedding)"
    )


# --------------------------------------------------------------------- #
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
    ingest.add_argument(
        "--index-backend", default=None, metavar="SPEC",
        help="vector-index backend spec for a new lake: 'exact' (default) "
             "or 'hnsw[:m=...,ef_construction=...,ef_search=...]'; an "
             "existing lake must reopen under the backend it was built with",
    )
    ingest.set_defaults(func=cmd_ingest)

    query = sub.add_parser("query", help="answer one discovery query")
    query.add_argument("--lake", default=None, help="lake directory (local query)")
    query.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="query a running `serve` instance over HTTP instead of "
             "opening the lake locally — same request, same ranked hits",
    )
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
    query.add_argument(
        "--index-backend", default=None, metavar="SPEC",
        help="assert the lake's index backend (default: use whatever the "
             "lake was built with); a mismatch fails the fingerprint guard",
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
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8765,
        help="listen port (0 = ephemeral; the bound port is printed)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="thread-pool size for blocking catalog work",
    )
    serve.add_argument(
        "--index-backend", default=None, metavar="SPEC",
        help="assert the lake's index backend before serving",
    )
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
    replica.add_argument("--host", default="127.0.0.1")
    replica.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral; the bound port is printed)",
    )
    replica.add_argument(
        "--workers", type=int, default=4,
        help="thread-pool size for blocking query work",
    )
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
    frontend.add_argument("--host", default="127.0.0.1")
    frontend.add_argument(
        "--port", type=int, default=0,
        help="listen port (default 0 = ephemeral; the bound port is printed)",
    )
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
    append.add_argument("--lake", default=None, help="lake directory (local)")
    append.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="append through a running `serve` instance "
             "(POST /v1/tables/{name}/rows) instead of opening the lake",
    )
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
    refresh.add_argument("--lake", default=None, help="lake directory (local)")
    refresh.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="refresh through a running `serve` instance (POST /v1/refresh)",
    )
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
    update.add_argument("--lake", default=None, help="lake directory (local)")
    update.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="update through a running `serve` instance (PUT /v1/tables)",
    )
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
        # Expected user-facing failures (unknown table/column/mode) — print
        # the message, not a traceback.
        message = exc.args[0] if exc.args else str(exc)
        sys.exit(f"error: {message}")
    except FingerprintMismatchError as exc:
        sys.exit(f"error: {exc}")


if __name__ == "__main__":
    main()

"""Standing-lake walkthrough: ingest once, query forever (§V deployment).

Builds a small synthetic lake, persists it with `repro.lake`, then shows the
three things the one-shot pipeline cannot do:

1. **warm restart** — reload the lake with zero re-sketching/re-embedding;
2. **incremental update** — add/remove a table without touching the rest;
3. **cheap repeated queries** — the LRU cache amortizes query embedding.

Run:  python examples/lake_service.py
"""

from __future__ import annotations

import tempfile
import time

from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.lake import (
    DiscoveryRequest,
    LakeCatalog,
    LakeService,
    LakeStore,
    config_fingerprint,
)
from repro.lake.bundle import save_bundle
from repro.sketch import SketchConfig
from repro.table.schema import Table, table_from_rows
from repro.text import WordPieceTokenizer


def make_lake_tables() -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for group, topic in enumerate(["cities", "products", "movies"]):
        base = [f"{topic}_{i}" for i in range(40)]
        for member in range(4):
            name = f"{topic}_{member}"
            rows = [
                [value, str((group + 1) * i), f"tag{i % 4}"]
                for i, value in enumerate(base[: 28 + 3 * member])
            ]
            tables[name] = table_from_rows(
                name, ["entity", "count", "tag"], rows, description=f"{topic} data"
            )
    return tables


def main() -> None:
    tables = make_lake_tables()
    texts = [t.description for t in tables.values()]
    texts += [h for t in tables.values() for h in t.header]
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=600)
    config = TabSketchFMConfig(
        vocab_size=600, dim=32, num_layers=1, num_heads=2, ffn_dim=64,
        dropout=0.0, max_seq_len=96, sketch=SketchConfig(num_perm=32, seed=1),
    )
    model = TabSketchFM(config)
    embedder = TableEmbedder(model, InputEncoder(config, tokenizer))

    with tempfile.TemporaryDirectory() as root:
        # -- 1. offline ingest: sketch + embed + persist every table ---- #
        fingerprint = config_fingerprint(config, model=model)
        started = time.perf_counter()
        save_bundle(root, model, tokenizer)
        catalog = LakeCatalog(embedder, store=LakeStore(root, fingerprint))
        for table in tables.values():
            catalog.add_table(table)
        print(
            f"ingested {len(catalog)} tables in "
            f"{time.perf_counter() - started:.2f}s "
            f"(fingerprint {fingerprint})"
        )

        # -- 2. warm restart: a fresh process would do exactly this ----- #
        started = time.perf_counter()
        service = LakeService.open(root)
        warm = service.catalog
        print(
            f"warm restart in {time.perf_counter() - started:.2f}s, "
            f"embed_calls={warm.embed_calls} (nothing re-embedded)"
        )

        # -- 3. union query for a lake member (leave-one-out) ----------- #
        print("\nunion search for 'cities_0':")
        result = service.discover(
            DiscoveryRequest(mode="union", k=3, table="cities_0")
        )
        for rank, hit in enumerate(result.hits, 1):
            print(f"  {rank}. {hit.table}  score={hit.score:.4f}")

        # -- 4. incremental update: one table in, one table out --------- #
        newcomer = tables["movies_0"].with_columns(
            tables["movies_0"].columns, name="movies_remake"
        )
        before = warm.embed_calls
        service.add_table(newcomer)
        service.remove_table("products_3")
        print(
            f"\nadded 'movies_remake', removed 'products_3' "
            f"(re-embedded {warm.embed_calls - before} table); "
            f"catalog now {len(warm)} tables"
        )

        # -- 5. repeated external queries hit the LRU cache ------------- #
        probe = tables["movies_1"].with_columns(
            tables["movies_1"].columns, name="probe"
        )
        request = DiscoveryRequest(mode="subset", k=3, payload=probe)
        started = time.perf_counter()
        service.discover(request)
        first_ms = 1000 * (time.perf_counter() - started)
        started = time.perf_counter()
        hits = service.discover(request).tables()
        cached_ms = 1000 * (time.perf_counter() - started)
        print(
            f"\nexternal probe query: {first_ms:.1f}ms cold, "
            f"{cached_ms:.1f}ms cached -> {hits}"
        )
        stats = service.stats()
        print(
            f"\nservice stats: {stats['n_tables']} tables, "
            f"{stats['n_columns']} columns, cache "
            f"{stats['cache_hits']} hits / {stats['cache_misses']} misses"
        )


if __name__ == "__main__":
    main()

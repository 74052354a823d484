"""How ``lake/`` and ``expected.json`` beside this file were made.

They are a **flat-layout** store (one shard's files directly under the lake
root) and the answers it served, both written by the last commit that still
had that layout (2426d81, "PR 14"). `tests/lake/test_migration.py` opens
copies of the store under the current code and holds it to those answers.
The corpus and the mutation sequence are `flat_fixture_tables()` /
`build_flat_fixture_state()` below; `tests/lake/test_sharding.py` replays
them at several shard counts against the same recorded answers.

Not run by the test suite. To regenerate (only ever from that commit)::

    git clone <repo> /tmp/pr14 && git -C /tmp/pr14 checkout 2426d81
    PYTHONPATH=/tmp/pr14/src python tests/lake/data/flat_store/make_fixture.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.table.schema import Table, table_from_rows

HERE = Path(__file__).resolve().parent
MODES = ("join", "union", "subset")


def flat_fixture_tables() -> dict[str, Table]:
    """The nine grouped tables of `tests/lake/conftest.py::lake_tables`,
    a tenth that is removed again, and the shrunk `g1t1` that replaces the
    first one — keyed ``"zz_extra"`` and ``"g1t1:v2"``."""
    tables: dict[str, Table] = {}
    for group in range(3):
        base = [f"grp{group}val{i}" for i in range(30)]
        for member in range(3):
            name = f"g{group}t{member}"
            rows = [
                [value, str((group + 1) * i), f"tag{i % 4}"]
                for i, value in enumerate(base[: 20 + 3 * member])
            ]
            tables[name] = table_from_rows(
                name, ["entity", "count", "tag"], rows,
                description=f"group {group} member {member}",
            )
    tables["zz_extra"] = table_from_rows(
        "zz_extra", ["entity", "count"],
        [[f"x{i}", str(i)] for i in range(12)],
        description="removed again before the snapshot",
    )
    full = tables["g1t1"]
    tables["g1t1:v2"] = table_from_rows(
        "g1t1", full.header,
        [[column.values[i] for column in full.columns] for i in range(full.n_rows - 5)],
        description=full.description,
    )
    return tables


def build_flat_fixture_state(catalog) -> None:
    """Bulk add, one remove, one staged replace: nine tables, a gap in the
    archive ids, `g1t1` at version 2, nothing stale."""
    tables = flat_fixture_tables()
    replacement = tables.pop("g1t1:v2")
    catalog.add_tables(tables)
    catalog.remove_table("zz_extra")
    catalog.update_table(replacement)


def recorded_answers(service) -> dict:
    """What `expected.json` holds, from a live service."""
    from repro.lake.api import DiscoveryRequest

    catalog = service.catalog
    return {
        "table_names": catalog.table_names(),
        "versions": {n: r.version for n, r in catalog.records.items()},
        "counts": {
            key: catalog.stats()[key] for key in ("n_tables", "n_columns", "n_rows")
        },
        "rankings": {
            mode: {
                name: [
                    [hit.table, hit.score]
                    for hit in service.discover(DiscoveryRequest(
                        mode=mode, k=3, table=name,
                        column="entity" if mode == "join" else None,
                    )).hits
                ]
                for name in catalog.table_names()
            }
            for mode in MODES
        },
    }


def main() -> None:
    from repro.core.config import TabSketchFMConfig
    from repro.core.embed import TableEmbedder
    from repro.core.inputs import InputEncoder
    from repro.core.model import TabSketchFM
    from repro.lake.bundle import save_bundle
    from repro.lake.catalog import LakeCatalog
    from repro.lake.serialization import config_fingerprint
    from repro.lake.service import LakeService
    from repro.lake.store import LakeStore
    from repro.sketch.pipeline import SketchConfig
    from repro.text.tokenizer import WordPieceTokenizer

    lake = HERE / "lake"
    if lake.exists():
        shutil.rmtree(lake)
    texts: list[str] = []
    for table in flat_fixture_tables().values():
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=200)
    config = TabSketchFMConfig(
        vocab_size=len(tokenizer.vocabulary), dim=16, num_layers=1, num_heads=2,
        ffn_dim=32, dropout=0.0, sketch=SketchConfig(num_perm=16, seed=1), seed=0,
    )
    model = TabSketchFM(config)
    save_bundle(lake, model, tokenizer)
    fingerprint = config_fingerprint(config, model=model)
    store = LakeStore(lake, fingerprint, n_shards=1)
    assert (lake / "tables").is_dir(), "run this under commit 2426d81 (flat layout)"
    catalog = LakeCatalog(TableEmbedder(model, InputEncoder(config, tokenizer)), store=store)
    build_flat_fixture_state(catalog)

    warm = LakeCatalog.from_store(
        TableEmbedder(model, InputEncoder(config, tokenizer)),
        LakeStore.open(lake, expected_fingerprint=fingerprint),
    )
    assert warm.searcher.insertions == 0 and warm.embed_calls == 0
    expected = {"fingerprint": fingerprint, **recorded_answers(LakeService(warm))}
    store_stats = warm.store.stats()
    expected["store"] = {
        key: store_stats[key]
        for key in ("disk_bytes", "index_disk_bytes", "index_backend", "format_version")
    }
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()

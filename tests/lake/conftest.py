"""Shared fixtures for the `repro.lake` subsystem tests: a small grouped
corpus plus a frozen embedding stack.

Every test in this directory runs twice, with every store and catalog it
creates without an explicit shard count defaulting to 1 shard and to 4
hash-partitioned shards (the ``lake_layout_shards`` fixture below): the
shard count must be invisible to everything these tests assert, so no test
body names it or branches on it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.embed import TableEmbedder
from repro.lake.catalog import LakeCatalog
from repro.lake.store import LakeStore
from repro.table.schema import Table, table_from_rows


@pytest.fixture(autouse=True, params=[1, 4], ids=["1shard", "4shards"])
def lake_layout_shards(request, monkeypatch) -> int:
    """The shard count this test's lakes default to."""
    monkeypatch.setattr(LakeStore, "DEFAULT_SHARDS", request.param)
    return request.param


@pytest.fixture(scope="module")
def lake_tables() -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for group in range(3):
        base = [f"grp{group}val{i}" for i in range(30)]
        for member in range(3):
            name = f"g{group}t{member}"
            keep = base[: 20 + 3 * member]
            rows = [
                [value, str((group + 1) * i), f"tag{i % 4}"]
                for i, value in enumerate(keep)
            ]
            tables[name] = table_from_rows(
                name, ["entity", "count", "tag"], rows,
                description=f"group {group} member {member}",
            )
    return tables


@pytest.fixture()
def lake_embedder(tiny_model, tiny_encoder) -> TableEmbedder:
    return TableEmbedder(tiny_model, tiny_encoder)


@pytest.fixture()
def cold_catalog(lake_embedder, lake_tables) -> LakeCatalog:
    catalog = LakeCatalog(lake_embedder)
    for table in lake_tables.values():
        catalog.add_table(table)
    return catalog


def _assert_same_answers(actual: dict, expected: dict) -> None:
    """Order, versions and counts exactly; rankings by name exactly and by
    score to 1e-9 (distances come out of a BLAS matmul)."""
    for key in ("table_names", "versions", "counts"):
        assert actual[key] == expected[key], key
    for mode, by_table in expected["rankings"].items():
        for name, recorded in by_table.items():
            served = actual["rankings"][mode][name]
            assert [t for t, _ in served] == [t for t, _ in recorded], (mode, name)
            assert [score for _, score in served] == pytest.approx(
                [score for _, score in recorded], rel=1e-9
            )


@pytest.fixture(scope="session")
def flat_fixture() -> SimpleNamespace:
    """The committed flat-layout lake (`data/flat_store`, written by the
    last commit that had that layout) and the answers that commit served.

    ``lake``: the store + weight bundle (read-only — copy before opening);
    ``expected``: `expected.json`; ``build_state(catalog)``: the mutation
    sequence that produced the lake; ``assert_serves(service)``: the
    service answers as that commit did (order, versions, counts, top-3
    rankings per mode — names exactly, scores to 1e-9).
    """
    root = Path(__file__).parent / "data" / "flat_store"
    spec = importlib.util.spec_from_file_location(
        "flat_store_make_fixture", root / "make_fixture.py"
    )
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    expected = json.loads((root / "expected.json").read_text())
    return SimpleNamespace(
        lake=root / "lake",
        expected=expected,
        build_state=recipe.build_flat_fixture_state,
        assert_serves=lambda service: _assert_same_answers(
            recipe.recorded_answers(service), expected
        ),
    )

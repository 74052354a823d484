"""Search baselines against controlled corpora."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines import (
    D3lSearcher,
    DeepJoinSearcher,
    JosieSearcher,
    LshForestSearcher,
    SantosSearcher,
    SbertSearcher,
    WarpGateSearcher,
)
from repro.lakebench.base import SearchQuery
from repro.table.schema import table_from_rows


@pytest.fixture(scope="module")
def corpus():
    """q's key column overlaps 'match' heavily, 'partial' somewhat, 'other'
    not at all."""
    def col(vals, extra):
        return [[v, str(100 + i)] for i, v in enumerate(vals + extra)]

    shared = [f"city{i}" for i in range(20)]
    tables = {
        "q": table_from_rows("q", ["place", "pop"], col(shared, [])),
        "match": table_from_rows("match", ["town", "count"], col(shared[:18], ["x1", "x2"])),
        "partial": table_from_rows("partial", ["town", "count"], col(shared[:8], [f"y{i}" for i in range(12)])),
        "other": table_from_rows("other", ["item", "price"], col([f"prod{i}" for i in range(20)], [])),
    }
    return tables


@pytest.mark.parametrize(
    "searcher_cls",
    [JosieSearcher, LshForestSearcher, SbertSearcher, DeepJoinSearcher, WarpGateSearcher],
)
def test_join_searchers_rank_overlap_first(corpus, searcher_cls):
    searcher = searcher_cls(corpus)
    query = SearchQuery(table="q", column="place")
    ranked = searcher.retrieve(query, k=3)
    assert ranked[0] == "match"
    assert "q" not in ranked  # query table excluded


def test_josie_exact_containment_ordering(corpus):
    searcher = JosieSearcher(corpus)
    ranked = searcher.retrieve(SearchQuery(table="q", column="place"), k=3)
    assert ranked[:2] == ["match", "partial"]


def _stdout_under_hash_seeds(script: str) -> list[str]:
    """``script``'s stdout in fresh interpreters under two string-hash salts."""
    src = str(Path(repro.__file__).resolve().parents[1])
    return [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2")
    ]


def test_josie_breaks_containment_ties_by_table_name():
    """Twelve tables tie on containment; their order must not follow the
    salted iteration order of Python's string hashing."""
    script = (
        "from repro.baselines import JosieSearcher\n"
        "from repro.table.schema import table_from_rows\n"
        "tables = {f't{i:02d}': table_from_rows(f't{i:02d}', ['k'],\n"
        "          [[f'v{i}'], ['shared']]) for i in range(12)}\n"
        "print(JosieSearcher(tables).query_column({'shared', 'a', 'b'}, k=12))\n"
    )
    expected = str([f"t{i:02d}" for i in range(12)]) + "\n"
    assert _stdout_under_hash_seeds(script) == [expected, expected]


def test_warpgate_breaks_cosine_ties_by_insertion_order():
    """Twelve tables hold the same column, so every candidate ties on
    cosine; they must come back in corpus order, not in the salted
    iteration order of a set of string keys."""
    script = (
        "from repro.baselines import WarpGateSearcher\n"
        "from repro.lakebench.base import SearchQuery\n"
        "from repro.table.schema import table_from_rows\n"
        "tables = {f't{i:02d}': table_from_rows(f't{i:02d}', ['k'],\n"
        "          [['shared'], ['value']]) for i in reversed(range(12))}\n"
        "print(WarpGateSearcher(tables).retrieve(SearchQuery('t11', 'k'), k=11))\n"
    )
    expected = str([f"t{i:02d}" for i in reversed(range(11))]) + "\n"
    assert _stdout_under_hash_seeds(script) == [expected, expected]


def test_josie_empty_query_column():
    tables = {"q": table_from_rows("q", ["a"], [[""]])}
    searcher = JosieSearcher(tables)
    assert searcher.retrieve(SearchQuery(table="q", column="a"), k=5) == []


@pytest.mark.parametrize("searcher_cls", [D3lSearcher, SantosSearcher])
def test_union_searchers_rank_same_topic_first(searcher_cls):
    def entity_table(name, prefix, header):
        rows = [[f"{prefix}{i}", str(50 + i)] for i in range(15)]
        return table_from_rows(name, header, rows)

    tables = {
        "q": entity_table("q", "cityburg", ["city", "population"]),
        "same": entity_table("same", "cityburg", ["town", "population"]),
        "else": entity_table("else", "productmatic", ["item", "price"]),
    }
    searcher = searcher_cls(tables)
    ranked = searcher.retrieve(SearchQuery(table="q"), k=2)
    assert ranked[0] == "same"


def test_sbert_table_embedding_order_sensitivity(corpus):
    searcher = SbertSearcher(corpus)
    table = corpus["q"]
    sensitive = searcher.table_embedding(table, order_sensitive=True)
    from repro.table.transform import shuffle_rows
    import numpy as np

    from repro.utils.rng import spawn_rng

    shuffled = shuffle_rows(table, spawn_rng(0, "s"))
    sensitive_shuffled = searcher.table_embedding(shuffled, order_sensitive=True)
    assert not np.allclose(sensitive, sensitive_shuffled)

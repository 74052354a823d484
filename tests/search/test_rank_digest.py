"""``TableSearcher.rank``'s whole answer is pinned bitwise by digests.

``test_query_digest.py`` pins the index's ``query_many`` hits; this pins
what the Fig. 6 ranking makes of them. Every entry of the *untruncated*
answer — past ``k``, the tail a caller post-filters from — is hashed as its
table, ``n_matched`` and ``distance_sum.hex()``, then each ``(query column,
table column, distance.hex())`` of its evidence. Union and join are both
covered, each with and without ``column=`` and ``exclude_table=``, at
``k`` of 1, 3, 10 and more than the lake holds, under both metrics.

The corpus is ``test_query_digest.py``'s: duplicate vectors inside one
table, one vector in several tables (``t06``, ``t07`` and ``t09``), a zero
data row and a zero query row. The lake is grown by
whole-table adds, a few removals and a re-add in place, and must rank the
same when a fresh searcher adopts a restored copy of its index. The same
host probe decides whether the pins apply on this CPU.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.search.index import KnnIndex
from repro.search.tables import TableSearcher


def _query_digest_module():
    path = Path(__file__).with_name("test_query_digest.py")
    spec = importlib.util.spec_from_file_location("query_digest_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


corpus = _query_digest_module()
DIM = corpus.DIM
KS = (1, 3, 10, 1_000)

#: metric -> sha256 of every entry of every untruncated answer.
RANK_DIGESTS = {
    "cosine":
        "78fb59d2162997c4b1f475c2e2476e4bfa46edf913caa7324d4f2d1908705021",
    "euclidean":
        "e2263b7eabf6ad0eeb5b5bf4a572fa7f79f09777c180c38ca1b5e5dbe71974fc",
}


@pytest.fixture(scope="module", autouse=True)
def same_host():
    if corpus.host_probe_digest() != corpus.HOST_PROBE_DIGEST:
        pytest.skip("numpy's float64 kernels differ on this CPU from the "
                    "ones the digests were taken with")


def _name(table: int) -> str:
    return f"t{table:02d}"


def grown_searcher(metric: str) -> TableSearcher:
    """Tables added one at a time, four removed, one re-added in place."""
    searcher = TableSearcher(DIM, metric=metric)
    tables = corpus._tables()
    for table, vectors in tables.items():
        searcher.add_table(
            _name(table), [f"c{c}" for c in range(len(vectors))], vectors
        )
    for table in (3, 20, 21, 34):
        searcher.remove_table(_name(table))
    searcher.add_table(_name(12), ["c0", "c1"], tables[12][:2][::-1])
    return searcher


def _query_tables() -> list[tuple[list, str]]:
    """``(pairs, excluded table)``: external queries built from the
    digest's query rows, and member queries of stored tables."""
    rows = corpus._queries()
    tables = corpus._tables()
    external = [
        (rows[0:4], "t06"),  # exact copies: t05's duplicate, the shared row
        (rows[4:8], "t05"),  # the same rows with noise
        (rows[8:14], "t45"),  # random rows
        (rows[13:15], "t11"),  # a random row and the zero query
    ]
    queries = [
        ([(f"q{i}", row) for i, row in enumerate(block)], exclude)
        for block, exclude in external
    ]
    for table in (5, 6, 11, 45):
        pairs = [(f"c{c}", vector) for c, vector in enumerate(tables[table])]
        queries.append((pairs, _name(table)))
    return queries


def rank_digest(searcher: TableSearcher) -> str:
    digest = hashlib.sha256()
    for pairs, exclude_table in _query_tables():
        for join in (False, True):
            for column in (None, pairs[-1][0]):
                for exclude in (None, exclude_table):
                    for k in KS:
                        answer = searcher.rank(
                            pairs, k, join=join, column=column,
                            exclude_table=exclude,
                        )
                        for match in answer:
                            digest.update(
                                f"{match.table}:{match.n_matched}:"
                                f"{match.distance_sum.hex()}|".encode()
                            )
                            for query_column, table_column, distance in (
                                match.matches
                            ):
                                digest.update(
                                    f"{query_column}>{table_column}:"
                                    f"{distance.hex()};".encode()
                                )
                            digest.update(b"\n")
                        digest.update(b"=\n")
    return digest.hexdigest()


@pytest.mark.parametrize("metric", sorted(RANK_DIGESTS))
def test_rank_answers_pinned(metric):
    assert rank_digest(grown_searcher(metric)) == RANK_DIGESTS[metric]


@pytest.mark.parametrize("metric", sorted(RANK_DIGESTS))
def test_adopted_index_answers_pinned(metric):
    """A searcher serving a restored copy of the grown index, as a warm
    lake open serves the index it assembles, ranks to the same pin."""
    index = grown_searcher(metric).index
    searcher = TableSearcher(DIM, metric=metric)
    searcher.adopt_index(
        KnnIndex.restore(DIM, index.keys(), index._matrix().copy(), metric=metric)
    )
    assert rank_digest(searcher) == RANK_DIGESTS[metric]


def test_pinned_answers_reach_past_k():
    """The pins cover the tail: untruncated answers longer than ``k``, and
    several tables sharing a distance."""
    searcher = grown_searcher("cosine")
    pairs, _ = _query_tables()[0]
    answer = searcher.rank(pairs, 3)
    assert len(answer) > 3
    # t06, t07 and t09 hold the same vector: one distance, and the tie
    # keeps the order the index's top-k gives their rows.
    tied = searcher.rank(pairs[1:2], 3)[:3]
    assert [m.table for m in tied] == ["t07", "t06", "t09"]
    assert len({m.distance_sum for m in tied}) == 1
    assert np.isclose(
        searcher.rank(pairs[:1], 1, join=True)[0].distance_sum, 0.0
    )

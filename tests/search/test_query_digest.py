"""The index's answers are pinned bitwise by digests.

``query_many`` on a seeded corpus is hashed as ``(key, distance.hex())``
per hit, per query row, over several ``k``, under both metrics. The corpus
is grown the way a lake grows it — whole-table ``write_block`` s, a
compacting removal of four tables, then rows in no table by single
``add`` s and ``add_many`` blocks — and the same
digest must come back after the index's keys and rows go through
``KnnIndex.restore``. It holds the cases where a tie could reorder hits:
duplicate vectors inside one table, identical vectors in different tables,
a zero data row and a zero query row (whose cosine distances are all
exactly 1.0).

Equal digests mean equal rankings, seed for seed, so any change to how
distances are scored or hits are ordered must leave them green. ``HOST_PROBE_DIGEST`` pins the numpy primitives the index uses on
fixed inputs; where it differs, the CPU computes other last bits for
reasons outside this repo and the pins are skipped rather than failed.
"""

import hashlib

import numpy as np
import pytest

from repro.search.backend import IndexSpec, make_index
from repro.search.index import KnnIndex

DIM = 16
KS = (1, 7, 33, 10_000)

HOST_PROBE_DIGEST = (
    "dd369875b1392ec648429ad21a96765b3fa6b606092dba0e61ba199c8019dfdf"
)
#: metric -> sha256 of every (key, distance.hex()) hit.
QUERY_DIGESTS = {
    "cosine":
        "f300fdeb351762f5ee4c75dcdf099aa06966e7ba680f2610aae9e457ccf8bfd7",
    "euclidean":
        "c976bd3688ec10685f4d2eed212adf5242532afc8854852a99cf9a8e963da812",
}


def host_probe_digest() -> str:
    """The index's numpy primitives (matmul, row norms, row sums of
    squares, sqrt, argpartition, argsort) on fixed inputs."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(300, DIM))
    queries = rng.normal(size=(9, DIM))
    scores = queries @ data.T
    out = [
        scores,
        np.linalg.norm(data, axis=1),
        (data**2).sum(axis=1),
        np.sqrt(np.abs(scores)),
        np.argpartition(scores, 20, axis=1)[:, :21],
        np.argsort(scores, axis=1),
    ]
    return hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()


@pytest.fixture(scope="module", autouse=True)
def same_host():
    if host_probe_digest() != HOST_PROBE_DIGEST:
        pytest.skip("numpy's float64 kernels differ on this CPU from the "
                    "ones the digests were taken with")


def _tables() -> dict[int, np.ndarray]:
    """60 tables of 1-8 clustered columns, with planted duplicates."""
    rng = np.random.default_rng(29)
    centers = rng.normal(scale=3.0, size=(6, DIM))
    tables = {
        table: centers[table % 6] + rng.normal(size=(1 + table % 8, DIM))
        for table in range(60)
    }
    tables[5][1] = tables[5][0]  # duplicate columns inside one table
    tables[7][0] = tables[6][0]  # the same vector in several tables
    tables[9][0] = tables[6][0]
    tables[11][2] = 0.0  # a zero data row
    return tables


def grown_index(metric: str) -> KnnIndex:
    """Table blocks, a compacting removal of four of them, then rows in no
    table: single adds and ``add_many`` blocks."""
    index = make_index(IndexSpec(params={"metric": metric}), DIM)
    tables = _tables()
    for table in range(50):
        index.write_block(
            table, [((table, c), v) for c, v in enumerate(tables[table])]
        )
    for table in (3, 20, 21, 34):
        index.write_block(table, ())
    for table in range(50, 55):
        for column, vector in enumerate(tables[table]):
            index.add((table, column), vector)
    for table in range(55, 60):
        index.add_many([((table, c), v) for c, v in enumerate(tables[table])])
    return index


def restored_index(index: KnnIndex) -> KnnIndex:
    return KnnIndex.restore(
        DIM, index.keys(), index._matrix().copy(), metric=index.metric
    )


def _queries() -> np.ndarray:
    rng = np.random.default_rng(30)
    tables = _tables()
    exact = np.stack([tables[5][0], tables[6][0], tables[11][0], tables[45][1]])
    noisy = exact + rng.normal(scale=0.05, size=exact.shape)
    return np.vstack([exact, noisy, rng.normal(size=(6, DIM)), np.zeros((1, DIM))])


def answer_digest(index) -> str:
    digest = hashlib.sha256()
    queries = _queries()
    for k in KS:
        for hits in index.query_many(queries, k):
            for key, distance in hits:
                digest.update(f"{key!r}:{distance.hex()};".encode())
            digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("metric", sorted(QUERY_DIGESTS))
def test_grown_index_answers_pinned(metric):
    assert answer_digest(grown_index(metric)) == QUERY_DIGESTS[metric]


@pytest.mark.parametrize("metric", sorted(QUERY_DIGESTS))
def test_restored_index_answers_pinned(metric):
    index = restored_index(grown_index(metric))
    assert answer_digest(index) == QUERY_DIGESTS[metric]


"""Exact KNN index."""

import numpy as np
import pytest

from repro.search.index import KnnIndex


def test_cosine_nearest():
    index = KnnIndex(dim=3, metric="cosine")
    index.add("x", np.array([1.0, 0.0, 0.0]))
    index.add("y", np.array([0.0, 1.0, 0.0]))
    index.add("xy", np.array([1.0, 1.0, 0.0]))
    hits = index.query(np.array([1.0, 0.1, 0.0]), k=2)
    assert hits[0][0] == "x"
    assert hits[1][0] == "xy"


def test_euclidean_nearest():
    index = KnnIndex(dim=2, metric="euclidean")
    for i in range(5):
        index.add(i, np.array([float(i), 0.0]))
    hits = index.query(np.array([2.2, 0.0]), k=3)
    assert [k for k, _ in hits] == [2, 3, 1]


def test_distances_sorted_ascending():
    rng = np.random.default_rng(0)
    index = KnnIndex(dim=8)
    for i in range(50):
        index.add(i, rng.normal(size=8))
    hits = index.query(rng.normal(size=8), k=10)
    distances = [d for _, d in hits]
    assert distances == sorted(distances)


def test_k_larger_than_corpus():
    index = KnnIndex(dim=2)
    index.add("a", np.ones(2))
    assert len(index.query(np.ones(2), k=10)) == 1


def test_empty_index():
    assert KnnIndex(dim=2).query(np.ones(2), k=3) == []


def test_zero_vector_safe():
    index = KnnIndex(dim=2, metric="cosine")
    index.add("zero", np.zeros(2))
    hits = index.query(np.zeros(2), k=1)
    assert len(hits) == 1 and np.isfinite(hits[0][1])


def test_dim_validation():
    index = KnnIndex(dim=3)
    with pytest.raises(ValueError, match="dim"):
        index.add("bad", np.ones(4))
    with pytest.raises(ValueError, match="dim"):
        index.add_many([("ok", np.ones(3)), ("ragged", np.ones(4))])
    assert len(index) == 0


def test_metric_validation():
    with pytest.raises(ValueError, match="metric"):
        KnnIndex(dim=2, metric="manhattan")


def test_matches_bruteforce():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(30, 4))
    index = KnnIndex(dim=4, metric="euclidean")
    for i, vector in enumerate(vectors):
        index.add(i, vector)
    query = rng.normal(size=4)
    expected = np.argsort(np.linalg.norm(vectors - query, axis=1))[:5].tolist()
    got = [k for k, _ in index.query(query, k=5)]
    assert got == expected


def test_add_many_matches_sequential_adds():
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(20, 4))
    one_by_one = KnnIndex(dim=4)
    bulk = KnnIndex(dim=4)
    for i, vector in enumerate(vectors):
        one_by_one.add(i, vector)
    bulk.add_many([(i, vector) for i, vector in enumerate(vectors)])
    query = rng.normal(size=4)
    assert bulk.query(query, k=7) == one_by_one.query(query, k=7)
    assert len(bulk) == 20


def test_append_does_not_restack(monkeypatch):
    """Appends must not rebuild the whole matrix: capacity is reused and the
    query path sees a view, not a fresh stack."""
    index = KnnIndex(dim=2, metric="euclidean")
    index.add_many([(i, np.array([float(i), 0.0])) for i in range(5)])
    buffer_before = index._data
    index.add(5, np.array([5.0, 0.0]))  # capacity 8 buffer absorbs it
    assert index._data is buffer_before
    hits = index.query(np.array([5.0, 0.0]), k=1)
    assert hits[0][0] == 5


def _one_row_blocks(n: int) -> KnnIndex:
    """Rows ``0..n-1`` at ``(row, 0)``, each its own table ``t{row}``."""
    index = KnnIndex(dim=2, metric="euclidean")
    for i in range(n):
        index.write_block(f"t{i}", [(i, np.array([float(i), 0.0]))])
    return index


def test_an_empty_block_write_removes_the_table():
    index = _one_row_blocks(6)
    assert index.write_block("t2", ()) == 1
    assert index.write_block("t2", ()) == 0
    assert len(index) == 5
    assert not index.block_rows("t2") and "t2" not in index.blocks
    hits = [key for key, _ in index.query(np.array([2.0, 0.0]), k=6)]
    assert 2 not in hits and len(hits) == 5


def test_removed_blocks_close_up_in_order():
    index = _one_row_blocks(8)
    assert [index.write_block(t, ()) for t in ("t1", "t3", "t5", "t99")] == [1, 1, 1, 0]
    assert index.keys() == [0, 2, 4, 6, 7]
    assert [index.block_rows(f"t{i}").start for i in (0, 2, 4, 6, 7)] == [0, 1, 2, 3, 4]
    got = [key for key, _ in index.query(np.array([0.0, 0.0]), k=8)]
    assert got == [0, 2, 4, 6, 7]


def test_add_after_remove_reuses_slots():
    index = _one_row_blocks(4)
    index.write_block("t0", ())
    index.write_block("t1", ())
    index.add("new", np.array([10.0, 0.0]))
    assert len(index) == 3
    assert index.query(np.array([10.0, 0.0]), k=1)[0][0] == "new"


# --------------------------------------------------------------------- #
# Exactness against a numpy reference, for both metrics
# --------------------------------------------------------------------- #
METRICS = ("cosine", "euclidean")


@pytest.fixture(scope="module")
def clustered_data():
    """200 16-d vectors around 8 well-separated centres."""
    rng = np.random.default_rng(0)
    centers = rng.normal(scale=10.0, size=(8, 16))
    return np.stack(
        [centers[i % 8] + rng.normal(scale=0.5, size=16) for i in range(200)]
    )


def _reference_distances(metric: str, vectors: np.ndarray, query: np.ndarray):
    if metric == "cosine":
        norms = np.linalg.norm(vectors, axis=1) * np.linalg.norm(query)
        return 1.0 - vectors @ query / norms
    return np.linalg.norm(vectors - query, axis=1)


def _filled(metric: str, vectors: np.ndarray) -> KnnIndex:
    index = KnnIndex(dim=vectors.shape[1], metric=metric)
    index.add_many([(i, vector) for i, vector in enumerate(vectors)])
    return index


@pytest.mark.parametrize("metric", METRICS)
def test_stored_vector_is_its_own_nearest(metric, clustered_data):
    index = _filled(metric, clustered_data)
    for probe in (0, 17, 199):
        key, distance = index.query(clustered_data[probe], k=1)[0]
        assert key == probe
        # The euclidean path takes sqrt(|q|^2 + |x|^2 - 2 q.x): at |x|^2 ~
        # 1e3 the cancellation leaves ~1e-12, i.e. ~1e-6 after the sqrt.
        assert distance == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("k", [1, 10, 50])
@pytest.mark.parametrize("metric", METRICS)
def test_recall_is_one_against_bruteforce(metric, k, clustered_data):
    """The index is exact: every noisy query's top-k is the reference
    argsort's top-k, in order — recall 1.0, not a floor."""
    index = _filled(metric, clustered_data)
    rng = np.random.default_rng(3)
    for _ in range(20):
        query = clustered_data[rng.integers(len(clustered_data))] + rng.normal(
            scale=0.2, size=16
        )
        expected = np.argsort(_reference_distances(metric, clustered_data, query))
        assert [key for key, _ in index.query(query, k)] == expected[:k].tolist()


@pytest.mark.parametrize("metric", METRICS)
def test_distances_follow_the_metric(metric, clustered_data):
    index = _filled(metric, clustered_data)
    query = np.random.default_rng(4).normal(size=16)
    reference = _reference_distances(metric, clustered_data, query)
    for key, distance in index.query(query, k=25):
        assert distance == pytest.approx(reference[key], abs=1e-9)


@pytest.mark.parametrize("metric", METRICS)
def test_query_many_matches_bruteforce_after_churn(metric, clustered_data):
    """Removed blocks compact and re-added ones append; batched answers
    still equal a reference computed over exactly the live rows."""
    index = KnnIndex(dim=clustered_data.shape[1], metric=metric)
    for i, vector in enumerate(clustered_data):
        index.write_block(i, [(i, vector)])
    for i in range(0, 200, 3):
        index.write_block(i, ())
    for i in range(0, 60, 3):
        index.write_block(i, [(i, clustered_data[i])])
    live = sorted(index.keys())
    queries = np.random.default_rng(5).normal(scale=10.0, size=(6, 16))
    for query, hits in zip(queries, index.query_many(queries, 12)):
        reference = _reference_distances(metric, clustered_data[live], query)
        expected = [live[i] for i in np.argsort(reference)[:12]]
        assert [key for key, _ in hits] == expected


def test_query_rejects_wrong_dim():
    index = KnnIndex(dim=3)
    index.add("a", np.ones(3))
    with pytest.raises(ValueError, match="dim"):
        index.query(np.ones(4), k=1)
    with pytest.raises(ValueError, match="query matrix"):
        index.query_many(np.ones((2, 4)), k=1)


@pytest.mark.parametrize("k", [0, -3])
def test_nonpositive_k_returns_no_hits(k):
    index = KnnIndex(dim=2)
    index.add_many([("a", np.ones(2)), ("b", np.array([1.0, -1.0]))])
    assert index.query(np.ones(2), k=k) == []
    assert index.query_many(np.ones((3, 2)), k=k) == [[], [], []]


def test_the_buffer_grows_by_a_quarter():
    """Past its smallest size the buffer's spare rows never exceed a
    quarter of its rows, and its capacity is the same whether the rows came
    one table at a time or in one write."""
    one_by_one = KnnIndex(dim=2)
    for i in range(400):
        one_by_one.write_block(f"t{i}", [(i, np.array([1.0, float(i)]))])
        spare = one_by_one._data.shape[0] - len(one_by_one)
        assert spare <= max(len(one_by_one) // 4, 8)
    bulk = KnnIndex(dim=2)
    bulk.add_many([(i, np.array([1.0, float(i)])) for i in range(400)])
    assert bulk._data.shape == one_by_one._data.shape

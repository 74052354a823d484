"""Index writes against a plain-list model.

Every example is a drawn sequence of ``add_many`` / ``replace_many`` /
``remove_many`` calls, applied both to an index and to a reference that is
a list of ``(key, vector)`` rows. The reference states what a write means:
the rows under a doomed key go, the new rows stand where the first of them
stood (at the end when none did), and every other row keeps its order.
After every step the index must equal :meth:`KnnIndex.restore` of the
reference rows bit for bit — row keys, vectors, cached distance terms,
length, membership and ``top_k`` arrays — on a flat ``KnnIndex`` and on a
1- and a 3-shard ``ShardedIndex``, under both metrics.

The draws cover duplicate keys (in one batch and across batches), doomed
keys whose rows are not contiguous, keys that are not in the index,
same-width and different-width replacements, and growth past the buffer's
capacity. ``derandomize`` fixes the draws, so a passing run passes every
time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.search.backend import ShardedIndex
from repro.search.index import KnnIndex

DIM = 4
#: Keys an item may carry; the last two are never written, so a removal
#: naming them exercises the missing-key path.
KEYS = tuple(range(10))
MISSING = (10, 11)
#: Vectors an item may carry: a zero row, and a repeated one so exact
#: distance ties occur.
_RNG = np.random.default_rng(44)
POOL = np.vstack([np.zeros(DIM), _RNG.normal(size=(8, DIM))])
POOL = np.vstack([POOL, POOL[3]])
QUERIES = np.vstack([POOL[:4], _RNG.normal(size=(2, DIM)), np.zeros(DIM)])
TOP_KS = (1, 4, 64)

LAYOUTS = ("flat", 1, 3)


def _build(layout, metric):
    """The index under test and its row-holding sub-indexes."""
    if layout == "flat":
        index = KnnIndex(DIM, metric=metric)
        return index, [index]
    subs = [KnnIndex(DIM, metric=metric) for _ in range(layout)]
    return ShardedIndex(DIM, subs, router=lambda key: key % layout), subs


def _replace(rows, keys, items):
    """The reference write: ``rows`` after ``replace_many(keys, items)``,
    and the number of rows dropped."""
    present = {key for key, _ in rows}
    doomed = {key for key in keys if key in present}
    if not items and not doomed:
        return rows, 0
    gone = [key in doomed for key, _ in rows]
    at = gone.index(True) if doomed else len(rows)
    kept = [row for row, dropped in zip(rows[at:], gone[at:]) if not dropped]
    return rows[:at] + list(items) + kept, sum(gone)


def _restored(rows, metric):
    keys = [key for key, _ in rows]
    vectors = np.array([vector for _, vector in rows]).reshape(-1, DIM)
    return KnnIndex.restore(DIM, {}, keys, {"vectors": vectors}, {"metric": metric})


def _assert_equal_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_like_restore(index, subs, shards, metric):
    """``index`` equals, bitwise, the index ``restore`` builds from the
    reference rows of every shard."""
    restored = [_restored(rows, metric) for rows in shards]
    for sub, want in zip(subs, restored):
        size = len(want)
        assert len(sub) == size
        assert sub.row_keys == want.row_keys
        assert sub._data[:size].tobytes() == want._data[:size].tobytes()
        assert sub._terms[:size].tobytes() == want._terms[:size].tobytes()
    if isinstance(index, KnnIndex):
        reference = restored[0]
    else:
        reference = ShardedIndex(DIM, restored, router=index.router)
    assert len(index) == len(reference)
    for key in KEYS + MISSING:
        assert (key in index) == (key in reference)
    for k in TOP_KS:
        _assert_equal_arrays(index.top_k(QUERIES, k), reference.top_k(QUERIES, k))


def _items(data, keys=st.sampled_from(KEYS), max_size=6):
    drawn = data.draw(
        st.lists(st.tuples(keys, st.integers(0, len(POOL) - 1)), max_size=max_size)
    )
    return [(key, POOL[at].copy()) for key, at in drawn]


def _step(data, shards):
    """Draw one write as ``(method, keys, items)``."""
    kind = data.draw(st.sampled_from(["add", "remove", "replace", "update"]))
    if kind == "add":
        return "add_many", (), _items(data)
    doomed = data.draw(st.lists(st.sampled_from(KEYS + MISSING), max_size=4))
    if kind == "remove":
        return "remove_many", doomed, ()
    if kind == "replace":
        return "replace_many", doomed, _items(data)
    # One key's rows replaced the way TableSearcher writes a table: the
    # same width (in place) or a different one.
    present = sorted({key for rows in shards for key, _ in rows})
    if not present:
        return "add_many", (), _items(data)
    key = data.draw(st.sampled_from(present))
    width = sum(row_key == key for rows in shards for row_key, _ in rows)
    if data.draw(st.booleans()):
        width = data.draw(st.integers(0, 6))
    items = _items(data, keys=st.just(key), max_size=width)
    items = (items + [(key, POOL[1].copy())] * width)[:width]
    return "replace_many", [key], items


def _route(layout, keys, items):
    """Each shard's share of a write, in the order the face routes it."""
    n = 1 if layout == "flat" else layout
    return [
        (
            [key for key in keys if key % n == shard],
            [item for item in items if item[0] % n == shard],
        )
        for shard in range(n)
    ]


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("layout", LAYOUTS)
@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_writes_match_the_list_model(layout, metric, data):
    index, subs = _build(layout, metric)
    shards = [[] for _ in subs]
    for _ in range(data.draw(st.integers(1, 12))):
        method, keys, items = _step(data, shards)
        expected = 0
        for shard, (old, new) in enumerate(_route(layout, keys, items)):
            shards[shard], removed = _replace(shards[shard], old, new)
            expected += removed
        if method == "add_many":
            index.add_many(items)
        elif method == "remove_many":
            assert index.remove_many(keys) == expected
        else:
            assert index.replace_many(keys, items) == expected
        _assert_like_restore(index, subs, shards, metric)

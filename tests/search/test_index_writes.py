"""Index writes against a plain-list model.

Every example is a drawn sequence of ``add_many`` / ``replace_many`` /
``remove_many`` calls, applied both to an index and to a reference that is
a list of ``(key, vector)`` rows. The reference states what a write means:
the rows under a doomed key go, the new rows stand where the first of them
stood (at the end when none did), and every other row keeps its order.
After every step the index must equal :meth:`KnnIndex.restore` of the
reference rows bit for bit — row keys, vectors, cached distance terms,
length, membership and ``top_k`` arrays — under both metrics.

The draws cover duplicate keys (in one batch and across batches), doomed
keys whose rows are not contiguous, keys that are not in the index,
same-width and different-width replacements, and growth past the buffer's
capacity, starting from an empty index and from one ``restore`` built.
``derandomize`` fixes the draws, so a passing run passes every time.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


def _assert_like_restore(index, rows, metric):
    """``index`` equals, bitwise, the index ``restore`` builds from the
    reference rows."""
    reference = _restored(rows, metric)
    size = len(reference)
    assert len(index) == size
    assert index.row_keys == reference.row_keys
    assert index._data[:size].tobytes() == reference._data[:size].tobytes()
    assert index._terms[:size].tobytes() == reference._terms[:size].tobytes()
    for key in KEYS + MISSING:
        assert (key in index) == (key in reference)
    for k in TOP_KS:
        _assert_equal_arrays(index.top_k(QUERIES, k), reference.top_k(QUERIES, k))


def _items(data, keys=st.sampled_from(KEYS), max_size=6):
    drawn = data.draw(
        st.lists(st.tuples(keys, st.integers(0, len(POOL) - 1)), max_size=max_size)
    )
    return [(key, POOL[at].copy()) for key, at in drawn]


def _step(data, rows):
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
    present = sorted({key for key, _ in rows})
    if not present:
        return "add_many", (), _items(data)
    key = data.draw(st.sampled_from(present))
    width = sum(row_key == key for row_key, _ in rows)
    if data.draw(st.booleans()):
        width = data.draw(st.integers(0, 6))
    items = _items(data, keys=st.just(key), max_size=width)
    items = (items + [(key, POOL[1].copy())] * width)[:width]
    return "replace_many", [key], items


def _apply_writes(index, rows, data, metric):
    """Draw and apply 1-12 writes to ``index`` and to the reference
    ``rows``, checking the index against the reference after each."""
    for _ in range(data.draw(st.integers(1, 12))):
        method, keys, items = _step(data, rows)
        rows, expected = _replace(rows, keys, items)
        if method == "add_many":
            index.add_many(items)
        elif method == "remove_many":
            assert index.remove_many(keys) == expected
        else:
            assert index.replace_many(keys, items) == expected
        _assert_like_restore(index, rows, metric)


WRITE_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@WRITE_SETTINGS
@given(data=st.data())
def test_writes_match_the_list_model(metric, data):
    _apply_writes(KnnIndex(DIM, metric=metric), [], data, metric)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@WRITE_SETTINGS
@given(data=st.data())
def test_writes_on_a_restored_index_match_the_list_model(metric, data):
    """The same writes on an index a lake assembled at open: ``restore``
    keeps the block it is given as the row buffer, full to capacity, so
    the first growth reallocates it and in-place writes land in it."""
    rows = _items(data, max_size=12)
    _apply_writes(_restored(rows, metric), rows, data, metric)

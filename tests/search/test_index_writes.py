"""Index writes against a plain-list model of table blocks.

Every example is a drawn sequence of ``write_block`` / ``add_many`` calls,
applied both to an index and to a reference that is a list of ``(table,
key, vector, signature, size)`` rows. The reference states what a write
means: a table's rows are one contiguous block; writing a table replaces
its block where it stands (at the end when it has none), an empty write
removes it, ``add_many`` appends rows in no table, and every other row
keeps its order. After every step the index must equal
:meth:`KnnIndex.restore` of the reference rows and their ``(table, width)``
runs bit for bit — row keys, vectors, cached distance terms, signature
slots, sizes, length and ``top_k`` arrays — under both metrics, with no
signature slots (the paper searchers' index) and with some (a lake's). Its
id -> row map must find every row by its id, and no other id, and
``block_rows`` of every table must land on that table's rows.

The draws cover repeated column names in one table, same-width and
different-width replacements, removing a table that is not there, rows in
no table between blocks, and growth past the buffer's capacity, starting
from an empty index and from one ``restore`` built. ``derandomize`` fixes
the draws, so a passing run passes every time.
"""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.search.index import REBUILD_DIRTY_ROWS, KnnIndex
from repro.search.tables import ColumnEntry

DIM = 4
#: Tables a write may name; the last two are never written, so removing
#: them exercises the absent-table path.
TABLES = tuple("abcde")
MISSING = ("y", "z")
#: Column names a table's rows may carry: few, so one table repeats some.
COLUMNS = ("c0", "c1", "c2")
#: Vectors an item may carry: a zero row, and a repeated one so exact
#: distance ties occur.
_RNG = np.random.default_rng(44)
POOL = np.vstack([np.zeros(DIM), _RNG.normal(size=(8, DIM))])
POOL = np.vstack([POOL, POOL[3]])
QUERIES = np.vstack([POOL[:4], _RNG.normal(size=(2, DIM)), np.zeros(DIM)])
TOP_KS = (1, 4, 64)
#: Signature slots of the lake-like index, and the signatures and sizes an
#: item may carry.
SLOTS = 3
SIGNATURES = _RNG.integers(0, 2**64, size=(len(POOL), SLOTS), dtype=np.uint64)
SIZES = _RNG.integers(0, 50, size=len(POOL))


def _write(rows, table, items):
    """The reference write: ``rows`` after ``write_block(table, items)``,
    and the number of rows dropped; table ``None``: ``add_many(items)``."""
    new = [(table, *item) for item in items]
    if table is None:
        return rows + new, 0
    block = [i for i, row in enumerate(rows) if row[0] == table]
    at = block[0] if block else len(rows)
    return rows[:at] + new + rows[at + len(block):], len(block)


def _columns(rows, num_perm):
    """The rows' ``(key, vector)`` pairs, and their signatures
    (``(m, num_perm)``) and sizes (0 on an index without slots)."""
    pairs = [(key, vector) for _, key, vector, _, _ in rows]
    signatures = np.array(
        [signature[:num_perm] for *_, signature, _ in rows], dtype=np.uint64
    ).reshape(len(rows), num_perm)
    sizes = np.array([size for *_, size in rows], dtype=np.int64) * bool(num_perm)
    return pairs, signatures, sizes


def _restored(rows, metric, num_perm):
    pairs, signatures, sizes = _columns(rows, num_perm)
    vectors = np.array([vector for _, vector in pairs]).reshape(-1, DIM)
    blocks = [(table, len(list(run))) for table, run in groupby(r[0] for r in rows)]
    return KnnIndex.restore(
        DIM, [key for key, _ in pairs], vectors, metric=metric,
        signatures=signatures.T, sizes=sizes, blocks=blocks,
    )


def _assert_equal_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _assert_like_restore(index, rows, metric):
    """``index`` equals, bitwise, the index ``restore`` builds from the
    reference rows, finds each row by its id and each table by its
    block."""
    reference = _restored(rows, metric, index.num_perm)
    size = len(reference)
    assert len(index) == size
    assert index.row_keys == reference.row_keys
    assert index._data[:size].tobytes() == reference._data[:size].tobytes()
    assert index._terms[:size].tobytes() == reference._terms[:size].tobytes()
    assert index.signatures.tobytes() == reference.signatures.tobytes()
    assert index.sizes.tobytes() == reference.sizes.tobytes()
    assert index.signatures.shape == (index.num_perm, size)
    ids = index._ids[:size]
    assert len(set(ids.tolist())) == size
    assert (index.id_rows[ids] == np.arange(size)).all()
    assert np.count_nonzero(index.id_rows >= 0) == size
    tables = [table for table in dict.fromkeys(row[0] for row in rows) if table]
    assert list(index.blocks) == tables
    for table in TABLES + MISSING:
        block = index.block_rows(table)
        assert block == reference.block_rows(table)
        assert index.row_keys[block.start:block.stop] == [
            key for name, key, *_ in rows if name == table
        ]
    for k in TOP_KS:
        _assert_equal_arrays(index.top_k(QUERIES, k), reference.top_k(QUERIES, k))


def _items(data, table, max_size=6):
    """Drawn ``(key, vector, signature, size)`` rows of ``table``."""
    drawn = data.draw(st.lists(
        st.tuples(st.sampled_from(COLUMNS), st.integers(0, len(POOL) - 1)),
        max_size=max_size,
    ))
    return [
        (ColumnEntry(table, column), POOL[at].copy(), SIGNATURES[at], SIZES[at])
        for column, at in drawn
    ]


def _step(data, rows, num_perm):
    """Draw one write as ``(table, items)``; table ``None`` is an
    ``add_many`` of rows in no table (an index without slots only)."""
    kind = data.draw(st.sampled_from(["add", "write", "remove", "same width"]))
    present = sorted({row[0] for row in rows} - {None})
    if kind == "add" and not num_perm:
        free = data.draw(st.lists(st.integers(0, len(POOL) - 1), max_size=3))
        return None, [
            (f"free{at}", POOL[at].copy(), SIGNATURES[at], SIZES[at]) for at in free
        ]
    if kind == "remove":
        return data.draw(st.sampled_from(present + list(MISSING))), []
    if kind == "same width" and present:
        table = data.draw(st.sampled_from(present))
        width = sum(row[0] == table for row in rows)
        items = _items(data, table, max_size=width)
        filler = (ColumnEntry(table, "c0"), POOL[1].copy(), SIGNATURES[1], SIZES[1])
        return table, (items + [filler] * width)[:width]
    table = data.draw(st.sampled_from(TABLES))
    return table, _items(data, table)


def _apply_writes(index, rows, data, metric):
    """Draw and apply 1-12 writes to ``index`` and to the reference
    ``rows``, checking the index against the reference after each."""
    for _ in range(data.draw(st.integers(1, 12))):
        table, items = _step(data, rows, index.num_perm)
        new = [(table, *item) for item in items]
        pairs, signatures, sizes = _columns(new, index.num_perm)
        rows, dropped = _write(rows, table, items)
        if table is None:
            index.add_many(pairs)
        else:
            assert index.write_block(table, pairs, signatures, sizes) == dropped
        _assert_like_restore(index, rows, metric)


WRITE_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("num_perm", [0, SLOTS])
@WRITE_SETTINGS
@given(data=st.data())
def test_writes_match_the_list_model(metric, num_perm, data):
    _apply_writes(KnnIndex(DIM, metric=metric, num_perm=num_perm), [], data, metric)


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("num_perm", [0, SLOTS])
@WRITE_SETTINGS
@given(data=st.data())
def test_writes_on_a_restored_index_match_the_list_model(metric, num_perm, data):
    """The same writes on an index a lake assembled at open: ``restore``
    keeps the blocks it is given as the row buffers, full to capacity, so
    the first growth reallocates them and in-place writes land in them."""
    rows = []
    for table in data.draw(st.lists(st.sampled_from(TABLES), max_size=4, unique=True)):
        rows += [(table, *item) for item in _items(data, table)]
    _apply_writes(_restored(rows, metric, num_perm), rows, data, metric)


def test_a_renumbering_write_keeps_every_block():
    """A write that runs out of ids renumbers them, and the block map
    follows: past ``REBUILD_DIRTY_ROWS`` new ids each table's block still
    lands on its rows, and a restore of the same rows equals the index."""
    index, rows, issued = KnnIndex(DIM, num_perm=SLOTS), [], 0
    for step in range(120):
        table = TABLES[step % len(TABLES)]
        ats = [(step + c) % len(POOL) for c in range(1 + step % 4)]
        items = [
            (ColumnEntry(table, COLUMNS[at % 3]), POOL[at], SIGNATURES[at], SIZES[at])
            for at in ats
        ]
        pairs, signatures, sizes = _columns([(table, *i) for i in items], SLOTS)
        rows, dropped = _write(rows, table, items)
        assert index.write_block(table, pairs, signatures, sizes) == dropped
        issued += len(items)
    assert issued > REBUILD_DIRTY_ROWS and index._next_id < issued
    _assert_like_restore(index, rows, "cosine")

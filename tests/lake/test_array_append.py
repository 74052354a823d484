"""An append merges arrays, and they are the object-level merge's bytes.

``LakeCatalog.append_rows`` sketches a delta's rows straight to arrays
(:func:`~repro.sketch.pipeline.sketch_rows`) and merges them into the
stored record's packed members
(:func:`~repro.lake.serialization.merge_rows`); no sketch object is built.
:meth:`TableSketch.merge` stays the reference: after every append of a
drawn sequence each member must equal, in dtype, shape and bytes,
``pack_table_sketch`` of the chain of ``TableSketch.merge`` over the
deltas' ``sketch_table`` sketches, and a warm reopen must read the same
members. The caps are shrunk (``RESERVOIR_CAP`` 5, ``DISTINCT_CAP`` 7) so
appends run the inexact sample and distinct-count merges;
``test_an_append_past_both_caps_merges_like_the_objects`` runs both for
certain.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import pack_table_sketch
from repro.lake.store import LakeStore
from repro.sketch import numeric
from repro.sketch.pipeline import sketch_table
from repro.table.schema import table_from_rows

NULLS = st.sampled_from(["", "NaN", "null", " n/a ", "-", "?"])
#: Cells by the column type they infer as.
KINDS = {
    "string": st.text(max_size=12),
    "int": st.integers(-1_000, 1_000).map(str),
    "float": st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False).map(repr),
        st.sampled_from(["0.0", "-0.0", "2.5"]),
    ),
    "date": st.dates().map(lambda day: day.isoformat()),
}


@pytest.fixture()
def small_caps(monkeypatch) -> None:
    monkeypatch.setattr(numeric, "RESERVOIR_CAP", 5)
    monkeypatch.setattr(numeric, "DISTINCT_CAP", 7)


def _members(record) -> dict:
    return {
        key: (array.dtype.str, array.shape, array.tobytes())
        for key, array in record.members.items()
    }


def _packed(sketch) -> dict:
    arrays, _ = pack_table_sketch(sketch)
    return {
        key: (array.dtype.str, array.shape, array.tobytes())
        for key, array in arrays.items()
    }


def _merged(sketch, rows, config):
    """``sketch`` with ``rows`` appended: the delta sketched cold under the
    stored column types, merged by :meth:`TableSketch.merge`."""
    delta = table_from_rows(
        sketch.table_name, sketch.column_names, rows, description=sketch.description
    )
    for column, stored in zip(delta.columns, sketch.column_sketches):
        column.ctype = stored.ctype
    return sketch.merge(sketch_table(delta, config))


@st.composite
def _cells(draw, kinds: list[str], n_rows: int) -> list[list[str]]:
    """``n_rows`` rows over columns of ``kinds``: mostly the column's own
    kind, drawn from a small pool so cells repeat, with nulls and now and
    then a cell of another kind (read under the frozen type)."""
    pools = [
        draw(st.lists(KINDS[kind], min_size=1, max_size=12)) for kind in kinds
    ]
    cell = [
        st.one_of(st.sampled_from(pool), KINDS[kind], NULLS, *KINDS.values())
        for kind, pool in zip(kinds, pools)
    ]
    return [[draw(strategy) for strategy in cell] for _ in range(n_rows)]


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_appended_members_equal_the_merged_sketch(
    tmp_path, lake_embedder, small_caps, data
):
    kinds = data.draw(
        st.lists(st.sampled_from(list(KINDS)), min_size=1, max_size=4), label="kinds"
    )
    header = [f"c{i}" for i in range(len(kinds))]
    first = data.draw(_cells(kinds, data.draw(st.integers(1, 40))), label="rows")
    table = table_from_rows("t", header, first, description="drawn")
    root = tempfile.mkdtemp(dir=tmp_path)
    catalog = LakeCatalog(lake_embedder, store=LakeStore(root, "fp"))
    config = catalog.sketch_config
    catalog.add_table(table)
    expected = sketch_table(table, config)
    n_appends = data.draw(st.integers(1, 30), label="appends")
    reopen_at = data.draw(st.integers(0, n_appends - 1), label="reopen_at")
    for step in range(n_appends):
        rows = data.draw(_cells(kinds, data.draw(st.integers(1, 40))))
        catalog.append_rows("t", rows)
        expected = _merged(expected, rows, config)
        assert _members(catalog.records["t"]) == _packed(expected), step
        if step == reopen_at:
            catalog = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
            assert _members(catalog.records["t"]) == _packed(expected), step
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
    assert _members(warm.records["t"]) == _packed(expected)


def test_an_append_past_both_caps_merges_like_the_objects(
    tmp_path, lake_embedder, small_caps
):
    rows = [[str(i), f"{i / 4}", f"w{i} x{i % 3}"] for i in range(12)]
    table = table_from_rows("t", ["n", "f", "s"], rows)
    catalog = LakeCatalog(lake_embedder, store=LakeStore(tmp_path / "lake", "fp"))
    config = catalog.sketch_config
    catalog.add_table(table)
    expected = sketch_table(table, config)
    for start in range(100, 160, 6):
        delta = [[str(i), f"{i / 4}", f"w{i}"] for i in range(start, start + 6)]
        catalog.append_rows("t", delta)
        expected = _merged(expected, delta, config)
        assert _members(catalog.records["t"]) == _packed(expected)
    scalars = np.asarray(catalog.records["t"].members["acc_scalars"])
    # sample_exact and distinct_exact of every column: both merges inexact.
    assert not scalars[:2, 9].any() and not scalars[:, 11].any()
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path / "lake"))
    assert _members(warm.records["t"]) == _packed(expected)

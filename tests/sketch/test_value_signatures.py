"""Signing a table is the join part of sketching it, bit for bit.

:func:`~repro.sketch.pipeline.value_signatures` builds only what join and
subset read of a sketch, each column's values signature and distinct
non-null count, as :class:`~repro.sketch.pipeline.JoinRows`. The property
below draws batches of small tables (null markers in any case and with
padding, duplicate cells, unicode, integer-, float- and date-looking
strings, all-null columns, zero-row tables, one-column projections) and
requires the rows to equal :func:`~repro.search.containment.join_rows` of
the tables' :func:`~repro.sketch.pipeline.sketch_corpus` sketches, field
for field and byte for byte, whether the batch is signed whole or split.
Signing infers no column type. ``derandomize`` fixes the draws.
"""

from __future__ import annotations

import datetime

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.search.containment import join_rows
from repro.sketch.pipeline import (
    JoinRows,
    SketchConfig,
    sketch_corpus,
    value_signatures,
)
from repro.table.schema import Column, Table, table_from_rows

CONFIG = SketchConfig(num_perm=32, seed=1)
HASHER = CONFIG.build_hasher()

_MARKERS = ["", "nan", "null", "none", "na", "n/a", "-", "?"]

#: A null marker in any case, padded with whitespace.
null_cells = st.builds(
    lambda marker, case, left, right: left + case(marker) + right,
    st.sampled_from(_MARKERS),
    st.sampled_from([str.lower, str.upper, str.title]),
    st.sampled_from(["", " ", "  ", "\t"]),
    st.sampled_from(["", " ", "\n"]),
)
int_cells = st.integers(-10**6, 10**6).map(str)
float_cells = st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr)
date_cells = st.dates(
    datetime.date(1950, 1, 1), datetime.date(2050, 12, 31)
).flatmap(lambda day: st.sampled_from(
    [day.isoformat(), day.strftime("%m/%d/%Y"), day.strftime("%d %b %Y")]
))
unicode_cells = st.text(max_size=6)
#: Per column, the cells it draws from: one kind, or a mix with nulls.
column_kinds = st.sampled_from([
    null_cells,
    int_cells,
    float_cells,
    date_cells,
    unicode_cells,
    st.one_of(null_cells, int_cells),
    st.one_of(null_cells, unicode_cells, float_cells, date_cells),
])


@st.composite
def tables(draw, name: str) -> Table:
    n_rows = draw(st.integers(0, 6))
    columns = []
    for j in range(draw(st.integers(1, 4))):
        # A small pool per column, so cells repeat.
        pool = draw(st.lists(draw(column_kinds), min_size=1, max_size=4))
        cells = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        columns.append(Column(f"c{j}", cells))
    table = Table(name, columns, description="drawn")
    if draw(st.booleans()):
        # A join payload's projection onto one of its columns.
        table = table.with_columns([draw(st.sampled_from(columns))])
    return table


batches = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*(tables(f"t{i}") for i in range(n)))
).map(list)


def _copy(batch: list[Table]) -> list[Table]:
    """The batch with fresh columns, so no column's type is inferred yet."""
    return [
        table.with_columns([Column(c.name, list(c.values)) for c in table.columns])
        for table in batch
    ]


def _assert_equal(signed: JoinRows, sketched: JoinRows) -> None:
    assert signed.table == sketched.table
    assert signed.columns == sketched.columns
    for ours, theirs in ((signed.signatures, sketched.signatures),
                         (signed.sizes, sketched.sizes)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(batch=batches, cut=st.integers(0, 5))
@example(
    batch=[
        table_from_rows("empty", ["a", "b"], []),
        table_from_rows("blank", ["a"], [[" NaN "], ["n/a"], ["-"], [""]]),
        table_from_rows(
            "mixed", ["k", "n", "d"],
            [["x", "1", "2020-01-05"], ["X ", "1", "N/A"], ["日本", " - ", "01/05/2020"]],
        ),
    ],
    cut=1,
)
def test_value_signatures_are_the_sketches_join_rows(batch, cut):
    batch = _copy(batch)
    whole = value_signatures(batch, CONFIG, HASHER)
    split = [
        *value_signatures(batch[:cut], CONFIG, HASHER),
        *value_signatures(batch[cut:], CONFIG, HASHER),
    ]
    assert all(c.ctype is None for table in batch for c in table.columns)
    sketched = [join_rows(sketch) for sketch in sketch_corpus(batch, CONFIG, HASHER)]
    assert len(whole) == len(split) == len(sketched) == len(batch)
    for ours, theirs, single in zip(whole, sketched, split):
        _assert_equal(ours, theirs)
        _assert_equal(single, theirs)


def test_an_all_null_column_is_the_empty_signature():
    (rows,) = value_signatures(
        [table_from_rows("t", ["a"], [[" NULL"], ["?"], ["None "]])], CONFIG, HASHER
    )
    assert rows.sizes.tolist() == [0]
    assert (rows.signatures == np.iinfo(np.uint64).max).all()

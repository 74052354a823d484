"""The join scorer: an exact containment scan over stored MinHash signatures.

Every score :class:`ContainmentIndex` gives is
:func:`repro.sketch.minhash.estimate_containment` of that pair, bit for bit,
so the served join inherits the estimator's tested bounds
(``tests/sketch/test_minhash.py``). The oracle here is that function over
the sketches themselves, pair by pair, on the seed-7 400-column lakegen lake
plus a few edge tables (an all-null column, exact copies). Answers must not
depend on row order: inserts in any order, removes (which move the later
rows up) and in-place replacements, all written through the one writer,
a :class:`~repro.search.tables.TableSearcher` with signature slots and
zero-width vectors, answer like a fresh index of the same tables.
"""

import numpy as np
import pytest

from repro.lakegen.generator import LakeSpec, generate_manifest, iter_tables
from repro.search.containment import ContainmentIndex, JoinRows, join_rows
from repro.search.tables import CANDIDATE_FACTOR, TableSearcher
from repro.sketch.minhash import estimate_containment
from repro.sketch.pipeline import SketchConfig, sketch_corpus
from repro.table.schema import table_from_rows

NUM_PERM = 32


@pytest.fixture(scope="module")
def sketches():
    tables = list(iter_tables(generate_manifest(LakeSpec(columns=400, seed=7))))
    source = tables[0]
    tables += [
        table_from_rows(
            "edge-nulls", ["blank", "entity"],
            [["", value] for value in source.columns[0].values[:5]],
        ),
        source.with_columns(source.columns, name="edge-copy"),
    ]
    config = SketchConfig(num_perm=NUM_PERM, seed=1)
    return sketch_corpus(tables, config, config.build_hasher())


def _write(searcher: TableSearcher, join: JoinRows) -> None:
    """``join``'s rows written through the one writer, with no vector."""
    searcher.add_table(
        join.table, join.columns, np.zeros((len(join.columns), 0)),
        join.signatures, join.sizes,
    )


def _index(sketches) -> ContainmentIndex:
    searcher = TableSearcher(0, num_perm=NUM_PERM)
    for sketch in sketches:
        _write(searcher, join_rows(sketch))
    return ContainmentIndex(searcher)


def _oracle(sketches, query, exclude=None) -> list:
    """Every column the query column is estimated to overlap, pair by pair
    through ``estimate_containment``: containment descending, then table,
    then column."""
    scored = [
        (
            -estimate_containment(
                query.values_minhash, column.values_minhash,
                query.n_values, column.n_values,
            ),
            sketch.table_name,
            column.name,
        )
        for sketch in sketches
        if sketch.table_name != exclude
        for column in sketch.column_sketches
    ]
    return [(-negated, t, c) for negated, t, c in sorted(scored) if negated < 0.0]


def _queries(sketches):
    """Every column of every table."""
    return [
        (sketch, column) for sketch in sketches for column in sketch.column_sketches
    ]


def _ranked(index, sketch, column, k, exclude=None) -> list:
    """``rank`` for one query column, as ``(containment, table, column)``."""
    ranked = index.rank(join_rows(sketch), k, column=column.name, exclude_table=exclude)
    return [(m.containment, m.table, m.column) for m in ranked]


def _best_per_table(pool: list) -> list:
    """Each table's first (best) entry of a sorted pool, in pool order."""
    best: dict = {}
    for score, table, column in pool:
        best.setdefault(table, (score, table, column))
    return list(best.values())


def test_scores_equal_estimate_containment_exactly(sketches):
    index = _index(sketches)
    assert len(index) == sum(sketch.n_cols for sketch in sketches)
    compared = set()
    for sketch, column in _queries(sketches):
        expected = _oracle(sketches, column, exclude=sketch.table_name)
        assert _ranked(
            index, sketch, column, len(index), sketch.table_name
        ) == _best_per_table(expected)
        # The pool's cut keeps the oracle's order, ties included.
        for k in (1, 3, 10):
            assert _ranked(
                index, sketch, column, k, sketch.table_name
            ) == _best_per_table(expected[:k * CANDIDATE_FACTOR])
        compared.update(score for score, _, _ in expected)
    # The lake's planted overlaps at many levels, not only copies.
    assert len([score for score in compared if 0.0 < score < 1.0]) > 20


def test_empty_query_and_empty_candidate_score_zero(sketches):
    index = _index(sketches)
    blank = sketches[-2].column_sketches[0]
    assert blank.n_values == 0 and blank.values_minhash.is_empty()
    signatures = blank.values_minhash.signature[None, :]
    # The empty candidate column agrees with the empty query in every slot.
    rows, agree = index.agreement(signatures)
    assert rows.size and (agree == NUM_PERM).any()
    assert index.rank(JoinRows("q", ["blank"], signatures, np.array([0])), 1) == []
    # An empty signature with a size, as no sketch makes: both-empty pairs
    # still score 0, as estimate_jaccard has it.
    assert index.rank(JoinRows("q", ["blank"], signatures, np.array([3])), 1) == []
    assert estimate_containment(blank.values_minhash, blank.values_minhash, 3, 0) == 0.0


def test_a_copy_is_contained_exactly(sketches):
    index = _index(sketches)
    column = sketches[0].column_sketches[0]
    top = _ranked(index, sketches[0], column, len(index))
    assert [(score, table) for score, table, _ in top[:2]] == [
        (1.0, "edge-copy"), (1.0, sketches[0].table_name),
    ]


def test_rank_is_the_best_column_per_table_by_content(sketches):
    index = _index(sketches)
    for sketch in sketches[::16]:
        best: dict = {}
        for column in sketch.column_sketches:
            for score, table, candidate in _oracle(sketches, column, sketch.table_name):
                if table not in best or score > best[table][0]:
                    best[table] = (score, column.name, candidate)
        expected = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))
        ranked = index.rank(
            join_rows(sketch), len(index), exclude_table=sketch.table_name
        )
        assert [
            (m.table, (m.containment, m.query_column, m.column)) for m in ranked
        ] == expected
        for match in ranked:
            assert match.n_matched == 1
            assert match.distance_sum == 1.0 - match.containment
            assert match.matches == (
                (match.query_column, match.column, 1.0 - match.containment),
            )


def test_rank_pools_k_times_the_candidate_factor(sketches):
    index = _index(sketches)
    column = sketches[0].column_sketches[0]
    pool = _oracle(sketches, column, sketches[0].table_name)
    for k in (1, 2, 4):
        ranked = index.rank(
            join_rows(sketches[0]), k, column=column.name,
            exclude_table=sketches[0].table_name,
        )
        assert [m.table for m in ranked] == list(
            dict.fromkeys(t for _, t, _ in pool[:k * CANDIDATE_FACTOR])
        )


def _answers(index, sketches) -> list:
    return [
        (index.rank(join_rows(sketch), 14), index.rank_subsets(join_rows(sketch)))
        for sketch in sketches
    ]


def test_insertion_order_never_shows(sketches):
    expected = _answers(_index(sketches), sketches)
    order = np.random.default_rng(3).permutation(len(sketches))
    assert _answers(_index([sketches[i] for i in order]), sketches) == expected


def test_writes_touch_rows_in_place_and_answer_like_a_fresh_index(sketches):
    """Removes move the later rows up; a same-width replace writes in
    place and a different-width one moves the rows behind it. After each,
    every answer equals a fresh index of the live tables."""
    rng = np.random.default_rng(5)
    index = _index(sketches)
    live = {sketch.table_name: sketch for sketch in sketches}
    for step in range(60):
        name = list(live)[int(rng.integers(len(live)))]
        action = step % 3
        if action == 0:
            assert index.searcher.remove_table(name) == live.pop(name).n_cols
            assert index.searcher.remove_table(name) == 0
        else:
            # Another table's columns under this name: same width or not.
            donor = sketches[int(rng.integers(len(sketches)))]
            renamed = type(donor)(
                table_name=name, description=donor.description,
                column_sketches=donor.column_sketches, snapshot=donor.snapshot,
                config=donor.config,
            )
            _write(index.searcher, join_rows(renamed))
            live[name] = renamed
        if step % 10 == 9:
            fresh = _index(sorted(live.values(), key=lambda s: s.table_name))
            assert len(index) == len(fresh)
            assert _answers(index, sketches) == _answers(fresh, sketches)

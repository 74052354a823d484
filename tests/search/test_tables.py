"""Figure 6 ranking algorithm, through ``TableSearcher.rank``."""

import numpy as np
import pytest

from repro.search.tables import CANDIDATE_FACTOR, TableSearcher


@pytest.fixture()
def searcher():
    """Four tables in a 4-dim space with controlled column geometry."""
    s = TableSearcher(dim=4)
    # Table A: two columns along axes 0 and 1.
    s.add_table("A", ["a0", "a1"], np.array([[1, 0, 0, 0], [0, 1, 0, 0.0]]))
    # Table B: matches both of A's columns closely.
    s.add_table("B", ["b0", "b1"], np.array([[0.9, 0.1, 0, 0], [0.1, 0.9, 0, 0.0]]))
    # Table C: matches only A's first column.
    s.add_table("C", ["c0", "c1"], np.array([[0.95, 0, 0.05, 0], [0, 0, 0, 1.0]]))
    # Table D: unrelated.
    s.add_table("D", ["d0"], np.array([[0, 0, 1, 1.0]]))
    return s


def pairs(*rows) -> list:
    return [(f"q{i}", np.asarray(row, dtype=np.float64)) for i, row in enumerate(rows)]


def names(matches, k) -> list[str]:
    return [match.table for match in matches[:k]]


def test_rank1_prefers_more_matched_columns(searcher):
    query = pairs([1, 0, 0, 0], [0, 1, 0, 0])
    ranked = names(searcher.rank(query, 3, exclude_table="A"), 3)
    assert ranked[0] == "B"  # matches 2 columns
    assert ranked[1] == "C"  # matches 1 well


def test_exclude_table(searcher):
    ranked = names(searcher.rank(pairs([1, 0, 0, 0]), 4, exclude_table="A"), 4)
    assert "A" not in ranked


def test_join_ranks_by_closest_column(searcher):
    ranked = searcher.rank(pairs([1, 0, 0, 0]), 3, join=True, exclude_table="A")
    assert names(ranked, 3)[:2] == ["C", "B"]  # c0 (0.95) beats b0 (0.9)
    assert ranked[0].matches == (("q0", "c0", ranked[0].distance_sum),)


def test_join_keeps_each_tables_min_distance(searcher):
    ranked = searcher.rank(pairs([1, 0, 0, 0]), 4, join=True)
    by_table = {match.table: match for match in ranked}
    assert by_table["A"].distance_sum == pytest.approx(0.0, abs=1e-9)
    assert by_table["A"].matches[0][1] == "a0"
    assert set(by_table) >= {"A", "B", "C"}


def test_join_over_every_query_column_takes_the_best_pair(searcher):
    ranked = searcher.rank(
        pairs([0, 0, 0, 1], [0, 1, 0, 0]), 3, join=True, exclude_table="A"
    )
    by_table = {match.table: match for match in ranked}
    assert by_table["C"].matches[0][:2] == ("q0", "c1")
    assert by_table["B"].matches[0][:2] == ("q1", "b1")


def test_column_narrows_the_query(searcher):
    query = pairs([0, 0, 0, 1], [1, 0, 0, 0])
    narrowed = searcher.rank(query, 3, join=True, column="q1", exclude_table="A")
    alone = searcher.rank(query[1:], 3, join=True, exclude_table="A")
    assert narrowed == alone


def test_unknown_column_raises_key_error(searcher):
    with pytest.raises(KeyError, match="ghost"):
        searcher.rank(pairs([1, 0, 0, 0]), 3, join=True, column="ghost")


def test_empty_query_ranks_nothing(searcher):
    assert searcher.rank([], 3) == []
    assert searcher.rank([], 3, join=True, column="q0") == []


def test_rank_is_untruncated_within_the_candidate_pool(searcher):
    """Every table among the ``k * CANDIDATE_FACTOR`` nearest columns
    comes back — more than ``k`` — and nothing outside that pool."""
    ranked = searcher.rank(pairs([1, 0, 0, 0]), 1, join=True)
    assert len(ranked) == CANDIDATE_FACTOR == 3
    assert TableSearcher.candidate_factor == CANDIDATE_FACTOR


def test_rank2_breaks_ties_by_distance():
    s = TableSearcher(dim=2)
    s.add_table("near", ["n0"], np.array([[1.0, 0.02]]))
    s.add_table("far", ["f0"], np.array([[0.6, 0.8]]))
    ranked = s.rank(pairs([1.0, 0.0]), 2)
    assert ranked[0].table == "near"
    # Both matched 1 column; the tie broke on summed distance.
    assert ranked[0].n_matched == ranked[1].n_matched == 1
    assert ranked[0].distance_sum < ranked[1].distance_sum


def test_remove_table_incremental_matches_fresh_build():
    rng = np.random.default_rng(3)
    vectors = {f"t{i}": rng.normal(size=(3, 4)) for i in range(5)}

    mutated = TableSearcher(dim=4)
    fresh = TableSearcher(dim=4)
    for name, block in vectors.items():
        mutated.add_table(name, ["a", "b", "c"], block)
        if name != "t2":
            fresh.add_table(name, ["a", "b", "c"], block)
    assert mutated.remove_table("t2") == 3
    assert mutated.remove_table("t2") == 0
    assert "t2" not in mutated.table_names()
    assert mutated.n_tables == 4

    query = pairs(*rng.normal(size=(2, 4)))
    assert mutated.rank(query, 4) == fresh.rank(query, 4)
    assert mutated.rank(query, 4, join=True) == fresh.rank(query, 4, join=True)


def test_exclude_table_does_not_pollute_registry():
    searcher = TableSearcher(dim=2)
    searcher.add_table("only", ["a"], np.ones((1, 2)))
    searcher.rank(pairs([1.0, 1.0]), 1, exclude_table="ghost")
    assert searcher.table_names() == ["only"]


def test_answer_is_a_sequence_of_matches_fixed_at_rank_time(searcher):
    """``rank`` builds each ``TableMatch`` on read, from values it took when
    it ranked: reads agree with each other, and a later write to the index
    does not reach an answer already returned."""
    query = pairs([1, 0, 0, 0], [0, 1, 0, 0])
    answer = searcher.rank(query, 3)
    listed = list(answer)
    assert len(answer) == len(listed) == 4
    assert [answer[i] for i in range(len(answer))] == listed
    assert answer[-1] == listed[-1] and answer[1:3] == listed[1:3]
    assert answer == listed and answer == searcher.rank(query, 3)
    assert answer != listed[:2] and answer != searcher.rank(query, 3, join=True)
    with pytest.raises(IndexError):
        answer[len(listed)]
    searcher.add_table("B", ["b0"], np.array([[0, 0, 0, 1.0]]))
    searcher.remove_table("C")
    assert list(answer) == listed
    assert searcher.rank(query, 3) != listed

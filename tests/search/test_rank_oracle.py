"""``TableSearcher.rank`` checked against Fig. 6's own definition.

The digests pin today's answers; this pins what they are answers *to*.
:func:`fig6` is the paper's procedure written out as brute-force numpy —
no index:

- ``KNNSEARCH(c, k)``: the ``k * 3`` columns nearest to ``c`` among every
  column not in ``exclude_table``;
- ``COLUMNNEARTABLES``: each table among them at its closest column;
- union: ``NEARTABLES`` gathers those per table, ranked by RANK1 (most
  matched query columns) then RANK2 (smallest distance sum, in query
  column order);
- join: each table at its single closest pair over the query columns, the
  earlier query column on a tie.

Distances are the index's own definitions (cosine with its ``1e-12``
guards, euclidean). Vectors are drawn on small integer grids, so every dot
product and squared norm is exact and ties are exact; a narrow grid makes
duplicate vectors, zero vectors and equal distances common.

Where an exact tie straddles the ``k * 3`` cut, which of the tied columns
enter the pool is the implementation's choice; and where a table's closest
distance is shared by several of its columns, or several tables share a
rank key, the order among them is too. Those parts are checked as sets and
bounds; everything else — tables, ``n_matched``, evidence columns —
compares exactly, and distances to ``1e-12``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.search.tables import TableSearcher

DIM = 3
TOL = 1e-12
#: KNNSEARCH's over-fetch, as Fig. 6 states it.
OVER_FETCH = 3


def distances(query: np.ndarray, matrix: np.ndarray, metric: str) -> np.ndarray:
    """Every row of ``matrix`` against ``query``, one row at a time."""
    out = np.empty(len(matrix))
    query_norm = np.sqrt(np.dot(query, query))
    for i, row in enumerate(matrix):
        dot = np.dot(query, row)
        if metric == "cosine":
            denominator = np.sqrt(np.dot(row, row)) * (query_norm + 1e-12)
            out[i] = 1.0 - dot / (denominator if denominator != 0.0 else 1e-12)
        else:
            squared = np.dot(query, query) + np.dot(row, row) - 2.0 * dot
            out[i] = np.sqrt(max(squared, 0.0))
    return out


def column_near_tables(lake, query, k, exclude, metric):
    """KNNSEARCH + COLUMNNEARTABLES for one query column.

    Returns ``(certain, possible)``: table -> (distance, the table's columns
    at that distance). ``certain`` tables are in the pool whatever ties do;
    ``possible`` ones reach it only through columns tied at the cut, which
    the pool may take or leave.
    """
    entries = [
        (table, name, vector)
        for table, columns in lake.items()
        if table != exclude
        for name, vector in columns
    ]
    want = k * OVER_FETCH
    if not entries or want == 0:
        return {}, {}
    d = distances(query, np.array([v for _, _, v in entries], dtype=float), metric)
    ordered = np.sort(d)
    cut = ordered[want - 1] if want <= len(d) else np.inf
    ambiguous = want < len(d) and ordered[want] == cut
    certain: dict = {}
    possible: dict = {}
    for (table, name, _), distance in zip(entries, d):
        if distance < cut or (distance == cut and not ambiguous):
            found = certain
        elif distance == cut:
            found = possible
        else:
            continue
        best = found.get(table)
        if best is None or distance < best[0]:
            found[table] = (distance, {name})
        elif distance == best[0]:
            best[1].add(name)
    for table in certain:
        possible.pop(table, None)
    return certain, possible


def fig6(lake, pairs, k, join, exclude, metric):
    """Per query column ``(name, certain, possible)`` and, when no tie
    straddles a cut, the expected answer as ``(table, n_matched,
    distance_sum, [(query column, allowed table columns, distance)])``,
    sorted by the rank key (``None`` when a cut is tied)."""
    per_column = [
        (name, *column_near_tables(lake, vector, k, exclude, metric))
        for name, vector in pairs
    ]
    if any(possible for _, _, possible in per_column):
        return per_column, None
    found: dict = {}
    for name, certain, _ in per_column:
        for table, (distance, columns) in certain.items():
            found.setdefault(table, []).append((name, columns, distance))
    expected = []
    for table, matches in found.items():
        if join:
            best = min(matches, key=lambda match: match[2])  # first on a tie
            expected.append((table, 1, best[2], [best]))
        else:
            total = 0.0
            for _, _, distance in matches:
                total += distance
            expected.append((table, len(matches), total, matches))
    if join:
        expected.sort(key=lambda entry: entry[2])
    else:
        expected.sort(key=lambda entry: (-entry[1], entry[2]))
    return per_column, expected


def _key_close(a, b) -> bool:
    return a[0] == b[0] and abs(a[1] - b[1]) <= TOL


def check_exact(answer, expected):
    assert len(answer) == len(expected)
    by_table = {entry[0]: entry for entry in expected}
    keys = [(-entry[1], entry[2]) for entry in expected]
    start = 0
    while start < len(expected):  # a run of equal rank keys: any order
        end = start + 1
        while end < len(expected) and _key_close(keys[end], keys[start]):
            end += 1
        got = answer[start:end]
        assert {m.table for m in got} == {e[0] for e in expected[start:end]}
        for match in got:
            _, n_matched, distance_sum, matches = by_table[match.table]
            assert match.n_matched == n_matched
            assert abs(match.distance_sum - distance_sum) <= TOL
            assert len(match.matches) == len(matches)
            for (q, c, d), (name, columns, distance) in zip(match.matches, matches):
                assert q == name and c in columns
                assert abs(d - distance) <= TOL
        start = end


def check_bounds(answer, per_column, join):
    """What a tie at a cut cannot change."""
    reachable = set()
    for _, certain, possible in per_column:
        reachable |= certain.keys() | possible.keys()
    sure = set().union(*(certain.keys() for _, certain, _ in per_column))
    tables = [match.table for match in answer]
    assert len(set(tables)) == len(tables)
    assert sure <= set(tables) <= reachable
    columns = {name: (certain, possible) for name, certain, possible in per_column}
    order = [name for name, _, _ in per_column]
    for match in answer:
        for q, c, d in match.matches:
            certain, possible = columns[q]
            distance, allowed = certain.get(match.table) or possible[match.table]
            assert c in allowed and abs(d - distance) <= TOL
        seen = [q for q, _, _ in match.matches]
        assert seen == sorted(seen, key=order.index) and len(set(seen)) == len(seen)
        if join:
            assert match.n_matched == 1 and len(match.matches) == 1
            assert match.distance_sum == match.matches[0][2]
            assert all(
                match.distance_sum <= certain[match.table][0] + TOL
                for _, certain, _ in per_column
                if match.table in certain
            )
        else:
            assert match.n_matched == len(match.matches)
            assert abs(match.distance_sum - sum(d for _, _, d in match.matches)) <= TOL
            assert {q for q, _, _ in match.matches} >= {
                name for name, certain, _ in per_column if match.table in certain
            }
    keys = [
        (match.distance_sum,) if join else (-match.n_matched, match.distance_sum)
        for match in answer
    ]
    for before, after in zip(keys, keys[1:]):
        assert before[:-1] < after[:-1] or (
            before[:-1] == after[:-1] and before[-1] <= after[-1] + TOL
        )


@st.composite
def cases(draw):
    spread = draw(st.sampled_from([1, 2, 40]))
    vector = st.lists(st.integers(-spread, spread), min_size=DIM, max_size=DIM)
    lake = {
        f"t{table}": [
            (f"c{column}", draw(vector))
            for column in range(draw(st.integers(1, 4)))
        ]
        for table in range(draw(st.integers(1, 7)))
    }
    stored = [vector for columns in lake.values() for _, vector in columns]
    query = [
        (f"q{i}", draw(st.one_of(vector, st.sampled_from(stored))))
        for i in range(draw(st.integers(1, 3)))
    ]
    return {
        "lake": lake,
        "query": query,
        "k": draw(st.integers(0, 12)),  # 3k reaches past the 28-column cap
        "join": draw(st.booleans()),
        "column": draw(st.none() | st.sampled_from([name for name, _ in query])),
        "exclude": draw(st.none() | st.sampled_from([*lake, "absent"])),
        "metric": draw(st.sampled_from(["cosine", "euclidean"])),
    }


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_rank_matches_fig6(case):
    searcher = TableSearcher(DIM, metric=case["metric"])
    lake = {
        table: [(name, np.array(vector, dtype=float)) for name, vector in columns]
        for table, columns in case["lake"].items()
    }
    for table, columns in lake.items():
        searcher.add_table(
            table, [name for name, _ in columns], np.stack([v for _, v in columns])
        )
    pairs = [(name, np.array(vector, dtype=float)) for name, vector in case["query"]]
    answer = searcher.rank(
        pairs,
        case["k"],
        join=case["join"],
        column=case["column"],
        exclude_table=case["exclude"],
    )
    if case["column"] is not None:
        pairs = [pair for pair in pairs if pair[0] == case["column"]]
    per_column, expected = fig6(
        lake, pairs, case["k"], case["join"], case["exclude"], case["metric"]
    )
    check_bounds(answer, per_column, case["join"])
    if expected is not None:
        check_exact(answer, expected)

"""The containment index's slot postings answer like a dense scan.

:class:`~repro.search.containment.ContainmentIndex` keeps slot postings
over the row ids of a searcher's column table. It answers the rows whose
ids it posted from the postings, through the index's id -> row map, and
compares the rows whose ids were issued since the build densely; once the
writer renumbers its ids, the next query rebuilds the postings. A
Hypothesis state machine drives one
:class:`~repro.search.tables.TableSearcher` (signature slots, zero-width
vectors) through adds, same-width and width-changing replaces and removes
(absent names too), and removes of the first table right after a build,
which move every later row and must cause no rebuild; interleaved with
``rank`` (every column or one, member or not), ``rank_subsets`` and
``agreement`` queries, and a model beside it keeps the live columns as
plain rows. Every answer must equal :func:`_dense` and the answers built
from it here — the scan the index made before it had postings, row-major
over the model — bit for bit.

The draws cover ``num_perm`` 8, 16 and 32; slot values that collide (small
integers, values with equal high bits, and few buckets while the index is
small, so bucket collisions are common); all-empty signatures; many columns
sharing values, and exact copies; and the writer's renumbering threshold
patched to 3 (renumbers and rebuilds all the time) or left at its default
(256 new ids, so wide tables are drawn too). ``POSTED_ENTRY_CELLS`` is
patched to 0, so the postings answer every query they can, or left at its
default, under which these small indexes compare every row densely.
``derandomize`` fixes the draws.

Mutants this kills (each checked in a copy of the modules): a moved row's
id -> row entry not updated; a replaced row keeping its id; a dropped id
still answering (its map entry not cleared); the rows written since the
build not compared; the verification of bucket entries against the
matrix skipped; the dense compare of every row skipping the last row, its
per-slot pass reading one slot, or its broadcast comparing shifted slots;
and the choice between postings and the dense compare inverted or never
made (the lake tests at the end).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.lakebench import make_eurostat_subset_search
from repro.lakegen.generator import LakeSpec, generate_manifest, iter_tables
from repro.search import containment, index as index_module
from repro.search.containment import ContainmentIndex, JoinRows, join_rows
from repro.search.tables import CANDIDATE_FACTOR, TableSearcher
from repro.sketch.pipeline import SketchConfig, sketch_corpus

EMPTY = np.uint64(0xFFFFFFFFFFFFFFFF)
#: Slot values columns share: small integers, and values equal in their
#: high bits.
SHARED = np.array(
    [0, 1, 2, 3, (0xABC << 52) | 1, (0xABC << 52) | 2, 0xABC << 52],
    dtype=np.uint64,
)
#: Whole signatures some columns copy (first ``num_perm`` slots).
TEMPLATES = np.random.default_rng(17).integers(
    0, 2**63, size=(3, 32), dtype=np.uint64
)
NAMES = tuple(f"t{i}" for i in range(6))
NUM_PERM = 32
WIDTHS = st.one_of(st.integers(0, 4), st.sampled_from([64, 160]))


def _columns(seed: int, width: int, num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    """``width`` columns' signatures and sizes: each one all-empty (size
    0), a template's copy, or slot values drawn from the shared pool or
    fresh."""
    rng = np.random.default_rng(seed)
    signatures = rng.integers(0, 2**63, size=(width, num_perm), dtype=np.uint64)
    sizes = rng.integers(1, 40, size=width)
    kind = rng.integers(0, 4, size=width)
    for i in np.flatnonzero(kind == 1):
        signatures[i] = rng.choice(SHARED, size=num_perm)
    for i in np.flatnonzero(kind == 2):
        signatures[i] = TEMPLATES[rng.integers(len(TEMPLATES)), :num_perm]
    empty = rng.random(width) < 0.15
    signatures[empty] = EMPTY
    sizes[empty] = 0
    return signatures, sizes


def _join(table: str, seed: int, width: int, num_perm: int) -> JoinRows:
    signatures, sizes = _columns(seed, width, num_perm)
    return JoinRows(table, [f"c{i}" for i in range(width)], signatures, sizes)


def _write(searcher: TableSearcher, join: JoinRows) -> None:
    """``join``'s rows written through the one writer, with no vector."""
    searcher.add_table(
        join.table, join.columns, np.zeros((len(join.columns), 0)),
        join.signatures, join.sizes,
    )


def _index(joins, num_perm: int) -> ContainmentIndex:
    searcher = TableSearcher(0, num_perm=num_perm)
    for join in joins:
        _write(searcher, join)
    return ContainmentIndex(searcher)


# --------------------------------------------------------------------- #
# The dense scan
# --------------------------------------------------------------------- #
def _dense(model: dict[str, JoinRows], signatures: np.ndarray):
    """Every live column as ``(table, column)``, their sizes, and each
    query signature's agreeing-slot count with each: one compare of every
    query slot with every column."""
    keys = [(t, c) for t, join in model.items() for c in join.columns]
    num_perm = signatures.shape[1]
    rows = np.concatenate(
        [join.signatures for join in model.values()] + [np.empty((0, num_perm), np.uint64)]
    )
    sizes = np.concatenate(
        [join.sizes for join in model.values()] + [np.empty(0, np.int64)]
    )
    agree = (signatures[:, None, :] == rows[None, :, :]).sum(axis=2)
    return keys, sizes, agree


def _join_scores(agree, sizes, signature, size) -> np.ndarray:
    num_perm = len(signature)
    if size <= 0:
        return np.zeros(len(sizes))
    jaccard = agree / num_perm
    if (signature == EMPTY).all():
        jaccard[agree == num_perm] = 0.0
    estimate = jaccard * (size + sizes) / (size * (1.0 + jaccard))
    return np.minimum(estimate, 1.0)


def _top(model, signature, size, want, exclude=None) -> list:
    keys, sizes, [agree] = _dense(model, signature[None, :])
    scores = _join_scores(agree, sizes, signature, size)
    pool = sorted(
        (-score, t, c)
        for (t, c), score in zip(keys, scores.tolist())
        if score > 0.0 and t != exclude
    )
    return [(-negated, t, c) for negated, t, c in pool[:want]]


def _rank(model, query: JoinRows, k, column=None, exclude=None) -> list:
    best: dict = {}
    for name, signature, size in zip(query.columns, query.signatures, query.sizes):
        if column not in (None, name):
            continue
        for score, table, candidate in _top(
            model, signature, int(size), k * CANDIDATE_FACTOR, exclude
        ):
            if table not in best or score > best[table][0]:
                best[table] = (score, name, candidate)
    ranked = sorted(best.items(), key=lambda item: (-item[1][0], item[0]))
    return [(table, *entry) for table, entry in ranked]


def _subsets(model, query: JoinRows, exclude=None) -> list:
    keys, sizes, agree = _dense(model, query.signatures)
    jaccard = agree / query.signatures.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = jaccard * (sizes + query.sizes[:, None]) / (sizes * (1.0 + jaccard))
    estimate[:, sizes <= 0] = 0.0
    estimate = np.minimum(estimate, 1.0)
    found = {}
    for key, values in zip(keys, estimate.T.tolist()):
        best = max(values, default=0.0)
        if best > 0.0:
            found[key] = (best, values.index(best))
    ranked = []
    for table, join in model.items():
        hits = [(c, found[table, c]) for c in join.columns if (table, c) in found]
        if table == exclude or not hits:
            continue
        total = distance_sum = 0.0
        for _, (value, _) in hits:
            total += value
            distance_sum += 1.0 - value
        matches = tuple(
            (query.columns[asked], c, 1.0 - value) for c, (value, asked) in hits
        )
        ranked.append((-(total / len(join.columns)), table, distance_sum, matches))
    ranked.sort(key=lambda entry: entry[:2])
    return [(table, -negated, d, m) for negated, table, d, m in ranked]


# --------------------------------------------------------------------- #
# The machine
# --------------------------------------------------------------------- #
def _machine():
    class Postings(RuleBasedStateMachine):
        @initialize(
            num_perm=st.sampled_from([8, 16, 32]),
            tables=st.lists(
                st.tuples(st.integers(0, 2**16), WIDTHS), min_size=2, max_size=len(NAMES)
            ),
        )
        def start(self, num_perm, tables):
            self.num_perm = num_perm
            self.index = _index((), num_perm)
            self.searcher = self.index.searcher
            self.model: dict[str, JoinRows] = {}
            self.builds = 0
            build = self.index._build

            def counted_build():
                self.builds += 1
                build()

            self.index._build = counted_build
            for name, (seed, width) in zip(NAMES, tables):
                self._write(_join(name, seed, width, num_perm))

        def _write(self, join: JoinRows) -> None:
            _write(self.searcher, join)
            # A replaced table keeps its place in the model: no answer
            # may depend on where its rows went.
            self.model[join.table] = join
            assert len(self.index) == sum(len(j.columns) for j in self.model.values())

        @rule(name=st.sampled_from(NAMES), seed=st.integers(0, 2**16), width=WIDTHS)
        def add(self, name, seed, width):
            if name not in self.model:
                self._write(_join(name, seed, width, self.num_perm))

        @rule(
            data=st.data(),
            seed=st.integers(0, 2**16),
            width=WIDTHS,
            same_width=st.booleans(),
        )
        def replace(self, data, seed, width, same_width):
            if not self.model:
                return
            name = data.draw(st.sampled_from(sorted(self.model)))
            if same_width:
                width = len(self.model[name].columns)
            self._write(_join(name, seed, width, self.num_perm))

        @rule(data=st.data())
        def remove(self, data):
            name = data.draw(st.sampled_from([*sorted(self.model), "absent"]))
            gone = self.model.pop(name, None)
            assert self.searcher.remove_table(name) == (
                len(gone.columns) if gone is not None else 0
            )
            assert len(self.index) == sum(len(j.columns) for j in self.model.values())

        @rule(data=st.data(), k=st.sampled_from([1, 2, 50]))
        def remove_the_first_table_after_a_build(self, data, k):
            """A remove moves every later row up; the postings keep their
            ids, so answers need no rebuild."""
            keys = self.searcher.index.row_keys
            if not keys:
                return
            self.index._build()
            builds = self.builds
            name = keys[0].table
            gone = self.model.pop(name)
            assert self.searcher.remove_table(name) == len(gone.columns)
            self.rank(data, k)
            self.subsets(data)
            assert self.builds == builds

        def _query(self, data) -> tuple[JoinRows, str | None]:
            """A member's own rows, excluded from its answer or not (then
            every non-empty column finds itself), or a fresh table's."""
            kind = data.draw(st.sampled_from(["member", "copy", "fresh"]))
            if kind == "fresh" or not self.model:
                seed = data.draw(st.integers(0, 2**16))
                width = data.draw(st.integers(0, 4))
                return _join("query", seed, width, self.num_perm), None
            name = data.draw(st.sampled_from(sorted(self.model)))
            return self.model[name], name if kind == "member" else None

        @rule(data=st.data(), k=st.sampled_from([1, 2, 50]))
        def rank(self, data, k):
            query, exclude = self._query(data)
            column = data.draw(st.sampled_from([None, *query.columns]))
            ranked = self.index.rank(query, k, column=column, exclude_table=exclude)
            assert [
                (m.table, m.containment, m.query_column, m.column) for m in ranked
            ] == _rank(self.model, query, k, column, exclude)

        @rule(data=st.data())
        def subsets(self, data):
            query, exclude = self._query(data)
            # The lookup itself: each agreeing row once, with the counts
            # the dense scan gives it.
            rows, counts = self.index.agreement(query.signatures)
            assert len(set(rows.tolist())) == rows.size
            _, _, agree = _dense(self.model, query.signatures)
            assert sorted(map(tuple, counts.T.tolist())) == sorted(
                map(tuple, agree[:, agree.any(axis=0)].T.tolist())
            )
            ranked = self.index.rank_subsets(query, exclude_table=exclude)
            assert [
                (m.table, m.containment, m.distance_sum, m.matches) for m in ranked
            ] == _subsets(self.model, query, exclude)

    return Postings


def count_lookups(monkeypatch) -> dict:
    """Count the postings' builds and which lookup answers each query:
    the postings, the dense compare of the rows written since the build
    beside them, or the dense compare of every row."""
    seen = {"builds": 0, "posted": 0, "written": 0, "dense": 0}
    build, posted, compare = (
        ContainmentIndex._build, ContainmentIndex._posted, ContainmentIndex._compare
    )

    def counted_build(self):
        seen["builds"] += 1
        build(self)

    def counted_posted(self, *args):
        seen["posted"] += 1
        return posted(self, *args)

    def counted_compare(self, signatures, rows=None):
        if rows is not None:
            seen["written"] += 1
        elif len(self) and len(signatures):
            seen["dense"] += 1
        return compare(self, signatures, rows)

    monkeypatch.setattr(ContainmentIndex, "_build", counted_build)
    monkeypatch.setattr(ContainmentIndex, "_posted", counted_posted)
    monkeypatch.setattr(ContainmentIndex, "_compare", counted_compare)
    return seen


@pytest.mark.parametrize(
    "threshold, cells",
    [(3, 0), (None, 0), (None, None)],
    ids=["rebuild-at-3", "postings", "default"],
)
def test_postings_answer_like_a_dense_scan(threshold, cells, monkeypatch):
    seen = count_lookups(monkeypatch)
    if threshold is not None:
        monkeypatch.setattr(index_module, "REBUILD_DIRTY_ROWS", threshold)
    if cells is not None:
        monkeypatch.setattr(containment, "POSTED_ENTRY_CELLS", cells)
    run_state_machine_as_test(
        _machine(),
        settings=settings(
            max_examples=40, stateful_step_count=30, deadline=None, derandomize=True
        ),
    )
    assert seen["builds"], seen
    if cells == 0:
        # Postings answered every query, beside the rows written since.
        assert seen["posted"] and seen["written"] and not seen["dense"], seen
    else:
        # At under a thousand rows a bucket holds more than a 128th of
        # them, so the dense compare of every row answers.
        assert seen["dense"] and not seen["posted"], seen


def test_postings_fit_the_memory_budget():
    """At 10k columns and 32 slots the postings hold ``uint16`` ids and
    ``int32`` offsets, ~8-16 rows a bucket: under 0.8 MB."""
    index = _index((_join(f"t{t}", t, 10, 32) for t in range(1_000)), 32)
    index.agreement(np.zeros((1, 32), dtype=np.uint64))
    assert index._built == 10_000
    assert index._post_ids.size == 32 * 10_000
    assert index._post_ids.dtype == np.uint16
    assert index._post_offsets.dtype == np.int32
    buckets = index._post_offsets.shape[1] - 1
    assert 8 <= 10_000 / buckets <= 16
    assert index._post_ids.nbytes + index._post_offsets.nbytes <= 800_000


def _member_queries(joins: list[JoinRows], monkeypatch) -> tuple[dict, list]:
    """Every third table's member join on its first column and member
    subset, through one index of every table; which lookup answered, and
    the answers."""
    index = _index(joins, NUM_PERM)
    seen = count_lookups(monkeypatch)
    answers = [
        (
            index.rank(join, 10, column=join.columns[0], exclude_table=join.table),
            index.rank_subsets(join, exclude_table=join.table),
        )
        for join in joins[::3]
    ]
    seen = dict(seen)
    # The same index with the postings answering every query they can.
    monkeypatch.setattr(containment, "POSTED_ENTRY_CELLS", 0)
    assert answers == [
        (
            index.rank(join, 10, column=join.columns[0], exclude_table=join.table),
            index.rank_subsets(join, exclude_table=join.table),
        )
        for join in joins[::3]
    ]
    return seen, answers


def _lake_joins(tables) -> list[JoinRows]:
    config = SketchConfig(num_perm=NUM_PERM, seed=1)
    return [join_rows(s) for s in sketch_corpus(tables, config, config.build_hasher())]


def test_a_generated_lake_reads_postings(monkeypatch):
    """lakegen keeps each table's values apart, so a member query's
    buckets hold ~9-16 rows of its slot, under a 128th of a 4k-column
    lake's, and the postings answer every one of them."""
    tables = list(iter_tables(generate_manifest(LakeSpec(columns=4000, seed=7))))
    seen, answers = _member_queries(_lake_joins(tables), monkeypatch)
    assert seen["posted"] == 2 * len(answers) and not seen["dense"], seen
    assert sum(bool(join) for join, _ in answers) > len(answers) // 4


def test_a_shared_domain_lake_compares_densely_where_buckets_fill(monkeypatch):
    """Eurostat's columns share domains (years, country codes, units), so
    many rows agree in a slot and a query's buckets fill: at 2.3k columns
    most queries' buckets hold more than a 128th of the cells and compare
    every row densely, the rest still read postings, and both answer as
    the postings alone do."""
    tables = list(make_eurostat_subset_search(scale=3.0).tables.values())
    seen, answers = _member_queries(_lake_joins(tables), monkeypatch)
    assert seen["posted"] and seen["dense"] > len(answers) // 10, seen
    assert sum(bool(subset) for _, subset in answers) > len(answers) // 2

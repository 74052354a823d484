"""A warm open serves the index the closed catalog served, row for row.

The index is never persisted: :meth:`LakeStore.load_index` assembles it,
one index at any shard count, from the tables' stored ``column_vectors`` in
global insertion order, and the live index keeps that order (an update or
refresh replaces a table's rows where they stand). Exact distance ties
break by row order, so anything less than row-for-row equality can change
an answer. A Hypothesis
state machine drives a catalog through adds, updates, appends, refreshes,
removes, reopens and reshards (1 <-> 4 shards); tables with identical
contents under different names make exact ties. Each example first
appends to a table of its fullest shard until that shard's manifest
compacts, folding the journal lines written before, and the lake is small
enough that more compactions follow. Archives hold at most two tables here
(the ``small_archives`` fixture), so the seeded tables, bulk adds and
reshards span several shared archives that updates, appends and removes then thin
out. After every reopen and every reshard the index's keys and vector
bytes equal the live ones, and so do the answers in all three modes, the
join answers on every column and every member's whole subset answer; after
every reshard the index also equals a cold rebuild of the same records; and
after every step the archives on disk are exactly those live entries name,
and each record's ``values_sig`` / ``n_values`` are its rows of the column
table. "The index" is that whole table: keys, vectors, signature slots and
sizes, compared in bytes.
"""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.lake import store as store_module
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeShard, LakeStore
from repro.search.tables import ColumnEntry, TableSearcher
from repro.table.schema import table_from_rows

NAMES = tuple("abcdefghijkl")
#: Tables every example starts from, so each shard holds a few entries: its
#: manifest then journals a write or two before one compacts.
SEEDED = NAMES[:8]
#: Contents by variant; the same variant under two names is two tables with
#: the same vectors. Variant 2 is wider, so an update can change a table's
#: row count in the index.
HEADERS = {0: ["entity", "count"], 1: ["entity", "count"], 2: ["entity", "count", "tag"]}


def _table(name: str, variant: int):
    header = HEADERS[variant]
    rows = [
        [f"v{variant}r{r}", str(r * (variant + 2)), f"tag{r % 3}"][: len(header)]
        for r in range(6 + 2 * variant)
    ]
    return table_from_rows(name, header, rows, description=f"variant {variant}")


def _answers(catalog: LakeCatalog) -> dict:
    """Every member's hits in every mode, stale vectors allowed (a strict
    query would refresh, which is a write)."""
    service = LakeService(catalog, cache_size=0)
    return {
        (mode, name): service.discover(
            DiscoveryRequest(mode=mode, k=4, table=name, allow_stale=True)
        ).hits
        for name in catalog.table_names()
        for mode in ("join", "union", "subset")
    }


def _joins(catalog: LakeCatalog) -> dict:
    """Every member's join hits on each of its columns: the containment scan
    over the stored signatures, which no shard count or row order moves."""
    service = LakeService(catalog, cache_size=0)
    return {
        (name, column): service.discover(DiscoveryRequest(
            mode="join", k=4, table=name, column=column, allow_stale=True,
        )).hits
        for name, record in catalog.records.items()
        for column in record.column_names
    }


def _subsets(catalog: LakeCatalog) -> dict:
    """Every member's whole subset answer: the containment scan over the
    stored signatures, which no shard count or row order moves."""
    service = LakeService(catalog, cache_size=0)
    return {
        name: service.discover(DiscoveryRequest(
            mode="subset", k=len(NAMES), table=name, allow_stale=True,
        )).hits
        for name in catalog.records
    }


def _assert_same_index(live: TableSearcher, warm: TableSearcher) -> None:
    assert warm.index.keys() == live.index.keys()
    assert warm.index._matrix().tobytes() == live.index._matrix().tobytes()
    assert warm.index.signatures.tobytes() == live.index.signatures.tobytes()
    assert warm.index.sizes.tobytes() == live.index.sizes.tobytes()


def _assert_like_a_cold_rebuild(warm: LakeCatalog) -> None:
    """The index of ``warm`` is the one adding its records, in order, to a
    fresh searcher builds, and ranks the same: with and without ``join``,
    which is what tells the three modes' hits apart."""
    cold = TableSearcher(warm.dim, num_perm=warm.sketch_config.num_perm)
    for record in warm.records.values():
        join = record.join_rows()
        cold.add_table(
            record.name, record.column_names, record.column_vectors,
            join.signatures, join.sizes,
        )
    _assert_same_index(cold, warm.searcher)
    for record in warm.records.values():
        pairs = record.vector_pairs()
        for join in (False, True):
            assert warm.searcher.rank(
                pairs, 4, join=join, exclude_table=record.name
            ) == cold.rank(pairs, 4, join=join, exclude_table=record.name)


def _records(catalog: LakeCatalog) -> dict:
    return {
        name: (
            record.version,
            record.n_rows,
            record.embedding_stale,
            record.column_vectors.tobytes(),
        )
        for name, record in catalog.records.items()
    }


def test_a_reopened_catalog_serves_the_live_index(
    tmp_path, lake_embedder, monkeypatch, small_archives, archives_live
):
    commits = {"journal": 0, "compaction": 0, "folding": 0, "shared": 0}
    compact = LakeShard._compact
    append_journal = store_module._append_journal

    def counted_compact(self):
        commits["compaction"] += 1
        commits["folding"] += self._journal_bytes > 0
        compact(self)

    def counted_append(path, line, keep):
        commits["journal"] += 1
        append_journal(path, line, keep)

    monkeypatch.setattr(LakeShard, "_compact", counted_compact)
    monkeypatch.setattr(store_module, "_append_journal", counted_append)

    class Lake(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.root = tempfile.mkdtemp(dir=tmp_path)
            self.catalog = LakeCatalog(lake_embedder, store=LakeStore(self.root, "fp"))
            self.catalog.add_tables(
                {name: _table(name, i % len(HEADERS)) for i, name in enumerate(SEEDED)}
            )

        @initialize()
        def fold_a_journal(self):
            """Append to a table of the fullest shard until its manifest
            compacts over journal lines, so every run folds a journal
            whatever the rules draw after. (A one-table shard journals
            nothing: each line would outgrow its base.)"""
            shard = max(self.catalog.store.shards, key=lambda s: len(s.entries()))
            name = shard.entries()[0]["name"]
            width = len(self.catalog.records[name].column_names)
            folded = commits["folding"]
            for _ in range(64):
                self.catalog.append_rows(name, [["late", "0", "tag9"][:width]])
                if commits["folding"] > folded:
                    return
            raise AssertionError(f"shard {shard.shard_id} never folded its journal")

        @rule(name=st.sampled_from(NAMES), variant=st.sampled_from(sorted(HEADERS)))
        def add(self, name, variant):
            if name not in self.catalog:
                self.catalog.add_table(_table(name, variant))

        @rule(
            names=st.lists(st.sampled_from(NAMES), min_size=2, max_size=5, unique=True),
            variant=st.sampled_from(sorted(HEADERS)),
        )
        def add_many(self, names, variant):
            self.catalog.add_tables(
                {
                    name: _table(name, variant)
                    for name in names
                    if name not in self.catalog
                }
            )

        @rule(name=st.sampled_from(NAMES), variant=st.sampled_from(sorted(HEADERS)))
        def update(self, name, variant):
            if name in self.catalog:
                self.catalog.update_table(_table(name, variant))

        @rule(name=st.sampled_from(NAMES), rows=st.integers(1, 3))
        def append(self, name, rows):
            if name in self.catalog:
                width = len(self.catalog.records[name].column_names)
                self.catalog.append_rows(
                    name, [[f"late{r}", str(r), "tag9"][:width] for r in range(rows)]
                )

        @rule()
        def refresh(self):
            self.catalog.refresh_stale()

        @rule(name=st.sampled_from(NAMES))
        def remove(self, name):
            self.catalog.remove_table(name)

        def _warm(self) -> LakeCatalog:
            warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(self.root))
            assert warm.searcher.insertions == 0 and warm.embed_calls == 0
            assert warm.table_names() == self.catalog.table_names()
            assert _records(warm) == _records(self.catalog)
            return warm

        @invariant()
        def archives_are_live(self):
            """The archives on disk are exactly those live entries name."""
            archives_live(self.catalog.store)
            commits["shared"] += any(
                "slot" in entry
                for shard in self.catalog.store.shards
                for entry in shard.entries()
            )

        @invariant()
        def rows_hold_the_records(self):
            """Each record's signature rows and sizes are its rows of the
            column table, in column order."""
            searcher = self.catalog.searcher
            index = searcher.index
            for name, record in self.catalog.records.items():
                rows = searcher.rows(name)
                assert index.row_keys[rows.start:rows.stop] == [
                    ColumnEntry(name, column) for column in record.column_names
                ]
                signatures = index.signatures[:, rows.start:rows.stop].T
                assert signatures.tobytes() == record.members["values_sig"].tobytes()
                sizes = index.sizes[rows.start:rows.stop]
                assert sizes.tobytes() == record.members["n_values"].tobytes()

        @rule()
        def reopen(self):
            warm = self._warm()
            _assert_same_index(self.catalog.searcher, warm.searcher)
            assert _answers(warm) == _answers(self.catalog)
            assert _joins(warm) == _joins(self.catalog)
            assert _subsets(warm) == _subsets(self.catalog)
            self.catalog = warm

        @rule()
        def reshard(self):
            n_shards = 4 if self.catalog.n_shards == 1 else 1
            answers = _answers(self.catalog)
            joins, subsets = _joins(self.catalog), _subsets(self.catalog)
            self.catalog.store.reshard(n_shards, "fp")
            warm = self._warm()
            assert warm.n_shards == n_shards
            _assert_same_index(self.catalog.searcher, warm.searcher)
            _assert_like_a_cold_rebuild(warm)
            assert _answers(warm) == answers
            assert _joins(warm) == joins
            assert _subsets(warm) == subsets
            self.catalog = warm

    run_state_machine_as_test(
        Lake,
        settings=settings(
            max_examples=30,
            stateful_step_count=15,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        ),
    )
    assert commits["journal"] and commits["folding"] and commits["shared"], commits

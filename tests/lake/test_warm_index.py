"""A warm open serves the index the closed catalog served, row for row.

The index is never persisted: :meth:`LakeStore.load_index` assembles each
shard's from the tables' stored ``column_vectors`` in global insertion
order, and the live index keeps that order (an update or refresh replaces a
table's rows where they stand). Exact distance ties break by row order, so
anything less than row-for-row equality can change an answer. A Hypothesis
state machine drives a catalog through adds, updates, appends, refreshes,
removes and reopens; tables with identical contents under different names
make exact ties. After every reopen each sub-index's keys and vector bytes
equal the live ones, and so do the answers in all three modes.
"""

from __future__ import annotations

import tempfile

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.table.schema import table_from_rows

NAMES = ("a", "b", "c", "d", "e")
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


def _assert_same_index(live: LakeCatalog, warm: LakeCatalog) -> None:
    assert len(live.searcher.index.subs) == len(warm.searcher.index.subs)
    for live_sub, warm_sub in zip(live.searcher.index.subs, warm.searcher.index.subs):
        assert warm_sub.keys() == live_sub.keys()
        assert (
            warm_sub.state_arrays()[0]["vectors"].tobytes()
            == live_sub.state_arrays()[0]["vectors"].tobytes()
        )


def test_a_reopened_catalog_serves_the_live_index(tmp_path, lake_embedder):
    class Lake(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.root = tempfile.mkdtemp(dir=tmp_path)
            self.catalog = LakeCatalog(lake_embedder, store=LakeStore(self.root, "fp"))

        @rule(name=st.sampled_from(NAMES), variant=st.sampled_from(sorted(HEADERS)))
        def add(self, name, variant):
            if name not in self.catalog:
                self.catalog.add_table(_table(name, variant))

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

        @rule()
        def reopen(self):
            warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(self.root))
            assert warm.searcher.insertions == 0 and warm.embed_calls == 0
            assert warm.table_names() == self.catalog.table_names()
            _assert_same_index(self.catalog, warm)
            assert _answers(warm) == _answers(self.catalog)
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

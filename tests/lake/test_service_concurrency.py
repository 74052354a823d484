"""Concurrency stress tier for `LakeService`.

Hammers one service from ~8 threads mixing ``discover`` / ``add_table`` /
``remove_table`` / ``stats`` and asserts the three properties the
docstrings promise:

- **no exceptions** escape any worker;
- **no lost updates** — the final table set equals the ledger of applied
  operations (each worker owns a private name space, so the expected set
  is exact, not probabilistic);
- **the LRU query cache never serves vectors for a removed table** — a
  member query after its remove raises ``not-found`` instead of answering
  from stale state, and removed tables never reappear in later rankings.

Runs at 1 and at 4 shards (the directory's ``lake_layout_shards``
fixture), with a store attached, so the per-shard persistence path is
exercised under the same lock discipline; a final warm reload must
reproduce the exact ledger state from disk.
"""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.lake.api import DiscoveryError, DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.table.schema import Table

N_THREADS = 8
TABLES_PER_THREAD = 5


def _ranked(service, query, mode="union", k=10, column=None) -> list[str]:
    """Ranked table names for a member name or an external ``Table``."""
    named = {"payload": query} if isinstance(query, Table) else {"table": query}
    request = DiscoveryRequest(mode=mode, k=k, column=column, **named)
    return service.discover(request).tables()


def _worker_tables(lake_tables, thread_id: int) -> dict:
    """A private, disjoint namespace of tables for one worker thread."""
    sources = list(lake_tables.values())
    tables = {}
    for i in range(TABLES_PER_THREAD):
        source = sources[(thread_id + i) % len(sources)]
        name = f"w{thread_id}t{i}"
        tables[name] = source.with_columns(source.columns, name=name)
    return tables


def test_concurrent_mixed_ops_no_lost_updates(tmp_path, lake_embedder, lake_tables):
    store = LakeStore(tmp_path, "fp")
    service = LakeService(LakeCatalog(lake_embedder, store=store))
    service.add_tables(lake_tables)  # stable base corpus nobody mutates
    base_names = set(lake_tables)

    errors: list[tuple[int, BaseException]] = []
    kept_ledger: list[set] = [set() for _ in range(N_THREADS)]
    removed_ledger: list[set] = [set() for _ in range(N_THREADS)]
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_id: int) -> None:
        mine = _worker_tables(lake_tables, thread_id)
        try:
            barrier.wait()
            for i, (name, table) in enumerate(mine.items()):
                service.add_table(table)
                results = _ranked(service, name, mode="union", k=5)
                assert name not in results, "leave-one-out must hold"
                if i % 2 == 0:
                    assert service.remove_table(name)
                    removed_ledger[thread_id].add(name)
                    # The cache must not serve vectors for a removed
                    # member: querying it by name fails loudly.
                    try:
                        _ranked(service, name, mode="union", k=3)
                    except DiscoveryError as exc:
                        assert exc.code == "not-found"
                    else:
                        raise AssertionError(
                            f"removed table {name!r} still answered a "
                            "member query (stale cached vectors)"
                        )
                else:
                    kept_ledger[thread_id].add(name)
                # External probes exercise the shared LRU under contention
                # (embedding runs outside the service lock by design).
                probe = table.with_columns(table.columns, name=f"probe{thread_id}")
                _ranked(service, probe, mode="union", k=3)
                stats = service.stats()
                assert stats["n_tables"] >= len(base_names)
        except BaseException as exc:  # noqa: BLE001 — collected for report
            errors.append((thread_id, exc))

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, f"workers raised: {errors!r}"

    expected = base_names | set().union(*kept_ledger)
    removed = set().union(*removed_ledger)
    catalog = service.catalog
    assert set(catalog.table_names()) == expected, "lost/phantom updates"
    assert set(catalog.searcher.table_names()) == expected

    # Removed tables are gone from every answer path: member queries fail,
    # and no surviving table's ranking mentions them.
    for name in removed:
        with pytest.raises(DiscoveryError, match="not in catalog") as excinfo:
            _ranked(service, name, mode="union", k=3)
        assert excinfo.value.code == "not-found"
    for name in sorted(expected)[: len(base_names)]:
        for mode in ("join", "union", "subset"):
            hits = _ranked(service, name, mode=mode, k=len(expected))
            assert not (set(hits) & removed)

    # The ledger survived to disk: a warm reload reproduces it exactly,
    # without re-embedding or re-inserting anything.
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(tmp_path))
    assert warm.embed_calls == 0
    assert warm.searcher.insertions == 0
    assert set(warm.table_names()) == expected


def test_concurrent_queries_during_sequential_mutations(
    lake_embedder, lake_tables
):
    """Readers racing one mutator thread see only fully-applied states:
    every answer is the pre- or post-mutation ranking, never a torn one."""
    service = LakeService(LakeCatalog(lake_embedder))
    service.add_tables(lake_tables)
    victim = list(lake_tables)[0]
    others = [name for name in lake_tables if name != victim]
    before = {name: _ranked(service, name, mode="union", k=4) for name in others}

    service.remove_table(victim)
    after = {name: _ranked(service, name, mode="union", k=4) for name in others}
    service.add_table(lake_tables[victim])

    valid = {name: (before[name], after[name]) for name in others}
    errors: list = []
    stop = threading.Event()

    def reader() -> None:
        try:
            while not stop.is_set():
                for name in others:
                    result = _ranked(service, name, mode="union", k=4)
                    assert result in valid[name], (name, result)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def mutator() -> None:
        try:
            for _ in range(10):
                service.remove_table(victim)
                service.add_table(lake_tables[victim])
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads.append(threading.Thread(target=mutator))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"raced: {errors!r}"


def test_span_trees_stay_per_thread_under_contention(
    lake_embedder, lake_tables
):
    """8 threads querying one service concurrently: every thread's
    ``lake.discover`` span tree holds exactly its own stages (contextvar
    isolation), every child finished before its root, and the response's
    ``Timings`` is the projection of that thread's tree — never a blend
    of another worker's clock."""
    service = LakeService(LakeCatalog(lake_embedder))
    service.add_tables(lake_tables)
    names = list(lake_tables)

    errors: list = []
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_id: int) -> None:
        try:
            barrier.wait()
            for i in range(6):
                name = names[(thread_id + i) % len(names)]
                with obs.span(f"harness.t{thread_id}") as root:
                    result = service.discover(
                        DiscoveryRequest(mode="union", k=4, table=name)
                    )
                # Parent/child invariants on this thread's tree only.
                assert [c.name for c in root.children] == ["lake.discover"]
                discover = root.children[0]
                assert root.duration_ms >= discover.duration_ms > 0.0
                child_names = {c.name for c in discover.children}
                assert child_names <= {"lake.sketch", "lake.embed", "lake.index"}
                for child in discover.children:
                    assert child.duration_ms is not None
                    assert child.duration_ms <= discover.duration_ms
                # Timings is a projection of *this* tree, byte-identical.
                timings = result.timings
                assert timings.total_ms == discover.duration_ms
                assert timings.sketch_ms == discover.child_sum("lake.sketch")
                assert timings.embed_ms == discover.child_sum("lake.embed")
                assert timings.index_ms == discover.child_sum("lake.index")
        except BaseException as exc:  # noqa: BLE001 — collected for report
            errors.append((thread_id, exc))

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"workers raised: {errors!r}"

"""The served join ranks by containment over the stored MinHash signatures.

``LakeService`` answers ``mode="join"`` from the catalog's
:class:`~repro.search.containment.ContainmentIndex`: a member's stored
``values_minhash`` / ``n_values``, or a payload's, sketched in the batch's
one pass and never embedded. The oracle is
:func:`repro.sketch.minhash.estimate_containment` over the records'
sketches, pair by pair. The order depends on content only (containment,
then table name, then column name), so it is the same at every shard count,
after a warm open and under any insertion order; an append is joined at
once, with no forward, exactly as a cold ingest of the same rows. The
index reads the catalog's column table, which every write keeps as a
rebuild from the records would be.
"""

from __future__ import annotations

import numpy as np

from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.lakebench import make_wiki_join_search
from repro.search.containment import ContainmentIndex
from repro.search.tables import CANDIDATE_FACTOR, TableSearcher
from repro.sketch.minhash import estimate_containment
from repro.table.schema import table_from_rows


def _oracle(catalog: LakeCatalog, query, exclude: str | None, k: int) -> list:
    """``(table, containment, table column)`` of the top ``k`` tables for
    one query column sketch, from every record's sketch pair by pair."""
    scored = sorted(
        (
            -estimate_containment(
                query.values_minhash, column.values_minhash,
                query.n_values, column.n_values,
            ),
            name,
            column.name,
        )
        for name, record in catalog.records.items()
        if name != exclude
        for column in record.sketch.column_sketches
    )
    pool = [entry for entry in scored if entry[0] < 0.0][: k * CANDIDATE_FACTOR]
    best: dict = {}
    for negated, name, column in pool:
        best.setdefault(name, (name, -negated, column))
    return list(best.values())[:k]


def _scored(result) -> list:
    return [(hit.table, hit.score, hit.matches[0].table_column) for hit in result.hits]


def _join(service, k=10, **fields) -> list:
    return _scored(service.discover(DiscoveryRequest(mode="join", k=k, **fields)))


def _catalog(embedder, tables, store, n_shards) -> LakeCatalog:
    catalog = LakeCatalog(embedder, store=store, n_shards=n_shards)
    catalog.add_tables(dict(tables))
    return catalog


def _all_joins(catalog: LakeCatalog, k: int = 4) -> dict:
    """Every member's join answer on each of its columns and on all of
    them, stale sketches allowed (a strict query would refresh)."""
    service = LakeService(catalog, cache_size=0)
    return {
        (name, column): [
            (hit.table, hit.score, hit.matches)
            for hit in service.discover(DiscoveryRequest(
                mode="join", k=k, table=name, column=column, allow_stale=True,
            )).hits
        ]
        for name, record in catalog.records.items()
        for column in [None, *record.column_names]
    }


def test_served_join_is_the_containment_oracle(cold_catalog):
    service = LakeService(cold_catalog)
    for name, record in cold_catalog.records.items():
        for query in record.sketch.column_sketches:
            result = service.discover(DiscoveryRequest(
                mode="join", k=5, table=name, column=query.name,
            ))
            assert _scored(result) == _oracle(cold_catalog, query, name, 5)
            for hit in result.hits:
                [match] = hit.matches
                assert match.query_column == query.name
                assert hit.n_matched_columns == 1
                assert match.distance == hit.distance_sum == 1.0 - hit.score
                assert 0.0 < hit.score <= 1.0


def test_wiki_join_is_served_as_the_oracle_ranks_it(lake_embedder):
    """The paper's join set: every query, as a member, ranks as the
    containment oracle over the stored sketches does."""
    benchmark = make_wiki_join_search(scale=0.3)
    catalog = LakeCatalog(lake_embedder)
    catalog.add_tables(benchmark.tables)
    service = LakeService(catalog)
    for query in benchmark.queries:
        record = catalog.records[query.table]
        [sketch] = [
            c for c in record.sketch.column_sketches if c.name == query.column
        ]
        assert _join(service, table=query.table, column=query.column) == (
            _oracle(catalog, sketch, query.table, 10)
        )


def test_join_order_is_content_only(tmp_path, lake_embedder, lake_tables):
    """At 1 and 4 shards, live and after a warm open, inserted in any
    order: the same join answers, hit for hit."""
    expected = _all_joins(_catalog(lake_embedder, lake_tables, None, 1))
    rng = np.random.default_rng(11)
    for n_shards in (1, 4):
        names = [list(lake_tables)[i] for i in rng.permutation(len(lake_tables))]
        root = tmp_path / f"lake{n_shards}"
        live = _catalog(
            lake_embedder, {name: lake_tables[name] for name in names},
            LakeStore(root, "fp", n_shards=n_shards), None,
        )
        assert _all_joins(live) == expected
        warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(root))
        assert warm.embed_calls == 0
        assert _all_joins(warm) == expected


def test_an_append_is_joined_at_once_as_a_cold_ingest(lake_embedder, lake_tables):
    """Appended values are in the merged signature, so join sees them with
    no forward and no refresh, and answers exactly as a lake that ingested
    the longer table cold."""
    name = "g1t0"
    source = lake_tables[name]
    delta = [[f"grp0val{i}", str(i), "tag9"] for i in range(20, 30)]
    live = _catalog(lake_embedder, lake_tables, None, None)
    _all_joins(live)  # the index is built: the append must keep it in step
    before = live.engine.forward_calls
    live.append_rows(name, delta)
    assert live.stale_tables() == [name]
    joined = _all_joins(live, k=8)
    assert live.engine.forward_calls == before
    assert live.stale_tables() == [name]

    grown = table_from_rows(
        name, source.header, [*source.rows(), *delta],
        description=source.description,
    )
    cold = _catalog(lake_embedder, {**lake_tables, name: grown}, None, None)
    assert joined == _all_joins(cold, k=8)
    # The appended entities now join g0t0's entity column into g1t0.
    assert ("g1t0", "entity") in [
        (table, matches[0].table_column)
        for table, _, matches in joined["g0t2", "entity"]
    ]


def test_the_join_index_reads_the_column_table_every_write_keeps(
    lake_embedder, lake_tables
):
    """The join index is built with the catalog and holds no rows: it
    reads the searcher's column table. After an add, update, remove and
    append (its postings built before them) it answers as a fresh index
    over a table written cold from the records, and a refresh, which
    changes no sketch, changes no signature row."""
    names = list(lake_tables)
    catalog = _catalog(
        lake_embedder, {name: lake_tables[name] for name in names[1:]}, None, 4
    )
    index = catalog.joins
    assert index.searcher is catalog.searcher
    assert len(index) == sum(
        record.sketch.n_cols for record in catalog.records.values()
    )
    _all_joins(catalog)

    catalog.add_table(lake_tables[names[0]])
    catalog.update_table(lake_tables[names[1]].with_columns(
        lake_tables[names[1]].columns[:2], name=names[1]
    ))
    catalog.remove_table(names[2])
    catalog.append_rows(names[3], [["tag-new"] * lake_tables[names[3]].n_cols])
    assert catalog.joins is index
    kept = _all_joins(catalog)
    cold = TableSearcher(catalog.dim, num_perm=catalog.sketch_config.num_perm)
    for record in catalog.records.values():
        join = record.join_rows()
        cold.add_table(
            record.name, record.column_names, record.column_vectors,
            join.signatures, join.sizes,
        )
    catalog.joins = ContainmentIndex(cold)
    assert _all_joins(catalog) == kept
    catalog.joins = index

    rows = catalog.searcher.index
    before = rows.signatures.tobytes(), rows.sizes.tobytes()
    assert catalog.refresh_stale() == [names[3]]
    assert (rows.signatures.tobytes(), rows.sizes.tobytes()) == before


def test_a_join_payload_runs_no_forward_and_no_cache_lookup(
    cold_catalog, lake_tables
):
    catalog = cold_catalog
    service = LakeService(catalog)
    probe = lake_tables["g0t1"].with_columns(
        lake_tables["g0t1"].columns, name="join-probe"
    )

    def work():
        cache = service._cache
        return (
            catalog.engine.forward_calls, catalog.embed_calls,
            cache.hits + cache.misses, len(cache),
        )

    before = work()
    result = service.discover(
        DiscoveryRequest(mode="join", k=10, payload=probe, column="entity")
    )
    assert work() == before
    assert result.diagnostics["cache_hit"] is None
    assert result.timings.embed_ms == 0.0
    assert result.timings.sketch_ms > 0.0
    # A copy of a member joins like the member, plus the member itself.
    member = _join(service, table="g0t1", column="entity")
    assert [hit for hit in _join(service, payload=probe, column="entity")
            if hit[0] != "g0t1"] == member
    assert ("g0t1", 1.0, "entity") in _join(service, payload=probe, column="entity")

    # Beside a union payload, only the union one embeds and is cached.
    union, join = service.discover_batch([
        DiscoveryRequest(mode="union", k=3, payload=probe),
        DiscoveryRequest(mode="join", k=10, payload=probe, column="entity"),
    ])
    forwards, _, lookups, entries = work()
    assert (forwards, lookups, entries) == (before[0] + 1, before[2] + 1, 1)
    assert union.timings.embed_ms > 0.0 and join.timings.embed_ms == 0.0
    assert join.scored() == result.scored()

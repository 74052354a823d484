"""The served subset ranks by containment over the stored MinHash signatures.

``LakeService`` answers ``mode="subset"`` from the catalog's
:class:`~repro.search.containment.ContainmentIndex` in Table VIII's
direction, the candidate contained in the query: a candidate column ``C``
scores ``estimate_containment(C, Q, |C|, |Q|)`` maxed over the query's
columns ``Q``, and a table the mean of its columns' scores, summed in
column order. The oracle is that arithmetic over the records' sketches,
pair by pair through :func:`repro.sketch.minhash.estimate_containment`, for
member and payload queries, storeless at 1 shard and on disk at 4; the
edge tables hold an all-null column (it scores 0, never NaN or inf), a
query with an empty column, and a verbatim copy (it scores 1). No answer
depends on row order: after removes, re-adds, a reopen and a reshard every
score is the fresh build's. A subset payload is only sketched: no forward,
no digest, no cache lookup.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.lakebench import make_eurostat_subset_search
from repro.search.metrics import precision_recall_at_k
from repro.sketch.minhash import estimate_containment
from repro.sketch.pipeline import sketch_corpus
from repro.table.schema import table_from_rows

#: Layout -> (on disk, shard count).
LAYOUTS = {"storeless-1": (False, 1), "disk-4": (True, 4)}
#: Deep enough for every table of these lakes: the whole answer.
EVERY = 100


@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """Each test runs at the layouts it names, so running the module once
    per directory default would only repeat it."""
    return LakeStore.DEFAULT_SHARDS


@pytest.fixture(params=sorted(LAYOUTS))
def make_catalog(request, tmp_path, lake_embedder):
    """``make(tables)``: a catalog at this layout holding ``tables``."""
    on_disk, n_shards = LAYOUTS[request.param]

    def make(tables) -> LakeCatalog:
        if on_disk:
            store = LakeStore(tmp_path / "lake", "fp", n_shards=n_shards)
            catalog = LakeCatalog(lake_embedder, store=store)
        else:
            catalog = LakeCatalog(lake_embedder, n_shards=n_shards)
        catalog.add_tables(dict(tables))
        return catalog

    return make


@pytest.fixture(scope="module")
def tables(lake_tables) -> dict:
    """The grouped lake plus an all-null column beside real values and a
    verbatim copy of a member."""
    source = lake_tables["g0t0"]
    edges = [
        table_from_rows(
            "edge-nulls", ["blank", "entity"],
            [["", value] for value in source.columns[0].values[:8]],
        ),
        source.with_columns(source.columns, name="edge-copy"),
    ]
    return {**lake_tables, **{table.name: table for table in edges}}


def _payloads(tables) -> list:
    """A renamed copy of every table, a copy under a member's own name, a
    table whose two columns tie everywhere, and one with an empty column."""
    entity = tables["g1t0"].columns[0]
    twins = table_from_rows(
        "probe-twins", ["first", "second"],
        [[value, value] for value in entity.values],
    )
    empty = table_from_rows(
        "probe-empty", [entity.name, "nothing"],
        [[value, ""] for value in entity.values],
    )
    return [
        *(table.with_columns(table.columns, name=f"copy-{name}")
          for name, table in tables.items()),
        tables["g2t1"],
        twins,
        empty,
    ]


def _oracle(catalog: LakeCatalog, query, exclude: str | None) -> list:
    """``(table, score, matches)`` of every table scoring above 0, from
    every record's sketch pair by pair: score descending, then name."""
    ranked = []
    for name, record in catalog.records.items():
        if name == exclude:
            continue
        sketch = record.sketch
        total = 0.0
        matches = []
        for column in sketch.column_sketches:
            values = [
                estimate_containment(
                    column.values_minhash, asked.values_minhash,
                    column.n_values, asked.n_values,
                )
                for asked in query.column_sketches
            ]
            best = max(values)
            total += best
            if best > 0.0:
                asked = query.column_sketches[values.index(best)]
                matches.append((asked.name, column.name, 1.0 - best))
        score = total / sketch.n_cols
        assert math.isfinite(score)
        if score > 0.0:
            ranked.append((name, score, matches))
    return sorted(ranked, key=lambda entry: (-entry[1], entry[0]))


def _served(result) -> list:
    answer = []
    for hit in result.hits:
        matches = [(m.query_column, m.table_column, m.distance) for m in hit.matches]
        distance_sum = 0.0
        for _, _, distance in matches:
            distance_sum += distance
        assert hit.n_matched_columns == len(matches)
        assert hit.distance_sum == distance_sum
        assert 0.0 < hit.score <= 1.0
        answer.append((hit.table, hit.score, matches))
    return answer


def _subset(service, **fields):
    return service.discover(DiscoveryRequest(mode="subset", k=EVERY, **fields))


def _all_subsets(catalog: LakeCatalog, payloads) -> dict:
    """Every member's and payload's whole subset answer."""
    service = LakeService(catalog, cache_size=0)
    answers = {name: _served(_subset(service, table=name)) for name in catalog.records}
    for payload in payloads:
        answers["payload", payload.name] = _served(_subset(service, payload=payload))
    return answers


def test_served_subset_is_the_containment_oracle(make_catalog, tables):
    catalog = make_catalog(tables)
    service = LakeService(catalog)
    for name, record in catalog.records.items():
        served = _served(_subset(service, table=name))
        assert served == _oracle(catalog, record.sketch, name)
    config = catalog.sketch_config
    payloads = _payloads(tables)
    for payload, sketch in zip(
        payloads, sketch_corpus(payloads, config, config.build_hasher())
    ):
        exclude = payload.name if payload.name in catalog else None
        served = _served(_subset(service, payload=payload))
        assert served == _oracle(catalog, sketch, exclude)

    # The all-null column shares no value: it matches nothing and counts 0
    # toward its table's mean.
    of_copy = _served(_subset(service, table="edge-copy"))
    [(_, score, matches)] = [entry for entry in of_copy if entry[0] == "edge-nulls"]
    assert [column for _, column, _ in matches] == ["entity"]
    assert 0.0 < score <= 0.5
    # A verbatim copy is a subset of the table it copies, and back.
    assert of_copy[0][:2] == ("g0t0", 1.0)
    assert _served(_subset(service, table="g0t0"))[0][:2] == ("edge-copy", 1.0)
    # On a tie the earlier query column keeps the match.
    twins = _served(_subset(service, payload=payloads[-2]))
    assert twins
    assert all(asked == "first" for _, _, matches in twins for asked, _, _ in matches)
    # An empty query column is no column's best.
    empty = _served(_subset(service, payload=payloads[-1]))
    assert empty
    assert all(asked != "nothing" for _, _, matches in empty for asked, _, _ in matches)


def test_scores_survive_removes_readds_a_reopen_and_a_reshard(
    make_catalog, tables, lake_embedder
):
    payloads = _payloads(tables)[-2:]
    fresh = LakeCatalog(lake_embedder)
    fresh.add_tables(dict(sorted(tables.items())))
    expected = _all_subsets(fresh, payloads)

    catalog = make_catalog(tables)
    _all_subsets(catalog, payloads)  # the index is built: writes must keep it
    rng = np.random.default_rng(7)
    names = sorted(tables)
    for _ in range(3):
        gone = [names[i] for i in rng.choice(len(names), size=4, replace=False)]
        for name in gone:
            assert catalog.remove_table(name)
        for i in rng.permutation(len(gone)):
            catalog.add_table(tables[gone[i]])
    assert _all_subsets(catalog, payloads) == expected

    store = catalog.store
    if store is None:
        return
    warm = LakeCatalog.from_store(lake_embedder, LakeStore.open(store.root))
    assert warm.embed_calls == 0
    assert _all_subsets(warm, payloads) == expected
    warm.store.reshard(1, "fp")
    resharded = LakeCatalog.from_store(lake_embedder, LakeStore.open(store.root))
    assert resharded.n_shards == 1
    assert _all_subsets(resharded, payloads) == expected


def test_an_external_subset_runs_no_forward_and_no_cache_lookup(
    make_catalog, lake_tables
):
    catalog = make_catalog(lake_tables)
    service = LakeService(catalog)
    probe = lake_tables["g0t1"].with_columns(
        lake_tables["g0t1"].columns, name="subset-probe"
    )

    def work():
        cache = service._cache
        return (
            catalog.engine.forward_calls, catalog.embed_calls,
            cache.hits + cache.misses, len(cache),
        )

    before = work()
    result = _subset(service, payload=probe)
    assert work() == before
    assert result.diagnostics["cache_hit"] is None
    assert result.timings.embed_ms == 0.0
    assert result.timings.sketch_ms > 0.0
    assert result.hits[0].table == "g0t1" and result.hits[0].score == 1.0

    # Beside a union payload, only the union one embeds and is cached.
    union, subset = service.discover_batch([
        DiscoveryRequest(mode="union", k=3, payload=probe),
        DiscoveryRequest(mode="subset", k=EVERY, payload=probe),
    ])
    forwards, _, lookups, entries = work()
    assert (forwards, lookups, entries) == (before[0] + 1, before[2] + 1, 1)
    assert union.timings.embed_ms > 0.0 and subset.timings.embed_ms == 0.0
    assert subset.diagnostics["cache_hit"] is None
    assert subset.scored() == result.scored()


def test_eurostat_subsets_are_found(make_catalog):
    """The paper's subset set (Table VIII): each base table's Fig. 7
    variants are its subsets, and the served answer finds them."""
    benchmark = make_eurostat_subset_search()
    service = LakeService(make_catalog(benchmark.tables))
    precision = [
        precision_recall_at_k(
            _subset(service, table=query.table).tables(),
            benchmark.ground_truth[query.key],
            10,
        )[0]
        for query in benchmark.queries
    ]
    assert sum(precision) / len(precision) >= 0.9

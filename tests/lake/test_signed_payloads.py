"""A join or subset payload is signed, never sketched in full.

Join and subset rank by containment, which reads each query column's
values signature and distinct count and nothing else of a sketch.
``LakeService.discover_batch`` therefore builds only those
(:func:`~repro.sketch.pipeline.value_signatures`) for a join or subset
payload: no column type is inferred and no numerical profile is computed,
yet the signing is timed as the request's sketch share. A union payload,
which the trunk reads whole, is still sketched in full beside them.
"""

from __future__ import annotations

from repro.lake import service as service_module
from repro.lake.api import DiscoveryRequest
from repro.lake.service import LakeService
from repro.sketch import numeric, pipeline
from repro.table.schema import Column


def _fresh(table, name: str):
    """A copy of ``table`` whose columns have not had their type inferred."""
    return table.with_columns(
        [Column(c.name, list(c.values)) for c in table.columns], name=name
    )


def test_join_and_subset_payloads_build_no_full_sketch(
    cold_catalog, lake_tables, monkeypatch
):
    profiled = []

    def counted(*args, **kwargs):
        profiled.append(len(args[0]))
        return numeric.numeric_accumulators(*args, **kwargs)

    # Patched where the sketch path looks it up.
    monkeypatch.setattr(pipeline, "numeric_accumulators", counted)
    service = LakeService(cold_catalog)
    source = lake_tables["g0t1"]
    join_probe = _fresh(source, "join-probe")
    subset_probe = _fresh(source, "subset-probe")
    results = service.discover_batch([
        DiscoveryRequest(mode="join", k=5, payload=join_probe, column="entity"),
        DiscoveryRequest(mode="subset", k=5, payload=subset_probe),
    ])
    assert profiled == []
    for probe in (join_probe, subset_probe):
        assert [c.ctype for c in probe.columns] == [None] * probe.n_cols
    for result in results:
        assert result.timings.sketch_ms > 0.0
        assert result.hits[0].table == "g0t1" and result.hits[0].score == 1.0

    union_probe = _fresh(source, "union-probe")
    (union,) = service.discover_batch(
        [DiscoveryRequest(mode="union", k=3, payload=union_probe)]
    )
    assert profiled == [union_probe.n_cols]
    assert None not in [c.ctype for c in union_probe.columns]
    assert union.timings.sketch_ms > 0.0 and union.timings.embed_ms > 0.0


def test_a_signed_only_batch_runs_no_sketch_pass(
    cold_catalog, lake_tables, monkeypatch
):
    """A batch of join and subset payloads signs them and calls no
    ``sketch_batch`` at all, not even over an empty list, and answers as
    each request answers on its own; the signing is still charged as the
    requests' sketch share."""
    requests = [
        DiscoveryRequest(
            mode="join", k=5, payload=_fresh(lake_tables["g0t1"], "join-probe"),
            column="entity",
        ),
        DiscoveryRequest(
            mode="subset", k=5, payload=_fresh(lake_tables["g1t0"], "subset-probe")
        ),
    ]
    alone = [LakeService(cold_catalog).discover(request) for request in requests]
    sketched = []
    real = service_module.sketch_batch

    def counted(tables, *args, **kwargs):
        tables = list(tables)
        sketched.append(len(tables))
        return real(tables, *args, **kwargs)

    monkeypatch.setattr(service_module, "sketch_batch", counted)
    batched = LakeService(cold_catalog).discover_batch(requests)
    assert sketched == []
    assert [r.scored() for r in batched] == [r.scored() for r in alone]
    for result in batched:
        assert result.timings.sketch_ms > 0.0 and result.timings.embed_ms == 0.0
        assert result.diagnostics["batched"] == 2

    LakeService(cold_catalog).discover_batch(
        [*requests, DiscoveryRequest(mode="union", k=3, payload=lake_tables["g2t2"])]
    )
    assert sketched == [1]

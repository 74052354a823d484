"""The versioned Discovery API schema: strict codecs, score monotonicity,
error taxonomy, and the scored service surface (`discover`)."""

from __future__ import annotations

import json

import pytest

from repro.lake.api import (
    API_VERSION,
    ERROR_STATUS,
    ColumnMatch,
    DiscoveryError,
    DiscoveryRequest,
    DiscoveryResult,
    Hit,
    Timings,
    join_score,
    subset_score,
    table_from_dict,
    table_score,
    table_to_dict,
)
from repro.lake.service import LakeService
from repro.table.schema import Table

MODES = ("join", "union", "subset")


# --------------------------------------------------------------------- #
# Codec round trips
# --------------------------------------------------------------------- #
def test_request_roundtrips_json_exactly(lake_tables):
    table = next(iter(lake_tables.values()))
    request = DiscoveryRequest(
        mode="join",
        k=7,
        payload=table,
        column="entity",
        min_score=0.25,
        shards=(0, 2),
        fingerprint="abc123",
    )
    encoded = json.dumps(request.to_dict())
    decoded = DiscoveryRequest.from_dict(json.loads(encoded))
    # The dict view is the wire contract: one decode/encode cycle is the
    # identity on it, bit for bit (floats ride repr).
    assert decoded.to_dict() == request.to_dict()
    assert decoded.payload.header == table.header
    assert decoded.payload.columns[0].values == table.columns[0].values


def test_member_request_omits_unset_optionals():
    raw = DiscoveryRequest(table="t1", mode="union", k=5).to_dict()
    assert raw == {"version": API_VERSION, "mode": "union", "k": 5, "table": "t1"}


def test_result_roundtrips_scores_exactly():
    result = DiscoveryResult(
        version=API_VERSION,
        mode="union",
        k=2,
        query="probe",
        hits=(
            Hit(
                table="t1",
                score=2.9999999999994618,
                n_matched_columns=3,
                distance_sum=1.7935273419410213e-12,
                matches=(ColumnMatch("a", "b", 5.551115123125783e-17),),
            ),
            Hit(table="t2", score=1.5, n_matched_columns=1, distance_sum=1.0),
        ),
        timings=Timings(sketch_ms=0.51, embed_ms=3.25, index_ms=0.125, total_ms=4.0),
        diagnostics={"member": False, "cache_hit": True},
    )
    decoded = DiscoveryResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert decoded == result
    assert decoded.scored() == result.scored()
    assert decoded.hits[0].matches[0].distance == 5.551115123125783e-17


def test_table_payload_codec_roundtrip(lake_tables):
    table = next(iter(lake_tables.values()))
    clone = table_from_dict(table_to_dict(table))
    assert clone.name == table.name
    assert clone.description == table.description
    assert clone.header == table.header
    assert [c.values for c in clone.columns] == [c.values for c in table.columns]


# --------------------------------------------------------------------- #
# Strictness
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"mode": "union", "k": 3}, "exactly one of"),
        ({"table": "t", "payload": {"name": "t", "columns": []}}, "exactly one of"),
        ({"table": "t", "k": 0}, "positive integer"),
        ({"table": "t", "k": -2}, "positive integer"),
        ({"table": "t", "k": True}, "must be int"),
        ({"table": "t", "k": "ten"}, "must be int"),
        ({"table": "t", "mode": "merge"}, "unknown query mode"),
        ({"table": "t", "version": "v0"}, "unsupported schema version"),
        ({"table": "t", "surprise": 1}, "unknown field"),
        ({"table": "t", "mode": "union", "column": "c"}, "only applies to join"),
        ({"table": "t", "shards": []}, "at least one shard"),
        ({"table": "t", "shards": [-1]}, "non-negative"),
        ({"payload": {"name": "p", "columns": []}}, "no columns"),
        ({"payload": {"name": "p", "columns": [{"name": "c"}]}}, "missing required"),
        (
            {"payload": {"name": "p", "columns": [{"name": "c", "values": [1]}]}},
            "must all be strings",
        ),
        ("not an object", "JSON object"),
    ],
)
def test_bad_requests_fail_strictly(raw, fragment):
    with pytest.raises(DiscoveryError, match=fragment) as excinfo:
        DiscoveryRequest.from_dict(raw)
    assert excinfo.value.code == "bad-request"
    assert excinfo.value.status == 400


def test_error_taxonomy_and_envelope():
    for code, status in ERROR_STATUS.items():
        error = DiscoveryError(code, "boom")
        assert error.status == status
        clone = DiscoveryError.from_dict(error.to_dict())
        assert (clone.code, clone.message) == (code, "boom")
    with pytest.raises(ValueError):
        DiscoveryError("no-such-code", "x")


# --------------------------------------------------------------------- #
# Scores
# --------------------------------------------------------------------- #
def test_scores_are_monotone_with_ranking():
    # Join: the estimated containment itself, in (0, 1].
    assert join_score(1.0) == 1.0
    assert join_score(0.5) > join_score(0.25) > 0.0
    # Subset: the mean containment of the hit's columns, in (0, 1].
    assert subset_score(1.0) == 1.0
    assert subset_score(0.5) > subset_score(0.25) > 0.0
    # Union: RANK1 dominates, RANK2 breaks ties — including the
    # adversarial perfect-distance case (distance_sum == 0).
    assert table_score(3, 5.0) > table_score(2, 0.0)
    assert table_score(2, 0.1) > table_score(2, 0.2)
    assert table_score(2, 0.0) > table_score(1, 0.0)


def test_discover_hits_sorted_by_descending_score(cold_catalog):
    service = LakeService(cold_catalog)
    for mode in MODES:
        result = service.discover(DiscoveryRequest(mode=mode, k=8, table="g0t0"))
        scores = [hit.score for hit in result.hits]
        assert scores == sorted(scores, reverse=True)
        assert result.tables() == [hit.table for hit in result.hits]


# --------------------------------------------------------------------- #
# The scored service surface
# --------------------------------------------------------------------- #
def test_discover_carries_evidence_and_diagnostics(cold_catalog, lake_tables):
    service = LakeService(cold_catalog)
    probe = lake_tables["g1t2"].with_columns(
        lake_tables["g1t2"].columns, name="probe"
    )
    result = service.discover(DiscoveryRequest(mode="union", k=4, payload=probe))
    assert result.version == API_VERSION
    assert result.query == "probe"
    top = result.hits[0]
    assert top.n_matched_columns >= 1
    assert len(top.matches) == top.n_matched_columns
    assert top.distance_sum == pytest.approx(
        sum(match.distance for match in top.matches)
    )
    query_columns = {match.query_column for match in top.matches}
    assert query_columns <= set(probe.header)
    assert result.diagnostics["member"] is False
    assert result.diagnostics["cache_hit"] is False
    assert result.diagnostics["backend"] == "exact"
    assert result.timings.total_ms > 0.0
    assert result.timings.embed_ms > 0.0
    # Second ask: cache hit, no sketch/embed time.
    again = service.discover(DiscoveryRequest(mode="union", k=4, payload=probe))
    assert again.diagnostics["cache_hit"] is True
    assert again.timings.embed_ms == 0.0
    assert again.scored() == result.scored()


def test_discover_join_evidence_names_matched_columns(cold_catalog):
    service = LakeService(cold_catalog)
    result = service.discover(
        DiscoveryRequest(mode="join", k=5, table="g0t0", column="entity")
    )
    for hit in result.hits:
        assert len(hit.matches) == 1
        match = hit.matches[0]
        assert match.query_column == "entity"
        assert match.distance == hit.distance_sum
        assert 0.0 < hit.score <= 1.0
        assert match.distance == 1.0 - hit.score


def test_min_score_filter(cold_catalog):
    service = LakeService(cold_catalog)
    unfiltered = service.discover(DiscoveryRequest(mode="union", k=9, table="g0t0"))
    bar = unfiltered.hits[len(unfiltered.hits) // 2].score
    filtered = service.discover(
        DiscoveryRequest(mode="union", k=9, table="g0t0", min_score=bar)
    )
    assert filtered.hits
    assert all(hit.score >= bar for hit in filtered.hits)
    assert filtered.diagnostics["filtered"] >= 1
    assert [h.table for h in filtered.hits] == [
        h.table for h in unfiltered.hits if h.score >= bar
    ]


def test_shard_filter_partitions_results(cold_catalog, lake_layout_shards):
    from repro.search.backend import stable_shard

    service = LakeService(cold_catalog)
    n_shards = cold_catalog.n_shards
    everything = service.discover(
        DiscoveryRequest(mode="union", k=9, table="g1t0")
    )
    recovered = []
    for shard in range(n_shards):
        part = service.discover(
            DiscoveryRequest(mode="union", k=9, table="g1t0", shards=(shard,))
        )
        for hit in part.hits:
            assert stable_shard(hit.table, n_shards) == shard
        recovered.extend(hit.table for hit in part.hits)
    assert sorted(recovered) == sorted(everything.tables())
    with pytest.raises(DiscoveryError, match="out of range"):
        service.discover(
            DiscoveryRequest(mode="union", k=3, table="g1t0", shards=(n_shards,))
        )


def test_service_boundary_validation(cold_catalog, lake_tables):
    service = LakeService(cold_catalog)
    # k <= 0 and empty-column payloads fail typed at the boundary...
    with pytest.raises(DiscoveryError, match="positive integer") as excinfo:
        service.discover(DiscoveryRequest(mode="union", k=0, table="g0t0"))
    assert excinfo.value.code == "bad-request"
    empty = Table(name="empty", columns=[])
    with pytest.raises(DiscoveryError, match="no columns"):
        service.discover(DiscoveryRequest(mode="union", k=3, payload=empty))
    # ...on the batched path too, before anything is sketched or embedded.
    with pytest.raises(DiscoveryError, match="no columns") as excinfo:
        service.discover_batch(
            [DiscoveryRequest(mode="union", k=3, payload=empty)]
        )
    assert excinfo.value.code == "bad-request"


def test_fingerprint_pin(tmp_path, lake_embedder, lake_tables):
    from repro.lake.catalog import LakeCatalog
    from repro.lake.store import LakeStore

    store = LakeStore(tmp_path, "fp-pin")
    catalog = LakeCatalog(lake_embedder, store=store)
    catalog.add_table(next(iter(lake_tables.values())))
    service = LakeService(catalog)
    assert service.fingerprint() == store.fingerprint
    pinned = DiscoveryRequest(
        mode="union", k=3, table=next(iter(lake_tables)),
        fingerprint=store.fingerprint,
    )
    assert service.discover(pinned).version == API_VERSION
    with pytest.raises(DiscoveryError, match="fingerprint") as excinfo:
        service.discover(
            DiscoveryRequest(mode="union", k=3, table="x", fingerprint="stale")
        )
    assert excinfo.value.code == "fingerprint-mismatch"
    assert excinfo.value.status == 409

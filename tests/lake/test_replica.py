"""Snapshot-shipped read replicas: publish protocol, blue/green adoption,
staleness semantics, torn-generation refusal, pin-based rollback, and the
round-robin frontend — with byte-identical hits across every surface."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.lake.api import API_VERSION, DiscoveryError, DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.frontend import FrontendThread, parse_backends
from repro.lake.replica import (
    CURRENT_NAME,
    SNAPSHOT_MARKER,
    ReplicaService,
    SnapshotPublisher,
    generation_dir_name,
    list_generations,
    newest_complete_generation,
    read_current,
    read_marker,
)
from repro.lake.server import ServerThread
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.utils.io import read_json, write_json

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


@pytest.fixture()
def leader(tmp_path, lake_embedder, lake_tables):
    """A persisted leader lake + its publisher + an empty snapshot dir."""
    lake_root = tmp_path / "lake"
    catalog = LakeCatalog(lake_embedder, store=LakeStore(lake_root, "fp"))
    catalog.add_tables(dict(lake_tables))
    service = LakeService(catalog)
    publisher = SnapshotPublisher(lake_root, tmp_path / "snapshots")
    return service, publisher


def _probe_requests(lake_tables) -> list[DiscoveryRequest]:
    source = lake_tables["g0t2"]
    probe = source.with_columns(source.columns, name="external-probe")
    return [
        DiscoveryRequest(mode="union", k=5, table="g1t1"),
        DiscoveryRequest(mode="join", k=5, table="g1t1", column="entity"),
        DiscoveryRequest(mode="subset", k=5, payload=probe),
    ]


def _hits_json(result) -> str:
    return json.dumps([hit.to_dict() for hit in result.hits])


# --------------------------------------------------------------------- #
# Publish protocol
# --------------------------------------------------------------------- #
def test_publish_layout_marker_and_current(leader, lake_tables):
    service, publisher = leader
    assert publisher.publish() == 1
    snapshots = publisher.snapshot_dir
    generation = snapshots / generation_dir_name(1)
    assert generation.is_dir()
    assert not list(snapshots.glob("*.staging"))

    marker = read_marker(generation)
    assert marker["generation"] == 1
    assert marker["fingerprint"] == "fp"
    assert marker["n_tables"] == len(lake_tables)
    assert marker["n_shards"] == service.catalog.n_shards
    assert list_generations(snapshots) == [1]
    assert newest_complete_generation(snapshots) == 1
    assert read_current(snapshots) == 1

    # Generations are append-only and monotonic.
    assert publisher.publish() == 2
    assert list_generations(snapshots) == [1, 2]
    assert read_current(snapshots) == 2


def test_marker_is_what_makes_a_generation_complete(leader):
    _, publisher = leader
    publisher.publish()
    publisher.publish()
    # Deleting the marker makes generation 2 invisible (torn), regardless
    # of the CURRENT pointer still naming it — replicas trust markers.
    (publisher.snapshot_dir / generation_dir_name(2) / SNAPSHOT_MARKER).unlink()
    assert list_generations(publisher.snapshot_dir) == [1]
    assert newest_complete_generation(publisher.snapshot_dir) == 1
    assert read_current(publisher.snapshot_dir) == 2  # stale hint is fine


# --------------------------------------------------------------------- #
# Adoption, parity, staleness
# --------------------------------------------------------------------- #
def test_replica_parity_and_generation_stamping(leader, lake_embedder, lake_tables):
    service, publisher = leader
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)
    assert replica.available and replica.generation == 1
    for request in _probe_requests(lake_tables):
        local = service.discover(request)
        remote = replica.discover(request)
        # Ranked hits are byte-identical to the in-process leader...
        assert _hits_json(remote) == _hits_json(local)
        # ...and every answer says which lake version produced it.
        assert remote.diagnostics["replica"] is True
        assert remote.diagnostics["generation"] == 1
        assert remote.diagnostics["fingerprint"] == "fp"
    batch = replica.discover_batch(_probe_requests(lake_tables))
    assert all(r.diagnostics["generation"] == 1 for r in batch)


def test_stale_replica_serves_valid_stamped_answers(
    leader, lake_embedder, lake_tables
):
    """A replica one generation behind is *stale, not broken*: it keeps
    returning complete, correctly-stamped answers for its generation until
    it refreshes onto the new one."""
    service, publisher = leader
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)

    source = lake_tables["g0t0"]
    service.add_table(source.with_columns(source.columns, name="freshly-added"))
    publisher.publish()

    # Unrefreshed: still generation 1 — the new table is invisible, but
    # the old corpus answers exactly as before, stamped with generation 1.
    request = DiscoveryRequest(mode="union", k=5, table="g1t1")
    stale = replica.discover(request)
    assert stale.diagnostics["generation"] == 1
    assert "freshly-added" not in stale.tables()
    with pytest.raises(DiscoveryError) as excinfo:
        replica.discover(DiscoveryRequest(mode="union", k=3, table="freshly-added"))
    assert excinfo.value.code == "not-found"
    info = replica.generation_info()
    assert info["generation"] == 1 and info["newest_published"] == 2

    # Refresh: blue/green swap onto generation 2; the table appears.
    assert replica.refresh() is True
    assert replica.generation == 2 and replica.swaps == 2
    fresh = replica.discover(request)
    assert fresh.diagnostics["generation"] == 2
    assert _hits_json(fresh) == _hits_json(service.discover(request))
    assert replica.discover(
        DiscoveryRequest(mode="union", k=3, table="freshly-added")
    ).hits


def test_torn_generation_refused_previous_keeps_serving(
    leader, lake_embedder, lake_tables
):
    service, publisher = leader
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)
    publisher.publish()
    assert replica.refresh() is True and replica.generation == 2

    # Forge generation 3 whose marker promises a table count the artifacts
    # cannot satisfy — the shape of a partially-copied snapshot.
    snapshots = publisher.snapshot_dir
    torn = snapshots / generation_dir_name(3)
    shutil.copytree(snapshots / generation_dir_name(2), torn)
    marker = read_json(torn / SNAPSHOT_MARKER)
    marker["generation"] = 3
    marker["n_tables"] = 999
    write_json(torn / SNAPSHOT_MARKER, marker)

    with pytest.warns(RuntimeWarning, match="refused snapshot generation 3"):
        assert replica.refresh() is False
    assert replica.generation == 2
    assert replica.refusals == 1
    # Still serving, correctly stamped, parity intact.
    request = DiscoveryRequest(mode="union", k=5, table="g1t1")
    answer = replica.discover(request)
    assert answer.diagnostics["generation"] == 2
    assert _hits_json(answer) == _hits_json(service.discover(request))
    assert replica.stats()["replica"]["refusals"] == 1


def test_pin_rollback_and_unpin(leader, lake_embedder, lake_tables):
    service, publisher = leader
    publisher.publish()
    source = lake_tables["g0t0"]
    service.add_table(source.with_columns(source.columns, name="regression"))
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)
    assert replica.generation == 2  # newest by default

    # Generation 2 turns out bad -> pin back to 1; refresh() honors the pin
    # even though a newer generation exists.
    assert replica.pin(1) is True
    assert replica.generation == 1
    assert replica.refresh() is False
    assert replica.generation_info()["pinned"] == 1
    with pytest.raises(DiscoveryError):
        replica.discover(DiscoveryRequest(mode="union", k=3, table="regression"))

    # Pinning an unknown generation is refused like any bad candidate.
    with pytest.warns(RuntimeWarning, match="refused snapshot generation 9"):
        assert replica.pin(9) is False
    assert replica.generation == 1

    assert replica.pin(None) is True  # unpin -> newest again
    assert replica.generation == 2


def test_replica_is_read_only_and_unavailable_when_empty(
    tmp_path, lake_embedder, leader, lake_tables
):
    empty = ReplicaService(lake_embedder, tmp_path / "nothing-here")
    assert not empty.available
    assert empty.stats() == {"replica": empty.generation_info(), "n_tables": 0}
    with pytest.raises(DiscoveryError) as excinfo:
        empty.discover(DiscoveryRequest(mode="union", k=3, table="g0t0"))
    assert excinfo.value.code == "unavailable"
    assert excinfo.value.status == 503

    _, publisher = leader
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)
    for mutate in (
        lambda: replica.add_table(lake_tables["g0t0"]),
        lambda: replica.add_tables(dict(lake_tables)),
        lambda: replica.remove_table("g0t0"),
        lambda: replica.update_table(lake_tables["g0t0"]),
    ):
        with pytest.raises(DiscoveryError) as excinfo:
            mutate()
        assert excinfo.value.code == "bad-request"
        assert "read-only" in excinfo.value.message


# --------------------------------------------------------------------- #
# Served replicas + frontend
# --------------------------------------------------------------------- #
def test_frontend_round_robin_parity_and_failover(
    leader, lake_embedder, lake_tables
):
    """Two replica servers behind the frontend: ranked hits byte-identical
    to the leader, requests spread across both backends, and a dead
    backend is failed over transparently for read traffic."""
    service, publisher = leader
    publisher.publish()
    replicas = [
        ReplicaService(lake_embedder, publisher.snapshot_dir) for _ in range(2)
    ]
    request = DiscoveryRequest(mode="union", k=5, table="g1t1")
    local_hits = _hits_json(service.discover(request))

    with ServerThread(replicas[0]) as first, ServerThread(replicas[1]) as second:
        backends = parse_backends(
            f"127.0.0.1:{first.port},127.0.0.1:{second.port}"
        )
        with FrontendThread(backends) as proxy:
            client = LakeClient(port=proxy.port)
            try:
                for _ in range(4):
                    remote = client.query(request)
                    assert _hits_json(remote) == local_hits
                    assert remote.diagnostics["generation"] == 1
                # The handshake surface shows both backends took traffic.
                handshake = client._request("GET", "/v1/replicas")
                assert handshake["version"] == API_VERSION
                counts = [b["requests"] for b in handshake["backends"]]
                assert len(counts) == 2 and all(c >= 2 for c in counts)
                # Replica stats flow through the proxy unmodified.
                stats = client.stats()
                assert stats["replica"]["generation"] == 1

                # Kill one backend: reads fail over, answers stay identical.
                first.stop()
                for _ in range(3):
                    assert _hits_json(client.query(request)) == local_hits
                handshake = client._request("GET", "/v1/replicas")
                by_port = {b["port"]: b for b in handshake["backends"]}
                assert by_port[first.port]["failures"] >= 1
            finally:
                client.close()


def test_polling_replica_adopts_new_generation(leader, lake_embedder, lake_tables):
    service, publisher = leader
    publisher.publish()
    replica = ReplicaService(
        lake_embedder, publisher.snapshot_dir, poll_interval=0.05
    )
    with replica.start_polling():
        assert replica.generation == 1
        source = lake_tables["g0t0"]
        service.add_table(source.with_columns(source.columns, name="polled-in"))
        publisher.publish()
        deadline = 200
        while replica.generation != 2 and deadline:
            import time

            time.sleep(0.05)
            deadline -= 1
        assert replica.generation == 2
    assert replica.generation_info()["polling"] is False

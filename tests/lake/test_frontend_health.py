"""Health-aware frontend routing: /v1/stats probes take dead, unavailable,
and stale-generation backends out of rotation — and routing fails open."""

from __future__ import annotations

import pytest

from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.frontend import FrontendThread
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.server import ServerThread
from repro.lake.service import LakeService
from repro.lake.store import LakeStore

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


@pytest.fixture()
def leader(tmp_path, lake_embedder, lake_tables):
    root = tmp_path / "lake"
    catalog = LakeCatalog(lake_embedder, store=LakeStore(root, "fp"))
    catalog.add_tables(dict(lake_tables))
    service = LakeService(catalog)
    publisher = SnapshotPublisher(root, tmp_path / "snapshots")
    return service, publisher


def _request() -> DiscoveryRequest:
    return DiscoveryRequest(mode="union", k=5, table="g1t1")


# --------------------------------------------------------------------- #
def test_probe_marks_dead_backend_out_of_rotation(leader, lake_embedder):
    _, publisher = leader
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)
    with ServerThread(replica) as live:
        dead_port = None
        with ServerThread(ReplicaService(lake_embedder, publisher.snapshot_dir)) as doomed:
            dead_port = doomed.port
        backends = [("127.0.0.1", live.port), ("127.0.0.1", dead_port)]
        with FrontendThread(backends, health_interval=3600.0) as proxy:
            proxy.probe()
            frontend = proxy.frontend
            assert frontend.health[0]["healthy"] is True
            assert frontend.health[0]["generation"] == 1
            assert frontend.health[1]["healthy"] is False
            assert frontend._eligible() == [0]
            # Every request lands on the live backend — zero failovers.
            with LakeClient(port=proxy.port) as client:
                for _ in range(4):
                    assert client.query(_request()).hits
                handshake = client._request("GET", "/v1/replicas")
            by_port = {b["port"]: b for b in handshake["backends"]}
            assert by_port[live.port]["in_rotation"] is True
            assert by_port[dead_port]["in_rotation"] is False
            assert by_port[dead_port]["failures"] == 0
            assert frontend.requests_by_backend[0] >= 4


def test_probe_skips_stale_generation_replica(leader, lake_embedder, lake_tables):
    service, publisher = leader
    publisher.publish()
    fresh = ReplicaService(lake_embedder, publisher.snapshot_dir)
    laggard = ReplicaService(lake_embedder, publisher.snapshot_dir)
    source = lake_tables["g0t0"]
    service.add_table(source.with_columns(source.columns, name="new-table"))
    publisher.publish()
    assert fresh.refresh() is True and fresh.generation == 2
    assert laggard.generation == 1  # never refreshed

    with ServerThread(fresh) as first, ServerThread(laggard) as second:
        backends = [("127.0.0.1", first.port), ("127.0.0.1", second.port)]
        with FrontendThread(backends, health_interval=3600.0) as proxy:
            proxy.probe()
            frontend = proxy.frontend
            assert [h["generation"] for h in frontend.health] == [2, 1]
            assert frontend._eligible() == [0]
            # Every answer through the proxy is stamped with the newest
            # generation — the laggard never serves.
            with LakeClient(port=proxy.port) as client:
                for _ in range(4):
                    result = client.query(_request())
                    assert result.diagnostics["generation"] == 2

            # The laggard catches up; the next probe restores it.
            assert laggard.refresh() is True
            proxy.probe()
            assert frontend._eligible() == [0, 1]


def test_unavailable_replica_and_fail_open(tmp_path, lake_embedder, leader):
    _, publisher = leader
    publisher.publish()
    # An empty replica (no generation to adopt) reports available=False.
    hollow = ReplicaService(lake_embedder, tmp_path / "nowhere")
    ok = ReplicaService(lake_embedder, publisher.snapshot_dir)
    with ServerThread(ok) as good, ServerThread(hollow) as bad:
        backends = [("127.0.0.1", good.port), ("127.0.0.1", bad.port)]
        with FrontendThread(backends, health_interval=3600.0) as proxy:
            proxy.probe()
            frontend = proxy.frontend
            assert frontend.health[1]["healthy"] is False
            assert "unavailable" in frontend.health[1]["error"]
            assert frontend._eligible() == [0]
            # Fail open: with *every* backend marked out, dispatch falls
            # back to the full list rather than refusing all traffic.
            frontend.health[0]["healthy"] = False
            assert frontend._eligible() == [0, 1]


def test_forward_failure_marks_backend_unhealthy(leader, lake_embedder):
    _, publisher = leader
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)
    with ServerThread(replica) as live:
        with ServerThread(
            ReplicaService(lake_embedder, publisher.snapshot_dir)
        ) as doomed:
            backends = [("127.0.0.1", live.port), ("127.0.0.1", doomed.port)]
            with FrontendThread(backends, health_interval=3600.0) as proxy:
                proxy.probe()
                frontend = proxy.frontend
                assert frontend._eligible() == [0, 1]
                doomed.stop()
                # Dispatch discovers the death on a failed forward and
                # pulls the backend immediately — no probe needed.
                with LakeClient(port=proxy.port) as client:
                    for _ in range(4):
                        assert client.query(_request()).hits
                assert frontend.health[1]["healthy"] is False
                assert frontend._eligible() == [0]


def test_probing_off_keeps_legacy_payload_and_rotation(leader, lake_embedder):
    _, publisher = leader
    publisher.publish()
    replica = ReplicaService(lake_embedder, publisher.snapshot_dir)
    with ServerThread(replica) as only:
        with FrontendThread([("127.0.0.1", only.port)]) as proxy:
            frontend = proxy.frontend
            assert frontend.health_interval == 0.0
            assert frontend._eligible() == [0]
            with LakeClient(port=proxy.port) as client:
                handshake = client._request("GET", "/v1/replicas")
            assert "healthy" not in handshake["backends"][0]
            assert handshake["health_interval"] == 0.0


def test_health_interval_validation():
    with pytest.raises(ValueError):
        FrontendThread([("127.0.0.1", 1)], health_interval=-1.0)

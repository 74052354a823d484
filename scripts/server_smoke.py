"""CI smoke for the Discovery API serving path — the whole loop, for real.

Builds a tiny lake from generated CSVs via the CLI, starts
``python -m repro.lake serve`` as a *subprocess* on an ephemeral port,
queries it with :class:`~repro.lake.client.LakeClient`, asserts the hits
are identical to the in-process answer for the same
:class:`DiscoveryRequest` (all three modes), exercises remote ingest +
remove + stats, checks the telemetry surface (``/v1/metrics`` JSON and
Prometheus renderings, ``/v1/slow_queries``, request-id echo), and checks
the server shuts down cleanly on SIGINT.

Run from the repo root::

    PYTHONPATH=src python scripts/server_smoke.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from smoke_harness import build_lake, start_process, stop_process

from repro.lake.api import DiscoveryRequest
from repro.lake.client import LakeClient
from repro.lake.service import LakeService
from repro.table.schema import table_from_rows

MODES = ("join", "union", "subset")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lake-smoke-") as tmp:
        lake, _ = build_lake(Path(tmp))
        local = LakeService.open(lake)
        process, port = start_process(["serve", "--lake", lake, "--port", "0"])
        try:
            client = LakeClient(port=port, timeout=30.0)
            assert client.healthz()["status"] == "ok"

            checked = 0
            for mode in MODES:
                request = DiscoveryRequest(mode=mode, k=4, table="g1t1")
                remote = client.query(request).scored()
                in_process = local.discover(request).scored()
                assert remote == in_process, (
                    f"{mode}: HTTP {remote} != in-process {in_process}"
                )
                checked += 1

            fresh = table_from_rows(
                "smoked", ["entity", "count", "tag"],
                [[f"grp0v{i}", str(i), "tag0"] for i in range(12)],
            )
            before = client.stats()["n_tables"]
            assert client.add_table(fresh)["n_tables"] == before + 1
            hits = client.query(
                DiscoveryRequest(mode="union", k=3, table="smoked")
            )
            assert hits.tables(), "freshly ingested table must be queryable"
            assert client.remove_table("smoked")["n_tables"] == before
            stats = client.stats()
            assert stats["api_version"] == "v1"
            assert sum(stats["shard_tables"]) == stats["n_tables"]

            # Telemetry surface: the query counter moves across the wire,
            # the Prometheus rendering parses, request ids round-trip.
            def _counter(snapshot: dict, name: str) -> float:
                metric = snapshot["metrics"][name]
                return sum(entry["value"] for entry in metric["values"])

            first = client.metrics()
            assert first["version"] == "v1"
            client.query(DiscoveryRequest(mode="union", k=3, table="g0t0"))
            second = client.metrics()
            assert (
                _counter(second, "lake_queries_total")
                == _counter(first, "lake_queries_total") + 1
            ), "lake_queries_total must increment across wire queries"
            assert client.last_request_id, "client must learn its request id"

            exposition = client.metrics_text()
            assert "# TYPE lake_queries_total counter" in exposition
            assert 'lake_query_duration_ms_bucket{mode="union",le="+Inf"}' in (
                exposition
            )
            slow = client.slow_queries()
            assert slow and slow[0]["spans"]["name"] == "lake.discover"
            client.close()
        finally:
            stop_process(process, "server")
        print(
            f"server smoke OK: {checked} mode parities, remote ingest/remove, "
            "stats versioned, metrics + slow-query surface live, clean "
            "SIGINT shutdown"
        )


if __name__ == "__main__":
    main()

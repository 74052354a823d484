"""CI smoke for the replicated serving path — the whole loop, for real.

Builds a tiny lake from generated CSVs via the CLI, publishes a snapshot
generation, starts two ``python -m repro.lake replica`` subprocesses and one
``frontend`` subprocess on ephemeral ports, then asserts through the frontend:

- ranked hits byte-identical to the in-process leader for the same
  ``DiscoveryRequest`` (all three modes), every answer stamped with the
  serving generation + fingerprint;
- the ``/v1/replicas`` handshake shows both backends taking traffic;
- mutations are refused with the typed read-only ``bad-request``;
- after the leader ingests one more table and publishes generation 2, the
  polling replicas adopt it and the frontend serves the new table;
- all three processes shut down cleanly on SIGINT.

Run from the repo root::

    PYTHONPATH=src python scripts/replica_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import tempfile
import time
from pathlib import Path

from smoke_harness import (
    build_lake,
    lake_cli,
    make_table,
    start_process,
    stop_all,
)

from repro.lake.api import DiscoveryError, DiscoveryRequest
from repro.lake.client import LakeClient
from repro.lake.service import LakeService
from repro.table.csvio import write_csv

MODES = ("join", "union", "subset")
ADOPTION_TIMEOUT_S = 30.0


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="replica-smoke-") as tmp:
        root = Path(tmp)
        lake, csv_dir = build_lake(root)
        snapshots = str(root / "snapshots")
        lake_cli(["publish", "--lake", lake, "--snapshots", snapshots])
        leader = LakeService.open(lake)

        processes: list[tuple[subprocess.Popen, str]] = []
        try:
            ports = []
            for i in range(2):
                process, port = start_process(
                    ["replica", "--snapshots", snapshots,
                     "--port", "0", "--poll-interval", "0.5"]
                )
                processes.append((process, f"replica {i}"))
                ports.append(port)
            backends = ",".join(f"127.0.0.1:{p}" for p in ports)
            process, proxy_port = start_process(
                ["frontend", "--backends", backends, "--port", "0"]
            )
            processes.append((process, "frontend"))

            client = LakeClient(port=proxy_port, timeout=30.0)
            assert client.healthz()["status"] == "ok"

            checked = 0
            for mode in MODES:
                request = DiscoveryRequest(mode=mode, k=4, table="g1t1")
                local = leader.discover(request)
                remote = client.query(request)
                local_hits = json.dumps([h.to_dict() for h in local.hits])
                remote_hits = json.dumps([h.to_dict() for h in remote.hits])
                assert remote_hits == local_hits, (
                    f"{mode}: frontend hits diverge from in-process leader"
                )
                assert remote.diagnostics["replica"] is True
                assert remote.diagnostics["generation"] == 1
                assert remote.diagnostics["fingerprint"], "fingerprint stamp"
                checked += 1

            # Round-robin actually spread the traffic across both backends.
            handshake = client._request("GET", "/v1/replicas")
            counts = [b["requests"] for b in handshake["backends"]]
            assert len(counts) == 2 and all(c >= 1 for c in counts), counts

            # Replicas are read-only: mutations get the typed refusal.
            try:
                client.add_table(make_table("forbidden", 0, 8))
            except DiscoveryError as exc:
                assert exc.code == "bad-request" and "read-only" in exc.message
            else:
                raise SystemExit("replica accepted a mutation")

            # Leader ingests one more table, publishes generation 2; the
            # polling replicas adopt it and the frontend serves it.
            write_csv(make_table("latecomer", 1, 21), csv_dir / "latecomer.csv")
            lake_cli(["ingest", "--lake", lake, "--csv-dir", str(csv_dir)])
            lake_cli(["publish", "--lake", lake, "--snapshots", snapshots])
            request = DiscoveryRequest(mode="union", k=3, table="latecomer")
            deadline = time.monotonic() + ADOPTION_TIMEOUT_S
            while True:
                try:
                    adopted = client.query(request)
                    break
                except DiscoveryError as exc:
                    if exc.code != "not-found" or time.monotonic() > deadline:
                        raise
                    time.sleep(0.25)
            assert adopted.diagnostics["generation"] == 2
            assert adopted.hits, "adopted generation must rank the new table"
            stats = client.stats()
            while (
                stats["replica"]["generation"] != 2
                and time.monotonic() < deadline
            ):  # round-robin may land on the replica that polls a beat later
                time.sleep(0.25)
                stats = client.stats()
            assert stats["replica"]["generation"] == 2
            assert stats["replica"]["swaps"] >= 2
            client.close()
        finally:
            stop_all(processes)
        print(
            f"replica smoke OK: CLI ingest, {checked} mode parities "
            "through the frontend, round-robin over 2 replicas, read-only "
            "refusal, generation 2 adopted via polling, clean SIGINT "
            "shutdowns"
        )


if __name__ == "__main__":
    main()

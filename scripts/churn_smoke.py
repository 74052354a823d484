"""CI smoke for the live-tables churn loop — the whole lifecycle, for real.

Builds a tiny lake from generated CSVs via the CLI, then drives the
append/version/staleness machinery end to end, partly through real
subprocesses:

- ``append`` via the CLI bumps the table to version 2 and marks it stale;
- a ``serve`` subprocess answers an ``allow_stale`` query with the stale
  hit stamped (``stale=true``, ``version=2``) and refuses a pinned query
  on the stale table with the typed 409 ``version-conflict``;
- a strict query triggers the lazy re-embed (``refreshed`` diagnostic),
  after which the pinned query succeeds;
- a second CLI ``append`` through the running server (``--server``) lands
  version 3 over the wire;
- ``publish`` ships the mutated store; a ``replica`` subprocess adopts it
  and serves the appended table at its shipped version — versions survive
  snapshot shipping;
- both processes shut down cleanly on SIGINT.

Run from the repo root::

    PYTHONPATH=src python scripts/churn_smoke.py
"""

from __future__ import annotations

import subprocess
import tempfile
from pathlib import Path

from smoke_harness import (
    build_lake,
    lake_cli,
    start_process,
    stop_all,
    stop_process,
)

from repro.lake.api import DiscoveryError, DiscoveryRequest
from repro.lake.client import LakeClient
from repro.table.csvio import write_csv
from repro.table.schema import table_from_rows

TARGET = "g0t1"


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="churn-smoke-") as tmp:
        root = Path(tmp)
        lake, _ = build_lake(root)

        # CLI append against the closed lake: version 2, stale on disk.
        delta = table_from_rows(
            "delta", ["entity", "count", "tag"],
            [[f"freshv{i}", str(500 + i), f"tag{i % 3}"] for i in range(5)],
        )
        write_csv(delta, root / "delta.csv")
        lake_cli([
            "append", "--lake", lake, "--table", TARGET,
            "--csv", str(root / "delta.csv"),
        ])

        processes: list[tuple[subprocess.Popen, str]] = []
        try:
            server, port = start_process(["serve", "--lake", lake, "--port", "0"])
            processes.append((server, "server"))
            client = LakeClient(port=port, timeout=30.0)

            # The stale state shipped through the store: allow_stale serves
            # it, stamped; pinning the stale version is refused, typed.
            stale = client.query(DiscoveryRequest(
                mode="union", k=6, table="g0t0", allow_stale=True
            ))
            hit = next(h for h in stale.hits if h.table == TARGET)
            assert hit.stale is True and hit.version == 2, hit.to_dict()
            try:
                client.query(DiscoveryRequest(
                    mode="union", k=3, table=TARGET,
                    allow_stale=True, pin_version=2,
                ))
            except DiscoveryError as exc:
                assert exc.code == "version-conflict", exc.code
            else:
                raise SystemExit("pinned query served a stale table")

            # A strict query pays the lazy re-embed exactly once...
            strict = client.query(DiscoveryRequest(mode="union", k=3, table=TARGET))
            assert strict.diagnostics.get("refreshed") == 1, strict.diagnostics
            # ...after which the pin holds and nothing is stale.
            pinned = client.query(DiscoveryRequest(
                mode="union", k=3, table=TARGET, pin_version=2
            ))
            assert all(h.stale is False for h in pinned.hits)
            assert client.stats()["stale_tables"] == 0

            # Append over the wire (CLI --server): version 3.
            lake_cli([
                "append", "--server", f"127.0.0.1:{port}", "--table", TARGET,
                "--csv", str(root / "delta.csv"),
            ])
            assert client.stats()["max_version"] == 3
            stop_process(processes.pop()[0], "server")
            client.close()

            # Publish the mutated lake; a replica adopts it and serves the
            # appended table at its shipped version.
            snapshots = str(root / "snapshots")
            lake_cli(["publish", "--lake", lake, "--snapshots", snapshots])
            replica, rport = start_process(
                ["replica", "--snapshots", snapshots, "--port", "0"]
            )
            processes.append((replica, "replica"))
            rclient = LakeClient(port=rport, timeout=30.0)
            result = rclient.query(DiscoveryRequest(
                mode="union", k=6, table="g0t0"
            ))
            hit = next(h for h in result.hits if h.table == TARGET)
            assert hit.version == 3, "version lost in snapshot shipping"
            assert hit.stale is False, "replica must refresh at adoption"
            assert result.diagnostics["replica"] is True
            rclient.close()
        finally:
            stop_all(processes)
        print(
            "churn smoke OK: CLI append -> stale-stamped hits + 409 pin "
            "refusal -> lazy re-embed -> wire append (v3) -> publish -> "
            "replica adoption with versions intact, clean SIGINT shutdowns"
        )


if __name__ == "__main__":
    main()

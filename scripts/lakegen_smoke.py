"""CI smoke for the lakegen scenario harness — against a real server.

End to end, small scale:

- ``python -m repro.lakegen generate`` plants a ~1k-column lake twice and
  asserts the manifests are byte-identical (the determinism guarantee,
  checked in-CI on every run);
- a seed lake is built via the ``repro.lake`` CLI and a ``serve``
  subprocess hosts it;
- ``python -m repro.lakegen run --server`` provisions every manifest
  table over the wire, replays a mixed churn blend, and evaluates
  recall@k against the planted truth;
- the run record is checked: latency quantiles present and nonzero *and
  scraped from the server's /v1/metrics* (not client timers), union,
  join and subset recall above their floors, zero typed errors during
  churn;
- ``python -m repro.lakegen report`` folds the record into a scorecard,
  twice, asserting the second report carries zero deltas vs the first.

Run from the repo root::

    PYTHONPATH=src python scripts/lakegen_smoke.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from smoke_harness import lake_cli, start_process, stop_process

from repro.lakegen.__main__ import main as lakegen_cli
from repro.table.csvio import write_csv
from repro.table.schema import table_from_rows

COLUMNS = 1000
UNION_RECALL_FLOOR = 0.5
#: Join ranks by signature containment. At this shape (1 000 columns,
#: ``num_perm`` 16, 60 churn ops, 30 pairs) it read 0.909-1.000 over
#: manifest seeds 1-10 and churn seeds 11-13 (1.000 at seed 7); ranked by
#: the trunk's vectors it read 0.29-0.33.
JOIN_RECALL_FLOOR = 0.8
#: Subset ranks by signature containment too, each candidate column in the
#: query table. At the same shape (15-16 pairs) it read 1.000 over manifest
#: seeds 1-10; ranked by the trunk's vectors it read 0.81-1.00.
SUBSET_RECALL_FLOOR = 0.9


def build_seed_lake(root: Path) -> str:
    """The smallest ingestable lake — the server needs a bundle to serve;
    the manifest tables are provisioned over the wire afterwards."""
    csv_dir = root / "seed-csvs"
    for i in range(2):
        rows = [
            [f"seed{i}v{j}", str(i * 100 + j), f"tag{j % 3}"]
            for j in range(12)
        ]
        write_csv(
            table_from_rows(
                f"seed{i}", ["entity", "count", "tag"], rows,
                description=f"seed table {i}",
            ),
            csv_dir / f"seed{i}.csv",
        )
    lake = str(root / "lake")
    lake_cli([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    return lake


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lakegen-smoke-") as tmp:
        root = Path(tmp)

        # Determinism, end to end through the CLI: same flags, same bytes.
        first = root / "m1.json"
        second = root / "m2.json"
        for out in (first, second):
            rc = lakegen_cli([
                "generate", "--columns", str(COLUMNS), "--seed", "7",
                "--out", str(out),
            ])
            assert rc == 0, "generate failed"
        assert first.read_bytes() == second.read_bytes(), (
            "same-seed manifests are not byte-identical"
        )

        lake = build_seed_lake(root)
        server, port = start_process(["serve", "--lake", lake, "--port", "0"])
        run_path = root / "run.json"
        score_path = root / "scorecard.json"
        try:
            rc = lakegen_cli([
                "run", "--manifest", str(first),
                "--server", f"127.0.0.1:{port}",
                "--ops", "60", "--seed", "11", "--max-eval", "30",
                "--out", str(run_path),
            ])
            assert rc == 0, "run failed"
        finally:
            stop_process(server, "server")

        run = json.loads(run_path.read_text())
        assert run["target"] == {
            "kind": "server", "metrics_source": "/v1/metrics"
        }, run["target"]
        assert run["churn"]["errors"] == {}, (
            f"typed errors during churn: {run['churn']['errors']}"
        )
        union = run["recall"]["union"]["recall_at_k"]
        assert union is not None and union >= UNION_RECALL_FLOOR, (
            f"union recall {union} below floor {UNION_RECALL_FLOOR}"
        )
        join = run["recall"]["join"]["recall_at_k"]
        assert join is not None and join >= JOIN_RECALL_FLOOR, (
            f"join recall {join} below floor {JOIN_RECALL_FLOOR}"
        )
        subset = run["recall"]["subset"]["recall_at_k"]
        assert subset is not None and subset >= SUBSET_RECALL_FLOOR, (
            f"subset recall {subset} below floor {SUBSET_RECALL_FLOOR}"
        )

        # The latency story must come from the server's own histograms.
        histogram = run["metrics"]["metrics"]["lake_query_duration_ms"]
        total = sum(v["count"] for v in histogram["values"])
        assert total > 0, "server histogram saw no queries"
        assert all(
            v["p50"] is not None and v["p95"] is not None and v["p95"] > 0
            for v in histogram["values"]
        ), "server-scraped quantiles missing or zero"

        # Scorecard: reconciliation passes, and a re-report of the same
        # run shows zero deltas everywhere.
        for _ in range(2):
            rc = lakegen_cli([
                "report", "--run", str(run_path), "--out", str(score_path),
            ])
            assert rc == 0, "report failed"
        card = json.loads(score_path.read_text())
        assert card["latest"]["latency_ms"], "scorecard lost the latency story"
        for delta in card["deltas"]["recall"].values():
            assert delta["recall_at_k"] == 0.0
        for delta in card["deltas"]["latency_ms"].values():
            assert delta["p95"] == 0.0

    print(
        f"lakegen smoke OK: byte-identical {COLUMNS}-column manifests -> "
        f"wire provisioning + churn vs a live server ({total} queries in "
        f"the server histogram) -> union recall {union:.2f} >= "
        f"{UNION_RECALL_FLOOR}, join recall {join:.2f} >= "
        f"{JOIN_RECALL_FLOOR}, subset recall {subset:.2f} >= "
        f"{SUBSET_RECALL_FLOOR} -> reconciled scorecard with zero "
        "self-deltas, clean SIGINT shutdown"
    )


if __name__ == "__main__":
    main()

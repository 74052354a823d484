"""Subprocess smoke: the lake's serving loop end to end, with one ``serve``.

Builds a tiny lake of two groups of three tables through the CLI and
appends to one table while the lake is closed (version 2, stale on disk).
One ``python -m repro.lake serve`` subprocess then hosts it, and
:class:`~repro.lake.client.LakeClient` checks, in order:

- churn: an ``allow_stale`` query stamps the stale hit (``stale=true``,
  ``version=2``), a pin on the stale version gets the typed 409
  ``version-conflict``, a strict query pays the lazy re-embed once, after
  which the pin holds and nothing is stale;
- parity: hits over HTTP equal the in-process answer for the same
  ``DiscoveryRequest`` in all three modes;
- remote ingest, remove and versioned stats;
- telemetry: ``lake_queries_total`` moves by one per wire query, request
  ids round-trip, the Prometheus rendering carries the query histogram,
  and ``/v1/slow_queries`` holds ``lake.discover`` span trees;
- lakegen: ``generate`` twice gives byte-identical manifests, then ``run
  --server`` provisions ~1k columns over the wire and replays churn with
  zero typed errors and union / join / subset recall at or above 0.5 /
  0.8 / 0.9; the latency quantiles in its run record are scraped from the
  server, nonzero, and equal to the ones rebuilt from the scraped buckets
  with :func:`repro.obs.metrics.bucket_quantile`;
- a CLI ``append --server`` lands version 3 over the wire.

The server then stops on SIGINT and the lake ships: ``publish``, two
``replica`` subprocesses behind a ``frontend``, hits and stamps
byte-identical to the in-process leader, round-robin over both replicas,
the appended table served at version 3 and refreshed at adoption, the
read-only refusal, and generation 2 adopted by polling after the leader
ingests one more table. Every process must exit cleanly on SIGINT.

Run from the repo root::

    PYTHONPATH=src python scripts/smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.lake.__main__ import main as lake_cli  # noqa: E402
from repro.lake.api import DiscoveryError, DiscoveryRequest  # noqa: E402
from repro.lake.client import LakeClient  # noqa: E402
from repro.lake.service import LakeService  # noqa: E402
from repro.lakegen.__main__ import main as lakegen_cli  # noqa: E402
from repro.obs.metrics import bucket_quantile  # noqa: E402
from repro.table.csvio import write_csv  # noqa: E402
from repro.table.schema import table_from_rows  # noqa: E402

MODES = ("join", "union", "subset")
#: The table the churn section appends to.
TARGET = "g0t1"
STARTUP_TIMEOUT_S = 60.0
ADOPTION_TIMEOUT_S = 30.0
BANNERS = {
    "serve": "lake server listening on http://",
    "replica": "lake replica listening on http://",
    "frontend": "lake frontend listening on http://",
}

LAKEGEN_COLUMNS = 1000
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


def make_table(name: str, group: int, n_rows: int):
    rows = [
        [f"grp{group}v{i}", str((group + 1) * i), f"tag{i % 3}"]
        for i in range(n_rows)
    ]
    return table_from_rows(
        name, ["entity", "count", "tag"], rows, description=f"group {group}"
    )


def build_lake(root: Path) -> tuple[str, Path]:
    """Two groups of three tables, ingested through the CLI."""
    csv_dir = root / "csvs"
    for group in range(2):
        for member in range(3):
            name = f"g{group}t{member}"
            write_csv(make_table(name, group, 18 + member), csv_dir / f"{name}.csv")
    lake = str(root / "lake")
    lake_cli([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    return lake, csv_dir


def start_process(args: list[str]) -> tuple[subprocess.Popen, int]:
    """Launch ``python -m repro.lake <args>`` (a ``serve`` / ``replica`` /
    ``frontend``) and parse its ephemeral port off the banner."""
    banner = BANNERS[args[0]]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.lake", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    seen = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            if process.poll() is not None:
                raise SystemExit(
                    f"{args[0]} exited early (rc={process.returncode}): {seen}"
                )
            continue
        seen += line
        if banner in line:
            port = int(line.split(banner, 1)[1]
                       .split("]")[0].split(" ")[0].rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise SystemExit(f"{args[0]} never announced its port; output: {seen}")


def stop_all(processes: "list[tuple[subprocess.Popen, str]]") -> None:
    """SIGINT every ``(process, what)`` in reverse start order and require
    a clean exit within 30 s; one failure does not leave the rest running."""
    failures = []
    while processes:
        process, what = processes.pop()
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append(f"{what} did not shut down on SIGINT")
            continue
        if process.returncode != 0:
            failures.append(f"{what} exited rc={process.returncode}")
    if failures:
        raise SystemExit("; ".join(failures))


def hit_of(result, table: str):
    return next(hit for hit in result.hits if hit.table == table)


def rebuilt_quantiles(value: dict) -> dict:
    """p50/p95/p99 rebuilt from one scraped histogram value's cumulative
    ``buckets`` (edge string -> observations at or below it). The server
    sends them in edge order, ``+Inf`` last; they are ordered by parsed
    edge here all the same, so the check does not rest on key order."""
    finite = sorted(
        (float(edge), cumulative)
        for edge, cumulative in value["buckets"].items()
        if edge != "+Inf"
    )
    total = value["buckets"]["+Inf"]
    counts, below = [], 0
    for _, cumulative in finite:
        counts.append(cumulative - below)
        below = cumulative
    counts.append(total - below)
    assert min(counts) >= 0, f"non-monotonic buckets {value['buckets']}"
    edges = [edge for edge, _ in finite]
    return {
        name: bucket_quantile(edges, counts, total, q)
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
    }


def check_churn(client: LakeClient) -> None:
    """The closed-lake append shipped through the store: ``allow_stale``
    serves it stamped, a pin on it is refused typed, and one strict query
    re-embeds it."""
    stale = client.query(DiscoveryRequest(
        mode="union", k=6, table="g0t0", allow_stale=True
    ))
    hit = hit_of(stale, TARGET)
    assert hit.stale is True and hit.version == 2, hit.to_dict()
    try:
        client.query(DiscoveryRequest(
            mode="union", k=3, table=TARGET, allow_stale=True, pin_version=2,
        ))
    except DiscoveryError as exc:
        assert exc.code == "version-conflict", exc.code
    else:
        raise SystemExit("pinned query served a stale table")
    strict = client.query(DiscoveryRequest(mode="union", k=3, table=TARGET))
    assert strict.diagnostics.get("refreshed") == 1, strict.diagnostics
    pinned = client.query(DiscoveryRequest(
        mode="union", k=3, table=TARGET, pin_version=2
    ))
    assert all(h.stale is False for h in pinned.hits)
    assert client.stats()["stale_tables"] == 0


def check_parity_and_writes(client: LakeClient, lake: str) -> None:
    local = LakeService.open(lake)
    for mode in MODES:
        request = DiscoveryRequest(mode=mode, k=4, table="g1t1")
        remote = client.query(request).scored()
        in_process = local.discover(request).scored()
        assert remote == in_process, (
            f"{mode}: HTTP {remote} != in-process {in_process}"
        )

    fresh = table_from_rows(
        "smoked", ["entity", "count", "tag"],
        [[f"grp0v{i}", str(i), "tag0"] for i in range(12)],
    )
    before = client.stats()["n_tables"]
    assert client.add_table(fresh)["n_tables"] == before + 1
    hits = client.query(DiscoveryRequest(mode="union", k=3, table="smoked"))
    assert hits.tables(), "freshly ingested table must be queryable"
    assert client.remove_table("smoked")["n_tables"] == before
    stats = client.stats()
    assert stats["api_version"] == "v1"
    assert sum(stats["shard_tables"]) == stats["n_tables"]


def check_telemetry(client: LakeClient) -> None:
    def queries_total(snapshot: dict) -> float:
        metric = snapshot["metrics"]["lake_queries_total"]
        return sum(entry["value"] for entry in metric["values"])

    first = client.metrics()
    assert first["version"] == "v1"
    client.query(DiscoveryRequest(mode="union", k=3, table="g0t0"))
    assert queries_total(client.metrics()) == queries_total(first) + 1, (
        "lake_queries_total must increment across wire queries"
    )
    assert client.last_request_id, "client must learn its request id"
    exposition = client.metrics_text()
    assert "# TYPE lake_queries_total counter" in exposition
    assert 'lake_query_duration_ms_bucket{mode="union",le="+Inf"}' in exposition
    slow = client.slow_queries()
    assert slow and slow[0]["spans"]["name"] == "lake.discover"


def check_lakegen(root: Path, port: int) -> str:
    """Byte-identical manifests, then churn and recall against the server;
    returns the recall summary."""
    first, second = root / "m1.json", root / "m2.json"
    for out in (first, second):
        assert lakegen_cli([
            "generate", "--columns", str(LAKEGEN_COLUMNS), "--seed", "7",
            "--out", str(out),
        ]) == 0, "generate failed"
    assert first.read_bytes() == second.read_bytes(), (
        "same-seed manifests are not byte-identical"
    )
    run_path = root / "run.json"
    assert lakegen_cli([
        "run", "--manifest", str(first), "--server", f"127.0.0.1:{port}",
        "--ops", "60", "--seed", "11", "--max-eval", "30",
        "--out", str(run_path),
    ]) == 0, "run failed"

    run = json.loads(run_path.read_text())
    assert run["target"] == {"kind": "server", "metrics_source": "/v1/metrics"}
    assert run["churn"]["errors"] == {}, (
        f"typed errors during churn: {run['churn']['errors']}"
    )
    recall = {}
    for mode, floor in (
        ("union", UNION_RECALL_FLOOR),
        ("join", JOIN_RECALL_FLOOR),
        ("subset", SUBSET_RECALL_FLOOR),
    ):
        recall[mode] = run["recall"][mode]["recall_at_k"]
        assert recall[mode] is not None and recall[mode] >= floor, (
            f"{mode} recall {recall[mode]} below floor {floor}"
        )

    # The latency story comes from the server's own histogram, and its
    # exposed quantiles are the ones its cumulative buckets give.
    values = run["metrics"]["metrics"]["lake_query_duration_ms"]["values"]
    assert sum(v["count"] for v in values) > 0, "server histogram saw no queries"
    for value in values:
        assert value["p50"] is not None and value["p95"] > 0, value
        exposed = {name: value[name] for name in ("p50", "p95", "p99")}
        assert rebuilt_quantiles(value) == exposed, (
            f"{value['labels']}: exposed {exposed} != rebuilt from buckets"
        )
    return ", ".join(f"{mode} {value:.2f}" for mode, value in recall.items())


def check_replicas(
    lake: str, csv_dir: Path, snapshots: str, processes: list
) -> None:
    """Publish, two polling replicas behind a frontend, parity with the
    leader, versions surviving shipping, read-only refusal, generation 2."""
    lake_cli(["publish", "--lake", lake, "--snapshots", snapshots])
    ports = []
    for i in range(2):
        process, port = start_process([
            "replica", "--snapshots", snapshots,
            "--port", "0", "--poll-interval", "0.5",
        ])
        processes.append((process, f"replica {i}"))
        ports.append(port)
    backends = ",".join(f"127.0.0.1:{p}" for p in ports)
    process, proxy_port = start_process(
        ["frontend", "--backends", backends, "--port", "0"]
    )
    processes.append((process, "frontend"))

    leader = LakeService.open(lake)
    # Each replica refreshed the shipped stale table at adoption; a strict
    # join reads no vector and no longer refreshes, so the leader refreshes
    # first to serve the same stamps.
    leader.refresh_stale()
    with LakeClient(port=proxy_port, timeout=30.0) as client:
        assert client.healthz()["status"] == "ok"
        for mode in MODES:
            request = DiscoveryRequest(mode=mode, k=4, table="g1t1")
            local = json.dumps([h.to_dict() for h in leader.discover(request).hits])
            remote = client.query(request)
            assert json.dumps([h.to_dict() for h in remote.hits]) == local, (
                f"{mode}: frontend hits diverge from in-process leader"
            )
            assert remote.diagnostics["replica"] is True
            assert remote.diagnostics["generation"] == 1
            assert remote.diagnostics["fingerprint"], "fingerprint stamp"

        # The wire append shipped stale; every replica refreshed it at
        # adoption and serves it at its shipped version.
        for _ in ports:
            hit = hit_of(
                client.query(DiscoveryRequest(mode="union", k=6, table="g0t0")),
                TARGET,
            )
            assert hit.version == 3, "version lost in snapshot shipping"
            assert hit.stale is False, "replica must refresh at adoption"

        handshake = client._request("GET", "/v1/replicas")
        counts = [b["requests"] for b in handshake["backends"]]
        assert len(counts) == 2 and all(c >= 1 for c in counts), counts

        try:
            client.add_table(make_table("forbidden", 0, 8))
        except DiscoveryError as exc:
            assert exc.code == "bad-request" and "read-only" in exc.message
        else:
            raise SystemExit("replica accepted a mutation")

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
            stats["replica"]["generation"] != 2 and time.monotonic() < deadline
        ):  # round-robin may land on the replica that polls a beat later
            time.sleep(0.25)
            stats = client.stats()
        assert stats["replica"]["generation"] == 2
        assert stats["replica"]["swaps"] >= 2


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="lake-smoke-") as tmp:
        root = Path(tmp)
        lake, csv_dir = build_lake(root)
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
            with LakeClient(port=port, timeout=30.0) as client:
                assert client.healthz()["status"] == "ok"
                check_churn(client)
                print("smoke: stale stamps, 409 pin refusal, one lazy re-embed")
                check_parity_and_writes(client, lake)
                check_telemetry(client)
                print("smoke: 3-mode parity, remote writes, telemetry")
                recall = check_lakegen(root, port)
                print(f"smoke: lakegen recall {recall}, quantiles reconciled")
                lake_cli([
                    "append", "--server", f"127.0.0.1:{port}",
                    "--table", TARGET, "--csv", str(root / "delta.csv"),
                ])
                hit = hit_of(client.query(DiscoveryRequest(
                    mode="union", k=6, table="g0t0", allow_stale=True
                )), TARGET)
                assert hit.version == 3 and hit.stale is True, hit.to_dict()
            stop_all(processes)
            check_replicas(lake, csv_dir, str(root / "snapshots"), processes)
            print("smoke: replica parity, v3 shipped, read-only, generation 2")
        finally:
            stop_all(processes)
    print("smoke OK")


if __name__ == "__main__":
    main()

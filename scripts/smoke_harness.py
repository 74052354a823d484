"""What the four ``scripts/*_smoke.py`` scenarios share: putting ``src`` on
the path, a tiny grouped lake built through the CLI, and starting / stopping
``python -m repro.lake`` subprocesses on ephemeral ports."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.lake.__main__ import main as lake_cli  # noqa: E402
from repro.table.csvio import write_csv  # noqa: E402
from repro.table.schema import table_from_rows  # noqa: E402

STARTUP_TIMEOUT_S = 60.0
BANNERS = {
    "serve": "lake server listening on http://",
    "replica": "lake replica listening on http://",
    "frontend": "lake frontend listening on http://",
}


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


def stop_process(process: subprocess.Popen, what: str) -> None:
    """SIGINT, then require a clean exit within 30 s."""
    process.send_signal(signal.SIGINT)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise SystemExit(f"{what} did not shut down on SIGINT")
    assert process.returncode == 0, f"{what} exited rc={process.returncode}"


def stop_all(processes: "list[tuple[subprocess.Popen, str]]") -> None:
    """Stop every ``(process, what)`` in reverse start order; one failure
    does not leave the rest running."""
    failures = []
    for process, what in reversed(processes):
        try:
            stop_process(process, what)
        except (SystemExit, AssertionError) as exc:
            failures.append(str(exc))
    if failures:
        raise SystemExit("; ".join(failures))

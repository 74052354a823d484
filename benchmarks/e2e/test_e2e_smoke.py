"""Self-test of the lake benchmark (``pytest benchmarks/e2e``; not under
``testpaths``, so the tier-1 suite never pays for it).

Two ``--smoke`` runs (1 000 columns): every metric ``BENCHMARK.json``
declares is emitted exactly once per declared workload with its unit, names
are well formed, exact counts repeat, nothing is written to stderr and no
scratch directory survives.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT_COUNTS = (
    "core.engine.forwards",
    "lake.catalog.embed_calls",
    "lake.store.files",
)


def smoke(out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    # Needs the LakeClient closed before ServerThread.stop(): an open
    # keep-alive connection prints a CancelledError traceback at teardown.
    assert done.stderr == ""
    assert not (HERE / ".work").exists(), "a scratch directory survived"
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("e2e")
    return [smoke(out / "first.json"), smoke(out / "second.json")]


def test_names_are_well_formed_and_unique(spec):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in spec[key]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_every_declared_metric_once_per_workload_with_its_unit(spec, records):
    workloads = records[0]["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in spec["workloads"])
    for row in workloads.values():
        for kind in ("end_to_end", "per_layer"):
            for entry in spec[kind]:
                cell = row[kind][entry["name"]]  # a dict key: at most once
                assert cell["unit"] == entry["unit"]
                value = cell["median"] if kind == "end_to_end" else cell["value"]
                assert isinstance(value, (int, float))
        assert all(cell["median"] > 0 for cell in row["end_to_end"].values())
        assert row["failed_ops_share"] == 0


def test_exact_counts_and_recall_repeat(records):
    first, second = (record["workloads"] for record in records)
    for workload in first:
        for name in EXACT_COUNTS:
            assert (
                first[workload]["per_layer"][name]["value"]
                == second[workload]["per_layer"][name]["value"]
            ), (workload, name)
    for workload in ("query_member", "churn_live"):
        for mode in ("join", "union", "subset"):
            name = f"quality.recall_at_10_{mode}"
            assert (
                first[workload]["per_layer"][name]["value"]
                == second[workload]["per_layer"][name]["value"]
            )


def test_contract_line_is_the_last_line_of_stdout(spec):
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ingest_cold",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--columns", "1000"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(e["name"] for e in spec["end_to_end"])

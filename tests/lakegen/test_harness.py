"""Churn driver: truth-preserving churn, recall against the planted truth,
and latency scraped from the target's own metrics into the run record."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.lakegen.__main__ import build_parser, main
from repro.lakegen.driver import (
    ChurnSpec,
    DEFAULT_BLEND,
    ServiceTarget,
    build_service,
    evaluate_recall,
    parse_blend,
    provision,
    run_churn,
    run_scenario,
)
from repro.lakegen.generator import LakeSpec, generate_manifest, manifest_bytes
from repro.obs.metrics import bucket_quantile


@pytest.fixture(scope="module")
def manifest() -> dict:
    return generate_manifest(LakeSpec(columns=120, seed=7))


@pytest.fixture(scope="module")
def scenario_run(manifest) -> dict:
    """One provision -> churn -> eval cycle, shared across assertions
    (building the embedding stack dominates the test's cost)."""
    obs.get_registry().reset()
    target = ServiceTarget(build_service(manifest, sample_tables=16))
    return run_scenario(
        target, manifest, ChurnSpec(ops=50, seed=11), k=10, max_eval=20
    )


def test_scenario_provisions_everything(scenario_run, manifest):
    assert scenario_run["provisioned"] == len(manifest["order"])
    assert scenario_run["format"] == "lakegen-run/v1"
    assert scenario_run["target"] == {
        "kind": "service",
        "metrics_source": "registry",
    }


def test_churn_is_truth_preserving(scenario_run):
    churn = scenario_run["churn"]
    assert sum(churn["counts"].values()) == 50
    # No typed errors: pinned strict queries succeed because the driver
    # tracks every version bump it causes.
    assert churn["errors"] == {}
    # Removes only ever touched churn-ingested distractors.
    assert churn["distractors_ingested"] >= churn["counts"]["remove"]


def test_recall_evaluates_against_planted_truth(scenario_run, manifest):
    recall = scenario_run["recall"]
    assert set(recall) == {"join", "union", "subset"}
    for mode, stats in recall.items():
        assert stats["planted"] == len(manifest["truth"][mode])
        assert stats["evaluated"] >= 1
        assert 0.0 <= stats["recall_at_k"] <= 1.0
        assert 0.0 <= stats["mrr"] <= stats["recall_at_k"]
    # Union partners are column permutations — the representation is
    # permutation-invariant, so planted unions must rank near-perfectly
    # even after churn.
    assert recall["union"]["recall_at_k"] >= 0.5


def test_metrics_scraped_not_timed(scenario_run):
    envelope = scenario_run["metrics"]
    assert envelope["enabled"] is True
    histogram = envelope["metrics"]["lake_query_duration_ms"]
    total = sum(v["count"] for v in histogram["values"])
    # Every churn query AND every eval query went through the histogram.
    churn_queries = scenario_run["churn"]["counts"]["query"]
    evaluated = sum(s["evaluated"] for s in scenario_run["recall"].values())
    assert total >= churn_queries + evaluated


def test_latency_quantiles_reconcile_with_buckets(scenario_run):
    """Every scraped latency series in the run record rebuilds its exposed
    p50/p95/p99 from its own cumulative buckets."""
    values = scenario_run["metrics"]["metrics"]["lake_query_duration_ms"]["values"]
    assert values  # at least one mode was queried
    for value in values:
        buckets = dict(value["buckets"])
        total = buckets.pop("+Inf")
        assert total == value["count"] > 0
        edges, cumulative = zip(*sorted(
            (float(edge), count) for edge, count in buckets.items()
        ))
        counts = [b - a for a, b in zip((0, *cumulative), (*cumulative, total))]
        assert min(counts) >= 0
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            assert bucket_quantile(list(edges), counts, total, q) == value[name]
        assert value["p50"] <= value["p95"] <= value["p99"]


def test_counter_total_and_slowest_stages(scenario_run):
    """The query counter agrees with the latency histogram mode by mode,
    and every slow-query entry carries its span tree rooted at the
    request's own total."""
    metrics = scenario_run["metrics"]["metrics"]
    counted = {
        v["labels"]["mode"]: v["value"]
        for v in metrics["lake_queries_total"]["values"]
    }
    timed = {
        v["labels"]["mode"]: v["count"]
        for v in metrics["lake_query_duration_ms"]["values"]
    }
    assert counted == timed and sum(counted.values()) > 0
    slow = scenario_run["slow_queries"]
    assert slow
    for entry in slow:
        assert entry["mode"] in {"join", "union", "subset"}
        assert entry["total_ms"] > 0
        root = entry["spans"]
        assert root["name"] == "lake.discover"
        assert root["duration_ms"] == entry["total_ms"]
        for child in root.get("children", []):
            assert child["name"].startswith("lake.")
            assert 0 <= child["duration_ms"] <= root["duration_ms"]


def test_cli_has_generate_and_run_only():
    parser = build_parser()
    (verbs,) = [
        action.choices for action in parser._actions if action.choices
    ]
    assert set(verbs) == {"generate", "run"}
    with pytest.raises(SystemExit):
        parser.parse_args(["report"])


def test_cli_generate_is_byte_identical(tmp_path, capsys):
    outputs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outputs:
        assert main(["generate", "--columns", "120", "--out", str(out)]) == 0
    raw = manifest_bytes(generate_manifest(LakeSpec(columns=120, seed=7)))
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == raw
    assert capsys.readouterr().out.count(hashlib.sha256(raw).hexdigest()) == 2


def test_cli_run_writes_the_run_record(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    record = tmp_path / "run.json"
    assert main(["generate", "--columns", "120", "--out", str(manifest)]) == 0
    obs.get_registry().reset()
    assert main([
        "run", "--manifest", str(manifest), "--ops", "20", "--max-eval", "5",
        "--out", str(record),
    ]) == 0
    run = json.loads(record.read_text())
    assert run["format"] == "lakegen-run/v1"
    assert set(run["recall"]) == {"join", "union", "subset"}
    assert run["churn"]["errors"] == {}
    assert run["metrics"]["metrics"]["lake_query_duration_ms"]["values"]
    assert "slow_queries" in run
    out = capsys.readouterr().out
    for mode in run["recall"]:
        assert f"[{mode}]" in out


def test_churn_spec_validation():
    with pytest.raises(ValueError):
        ChurnSpec(ops=-1)
    with pytest.raises(ValueError):
        ChurnSpec(blend=(("query", 0.0),))
    with pytest.raises(ValueError):
        ChurnSpec(blend=(("teleport", 1.0),))
    with pytest.raises(ValueError):
        ChurnSpec(stale_fraction=1.5)


def test_parse_blend():
    blend = parse_blend("query=3,append=1")
    assert blend == (("query", 3.0), ("append", 1.0))
    with pytest.raises(ValueError):
        parse_blend("warp=1")
    with pytest.raises(ValueError):
        parse_blend("query=zero")
    with pytest.raises(ValueError):
        parse_blend("query=0")
    assert dict(DEFAULT_BLEND)["query"] > 0

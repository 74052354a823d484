"""Summarize results/*.json into markdown tables (README "Scale-down
substitutions" says what the scaled-down numbers are for).

Run after `pytest benchmarks/ --benchmark-only`:

    python scripts/summarize_results.py            # print everything
    python scripts/summarize_results.py table5     # one experiment
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Registered experiments, in presentation order: the paper tables/figures
#: first, then the systems benches. Unregistered result files are appended
#: alphabetically so nothing is silently dropped.
EXPERIMENT_ORDER = [
    "table1_datasets",
    "table2_lakebench",
    "table3_ablation_only",
    "table4_ablation_remove",
    "table5_wikijoin_search",
    "table6_santos_union",
    "table7_tus_union",
    "table8_eurostat_subset",
    "fig8_transfer",
    "pretraining_stats",
    "sketch_micro",
    "lake_service",
    "embed_engine",
    "sharded_lake",
    "discovery_api",
    "obs_overhead",
    "replicated_lake",
    "lakegen_harness",
    "lakegen_scorecard",
]


def _order_key(path: Path) -> tuple[int, str]:
    for rank, stem in enumerate(EXPERIMENT_ORDER):
        if stem in path.stem:
            return (rank, path.stem)
    return (len(EXPERIMENT_ORDER), path.stem)


def markdown_table(rows: list[dict]) -> str:
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    lines = [
        "| " + " | ".join(str(k) for k in keys) + " |",
        "|" + "|".join("---" for _ in keys) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(row.get(k, "")) for k in keys) + " |")
    return "\n".join(lines)


def _format_delta(value) -> str:
    return f"{value:+.3f}" if isinstance(value, (int, float)) else "—"


def print_scorecard(payload: dict) -> None:
    """lakegen scorecards carry latest/previous/deltas instead of rows:
    render the two most recent runs side by side with regression deltas."""
    latest = payload.get("latest") or {}
    previous = payload.get("previous") or {}
    deltas = payload.get("deltas") or {}
    print(f"\n## lakegen scorecard\n")
    print(
        f"target `{latest.get('target')}` (metrics from "
        f"`{latest.get('metrics_source')}`), "
        f"{latest.get('tables')} tables / {latest.get('columns')} columns, "
        f"{len(payload.get('runs', []))} older run(s) in history"
    )
    recall_rows = []
    for mode, stats in (latest.get("recall") or {}).items():
        prior = (previous.get("recall") or {}).get(mode, {})
        delta = (deltas.get("recall") or {}).get(mode, {})
        recall_rows.append({
            "mode": mode,
            "recall@k": stats.get("recall_at_k"),
            "prev": prior.get("recall_at_k", "—"),
            "delta": _format_delta(delta.get("recall_at_k")),
            "mrr": stats.get("mrr"),
            "evaluated": stats.get("evaluated"),
        })
    if recall_rows:
        print()
        print(markdown_table(recall_rows))
    latency_rows = []
    for label, stats in (latest.get("latency_ms") or {}).items():
        prior = (previous.get("latency_ms") or {}).get(label, {})
        delta = (deltas.get("latency_ms") or {}).get(label, {})
        latency_rows.append({
            "series": label,
            "p50 ms": stats.get("p50"),
            "p95 ms": stats.get("p95"),
            "p99 ms": stats.get("p99"),
            "prev p95": prior.get("p95", "—"),
            "Δp95": _format_delta(delta.get("p95")),
            "queries": stats.get("count"),
        })
    if latency_rows:
        print()
        print(markdown_table(latency_rows))
    counters = latest.get("counters") or {}
    if counters:
        print(f"\n**counters**: `{json.dumps(counters)}`")


def main() -> None:
    selector = sys.argv[1] if len(sys.argv) > 1 else ""
    paths = sorted(RESULTS.glob("*.json"), key=_order_key)
    # Registered experiments with no checked-in result file are a warning,
    # not a crash — most benches only run on demand, so a partial results/
    # dir is the normal state.
    present = {path.stem for path in paths}
    missing = [
        stem
        for stem in EXPERIMENT_ORDER
        if (not selector or selector in stem)
        and not any(stem in found for found in present)
    ]
    for stem in missing:
        print(
            f"warning: no result file for registered experiment {stem!r} "
            f"(expected results/{stem}.json); skipping",
            file=sys.stderr,
        )
    if not paths:
        print(f"no results in {RESULTS}; run `pytest benchmarks/ --benchmark-only`")
        return
    for path in paths:
        if selector and selector not in path.stem:
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"warning: unreadable result file {path.name} ({exc}); skipping",
                file=sys.stderr,
            )
            continue
        if not isinstance(payload, dict):
            print(
                f"warning: result file {path.name} is not a JSON object; skipping",
                file=sys.stderr,
            )
            continue
        if payload.get("format") == "lakegen-scorecard/v1":
            print_scorecard(payload)
            continue
        print(f"\n## {payload.get('title', path.stem)}\n")
        print(markdown_table(payload.get("rows", [])))
        for key, value in payload.items():
            if key in ("experiment", "title", "rows"):
                continue
            print(f"\n**{key}**: `{json.dumps(value)}`")


if __name__ == "__main__":
    main()

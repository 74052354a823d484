"""Render the committed results, then the local results/*.json, as markdown.

The committed part (:func:`committed_results`) is README's Results block,
verbatim: the lake benchmark's trajectory (`benchmarks/e2e/runs/BENCH_*.json`)
and the retrieval-quality rows (`results/quality/*.json`, written by
`scripts/quality.py`). `tests/test_readme.py` fails when the block and the
files disagree; paste this script's first block between README's
`<!-- results:begin -->` / `<!-- results:end -->` markers to regenerate it.
The local part is the paper benches' `results/*.json`, which stay
uncommitted (README "Scale-down substitutions" says what the scaled-down
numbers are for). Run after `pytest benchmarks/ --benchmark-only`:

    python scripts/summarize_results.py            # print everything
    python scripts/summarize_results.py table5     # one local experiment
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

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
    "obs_overhead",
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


def _cell(value, spec: str) -> str:
    return format(value, spec) if isinstance(value, float) else str(value)


def _fields(fields: dict) -> str:
    return ", ".join(f"{key} {value}" for key, value in fields.items())


def _section(title: str, notes: list[str], rows: list[dict]) -> str:
    return f"### {title}\n\n" + "\n".join(notes) + "\n\n" + markdown_table(rows)


def _bench_number(path: Path) -> int:
    return int(re.search(r"\d+", path.stem).group())


def committed_results(root: Path = ROOT) -> str:
    """README's Results block, from committed files only: the end-to-end
    median of every workload and metric in every `BENCH_*.json`, one column
    per file in PR order, with each file's host; then recall@k / MRR per
    ranking of every `results/quality/*.json`, with its lake and model."""
    runs = root / "benchmarks" / "e2e" / "runs"
    notes, cells = [], {}
    for path in sorted(runs.glob("BENCH_*.json"), key=_bench_number):
        bench = json.loads(path.read_text())
        host = bench["host"]
        notes.append(
            f"- `{path.name}`: medians of {bench['repeat']} runs of "
            f"{bench['seconds']} s, seed {bench['seed']}, {bench['columns']} "
            f"columns; {host['cores']} cores, {host['machine']}, numpy "
            f"{host['numpy']}, {host['blas']['name']} {host['blas']['version']}."
        )
        for workload, result in bench["workloads"].items():
            for metric, cell in result["end_to_end"].items():
                row = cells.setdefault(
                    (workload, metric),
                    {"workload": workload, "metric": f"{metric} ({cell['unit']})"},
                )
                row[path.stem] = _cell(cell["median"], ".4g")
    bench_part = _section(
        "Lake benchmark, `benchmarks/e2e/runs/`", notes, list(cells.values())
    )
    notes, rows = [], []
    for path in sorted((root / "results" / "quality").glob("*.json")):
        quality = json.loads(path.read_text())
        notes.append(
            f"- `{path.name}`: {quality['metric']}. Lake: "
            f"{_fields(quality['lake'])}. Model: {_fields(quality['model'])}."
        )
        rows += [
            {"file": path.name, "ranking": name}
            | {key: _cell(value, ".3f") for key, value in row.items()}
            for name, row in quality["rows"].items()
        ]
    quality_part = _section("Retrieval quality, `results/quality/`", notes, rows)
    return bench_part + "\n\n" + quality_part


def main() -> None:
    selector = sys.argv[1] if len(sys.argv) > 1 else ""
    if not selector:
        print(committed_results())
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
        print(f"\n## {payload.get('title', path.stem)}\n")
        print(markdown_table(payload.get("rows", [])))
        for key, value in payload.items():
            if key in ("experiment", "title", "rows"):
                continue
            print(f"\n**{key}**: `{json.dumps(value)}`")


if __name__ == "__main__":
    main()

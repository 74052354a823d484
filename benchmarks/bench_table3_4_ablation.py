"""Tables III and IV — sketch-family ablations (seed 0, as in the paper).

Each task fine-tunes the full model once, beside the "using only" one
family selections (Table III) and the "removing" one family selections
(Table IV); both tables share that full reference column.

Expected shape, Table III: MinHash-only ≈ full model on join tasks;
numerical-only ≈ full model on CKAN Subset; the content snapshot is weak
alone. Table IV: removing MinHash hurts join tasks most; removing numerical
sketches hurts the numeric-heavy tasks (ECB Union / CKAN Subset); removing
the content snapshot is mild. TUS-SANTOS is excluded ("it can be performed
based on column headers alone").
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetune_tabsketchfm
from repro.core.ablation import ONLY_SELECTIONS, REMOVE_SELECTIONS, ablation_selections
from repro.lakebench import DATASET_BUILDERS

#: Scaled-down ablation: the five most sketch-diagnostic tasks (the paper
#: runs all seven; Spider-OpenData and ECB Join behave like Wiki Jaccard
#: here and are omitted for bench runtime — see README "Scale-down
#: substitutions").
SCALE = 0.6
TASKS = [
    "Wiki Union", "ECB Union", "Wiki Jaccard", "Wiki Containment",
    "CKAN Subset",
]


@pytest.fixture(scope="module")
def ablation_scores() -> dict[str, dict[str, float]]:
    """task -> selection label -> test metric, ``full`` included."""
    scores = {}
    for task_name in TASKS:
        dataset = DATASET_BUILDERS[task_name](scale=SCALE)
        scores[task_name] = {
            label: round(finetune_tabsketchfm(
                dataset, selection, epochs=8, learning_rate=2e-3, dropout=0.0
            )[0], 3)
            for label, selection in ablation_selections("all").items()
        }
        print(f"  [ablation] {task_name}: {scores[task_name]}")
    return scores


def _rows(scores: dict[str, dict[str, float]], labels) -> list[dict]:
    """One table's rows: each task's ``labels`` columns, then ``full``."""
    return [
        {"task": task, **{label: row[label] for label in [*labels, "full"]}}
        for task, row in scores.items()
    ]


def bench_table3_sketch_ablation_only(benchmark, ablation_scores):
    rows = _rows(ablation_scores, ONLY_SELECTIONS)
    emit(
        "table3_ablation_only",
        "Table III — TabSketchFM with only one sketch family",
        rows,
    )
    dataset = DATASET_BUILDERS["Wiki Jaccard"](scale=0.2)
    benchmark.pedantic(
        lambda: finetune_tabsketchfm(
            dataset, ONLY_SELECTIONS["only_minhash"], epochs=2
        )[0],
        rounds=1, iterations=1,
    )

    by_task = {row["task"]: row for row in rows}
    # MinHash-only stays within reach of the full model on join regression.
    for task in ("Wiki Jaccard", "Wiki Containment"):
        row = by_task[task]
        assert row["only_minhash"] >= row["full"] - 0.15
        assert row["only_minhash"] > row["only_snapshot"]
    # Numerical sketches alone carry the subset task.
    ckan = by_task["CKAN Subset"]
    assert ckan["only_numeric"] >= ckan["full"] - 0.15


def bench_table4_sketch_ablation_remove(benchmark, ablation_scores):
    rows = _rows(ablation_scores, REMOVE_SELECTIONS)
    emit(
        "table4_ablation_remove",
        "Table IV — TabSketchFM with one sketch family removed",
        rows,
    )
    dataset = DATASET_BUILDERS["Wiki Containment"](scale=0.2)
    benchmark.pedantic(
        lambda: finetune_tabsketchfm(
            dataset, REMOVE_SELECTIONS["no_minhash"], epochs=2
        )[0],
        rounds=1, iterations=1,
    )

    by_task = {row["task"]: row for row in rows}
    # Join tasks lose the most from dropping MinHash sketches.
    for task in ("Wiki Jaccard", "Wiki Containment"):
        row = by_task[task]
        assert row["no_minhash"] <= row["full"] + 0.05
        assert row["no_minhash"] <= row["no_snapshot"] + 0.1

"""Table III — "using only" one sketch family (seed 0, as in the paper).

Expected shape: MinHash-only ≈ full model on join tasks; numerical-only ≈
full model on CKAN Subset; the content snapshot is weak alone.
TUS-SANTOS is excluded ("it can be performed based on column headers alone").
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetune_tabsketchfm
from repro.core.ablation import FULL_SELECTION, ONLY_SELECTIONS
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
def table3_rows():
    rows = []
    for task_name in TASKS:
        dataset = DATASET_BUILDERS[task_name](scale=SCALE)
        row = {"task": task_name}
        for label, selection in ONLY_SELECTIONS.items():
            score, _, _, _ = finetune_tabsketchfm(
                dataset, selection, epochs=8, learning_rate=2e-3, dropout=0.0
            )
            row[label] = round(score, 3)
        full, _, _, _ = finetune_tabsketchfm(
            dataset, FULL_SELECTION, epochs=8, learning_rate=2e-3, dropout=0.0
        )
        row["full"] = round(full, 3)
        print(f"  [table3] {row}")
        rows.append(row)
    return rows


def bench_table3_sketch_ablation_only(benchmark, table3_rows):
    emit(
        "table3_ablation_only",
        "Table III — TabSketchFM with only one sketch family",
        table3_rows,
    )
    dataset = DATASET_BUILDERS["Wiki Jaccard"](scale=0.2)
    benchmark.pedantic(
        lambda: finetune_tabsketchfm(
            dataset, ONLY_SELECTIONS["only_minhash"], epochs=2
        )[0],
        rounds=1, iterations=1,
    )

    by_task = {row["task"]: row for row in table3_rows}
    # MinHash-only stays within reach of the full model on join regression.
    for task in ("Wiki Jaccard", "Wiki Containment"):
        row = by_task[task]
        assert row["only_minhash"] >= row["full"] - 0.15
        assert row["only_minhash"] > row["only_snapshot"]
    # Numerical sketches alone carry the subset task.
    ckan = by_task["CKAN Subset"]
    assert ckan["only_numeric"] >= ckan["full"] - 0.15

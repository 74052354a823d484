"""Table IV — removing one sketch family at a time (seed 0).

Expected shape: removing MinHash hurts join tasks most; removing numerical
sketches hurts the numeric-heavy tasks (ECB Union / CKAN Subset); removing
the content snapshot is mild.
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetune_tabsketchfm
from repro.core.ablation import FULL_SELECTION, REMOVE_SELECTIONS
from repro.lakebench import DATASET_BUILDERS

#: Same reduced task set as Table III (see note there / README "Scale-down
#: substitutions").
SCALE = 0.6
TASKS = [
    "Wiki Union", "ECB Union", "Wiki Jaccard", "Wiki Containment",
    "CKAN Subset",
]


@pytest.fixture(scope="module")
def table4_rows():
    rows = []
    for task_name in TASKS:
        dataset = DATASET_BUILDERS[task_name](scale=SCALE)
        row = {"task": task_name}
        for label, selection in REMOVE_SELECTIONS.items():
            score, _, _, _ = finetune_tabsketchfm(
                dataset, selection, epochs=8, learning_rate=2e-3, dropout=0.0
            )
            row[label] = round(score, 3)
        full, _, _, _ = finetune_tabsketchfm(
            dataset, FULL_SELECTION, epochs=8, learning_rate=2e-3, dropout=0.0
        )
        row["full"] = round(full, 3)
        print(f"  [table4] {row}")
        rows.append(row)
    return rows


def bench_table4_sketch_ablation_remove(benchmark, table4_rows):
    emit(
        "table4_ablation_remove",
        "Table IV — TabSketchFM with one sketch family removed",
        table4_rows,
    )
    dataset = DATASET_BUILDERS["Wiki Containment"](scale=0.2)
    benchmark.pedantic(
        lambda: finetune_tabsketchfm(
            dataset, REMOVE_SELECTIONS["no_minhash"], epochs=2
        )[0],
        rounds=1, iterations=1,
    )

    by_task = {row["task"]: row for row in table4_rows}
    # Join tasks lose the most from dropping MinHash sketches.
    for task in ("Wiki Jaccard", "Wiki Containment"):
        row = by_task[task]
        assert row["no_minhash"] <= row["full"] + 0.05
        assert row["no_minhash"] <= row["no_snapshot"] + 0.1

"""Experiment plumbing shared by benches, examples and integration tests."""

from __future__ import annotations

import numpy as np

from repro.core.finetune import PairExample, TaskType
from repro.eval.metrics import multilabel_weighted_f1, r2_score, weighted_f1
from repro.lakebench.base import TablePair, TablePairDataset
from repro.sketch.minhash import MinHasher
from repro.sketch.pipeline import SketchConfig, TableSketch, sketch_table
from repro.table.schema import Table


def sketch_cache(
    tables: dict[str, Table], config: SketchConfig
) -> dict[str, TableSketch]:
    """Sketch every table once with a shared hash family."""
    hasher = config.build_hasher()
    return {
        name: sketch_table(table, config, hasher) for name, table in tables.items()
    }


def dataset_pair_examples(
    dataset: TablePairDataset,
    sketches: dict[str, TableSketch],
    pairs: list[TablePair],
) -> list[PairExample]:
    """Resolve name-based pairs into sketch-based :class:`PairExample`."""
    return [
        PairExample(sketches[p.first], sketches[p.second], p.label) for p in pairs
    ]


def evaluate_pair_task(
    task: TaskType, labels: list[object], predictions: np.ndarray
) -> float:
    """Score predictions with the paper's metric for the task family.

    Binary → weighted F1 over predicted class ids; regression → R²;
    multi-label → support-weighted F1 over label columns at threshold 0.5.
    """
    truth = task.labels(labels)
    if task is TaskType.BINARY:
        return weighted_f1(truth, predictions)
    if task is TaskType.REGRESSION:
        return r2_score(truth, predictions)
    return multilabel_weighted_f1(truth, predictions)


def format_table(rows: list[dict], title: str = "") -> str:
    """Render result rows as an aligned text table (for bench output)."""
    if not rows:
        return f"{title}\n(no rows)"
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    widths = {
        key: max(len(str(key)), *(len(str(r.get(key, ""))) for r in rows))
        for key in keys
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(k).ljust(widths[k]) for k in keys)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            " | ".join(str(row.get(k, "")).ljust(widths[k]) for k in keys)
        )
    return "\n".join(lines)

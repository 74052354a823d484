"""Fig. 8 — transfer across tasks and domains.

The paper's Q4: a model fine-tuned on one task/domain is applied to search
on *other* tasks/domains. We fine-tune TabSketchFM on Wiki Containment
(join, Wikidata-style) and on TUS-SANTOS (union), then run both models on
all four search benchmarks and compare against the weak TaBERT-FT baseline.
Expected shape: transferred models stay far above the weak baseline on every
benchmark — the generalization claim of §IV-C4.
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetune_baseline, finetuned_embedder, search_table
from repro.core.searcher import DualEncoderSearcher
from repro.eval.experiments import sketch_cache
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench import (
    make_eurostat_subset_search,
    make_santos_search,
    make_tus_santos,
    make_tus_search,
    make_wiki_containment,
    make_wiki_join_search,
)
from repro.sketch import SketchConfig

SCALE = 0.4
CURVE_KS = [1, 2, 5, 10]


@pytest.fixture(scope="module")
def experiment():
    benchmarks = {
        "WikiJoin (fig8a)": (make_wiki_join_search(scale=SCALE), 10),
        "SANTOS (fig8b)": (make_santos_search(scale=SCALE), 5),
        "TUS (fig8c)": (make_tus_search(scale=SCALE), 7),
        "Eurostat (fig8d)": (make_eurostat_subset_search(scale=SCALE), 10),
    }

    # Two source tasks: join (Wiki Containment) and union (TUS-SANTOS).
    join_embedder = finetuned_embedder(make_wiki_containment(scale=0.4))
    union_embedder = finetuned_embedder(make_tus_santos(scale=0.4))
    _, tabert_trainer = finetune_baseline(
        "TaBERT", make_wiki_containment(scale=0.4), epochs=4
    )

    rows, curves = [], {}
    for bench_label, (benchmark, k) in benchmarks.items():
        systems = [
            TabSketchFMSearcher(join_embedder, benchmark.tables, name="FT-on-join"),
            TabSketchFMSearcher(
                union_embedder, benchmark.tables, name="FT-on-union"
            ),
            DualEncoderSearcher(tabert_trainer, benchmark.tables, "TaBERT-FT"),
        ]
        table_rows, table_curves = search_table(benchmark, systems, k, CURVE_KS)
        row = {"benchmark": bench_label, "k": k}
        row.update((r["system"], r["mean_f1"]) for r in table_rows)
        curves.update(
            (f"{bench_label}/{name}", curve) for name, curve in table_curves.items()
        )
        print(f"  [fig8] {row}")
        rows.append(row)
    return rows, curves


def bench_fig8_transfer_across_tasks(benchmark, experiment):
    rows, curves = experiment
    emit(
        "fig8_transfer",
        "Fig. 8 — transfer across tasks/domains (mean F1 %)",
        rows,
        extra={"f1_curves": curves},
    )
    bench_data = make_santos_search(scale=0.3)
    sketches = sketch_cache(bench_data.tables, SketchConfig(num_perm=32, seed=1))
    benchmark.pedantic(
        lambda: len(sketches), rounds=1, iterations=1
    )

    # Transfer claim: cross-task fine-tuned models beat the weak baseline on
    # every benchmark.
    for row in rows:
        best_transfer = max(row["FT-on-join"], row["FT-on-union"])
        assert best_transfer > row["TaBERT-FT"], row

"""Table V + Fig. 4a — Wiki Join search: mean F1, P@10, R@10, F1-vs-k.

Systems (as in the paper): TaBERT-FT (fine-tuned on Wiki Containment),
LSH-Forest, Josie, DeepJoin, WarpGate, SBERT, TabSketchFM (fine-tuned on
Wiki Containment), TabSketchFM-SBERT. Expected shape: Josie (exact
containment) at the top; TabSketchFM close behind; adding SBERT value
embeddings improves TabSketchFM; TaBERT-FT and LSH-Forest trail.
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetuned_systems, search_table
from repro.baselines import (
    DeepJoinSearcher,
    JosieSearcher,
    LshForestSearcher,
    SbertSearcher,
    WarpGateSearcher,
)
from repro.lakebench import make_wiki_containment, make_wiki_join_search

SCALE = 0.5
K = 10
CURVE_KS = [1, 2, 5, 10, 15]


@pytest.fixture(scope="module")
def experiment():
    benchmark = make_wiki_join_search(scale=SCALE)
    tables = benchmark.tables
    # Fine-tune once on Wiki Containment (the paper's choice for TaBERT-FT;
    # our TabSketchFM search models are fine-tuned the same way).
    tabert, tabsketchfm = finetuned_systems(make_wiki_containment(scale=0.5), tables)
    systems = [
        *tabert,
        LshForestSearcher(tables),
        JosieSearcher(tables),
        DeepJoinSearcher(tables),
        WarpGateSearcher(tables),
        SbertSearcher(tables),
        *tabsketchfm,
    ]
    return benchmark, *search_table(benchmark, systems, K, CURVE_KS)


def bench_table5_wiki_join_search(benchmark, experiment):
    bench_data, rows, curves = experiment
    emit(
        "table5_wikijoin_search",
        "Table V — Wiki Join search (mean F1 %, P@10, R@10) + Fig. 4a curves",
        rows,
        extra={"f1_curves_fig4a": curves},
    )
    josie = JosieSearcher(bench_data.tables)
    query = bench_data.queries[0]
    benchmark.pedantic(lambda: josie.retrieve(query, K), rounds=5, iterations=2)

    scores = {row["system"]: row["mean_f1"] for row in rows}
    # Josie (exact containment) is the reference point near the top.
    best = max(scores.values())
    assert scores["Josie"] >= best - 5.0
    # TabSketchFM is competitive (within 15 F1 points of the best).
    assert scores["TabSketchFM"] >= best - 15.0
    # Value embeddings help TabSketchFM on join search (§IV-C1: ~+3 F1).
    assert scores["TabSketchFM-SBERT"] >= scores["TabSketchFM"] - 1.0
    # The fine-tuned dual encoder trails the sketch systems.
    assert scores["TaBERT-FT"] <= scores["TabSketchFM"]

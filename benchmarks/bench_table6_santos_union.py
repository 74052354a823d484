"""Table VI + Fig. 4b — SANTOS union search.

Systems: TaBERT-FT, TUTA-FT (both fine-tuned on TUS-SANTOS), Starmie, D3L,
SANTOS, SBERT, TabSketchFM (fine-tuned on TUS-SANTOS), TabSketchFM-SBERT.
Expected shape: Starmie / SBERT / TabSketchFM-SBERT cluster at the top;
TabSketchFM alone slightly behind; the fine-tuned dual encoders trail.
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetune_baseline, finetune_tabsketchfm
from repro.baselines import D3lSearcher, SantosSearcher, SbertSearcher, StarmieSearcher
from repro.core.embed import TableEmbedder
from repro.core.searcher import DualEncoderSearcher
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench import make_santos_search, make_tus_santos
from repro.search.metrics import evaluate_search
from repro.text.sbert import HashedSentenceEncoder

SCALE = 0.5
K = 5
CURVE_KS = [1, 2, 3, 5, 8]


@pytest.fixture(scope="module")
def experiment():
    benchmark = make_santos_search(scale=SCALE)

    finetune_data = make_tus_santos(scale=0.5)
    _, finetuner, encoder, _ = finetune_tabsketchfm(finetune_data)
    embedder = TableEmbedder(finetuner.model.trunk, encoder)
    _, tabert_trainer = finetune_baseline("TaBERT", finetune_data, epochs=4)
    _, tuta_trainer = finetune_baseline("TUTA", finetune_data, epochs=4)

    systems = [
        DualEncoderSearcher(tabert_trainer, benchmark.tables, "TaBERT-FT"),
        DualEncoderSearcher(tuta_trainer, benchmark.tables, "TUTA-FT",
                            table_level=True),
        StarmieSearcher(benchmark.tables),
        D3lSearcher(benchmark.tables),
        SantosSearcher(benchmark.tables),
        SbertSearcher(benchmark.tables),
        TabSketchFMSearcher(embedder, benchmark.tables),
        TabSketchFMSearcher(
            embedder, benchmark.tables, sbert=HashedSentenceEncoder(dim=64)
        ),
    ]
    rows, curves = [], {}
    for system in systems:
        result = evaluate_search(
            system.name, benchmark, system.retrieve, k=K, curve_ks=CURVE_KS
        )
        rows.append(result.row())
        curves[system.name] = {str(k): round(100 * v, 2) for k, v in result.f1_curve.items()}
        print(f"  [table6] {result.row()}")
    return benchmark, rows, curves


def bench_table6_santos_union_search(benchmark, experiment):
    bench_data, rows, curves = experiment
    emit(
        "table6_santos_union",
        "Table VI — SANTOS union search (mean F1 %, P@5, R@5) + Fig. 4b curves",
        rows,
        extra={"f1_curves_fig4b": curves},
    )
    sbert = SbertSearcher(bench_data.tables)
    query = bench_data.queries[0]
    benchmark.pedantic(lambda: sbert.retrieve(query, K), rounds=3, iterations=1)

    scores = {row["system"]: row["mean_f1"] for row in rows}
    best = max(scores.values())
    # The embedding-based leaders cluster at the top.
    assert max(scores["SBERT"], scores["TabSketchFM-SBERT"], scores["Starmie"]) >= best - 2.0
    # TabSketchFM-SBERT matches or beats plain TabSketchFM.
    assert scores["TabSketchFM-SBERT"] >= scores["TabSketchFM"] - 2.0
    # Fine-tuned dual encoders trail the leaders.
    assert scores["TaBERT-FT"] < best - 5.0
    assert scores["TUTA-FT"] < best - 5.0

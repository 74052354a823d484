"""Table VII + Fig. 4c — TUS union search.

Same systems as Table VI on the TUS-style corpus, k up to 8 (the paper uses
k≤60 on 5k tables; groups scale down proportionally here). Expected shape:
SBERT-family systems (SBERT, TabSketchFM-SBERT) at/near the top; D3L and
SANTOS trailing the embedding leaders.
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetune_baseline, finetune_tabsketchfm
from repro.baselines import D3lSearcher, SantosSearcher, SbertSearcher, StarmieSearcher
from repro.core.embed import TableEmbedder
from repro.core.searcher import DualEncoderSearcher
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench import make_tus_santos, make_tus_search
from repro.search.metrics import evaluate_search
from repro.text.sbert import HashedSentenceEncoder

SCALE = 0.5
K = 7
CURVE_KS = [1, 2, 4, 7, 10]


@pytest.fixture(scope="module")
def experiment():
    benchmark = make_tus_search(scale=SCALE)

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
        print(f"  [table7] {result.row()}")
    return benchmark, rows, curves


def bench_table7_tus_union_search(benchmark, experiment):
    bench_data, rows, curves = experiment
    emit(
        "table7_tus_union",
        "Table VII — TUS union search (mean F1 %, P@7, R@7) + Fig. 4c curves",
        rows,
        extra={"f1_curves_fig4c": curves},
    )
    starmie = StarmieSearcher(bench_data.tables, epochs=1)
    query = bench_data.queries[0]
    benchmark.pedantic(lambda: starmie.retrieve(query, K), rounds=3, iterations=1)

    scores = {row["system"]: row["mean_f1"] for row in rows}
    best = max(scores.values())
    # Value-embedding systems lead; TabSketchFM-SBERT stays near SBERT.
    assert scores["TabSketchFM-SBERT"] >= scores["SBERT"] - 10.0
    assert scores["SBERT"] >= scores["D3L"] - 10.0
    # The fine-tuned dual encoders do not top the chart.
    assert scores["TaBERT-FT"] < best
    assert scores["TUTA-FT"] < best

"""Table VI + Fig. 4b — SANTOS union search.

Systems: TaBERT-FT, TUTA-FT (both fine-tuned on TUS-SANTOS), Starmie, D3L,
SANTOS, SBERT, TabSketchFM (fine-tuned on TUS-SANTOS), TabSketchFM-SBERT.
Expected shape: Starmie / SBERT / TabSketchFM-SBERT cluster at the top;
TabSketchFM alone slightly behind; the fine-tuned dual encoders trail.
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetuned_systems, search_table
from repro.baselines import D3lSearcher, SantosSearcher, SbertSearcher, StarmieSearcher
from repro.lakebench import make_santos_search, make_tus_santos

SCALE = 0.5
K = 5
CURVE_KS = [1, 2, 3, 5, 8]


@pytest.fixture(scope="module")
def experiment():
    benchmark = make_santos_search(scale=SCALE)
    tables = benchmark.tables
    dual_encoders, tabsketchfm = finetuned_systems(
        make_tus_santos(scale=0.5), tables, tuta=True
    )
    systems = [
        *dual_encoders,
        StarmieSearcher(tables),
        D3lSearcher(tables),
        SantosSearcher(tables),
        SbertSearcher(tables),
        *tabsketchfm,
    ]
    return benchmark, *search_table(benchmark, systems, K, CURVE_KS)


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

"""Table VII + Fig. 4c — TUS union search.

Same systems as Table VI on the TUS-style corpus, k up to 8 (the paper uses
k≤60 on 5k tables; groups scale down proportionally here). Expected shape:
SBERT-family systems (SBERT, TabSketchFM-SBERT) at/near the top; D3L and
SANTOS trailing the embedding leaders.
"""

from __future__ import annotations

import pytest

from benchmarks.common import emit, finetuned_systems, search_table
from repro.baselines import D3lSearcher, SantosSearcher, SbertSearcher, StarmieSearcher
from repro.lakebench import make_tus_santos, make_tus_search

SCALE = 0.5
K = 7
CURVE_KS = [1, 2, 4, 7, 10]


@pytest.fixture(scope="module")
def experiment():
    benchmark = make_tus_search(scale=SCALE)
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

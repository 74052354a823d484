"""Table VIII + Fig. 4d — Eurostat subset search, plus the §IV-C3
row/column shuffle-invariance probe.

Systems: TaBERT-FT, TUTA-FT, SBERT, TabSketchFM (fine-tuned on CKAN Subset),
TabSketchFM-SBERT. Expected shape: TabSketchFM best; SBERT behind; adding
SBERT value embeddings *hurts slightly* for subsets; the fine-tuned dual
encoders near the bottom. Invariance: TabSketchFM retrieves every
row-shuffled variant (sketches are set-based); the order-sensitive SBERT
table embedding misses some.

Beside the paper's rows sits what the lake service serves for subset: the
signature-containment scan over the same catalog's stored sketches, each
candidate column's estimated containment in the query table (candidate ⊆
query), averaged over the candidate's columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import emit, finetuned_systems, search_table
from repro.baselines import SbertSearcher
from repro.lake.api import DiscoveryRequest
from repro.lake.service import LakeService
from repro.lakebench import make_ckan_subset, make_eurostat_subset_search

SCALE = 0.5
K = 10
CURVE_KS = [1, 2, 5, 10, 12]
SERVED = "Signature containment (served)"


class ServedSubsetSearcher:
    """``LakeService``'s subset answer for a member query over ``catalog``:
    the containment scan over its stored signatures, no trunk."""

    name = SERVED

    def __init__(self, catalog):
        self.service = LakeService(catalog)

    def retrieve(self, query, k: int) -> list[str]:
        return self.service.discover(
            DiscoveryRequest(mode="subset", k=k, table=query.table)
        ).tables()


@pytest.fixture(scope="module")
def experiment():
    benchmark = make_eurostat_subset_search(scale=SCALE)
    tables = benchmark.tables
    dual_encoders, tabsketchfm = finetuned_systems(
        make_ckan_subset(scale=0.5), tables, tuta=True
    )
    systems = [
        *dual_encoders,
        SbertSearcher(tables),
        *tabsketchfm,
        ServedSubsetSearcher(tabsketchfm[0].catalog),
    ]
    rows, curves = search_table(benchmark, systems, K, CURVE_KS)
    return benchmark, rows, curves, _shuffle_invariance(benchmark, tabsketchfm[0])


def _shuffle_invariance(benchmark, tabsketch_searcher) -> dict:
    """§IV-C3 probe: are the shuffled variants *retrieved* as neighbours?

    The paper reports 3072/3072 row-shuffled variants returned in the
    nearest-neighbour set by TabSketchFM (100%), 3059/3072 (99.5%) for
    column shuffles, and only 91% row-shuffle retrieval for order-sensitive
    SBERT table embeddings. We measure retrieval@11 (each query has exactly
    11 relevant variants) plus the exact-embedding check that explains the
    100%: sketches are set-based, so row order cannot change them.
    """
    sbert = SbertSearcher(benchmark.tables)
    embedder = tabsketch_searcher.catalog.embedder
    records = tabsketch_searcher.catalog.records
    row_hits = col_hits = sbert_row_hits = exact_rows = total = 0
    for query in benchmark.queries:
        row_variant = f"{query.table}__shuffle_rows"
        col_variant = f"{query.table}__shuffle_cols"
        total += 1
        retrieved = set(tabsketch_searcher.retrieve(query, 11))
        row_hits += int(row_variant in retrieved)
        col_hits += int(col_variant in retrieved)
        sbert_retrieved = set(sbert.retrieve(query, 11))
        sbert_row_hits += int(row_variant in sbert_retrieved)
        # Mechanism behind the 100%: identical sketch embeddings.
        base_vec = embedder.table_embedding(records[query.table].sketch)
        row_vec = embedder.table_embedding(records[row_variant].sketch)
        exact_rows += int(np.allclose(base_vec, row_vec, atol=1e-8))
    return {
        "tabsketchfm_row_retrieved_pct": round(100.0 * row_hits / total, 1),
        "tabsketchfm_col_retrieved_pct": round(100.0 * col_hits / total, 1),
        "sbert_row_retrieved_pct": round(100.0 * sbert_row_hits / total, 1),
        "tabsketchfm_row_embedding_identical_pct": round(100.0 * exact_rows / total, 1),
    }


def bench_table8_eurostat_subset_search(benchmark, experiment):
    bench_data, rows, curves, invariance = experiment
    emit(
        "table8_eurostat_subset",
        "Table VIII — Eurostat subset search (mean F1 %, P@10, R@10) + Fig. 4d",
        rows,
        extra={"f1_curves_fig4d": curves, "shuffle_invariance": invariance},
    )
    print(f"  shuffle invariance probe (§IV-C3): {invariance}")
    sbert = SbertSearcher(bench_data.tables)
    query = bench_data.queries[0]
    benchmark.pedantic(lambda: sbert.retrieve(query, K), rounds=3, iterations=1)

    scores = {row["system"]: row["mean_f1"] for row in rows}
    # TabSketchFM competitive with SBERT on subsets; dual encoders trail badly.
    assert scores["TabSketchFM"] >= scores["SBERT"] - 10.0
    assert scores["TabSketchFM"] > scores["TaBERT-FT"] + 10.0
    assert scores["TabSketchFM"] > scores["TUTA-FT"] + 10.0
    # The served containment scan finds the Fig. 7 variants by their values.
    precision = {row["system"]: row[f"p@{K}"] for row in rows}
    assert precision[SERVED] >= 0.9
    # Sketch embeddings are *exactly* row-order invariant (the mechanism
    # behind the paper's 3072/3072), and retrieval reflects it.
    assert invariance["tabsketchfm_row_embedding_identical_pct"] == 100.0
    assert (
        invariance["tabsketchfm_row_retrieved_pct"]
        >= invariance["sbert_row_retrieved_pct"]
    )

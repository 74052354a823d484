"""Subset search over Eurostat-style variants (the §IV-C3 scenario).

Demonstrates the Fig. 7 protocol: every base CSV spawns 11 subset variants
(row/column sample grid plus full-size shuffles). Searches for the variants
of each base table and probes row/column-order invariance — the property
that separates sketch-based embeddings (set semantics, fully row-order
invariant) from value-sentence embeddings.

Run:  python examples/subset_search.py
"""

from __future__ import annotations

import numpy as np

from repro.baselines import SbertSearcher
from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.eval.experiments import format_table
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench import make_eurostat_subset_search
from repro.search.metrics import evaluate_search
from repro.sketch import SketchConfig
from repro.text import WordPieceTokenizer

K = 10


def main() -> None:
    benchmark = make_eurostat_subset_search(scale=0.4)
    print(
        f"benchmark: {len(benchmark.queries)} query CSVs x 11 variants = "
        f"{len(benchmark.tables)} tables"
    )

    texts = [" ".join(t.header) for t in benchmark.tables.values()]
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=800)
    config = TabSketchFMConfig(
        vocab_size=800, dim=32, num_layers=1, num_heads=2, ffn_dim=64,
        dropout=0.0, max_seq_len=96, sketch=SketchConfig(num_perm=32, seed=1),
    )
    encoder = InputEncoder(config, tokenizer)
    model = TabSketchFM(config)
    embedder = TableEmbedder(model, encoder)

    tabsketch = TabSketchFMSearcher(embedder, benchmark.tables)
    systems = [tabsketch, SbertSearcher(benchmark.tables)]
    rows = [
        evaluate_search(s.name, benchmark, s.retrieve, k=K).row() for s in systems
    ]
    print()
    print(format_table(rows, title=f"Eurostat subset search @ k={K}"))

    # Invariance probe (§IV-C3): sketches are row-order invariant by
    # construction; SBERT's order-sensitive table embedding is not.
    sbert = systems[1]
    sketches = {name: r.sketch for name, r in tabsketch.catalog.records.items()}
    row_invariant = 0
    sbert_invariant = 0
    for query in benchmark.queries:
        base_vec = embedder.table_embedding(sketches[query.table])
        shuffled = f"{query.table}__shuffle_rows"
        row_vec = embedder.table_embedding(sketches[shuffled])
        row_invariant += int(np.allclose(base_vec, row_vec))
        sbert_base = sbert.table_embedding(
            benchmark.tables[query.table], order_sensitive=True
        )
        sbert_row = sbert.table_embedding(
            benchmark.tables[shuffled], order_sensitive=True
        )
        sbert_invariant += int(np.allclose(sbert_base, sbert_row))
    n = len(benchmark.queries)
    print(
        f"\nrow-shuffle invariance: TabSketchFM {row_invariant}/{n} "
        f"(paper: 3072/3072), SBERT {sbert_invariant}/{n} (paper: 91%)"
    )


if __name__ == "__main__":
    main()

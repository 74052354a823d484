"""Join search over a synthetic data lake (the §IV-C1 scenario).

Builds the Wiki Join search benchmark (entity-annotated ground truth with
polysemy traps), runs three systems on it — exact-containment Josie, the
frozen SBERT column encoder, and TabSketchFM column embeddings — and prints
a Table-V-style comparison with an F1-vs-k curve.

Run:  python examples/join_search.py
"""

from __future__ import annotations

from repro.baselines import JosieSearcher, SbertSearcher
from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.eval.experiments import format_table
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench import make_wiki_join_search
from repro.search.metrics import evaluate_search
from repro.sketch import SketchConfig
from repro.text import WordPieceTokenizer


def main() -> None:
    benchmark = make_wiki_join_search(scale=0.4)
    stats = benchmark.stats()
    print(
        f"benchmark: {stats['n_tables']} tables, {stats['n_queries']} join "
        f"queries (relevance = entity-annotation Jaccard > 0.5)"
    )

    texts = [" ".join(t.header) for t in benchmark.tables.values()]
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=800)
    config = TabSketchFMConfig(
        vocab_size=800, dim=32, num_layers=1, num_heads=2, ffn_dim=64,
        dropout=0.0, max_seq_len=96, sketch=SketchConfig(num_perm=32, seed=1),
    )
    model = TabSketchFM(config)
    encoder = InputEncoder(config, tokenizer)

    systems = [
        JosieSearcher(benchmark.tables),
        SbertSearcher(benchmark.tables),
        TabSketchFMSearcher(TableEmbedder(model, encoder), benchmark.tables),
    ]
    ks = [1, 2, 5, 10]
    rows = []
    curves = {}
    for system in systems:
        result = evaluate_search(
            system.name, benchmark, system.retrieve, k=10, curve_ks=ks
        )
        rows.append(result.row())
        curves[system.name] = result.f1_curve

    print()
    print(format_table(rows, title="Join search (Table V shape)"))
    print("\nF1 vs k (Fig. 4a shape):")
    header = "  k:    " + "  ".join(f"{k:>5d}" for k in ks)
    print(header)
    for name, curve in curves.items():
        print(
            f"  {name:12s}" + "  ".join(f"{100 * curve[k]:5.1f}" for k in ks)
        )


if __name__ == "__main__":
    main()

"""Union search with the Figure-6 ranking (the §IV-C2 scenario).

Builds a SANTOS-style benchmark of unionable-table groups, fine-tunes a
TabSketchFM cross-encoder on the TUS-SANTOS binary-union task, and compares
four systems: the fine-tuned TabSketchFM column embeddings, the frozen SBERT
column encoder, the D3L five-evidence scorer, and the Starmie contrastive
encoder.

Run:  python examples/union_search.py
"""

from __future__ import annotations

from repro.baselines import D3lSearcher, SbertSearcher, StarmieSearcher
from repro.core.embed import TableEmbedder
from repro.core.finetune import (
    CrossEncoder,
    FinetuneConfig,
    Finetuner,
    PairExample,
)
from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.eval.experiments import format_table, sketch_cache
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench import make_santos_search, make_tus_santos
from repro.search.metrics import evaluate_search
from repro.sketch import SketchConfig
from repro.text import WordPieceTokenizer

K = 5


def main() -> None:
    benchmark = make_santos_search(scale=0.4)
    print(
        f"benchmark: {len(benchmark.tables)} tables in unionable groups, "
        f"{len(benchmark.queries)} queries, k={K}"
    )

    # Fine-tune TabSketchFM on the TUS-SANTOS union task (different corpus —
    # embeddings must transfer, as in the paper's search experiments).
    dataset = make_tus_santos(scale=0.4)
    sketch_config = SketchConfig(num_perm=32, seed=1)
    train_sketches = sketch_cache(dataset.tables, sketch_config)
    texts = [" ".join(t.header) + " " + t.description for t in dataset.tables.values()]
    texts += [" ".join(t.header) for t in benchmark.tables.values()]
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=1200)
    config = TabSketchFMConfig(
        vocab_size=1200, dim=32, num_layers=1, num_heads=2, ffn_dim=64,
        dropout=0.1, max_seq_len=128, sketch=sketch_config,
    )
    encoder = InputEncoder(config, tokenizer)
    model = TabSketchFM(config)
    cross = CrossEncoder(model, dataset.task, dataset.num_outputs)
    finetuner = Finetuner(
        cross, encoder, FinetuneConfig(epochs=5, batch_size=16, learning_rate=3e-3)
    )
    pairs = [
        PairExample(train_sketches[p.first], train_sketches[p.second], p.label)
        for p in dataset.train
    ]
    history = finetuner.train(pairs)
    print(
        f"fine-tuned on TUS-SANTOS union: loss "
        f"{history.train_losses[0]:.3f} -> {history.train_losses[-1]:.3f}"
    )

    # Index the search corpus with column embeddings and run all systems.
    systems = [
        TabSketchFMSearcher(TableEmbedder(model, encoder), benchmark.tables),
        SbertSearcher(benchmark.tables),
        D3lSearcher(benchmark.tables),
        StarmieSearcher(benchmark.tables, epochs=2),
    ]
    rows = [
        evaluate_search(s.name, benchmark, s.retrieve, k=K).row() for s in systems
    ]
    print()
    print(format_table(rows, title=f"SANTOS-style union search @ k={K}"))


if __name__ == "__main__":
    main()

"""Shared machinery for the paper-reproduction benches.

Every bench file regenerates one table or figure of the paper: it builds the
(seeded, synthetic) workload, trains whatever systems the experiment calls
for, prints a paper-style result table, and writes the rows plus any F1-vs-k
series to ``results/<experiment>.json``. The ``benchmark`` fixture times a
representative kernel of the experiment (one retrieval / one training epoch /
one sketch pass) so `pytest benchmarks/ --benchmark-only` also reports
throughput.

Scale-down defaults (see README "Scale-down substitutions"): trunk dim 32,
1 layer, MinHash width 32, datasets a few hundred pairs. The *shape* of the paper's results — who wins,
rough factors, crossovers — is the reproduction target, not absolute values.
"""

from __future__ import annotations

from pathlib import Path

from repro.baselines.dual_encoder import DualEncoderTrainer, make_baseline
from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.core.config import SketchSelection
from repro.core.finetune import CrossEncoder, FinetuneConfig, Finetuner
from repro.eval.experiments import (
    dataset_pair_examples,
    evaluate_pair_task,
    format_table,
    sketch_cache,
)
from repro.lakebench.base import TablePairDataset
from repro.sketch import SketchConfig
from repro.table.schema import Table
from repro.text import WordPieceTokenizer
from repro.utils.io import write_json

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: One shared sketch configuration for all benches.
SKETCH_CONFIG = SketchConfig(num_perm=32, seed=1)

#: Trunk size used across benches (laptop-scale BERT stand-in).
MODEL_DIM = 32
MODEL_LAYERS = 1
MODEL_HEADS = 2
MAX_SEQ_LEN = 128


def corpus_tokenizer(tables: dict[str, Table], vocab_size: int = 1500) -> WordPieceTokenizer:
    """Train a WordPiece vocabulary from a benchmark corpus."""
    texts: list[str] = []
    for table in tables.values():
        texts.append(table.description)
        texts.extend(table.header)
    return WordPieceTokenizer.train(texts, vocab_size=vocab_size)


def model_config(
    vocab_size: int,
    selection: SketchSelection | None = None,
    seed: int = 0,
) -> TabSketchFMConfig:
    return TabSketchFMConfig(
        vocab_size=vocab_size,
        dim=MODEL_DIM,
        num_layers=MODEL_LAYERS,
        num_heads=MODEL_HEADS,
        ffn_dim=2 * MODEL_DIM,
        dropout=0.1,
        max_seq_len=MAX_SEQ_LEN,
        sketch=SKETCH_CONFIG,
        selection=selection or SketchSelection(),
        seed=seed,
    )


def finetune_tabsketchfm(
    dataset: TablePairDataset,
    selection: SketchSelection | None = None,
    seed: int = 0,
    epochs: int = 8,
    learning_rate: float = 3e-3,
    dropout: float | None = None,
):
    """Train a TabSketchFM cross-encoder on a LakeBench dataset.

    Returns ``(test_metric, finetuner, encoder, sketches)`` — the paper's
    metric for the task family, plus the trained stack for reuse (search
    benches extract embeddings from the fine-tuned trunk). ``dropout=0.0``
    stabilizes single-seed ablation runs on the smallest datasets.
    """
    import dataclasses

    tokenizer = corpus_tokenizer(dataset.tables)
    config = model_config(len(tokenizer.vocabulary), selection, seed=seed)
    if dropout is not None:
        config = dataclasses.replace(config, dropout=dropout)
    encoder = InputEncoder(config, tokenizer)
    model = TabSketchFM(config)
    sketches = sketch_cache(dataset.tables, SKETCH_CONFIG)
    cross = CrossEncoder(model, dataset.task, dataset.num_outputs,
                         dropout=config.dropout, seed=seed)
    finetuner = Finetuner(
        cross, encoder,
        FinetuneConfig(epochs=epochs, batch_size=8, learning_rate=learning_rate,
                       patience=4, seed=seed),
    )
    finetuner.train(
        dataset_pair_examples(dataset, sketches, dataset.train),
        dataset_pair_examples(dataset, sketches, dataset.valid),
    )
    metric = evaluate_pair_task(
        dataset.task,
        [p.label for p in dataset.test],
        finetuner.predict(dataset_pair_examples(dataset, sketches, dataset.test)),
    )
    return metric, finetuner, encoder, sketches


def finetune_baseline(
    name: str,
    dataset: TablePairDataset,
    seed: int = 0,
    epochs: int = 6,
    dropout: float = 0.1,
) -> tuple[float, DualEncoderTrainer]:
    """Train one of the Table-II baselines with the dual-encoder recipe."""
    tokenizer = corpus_tokenizer(dataset.tables)
    model, spec = make_baseline(
        name, tokenizer, dataset.task, dataset.num_outputs, dim=24, seed=seed,
        dropout=dropout,
    )
    trainer = DualEncoderTrainer(
        model, spec, epochs=epochs, batch_size=8, learning_rate=5e-3,
        patience=4, seed=seed,
    )
    triples = lambda pairs: [  # noqa: E731
        (dataset.tables[p.first], dataset.tables[p.second], p.label) for p in pairs
    ]
    trainer.train(triples(dataset.train), triples(dataset.valid))
    return trainer.evaluate(triples(dataset.test)), trainer


def emit(experiment: str, title: str, rows: list[dict], extra: dict | None = None) -> None:
    """Print the paper-style table and persist rows to results/."""
    print()
    print(format_table(rows, title=title))
    payload = {"experiment": experiment, "title": title, "rows": rows}
    if extra:
        payload.update(extra)
    write_json(RESULTS_DIR / f"{experiment}.json", payload)

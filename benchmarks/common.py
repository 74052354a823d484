"""Shared machinery for the paper-reproduction benches.

Every bench file regenerates one table or figure of the paper (Tables III
and IV share one file and its fine-tunes): it builds the (seeded, synthetic)
workload, trains whatever systems the experiment calls for, prints a
paper-style result table, and writes the rows plus any F1-vs-k series to
``results/<experiment>.json``. The search tables declare their systems and
score them through one loop, :func:`search_table`; :func:`finetuned_systems`
builds their fine-tuned systems. The ``benchmark`` fixture times a
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
from repro.core.embed import TableEmbedder
from repro.core.finetune import CrossEncoder, FinetuneConfig, Finetuner
from repro.core.searcher import DualEncoderSearcher
from repro.eval.experiments import (
    dataset_pair_examples,
    evaluate_pair_task,
    format_table,
    sketch_cache,
)
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench.base import SearchBenchmark, TablePairDataset
from repro.search.metrics import evaluate_search
from repro.sketch import SketchConfig
from repro.table.schema import Table
from repro.text import WordPieceTokenizer
from repro.text.sbert import HashedSentenceEncoder
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


def finetuned_embedder(dataset: TablePairDataset) -> TableEmbedder:
    """The trunk of a TabSketchFM cross-encoder fine-tuned on ``dataset``,
    as the search benches embed with it."""
    _, finetuner, encoder, _ = finetune_tabsketchfm(dataset)
    return TableEmbedder(finetuner.model.trunk, encoder)


def finetuned_systems(
    dataset: TablePairDataset, tables: dict[str, Table], tuta: bool = False
) -> tuple[list, list]:
    """The fine-tuned search systems of Tables V-VIII, all trained on
    ``dataset`` and indexing ``tables``: the dual encoders (TaBERT-FT, then
    TUTA-FT at table level when ``tuta``), and TabSketchFM without and with
    the SBERT value half."""
    embedder = finetuned_embedder(dataset)
    names = ["TaBERT", "TUTA"] if tuta else ["TaBERT"]
    trainers = [finetune_baseline(name, dataset, epochs=4)[1] for name in names]
    dual_encoders = [
        DualEncoderSearcher(trainer, tables, f"{name}-FT", table_level=name == "TUTA")
        for name, trainer in zip(names, trainers)
    ]
    return dual_encoders, [
        TabSketchFMSearcher(embedder, tables),
        TabSketchFMSearcher(embedder, tables, sbert=HashedSentenceEncoder(dim=64)),
    ]


def search_table(
    benchmark: SearchBenchmark, systems: list, k: int, curve_ks: list[int]
) -> tuple[list[dict], dict[str, dict[str, float]]]:
    """Score every system on one search benchmark: its paper-style row
    (mean F1 %, P@k, R@k) and its F1-vs-k curve in percent, by name."""
    rows, curves = [], {}
    for system in systems:
        result = evaluate_search(
            system.name, benchmark, system.retrieve, k=k, curve_ks=curve_ks
        )
        rows.append(result.row())
        curves[system.name] = {
            str(kk): round(100 * v, 2) for kk, v in result.f1_curve.items()
        }
        print(f"  [{benchmark.name}] {result.row()}")
    return rows, curves


def emit(experiment: str, title: str, rows: list[dict], extra: dict | None = None) -> None:
    """Print the paper-style table and persist rows to results/."""
    print()
    print(format_table(rows, title=title))
    payload = {"experiment": experiment, "title": title, "rows": rows}
    if extra:
        payload.update(extra)
    write_json(RESULTS_DIR / f"{experiment}.json", payload)

"""§III-C / Fig. 3 — pre-training pipeline statistics and a short MLM run.

Reproduces the masking-protocol bookkeeping the paper reports: column-shuffle
augmentation growth (197 254 → 290 948 tables, ×~1.48), whole-column masking
with ≤5 masks per table, and MLM convergence behaviour (loss decreases, early
stopping by patience).
"""

from __future__ import annotations

import pytest

from benchmarks.common import corpus_tokenizer, emit, model_config
from repro.core import InputEncoder, TabSketchFM
from repro.core.pretrain import PretrainConfig, Pretrainer, augment_tables
from repro.eval.experiments import sketch_cache
from repro.lakebench import make_pretrain_corpus
from repro.sketch import SketchConfig

N_TABLES = 60


@pytest.fixture(scope="module")
def experiment():
    corpus = make_pretrain_corpus(n_tables=N_TABLES, seed=3)
    augmented = augment_tables(corpus, copies=1, seed=0)

    tables = {t.name: t for t in augmented}
    tokenizer = corpus_tokenizer(tables)
    config = model_config(len(tokenizer.vocabulary))
    encoder = InputEncoder(config, tokenizer)
    model = TabSketchFM(config)
    sketches = sketch_cache(tables, SketchConfig(num_perm=32, seed=1))

    pretrainer = Pretrainer(
        model, encoder,
        PretrainConfig(epochs=3, batch_size=16, learning_rate=2e-3, patience=5),
    )
    encoded = encoder.encode_tables(list(sketches.values()))
    examples = pretrainer.build_examples(encoded)
    split = int(0.9 * len(examples))
    history = pretrainer.train(examples[:split], examples[split:])

    masks_per_table = len(examples) / len(augmented)
    rows = [
        {
            "statistic": "tables before augmentation",
            "value": len(corpus),
            "paper": "197,254",
        },
        {
            "statistic": "tables after column-shuffle augmentation",
            "value": len(augmented),
            "paper": "290,948 (x1.48)",
        },
        {
            "statistic": "MLM examples (whole-column masks)",
            "value": len(examples),
            "paper": "730,553 train",
        },
        {
            "statistic": "avg masked examples per table (cap 5)",
            "value": round(masks_per_table, 2),
            "paper": "<= 5",
        },
        {
            "statistic": "MLM loss first -> last epoch",
            "value": f"{history.train_losses[0]:.3f} -> {history.train_losses[-1]:.3f}",
            "paper": "converges (patience 5)",
        },
    ]
    return rows, history, (pretrainer, examples[: 16])


def bench_pretraining_statistics(benchmark, experiment):
    rows, history, (pretrainer, sample) = experiment
    emit("pretraining_stats", "§III-C — pre-training pipeline statistics", rows)

    # Timed kernel: one public MLM training epoch over a one-batch sample.
    one_epoch = Pretrainer(
        pretrainer.model, pretrainer.encoder,
        PretrainConfig(epochs=1, batch_size=16, learning_rate=1e-3),
    )
    benchmark.pedantic(lambda: one_epoch.train(sample, []), rounds=2, iterations=1)

    assert history.train_losses[-1] < history.train_losses[0]
    by_stat = {row["statistic"]: row["value"] for row in rows}
    assert by_stat["tables after column-shuffle augmentation"] == 2 * N_TABLES
    assert by_stat["avg masked examples per table (cap 5)"] <= 5.0

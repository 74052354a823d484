"""Pre-training + sketch ablations (the §III-C / Table III-IV workflow).

1. Generate a CKAN/Socrata-like pre-training lake.
2. Augment with column-shuffled copies (§III-C) and build whole-column MLM
   examples (Fig. 3): one example per masked column, capped at 5 per table.
3. Pre-train TabSketchFM and watch the MLM loss fall.
4. Fine-tune the pre-trained trunk on Wiki Jaccard under different sketch
   ablations and compare (the Tables III/IV methodology).

Run:  python examples/pretrain_and_ablation.py
"""

from __future__ import annotations

import numpy as np

from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.core.ablation import FULL_SELECTION, ONLY_SELECTIONS
from repro.core.finetune import (
    CrossEncoder,
    FinetuneConfig,
    Finetuner,
    PairExample,
    TaskType,
)
from repro.core.pretrain import PretrainConfig, Pretrainer, augment_tables
from repro.eval.experiments import format_table, sketch_cache
from repro.eval.metrics import r2_score
from repro.lakebench import make_pretrain_corpus, make_wiki_jaccard
from repro.sketch import SketchConfig
from repro.text import WordPieceTokenizer


def build_stack(tables, sketch_config, selection=None, seed=0):
    texts = []
    for table in tables.values():
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=1200)
    config = TabSketchFMConfig(
        vocab_size=1200, dim=32, num_layers=1, num_heads=2, ffn_dim=64,
        dropout=0.0, max_seq_len=128, sketch=sketch_config,
        selection=selection or FULL_SELECTION, seed=seed,
    )
    return config, InputEncoder(config, tokenizer), TabSketchFM(config)


def main() -> None:
    sketch_config = SketchConfig(num_perm=32, seed=1)

    # 1-2. Corpus, augmentation, masking -------------------------------
    corpus = make_pretrain_corpus(n_tables=40, seed=3)
    augmented = augment_tables(corpus, copies=1, seed=0)
    print(
        f"pre-training lake: {len(corpus)} tables -> {len(augmented)} after "
        f"column-shuffle augmentation (paper: 197,254 -> 290,948)"
    )
    tables = {t.name: t for t in augmented}
    config, encoder, model = build_stack(tables, sketch_config)
    sketches = sketch_cache(tables, sketch_config)

    pretrainer = Pretrainer(
        model, encoder,
        PretrainConfig(epochs=3, batch_size=16, learning_rate=2e-3),
    )
    examples = pretrainer.build_examples(
        encoder.encode_tables(list(sketches.values()))
    )
    print(
        f"whole-column MLM examples: {len(examples)} "
        f"({len(examples) / len(augmented):.1f} per table, cap 5)"
    )

    # 3. Pre-train -------------------------------------------------------
    split = int(0.9 * len(examples))
    history = pretrainer.train(examples[:split], examples[split:])
    print(
        "MLM loss per epoch: "
        + " -> ".join(f"{loss:.3f}" for loss in history.train_losses)
    )

    # 4. Ablated fine-tuning on Wiki Jaccard ------------------------------
    dataset = make_wiki_jaccard(scale=0.5)
    task_sketches = sketch_cache(dataset.tables, sketch_config)
    rows = []
    selections = {"full": FULL_SELECTION, **ONLY_SELECTIONS}
    for label, selection in selections.items():
        _, task_encoder, task_model = build_stack(
            dataset.tables, sketch_config, selection
        )
        cross = CrossEncoder(task_model, TaskType.REGRESSION, 1, dropout=0.0)
        finetuner = Finetuner(
            cross, task_encoder,
            FinetuneConfig(epochs=8, batch_size=8, learning_rate=2e-3, patience=4),
        )
        to_examples = lambda pairs: [  # noqa: E731
            PairExample(task_sketches[p.first], task_sketches[p.second], p.label)
            for p in pairs
        ]
        finetuner.train(to_examples(dataset.train), to_examples(dataset.valid))
        predictions = finetuner.predict(to_examples(dataset.test))
        labels = np.array([p.label for p in dataset.test], dtype=float)
        rows.append({"sketches": label, "wiki jaccard R2": round(r2_score(labels, predictions), 3)})

    print()
    print(format_table(rows, title="Sketch ablation on Wiki Jaccard (Table III methodology)"))


if __name__ == "__main__":
    main()

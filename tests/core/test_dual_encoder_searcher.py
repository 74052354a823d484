"""DualEncoderSearcher: TaBERT-FT / TUTA-FT style retrieval adapters."""

import numpy as np
import pytest

from repro.baselines.dual_encoder import DualEncoderTrainer, make_baseline
from repro.core.finetune import TaskType
from repro.core.searcher import DualEncoderSearcher
from repro.lakebench.base import SearchQuery
from repro.table.schema import table_from_rows


@pytest.fixture(scope="module")
def corpus():
    def make(name, prefix):
        rows = [[f"{prefix}{i}", str(10 + i)] for i in range(12)]
        return table_from_rows(name, ["name", "value"], rows)

    return {
        "q": make("q", "alpha"),
        "same": make("same", "alpha"),
        "other": make("other", "omega"),
    }


@pytest.fixture(scope="module")
def trainer(corpus, tiny_tokenizer):
    model, spec = make_baseline("TaBERT", tiny_tokenizer, TaskType.BINARY, 2, dim=24)
    trainer = DualEncoderTrainer(model, spec, epochs=1, batch_size=4)
    pairs = [(corpus["q"], corpus["same"], 1), (corpus["q"], corpus["other"], 0)]
    trainer.train(pairs)
    return trainer


def test_column_level_retrieval(trainer, corpus):
    searcher = DualEncoderSearcher(trainer, corpus, "TaBERT-FT")
    ranked = searcher.retrieve(SearchQuery(table="q", column="name"), k=2)
    assert len(ranked) == 2
    assert "q" not in ranked


def test_table_level_retrieval(trainer, corpus):
    searcher = DualEncoderSearcher(trainer, corpus, "TUTA-FT", table_level=True)
    ranked = searcher.retrieve(SearchQuery(table="q"), k=2)
    assert len(ranked) == 2
    assert "q" not in ranked


def test_union_query_uses_all_columns(trainer, corpus):
    searcher = DualEncoderSearcher(trainer, corpus, "TaBERT-FT")
    ranked = searcher.retrieve(SearchQuery(table="q"), k=2)
    assert set(ranked) <= {"same", "other"}


def test_embeddings_are_finite(trainer, corpus):
    searcher = DualEncoderSearcher(trainer, corpus, "TaBERT-FT")
    for pairs in searcher.column_pairs.values():
        for _, vector in pairs:
            assert np.all(np.isfinite(vector))


def test_table_level_query_embedding_memoized(trainer, corpus):
    searcher = DualEncoderSearcher(trainer, corpus, "TUTA-FT", table_level=True)
    calls = {"n": 0}
    original = trainer.table_embedding

    def counting(table):
        calls["n"] += 1
        return original(table)

    trainer.table_embedding = counting
    try:
        first = searcher.retrieve(SearchQuery(table="q"), k=2)
        # Member tables were embedded during the corpus build; repeated
        # retrievals must not re-run the trunk.
        assert calls["n"] == 0
        assert searcher.retrieve(SearchQuery(table="q"), k=2) == first
        assert calls["n"] == 0
    finally:
        trainer.table_embedding = original

"""TabSketchFM search adapter (join/union recipes, SBERT concatenation)."""

import pytest

from repro.core.embed import TableEmbedder
from repro.lake.catalog import TabSketchFMSearcher
from repro.lakebench.base import SearchQuery
from repro.table.schema import table_from_rows
from repro.text.sbert import HashedSentenceEncoder


@pytest.fixture()
def small_corpus():
    shared = [f"velatburg{i}" for i in range(25)]
    other = [f"scanomatic{i}" for i in range(25)]

    def make(name, values):
        rows = [[v, str(100 + i)] for i, v in enumerate(values)]
        return table_from_rows(name, ["place", "count"], rows)

    return {
        "q": make("q", shared),
        "overlap": make("overlap", shared[:20] + other[:5]),
        "unrelated": make("unrelated", other),
    }


def test_join_retrieval_prefers_overlap(tiny_model, tiny_encoder, small_corpus):
    searcher = TabSketchFMSearcher(
        TableEmbedder(tiny_model, tiny_encoder), small_corpus
    )
    ranked = searcher.retrieve(SearchQuery(table="q", column="place"), k=2)
    assert ranked[0] == "overlap"
    assert "q" not in ranked


def test_union_retrieval_runs_fig6(tiny_model, tiny_encoder, small_corpus):
    searcher = TabSketchFMSearcher(
        TableEmbedder(tiny_model, tiny_encoder), small_corpus
    )
    ranked = searcher.retrieve(SearchQuery(table="q"), k=2)
    assert ranked[0] == "overlap"


def test_sbert_concat_widens_vectors(tiny_model, tiny_encoder, small_corpus):
    sbert = HashedSentenceEncoder(dim=32)
    searcher = TabSketchFMSearcher(
        TableEmbedder(tiny_model, tiny_encoder), small_corpus, sbert=sbert
    )
    assert searcher.name == "TabSketchFM-SBERT"
    vectors = searcher.catalog.records["q"].column_vectors
    assert vectors.shape == (2, tiny_model.config.dim + 32)
    ranked = searcher.retrieve(SearchQuery(table="q", column="place"), k=2)
    assert ranked[0] == "overlap"


def test_names(tiny_model, tiny_encoder, small_corpus):
    embedder = TableEmbedder(tiny_model, tiny_encoder)
    assert TabSketchFMSearcher(embedder, small_corpus).name == "TabSketchFM"
    named = TabSketchFMSearcher(embedder, small_corpus, name="custom")
    assert named.name == "custom"


def test_sketches_with_the_trunks_own_config(tiny_model, tiny_encoder, small_corpus):
    """No sketch width can be passed in: the index is built from sketches
    of the trunk's ``config.sketch``."""
    searcher = TabSketchFMSearcher(
        TableEmbedder(tiny_model, tiny_encoder), small_corpus
    )
    for record in searcher.catalog.records.values():
        assert record.sketch.config == tiny_model.config.sketch


def test_does_not_mutate_the_callers_tables(tiny_model, tiny_encoder, small_corpus):
    before = dict(small_corpus)
    TabSketchFMSearcher(TableEmbedder(tiny_model, tiny_encoder), small_corpus)
    assert small_corpus == before


def test_corpus_build_is_batched(tiny_model, tiny_encoder, small_corpus):
    """The constructor embeds the whole corpus in ceil(N/B) forwards."""
    embedder = TableEmbedder(tiny_model, tiny_encoder)
    searcher = TabSketchFMSearcher(embedder, small_corpus)
    assert embedder.engine.forward_calls == 1  # 3 tables, batch 16
    assert searcher.catalog.embed_calls == 1

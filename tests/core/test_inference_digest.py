"""The vectors the trunk serves are pinned by digests taken before eager
inference replaced the lazy fusing engine.

``embed_corpus`` (table and column vectors, at four batch sizes) and
``LakeCatalog.column_vector_pairs`` (one table per forward) run the
benchmark's trunk shape — dim 32, 4 layers — over the seed-7 400-column
lakegen lake, and every float64 is hashed. Equal digests mean equal stored
vectors, ``index.npz`` bytes and rankings, seed for seed.

A float64 forward's last bits also depend on the BLAS and SIMD kernels
numpy dispatches to on the CPU at hand. ``HOST_PROBE_DIGEST`` pins the same
primitives on fixed inputs; where the probe differs, the host computes
other bits for reasons outside this repo and the pins are skipped rather
than failed.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.engine import EmbeddingEngine
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.lake.catalog import LakeCatalog
from repro.lakegen.generator import LakeSpec, generate_manifest, iter_tables
from repro.sketch.pipeline import SketchConfig, sketch_corpus
from repro.text.tokenizer import WordPieceTokenizer

HOST_PROBE_DIGEST = (
    "9a24acecf203dd749c7a70b6fdf6cd640868fef2dd8fae73fbdb4156832c90b7"
)
#: batch size -> sha256 of every table and column vector, in corpus order.
EMBED_CORPUS_DIGESTS = {
    1: "b4d70fc13ad2224435580683accbbde93eef9ce77ba8cbbc68ebeed654db2682",
    2: "157593bd55cb83ae27298ae2d4c6c582972629ef431afa0b3aa8354639ac38cc",
    7: "8e97c29a702058986576b6ddcd9cd1c98feacd007ba91ed3ab30f8d934d29cf4",
    16: "c84834d8ab913da55edb9923c3ddfe423a5d97521f4cda8c66f3bfa7c0c24f25",
}
#: sha256 of every (column name, index-ready vector) pair, table by table.
COLUMN_VECTOR_PAIRS_DIGEST = (
    "4e9abf08b2c8ddd4e9bf44a9f4321fa00b593922beb460dc2cd172e9e3130843"
)


def host_probe_digest() -> str:
    """The trunk's numpy primitives (batched matmul, exp, tanh, the
    LayerNorm power, reductions) on fixed inputs."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 40, 32))
    w = rng.normal(size=(32, 32))
    q = rng.normal(size=(16, 2, 40, 16))
    h = x @ w
    scores = q @ q.transpose(0, 1, 3, 2)
    out = [
        h,
        scores,
        np.exp(scores - scores.max(axis=-1, keepdims=True)),
        np.tanh(h),
        np.power((h * h).sum(axis=-1, keepdims=True) + 1e-5, -0.5),
    ]
    return hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()


@pytest.fixture(scope="module")
def trunk():
    if host_probe_digest() != HOST_PROBE_DIGEST:
        pytest.skip("numpy's float64 kernels differ on this CPU from the "
                    "ones the digests were taken with")
    tables = list(iter_tables(generate_manifest(LakeSpec(columns=400, seed=7))))
    texts: list[str] = []
    for table in tables[::4]:
        texts.append(table.description)
        texts.extend(table.header)
        for column in table.columns:
            texts.extend(column.values[:3])
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=600)
    config = TabSketchFMConfig(
        vocab_size=len(tokenizer.vocabulary),
        dim=32,
        num_layers=4,
        num_heads=2,
        ffn_dim=64,
        dropout=0.0,
        sketch=SketchConfig(num_perm=32, seed=1),
        seed=0,
    )
    model = TabSketchFM(config)
    encoder = InputEncoder(config, tokenizer)
    return model, encoder, tables, sketch_corpus(tables, config.sketch)


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def embed_corpus_digest(trunk, batch_size: int) -> str:
    model, encoder, _, sketches = trunk
    results = EmbeddingEngine(model, encoder).embed_corpus(
        sketches, batch_size=batch_size
    )
    return _digest(a for r in results for a in (r.table, r.columns))


def column_vector_pairs_digest(trunk) -> str:
    model, encoder, tables, sketches = trunk
    catalog = LakeCatalog(TableEmbedder(model, encoder))
    digest = hashlib.sha256()
    for table, sketch in zip(tables, sketches):
        for name, vector in catalog.column_vector_pairs(table, sketch):
            digest.update(name.encode() + b"\x00" + vector.tobytes())
    assert catalog.embed_calls == len(tables)
    return digest.hexdigest()


@pytest.mark.parametrize("batch_size", sorted(EMBED_CORPUS_DIGESTS))
def test_embed_corpus_vectors_pinned(trunk, batch_size):
    assert embed_corpus_digest(trunk, batch_size) == EMBED_CORPUS_DIGESTS[batch_size]


def test_column_vector_pairs_pinned(trunk):
    assert column_vector_pairs_digest(trunk) == COLUMN_VECTOR_PAIRS_DIGEST

"""Every searcher's answers on the paper's search sets are pinned by digests.

``retrieve(query, k)`` of TabSketchFM (with and without the SBERT half),
SBERT, and the dual-encoder TaBERT-FT (column level) / TUTA-FT (table level)
adapters runs over every query of small Wiki Join, SANTOS and Eurostat sets
at several ``k``, and the ranked table names are hashed, one digest per
(system, benchmark). The trunk and the dual encoders are seeded and
untrained, so the digests pin the retrieval path itself: how vectors are
built and indexed, and how tables are ranked from them. They were taken
while TabSketchFM still had its own corpus build and a name-only ranking
surface, so equal digests mean moving it onto the lake catalog and
``TableSearcher.rank`` changed no answer. The baselines' digests (Josie,
LSH-Forest, DeepJoin and WarpGate on Wiki Join; Starmie, D3L and SANTOS on
SANTOS) were taken while each still hand-wrote its own ranking tail, before
all of them moved onto :mod:`repro.search.retrieval`; none depends on the
string-hash salt.

A ranking rests on float64 distances whose last bits depend on the BLAS
and SIMD kernels numpy dispatches to. ``HOST_PROBE_DIGEST`` pins those
primitives on fixed inputs; where it differs the pins are skipped, not
failed.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    D3lSearcher,
    DeepJoinSearcher,
    JosieSearcher,
    LshForestSearcher,
    SantosSearcher,
    SbertSearcher,
    StarmieSearcher,
    WarpGateSearcher,
)
from repro.baselines.dual_encoder import DualEncoderTrainer, make_baseline
from repro.core import InputEncoder, TabSketchFM, TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.finetune import TaskType
from repro.core.searcher import DualEncoderSearcher
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog, TabSketchFMSearcher
from repro.lake.service import LakeService
from repro.lakebench import (
    make_eurostat_subset_search,
    make_santos_search,
    make_wiki_join_search,
)
from repro.sketch import SketchConfig
from repro.text import WordPieceTokenizer
from repro.text.sbert import HashedSentenceEncoder

KS = (1, 5, 10)
BENCHMARKS = {
    "wiki_join": make_wiki_join_search,
    "santos": make_santos_search,
    "eurostat": make_eurostat_subset_search,
}
#: The baselines that run on one benchmark only: join on Wiki Join, union
#: on SANTOS, as in Tables V and VI.
BASELINES = {
    "wiki_join": (JosieSearcher, LshForestSearcher, DeepJoinSearcher,
                  WarpGateSearcher),
    "santos": (StarmieSearcher, D3lSearcher, SantosSearcher),
    "eurostat": (),
}
HOST_PROBE_DIGEST = (
    "a1fcad82de5de8afd5d0098d6f2821974cfc7db4d3307c424c1b436ce0c41431"
)
#: (system, benchmark) -> sha256 of every query's ranked names at every k.
RETRIEVE_DIGESTS = {
    ("TabSketchFM", "eurostat"):
        "661b06fb4cada9eb7f7d8258d0f365761773629d8c9f2d111b8a9e5282e4257f",
    ("TabSketchFM-SBERT", "eurostat"):
        "07fe36f0f7e522e7a497d23f3e2a0dbf97aa163c2f366b4dc7bef5ac2a76a1e5",
    ("SBERT", "eurostat"):
        "12e14801b919d212904e0b6dd5e8e2bbaa589b8c31443b0259df4e3edd7cb42a",
    ("TaBERT-FT", "eurostat"):
        "48a8fe79ea6c2a6aadcdc6bd095a648c543567eb21b5123f9d71a5b61a6bb2c0",
    ("TUTA-FT", "eurostat"):
        "ef0f32ccddf9ac7199a3d2163ba9322966d4f293b78e455f10389dccaa36d123",
    ("TabSketchFM", "santos"):
        "10989d8845fec37c63140a0e2eab82b604df2e1d5ed2c1e63fdd858f72c87618",
    ("TabSketchFM-SBERT", "santos"):
        "a1f59f334d76e7667f4f14124a68376f20b2c563dd2931355f7bd0d28e439195",
    ("SBERT", "santos"):
        "ef7515bb023b3418119692a929aeaa0080dd255131f613aaef716d807b96a934",
    ("TaBERT-FT", "santos"):
        "2c25470ca17ce630716bf39f3ac5e8de51958d2129792b06ad34f148b0c5f4b2",
    ("TUTA-FT", "santos"):
        "1b80eeea492eb3f85f011e22e5c4683c480d2369f607955e86249973ddaf2ab9",
    ("TabSketchFM", "wiki_join"):
        "bf18373e0277d24df1b7d815de8f6d0608fbcef78691fc8e01885d95ec699756",
    ("TabSketchFM-SBERT", "wiki_join"):
        "a651ce0e783b82f39ceb845f525d2134a5e11dba4187067029d73aab212e0ac5",
    ("SBERT", "wiki_join"):
        "f0a04f3129d719e3ed5dd07f46c1ee7e70f7fef48834a628f93de6200f90d371",
    ("TaBERT-FT", "wiki_join"):
        "bc53fffde5cebbf7c1c4ecbfb5981412ee3d2a077ba5c66ff2c95dbf263a1287",
    ("TUTA-FT", "wiki_join"):
        "02ca57c28081972d7bf35caef13b4fd9220371b59bd13098172674b0b5b21646",
    ("Josie", "wiki_join"):
        "90f57221881bc64a14fcc6102da7af350394bc77fcf82b5ca27ca34f35ca6d13",
    ("LSH-Forest", "wiki_join"):
        "01b8b2b84fd8f2ddf69f71db41ec9bd5736b52cba1a3f15e7d3f70c2f21a9625",
    ("DeepJoin", "wiki_join"):
        "7c070265567066dbf27fbd1ab0bbd8ffad1bcfcd6e237255d4b583a27924bd59",
    ("WarpGate", "wiki_join"):
        "9732208e756b4213c3d85df7437138b29a2e43696d0b0002280554edadca82b2",
    ("Starmie", "santos"):
        "ad0027e9331cad0bc1d41f2924762d875884f96b124b8a77683219c3179fa05b",
    ("D3L", "santos"):
        "05e694c8ffdb96d6026c123d48f649ead36852fee04d8e485a24711ad6ece7b5",
    ("SANTOS", "santos"):
        "d9c10c52af44120b258f7fbbf616127231aa77d4bd625efb519905a810884b0b",
}


def host_probe_digest() -> str:
    """The trunk's and the index's numpy primitives on fixed inputs."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 40, 32))
    w = rng.normal(size=(32, 32))
    q = rng.normal(size=(16, 2, 40, 16))
    h = x @ w
    scores = q @ q.transpose(0, 1, 3, 2)
    data = rng.normal(size=(300, 32))
    out = [
        h,
        scores,
        np.exp(scores - scores.max(axis=-1, keepdims=True)),
        np.tanh(h),
        np.power((h * h).sum(axis=-1, keepdims=True) + 1e-5, -0.5),
        np.linalg.norm(data, axis=1),
        np.argsort(data @ data[:9].T, axis=0),
    ]
    return hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()


@pytest.fixture(scope="module", autouse=True)
def same_host():
    if host_probe_digest() != HOST_PROBE_DIGEST:
        pytest.skip("numpy's float64 kernels differ on this CPU from the "
                    "ones the digests were taken with")


def build_embedder(tables) -> TableEmbedder:
    """A seeded, untrained dim-32 trunk with a vocabulary from ``tables``."""
    texts = []
    for table in tables.values():
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=800)
    config = TabSketchFMConfig(
        vocab_size=len(tokenizer.vocabulary), dim=32, num_layers=1,
        num_heads=2, ffn_dim=64, dropout=0.0, max_seq_len=128,
        sketch=SketchConfig(num_perm=32, seed=1), seed=0,
    )
    return TableEmbedder(TabSketchFM(config), InputEncoder(config, tokenizer))


def build_systems(tables, name: str) -> list:
    """The five model searchers, seeded and untrained, and benchmark
    ``name``'s baselines, over ``tables``."""
    embedder = build_embedder(tables)
    tokenizer = embedder.encoder.tokenizer

    def trainer(name):
        model, spec = make_baseline(name, tokenizer, TaskType.BINARY, 2, dim=24)
        return DualEncoderTrainer(model, spec)

    return [
        TabSketchFMSearcher(embedder, tables),
        TabSketchFMSearcher(embedder, tables, sbert=HashedSentenceEncoder(dim=64)),
        SbertSearcher(tables),
        DualEncoderSearcher(trainer("TaBERT"), tables, "TaBERT-FT"),
        DualEncoderSearcher(trainer("TUTA"), tables, "TUTA-FT", table_level=True),
        *(baseline(tables) for baseline in BASELINES[name]),
    ]


def retrieve_digest(system, benchmark) -> str:
    digest = hashlib.sha256()
    for query in benchmark.queries:
        for k in KS:
            names = system.retrieve(query, k)
            digest.update(
                f"{query.table}/{query.column}/{k}:{','.join(names)}\n".encode()
            )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def digests():
    """``get(system, benchmark) -> digest``, each benchmark's systems built
    and digested once, on first use."""
    cache: dict = {}

    def get(system: str, name: str) -> str:
        if (system, name) not in cache:
            benchmark = BENCHMARKS[name](scale=0.3)
            for searcher in build_systems(benchmark.tables, name):
                cache[searcher.name, name] = retrieve_digest(searcher, benchmark)
        return cache[system, name]

    return get


@pytest.mark.parametrize("system, name", sorted(RETRIEVE_DIGESTS))
def test_retrieve_answers_pinned(digests, system, name):
    assert digests(system, name) == RETRIEVE_DIGESTS[system, name]


@pytest.mark.parametrize("name, mode", [("wiki_join", "join"), ("santos", "union")])
def test_searcher_ranks_like_the_lake_service(name, mode):
    """A member query through the paper's searcher and through the lake
    stack over the same tables returns the same table order: join by one
    query column, union over all of them. Union goes through
    ``LakeService.discover``; join goes through the catalog's searcher,
    ``rank(join=True)`` over the stored vectors, because the service's join
    ranks by signature containment instead of the paper's embedding join
    (``tests/lake/test_join_containment.py`` checks that one)."""
    benchmark = BENCHMARKS[name](scale=0.3)
    embedder = build_embedder(benchmark.tables)
    searcher = TabSketchFMSearcher(embedder, benchmark.tables)
    catalog = LakeCatalog(embedder)
    catalog.add_tables(benchmark.tables)
    service = LakeService(catalog)
    for query in benchmark.queries:
        assert (query.column is not None) == (mode == "join")
        for k in KS:
            if mode == "join":
                ranked = [
                    match.table
                    for match in catalog.searcher.rank(
                        catalog.records[query.table].vector_pairs(),
                        k,
                        join=True,
                        column=query.column,
                        exclude_table=query.table,
                    )[:k]
                ]
            else:
                result = service.discover(DiscoveryRequest(
                    mode=mode, k=k, table=query.table, column=query.column,
                ))
                ranked = [hit.table for hit in result.hits]
            assert ranked == searcher.retrieve(query, k)

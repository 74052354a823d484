"""The lake's served answers and stored records are pinned by digests.

One scripted session runs on the seed-7 400-column lakegen lake with the
benchmark's trunk shape (dim 32, 4 layers): storeless at 1 shard, and on
disk at 4 shards. It ingests through ``add_tables`` and ``add_table``,
replaces a table with ``update_table``, appends rows and refreshes them
with ``refresh_stale``, then answers ``discover`` requests in every mode
for a member name, an external payload (twice: for union a cache miss,
then a hit) and a payload named after a member, and the same requests
again, with a duplicated payload, through one ``discover_batch`` on a
second service. Every stage
is hashed: the records' sketch arrays, column vectors and versions; the
ranked ``(table, score, version, stale, matches)`` of every answer, one
digest per mode (``discover:join`` ...); and, in digests of their own, the
cache, ``embed_calls`` and trunk-forward counters.

Equal digests mean the catalog builds the same records and the service
gives the same answers for the same work. ``pinned_host``
(``tests/core/conftest.py``) skips the pins on a CPU whose float64 kernels
compute other bits.
"""

import hashlib
import json

import pytest

from repro.core.config import TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.lake.api import DiscoveryRequest
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import pack_table_sketch
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.lakegen.generator import LakeSpec, generate_manifest, iter_tables
from repro.sketch.pipeline import SketchConfig
from repro.table.schema import table_from_rows
from repro.text.tokenizer import WordPieceTokenizer

MODES = ("join", "union", "subset")

#: (layout, stage) -> sha256 of that stage's records, answers or counters;
#: a ``discover`` / ``discover_batch`` stage is split by mode.
SERVED_DIGESTS = {
    ("storeless-1", "add_tables"):
        "4968cde27f303c2539fddd97cb442a0208a3c024ebd8bb24f44ba273e568b5f9",
    ("storeless-1", "add_table"):
        "5f065207cd22ab81871e8e68950849b7ca324f644448ae8410b987f271d33750",
    ("storeless-1", "update_table"):
        "054ac26a45ab5b011a53840b7c7e79d7f4ef214ab9d0c740fc583d16f4e9b3b7",
    ("storeless-1", "append_rows"):
        "944025bc3d7340e110271990f4fc05c551a7fe0e1faa7bc93c3ba65a9b5ec6c5",
    ("storeless-1", "refresh_stale"):
        "40f53d23f38b309eeb0536db3d3f4d947e65a01d989b34b00f322ea6a3b9ea8a",
    ("storeless-1", "discover:join"):
        "93d11fdbce25cb91e1d108b968c168984a65ee15e9d36c7121ba9d64442c3d7f",
    ("storeless-1", "discover:union"):
        "8d1f313a1c84a22adc60ee481f95c9f1718ed47782759188eb61b0f2047c8da8",
    ("storeless-1", "discover:subset"):
        "c7f661b7a83fbdc703be7ded06252f4b92b7323d59e6d6463f2ee21ede8698ab",
    ("storeless-1", "discover_stats"):
        "1817d22afca51056e9ec7e4adab774367eaa30ecf5f3102df79f9c91a29e404e",
    ("storeless-1", "discover_batch:join"):
        "17bd93998b53695172bc8899b54c8b24afa2c4eece146b558755838e4cb53159",
    ("storeless-1", "discover_batch:union"):
        "7f5e435a7ad3f06a65c2950e62aa704cef1857f6d57a67c5f62f2af07eb877be",
    ("storeless-1", "discover_batch:subset"):
        "c7f661b7a83fbdc703be7ded06252f4b92b7323d59e6d6463f2ee21ede8698ab",
    ("storeless-1", "discover_batch_stats"):
        "4747e2b32877a3d1dffda0c135c1b4dc2a018d971e00c4b4e73a2fff884e6276",
    ("disk-4", "add_tables"):
        "4968cde27f303c2539fddd97cb442a0208a3c024ebd8bb24f44ba273e568b5f9",
    ("disk-4", "add_table"):
        "5f065207cd22ab81871e8e68950849b7ca324f644448ae8410b987f271d33750",
    ("disk-4", "update_table"):
        "054ac26a45ab5b011a53840b7c7e79d7f4ef214ab9d0c740fc583d16f4e9b3b7",
    ("disk-4", "append_rows"):
        "944025bc3d7340e110271990f4fc05c551a7fe0e1faa7bc93c3ba65a9b5ec6c5",
    ("disk-4", "refresh_stale"):
        "40f53d23f38b309eeb0536db3d3f4d947e65a01d989b34b00f322ea6a3b9ea8a",
    ("disk-4", "discover:join"):
        "93d11fdbce25cb91e1d108b968c168984a65ee15e9d36c7121ba9d64442c3d7f",
    ("disk-4", "discover:union"):
        "8d1f313a1c84a22adc60ee481f95c9f1718ed47782759188eb61b0f2047c8da8",
    ("disk-4", "discover:subset"):
        "c7f661b7a83fbdc703be7ded06252f4b92b7323d59e6d6463f2ee21ede8698ab",
    ("disk-4", "discover_stats"):
        "1817d22afca51056e9ec7e4adab774367eaa30ecf5f3102df79f9c91a29e404e",
    ("disk-4", "discover_batch:join"):
        "17bd93998b53695172bc8899b54c8b24afa2c4eece146b558755838e4cb53159",
    ("disk-4", "discover_batch:union"):
        "7f5e435a7ad3f06a65c2950e62aa704cef1857f6d57a67c5f62f2af07eb877be",
    ("disk-4", "discover_batch:subset"):
        "c7f661b7a83fbdc703be7ded06252f4b92b7323d59e6d6463f2ee21ede8698ab",
    ("disk-4", "discover_batch_stats"):
        "4747e2b32877a3d1dffda0c135c1b4dc2a018d971e00c4b4e73a2fff884e6276",
}


#: (layout, stage) -> sha256 of the join and union answers without the
#: ``refreshed`` diagnostic, recorded where the first strict query of any
#: mode paid the lazy refresh (0180e82). They still hold now that only a
#: strict union or pinned query pays it: that rule moved the one
#: diagnostic, the four ``discover*:join`` / ``discover*:union`` pins above
#: with it, and no hit, score, version or stale stamp.
REFRESH_BLIND_DIGESTS = {
    ("disk-4", "discover:join without refreshed"):
        "21c577e78e5ac27a823c918adfc5087920e0e71d411c068271d28bb6c65ef276",
    ("disk-4", "discover:union without refreshed"):
        "9c16e3dc4ff70ac363b804ed2dee5996f9923104e296eec1f41d2ad28839eb24",
    ("disk-4", "discover_batch:join without refreshed"):
        "c7e4f3e9b6e4bd78fc6ab6ac339bb5b2dfd749b0c795985273188f8d5d66334a",
    ("disk-4", "discover_batch:union without refreshed"):
        "2e731ff15242569a90eec29645c767e2ca166c8bdefcf7cab1655671926b80a9",
    ("storeless-1", "discover:join without refreshed"):
        "21c577e78e5ac27a823c918adfc5087920e0e71d411c068271d28bb6c65ef276",
    ("storeless-1", "discover:union without refreshed"):
        "9c16e3dc4ff70ac363b804ed2dee5996f9923104e296eec1f41d2ad28839eb24",
    ("storeless-1", "discover_batch:join without refreshed"):
        "c7e4f3e9b6e4bd78fc6ab6ac339bb5b2dfd749b0c795985273188f8d5d66334a",
    ("storeless-1", "discover_batch:union without refreshed"):
        "2e731ff15242569a90eec29645c767e2ca166c8bdefcf7cab1655671926b80a9",
}


@pytest.fixture(scope="module")
def trunk(pinned_host):
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
    return TabSketchFM(config), InputEncoder(config, tokenizer), tables


def _hash(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _record(record) -> list:
    arrays, meta = pack_table_sketch(record.sketch)
    sketch = hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
    for key in sorted(arrays):
        sketch.update(f"{key}{arrays[key].dtype}{arrays[key].shape}".encode())
        sketch.update(arrays[key].tobytes())
    return [
        record.name,
        sketch.hexdigest(),
        hashlib.sha256(record.column_vectors.tobytes()).hexdigest(),
        list(record.column_vectors.shape),
        record.version,
        record.embedding_stale,
    ]


#: The diagnostics an answer's digest holds.
DIAGNOSTICS = (
    "member", "cache_hit", "excluded", "candidates", "filtered", "refreshed",
)


def _answer(result, diagnostics=DIAGNOSTICS) -> list:
    return [
        result.mode,
        result.query,
        [
            [
                hit.table,
                hit.score.hex(),
                hit.version,
                hit.stale,
                hit.n_matched_columns,
                hit.distance_sum.hex(),
                [[m.query_column, m.table_column, m.distance.hex()]
                 for m in hit.matches],
            ]
            for hit in result.hits
        ],
        [result.diagnostics.get(key) for key in diagnostics],
    ]


def _by_mode(stage: str, results) -> dict:
    """``stage:<mode>`` -> the answers of that mode, in answer order, so a
    change to one mode's ranking leaves the other modes' digests as they
    are; and ``stage:<mode> without refreshed`` -> the same answers without
    the ``refreshed`` diagnostic."""
    stages = {}
    for mode in MODES:
        answers = [r for r in results if r.mode == mode]
        stages[f"{stage}:{mode}"] = [_answer(r) for r in answers]
        stages[f"{stage}:{mode} without refreshed"] = [
            _answer(r, DIAGNOSTICS[:-1]) for r in answers
        ]
    return stages


def _counters(service) -> list:
    stats = service.stats()
    return [
        stats["cache_hits"],
        stats["cache_misses"],
        stats["cache_evictions"],
        stats["embed_calls"],
        stats["queries_served"],
        service.catalog.engine.forward_calls,
    ]


def _requests(base) -> list:
    """Member, external miss, external hit per mode; then a payload named
    after a member, a join on one column and a version-pinned member."""
    requests = []
    for i, mode in enumerate(MODES):
        source = base[10 + i]
        payload = source.with_columns(source.columns, name=f"ext-{mode}")
        requests.append(DiscoveryRequest(mode=mode, k=10, table=base[5 + i].name))
        requests.append(DiscoveryRequest(mode=mode, k=10, payload=payload))
        requests.append(DiscoveryRequest(mode=mode, k=10, payload=payload))
    requests.append(DiscoveryRequest(mode="union", k=10, payload=base[8]))
    requests.append(DiscoveryRequest(
        mode="join", k=10, table=base[9].name, column=base[9].header[0]
    ))
    requests.append(DiscoveryRequest(
        mode="subset", k=10, table=base[13].name, pin_version=1
    ))
    return requests


def served_digests(trunk, store, n_shards) -> dict:
    model, encoder, tables = trunk
    catalog = LakeCatalog(
        TableEmbedder(model, encoder), store=store, n_shards=n_shards
    )
    base, singles = tables[:-3], tables[-3:]
    stages: dict[str, list] = {}

    catalog.add_tables({table.name: table for table in base})
    stages["add_tables"] = [_record(catalog.records[t.name]) for t in base]
    stages["add_table"] = [_record(catalog.add_table(t)) for t in singles]

    source = base[0]
    half = list(source.rows(limit=source.n_rows // 2))
    shrunk = table_from_rows(
        source.name, source.header, half, description=source.description
    )
    stages["update_table"] = [_record(catalog.update_table(shrunk))]

    appended = base[1]
    delta = list(appended.rows(limit=4))
    stages["append_rows"] = [_record(catalog.append_rows(appended.name, delta))]
    catalog.refresh_stale()
    stages["refresh_stale"] = [_record(catalog.records[appended.name])]

    # One service answers each request alone: an allow_stale query over a
    # stale table, then strict ones (the first union one pays the lazy
    # refresh: join and subset read no vector).
    service = LakeService(catalog, cache_size=2)
    catalog.append_rows(base[2].name, list(base[2].rows(limit=2)))
    requests = _requests(base)
    answers = [service.discover(DiscoveryRequest(
        mode="union", k=50, table=base[4].name, allow_stale=True
    ))]
    answers += [service.discover(request) for request in requests]
    stages.update(_by_mode("discover", answers))
    stages["discover_stats"] = _counters(service)

    # A second service answers them in one batch, plus a duplicated
    # payload, with one payload already cached and a stale table to refresh.
    batch = LakeService(catalog)
    batch.discover(requests[4])
    catalog.append_rows(base[3].name, list(base[3].rows(limit=3)))
    stages.update(_by_mode(
        "discover_batch", batch.discover_batch(requests + [requests[1]])
    ))
    stages["discover_batch_stats"] = _counters(batch)
    return {stage: _hash(value) for stage, value in stages.items()}


@pytest.fixture(scope="module")
def layouts(trunk, tmp_path_factory) -> dict:
    store = LakeStore(tmp_path_factory.mktemp("served") / "lake", "fp", n_shards=4)
    return {
        "storeless-1": served_digests(trunk, None, 1),
        "disk-4": served_digests(trunk, store, None),
    }


@pytest.mark.parametrize("layout, stage", sorted(SERVED_DIGESTS))
def test_served_answers_pinned(layouts, layout, stage):
    assert layouts[layout][stage] == SERVED_DIGESTS[(layout, stage)]


@pytest.mark.parametrize("layout, stage", sorted(REFRESH_BLIND_DIGESTS))
def test_the_refresh_rule_moved_only_the_refreshed_diagnostic(layouts, layout, stage):
    assert layouts[layout][stage] == REFRESH_BLIND_DIGESTS[(layout, stage)]

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
        "d8b5759022ea2f16a145e0893483f4a401d665161cd1a91e043b389d153db0cb",
    ("storeless-1", "discover:union"):
        "3a4609838ad6f2730abfd6bdebddf2f207cb1365f3e69154726c4561f601f513",
    ("storeless-1", "discover:subset"):
        "c7f661b7a83fbdc703be7ded06252f4b92b7323d59e6d6463f2ee21ede8698ab",
    ("storeless-1", "discover_stats"):
        "1817d22afca51056e9ec7e4adab774367eaa30ecf5f3102df79f9c91a29e404e",
    ("storeless-1", "discover_batch:join"):
        "4f46408042e5f09ad76ce8b7c9a531ed81655e31a497f90682b1d714350e97ed",
    ("storeless-1", "discover_batch:union"):
        "f6a05d592bd5269ce47697f902c110340f185f9fbe96d3642637f5ef2615ef5a",
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
        "d8b5759022ea2f16a145e0893483f4a401d665161cd1a91e043b389d153db0cb",
    ("disk-4", "discover:union"):
        "859e9527353c0846a1ff0aac4503d6a72f9ba994b9b13ffd09c650442c6beedf",
    ("disk-4", "discover:subset"):
        "c7f661b7a83fbdc703be7ded06252f4b92b7323d59e6d6463f2ee21ede8698ab",
    ("disk-4", "discover_stats"):
        "1817d22afca51056e9ec7e4adab774367eaa30ecf5f3102df79f9c91a29e404e",
    ("disk-4", "discover_batch:join"):
        "4f46408042e5f09ad76ce8b7c9a531ed81655e31a497f90682b1d714350e97ed",
    ("disk-4", "discover_batch:union"):
        "2230a46340dba54f50c489e69dffc9eee3213bf380b223911af4576b5f8676a4",
    ("disk-4", "discover_batch:subset"):
        "c7f661b7a83fbdc703be7ded06252f4b92b7323d59e6d6463f2ee21ede8698ab",
    ("disk-4", "discover_batch_stats"):
        "4747e2b32877a3d1dffda0c135c1b4dc2a018d971e00c4b4e73a2fff884e6276",
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


def _answer(result) -> list:
    diagnostics = result.diagnostics
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
        [diagnostics.get(key) for key in (
            "member", "cache_hit", "excluded", "candidates", "filtered",
            "refreshed",
        )],
    ]


def _by_mode(stage: str, results) -> dict:
    """``stage:<mode>`` -> the answers of that mode, in answer order, so a
    change to one mode's ranking leaves the other modes' digests as they
    are."""
    return {
        f"{stage}:{mode}": [_answer(r) for r in results if r.mode == mode]
        for mode in MODES
    }


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
    # stale table, then strict ones (the first pays the lazy refresh).
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

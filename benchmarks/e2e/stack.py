"""The fixed system under test, and the helpers every workload shares.

Everything here is a **constant of the benchmark, not a flag**: the stack
a new user gets from the CLI defaults (exact index, ``batch_size=16``,
``cache_size=128``, lazy engine on, in-process ingest) with the trunk at
the paper-depth scale-down ``bench_lazy_fusion`` uses. Only the lake size
(``--columns``, for ``--smoke``) and the seed are inputs.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import TabSketchFMConfig
from repro.core.embed import TableEmbedder
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.lake.api import DiscoveryRequest
from repro.lake.bundle import save_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.serialization import config_fingerprint
from repro.lake.service import LakeService
from repro.lake.store import LakeStore
from repro.lakegen.generator import LakeSpec, generate_manifest, materialize_table
from repro.sketch.pipeline import SketchConfig
from repro.table.schema import Table
from repro.text.tokenizer import WordPieceTokenizer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

COLUMNS = 10_000
DIM = 32
NUM_LAYERS = 4
NUM_HEADS = 2
FFN_DIM = 64
NUM_PERM = 32
VOCAB_SIZE = 600
TOKENIZER_SAMPLE_TABLES = 64
BATCH_SIZE = 16
CACHE_SIZE = 128
#: `lakegen.driver.provision`'s default: what `ingest_cold` measures.
INGEST_CHUNK = 64
#: Set-up provisioning of the three non-ingest workloads. Larger chunks
#: re-save the index 5 times instead of 35; set-up is not the measured path.
SETUP_CHUNK = 512
K = 10
MODES = ("join", "union", "subset")

#: Every `REPRO_*` knob that changes the stack; the runner records them and
#: refuses to run when one is set, so layout and engine mode are arguments.
REPRO_ENV = (
    "REPRO_NN_LAZY",
    "REPRO_LAKE_SHARDS",
    "REPRO_LAKE_INGEST_PROCS",
    "REPRO_OBS_ENABLED",
)


def repro_env() -> dict:
    return {name: os.environ.get(name) for name in REPRO_ENV}


def refuse_repro_env() -> None:
    found = {name: value for name, value in repro_env().items() if value is not None}
    if found:
        raise SystemExit(
            f"error: {sorted(found)} set in the environment; the benchmark "
            "fixes the stack itself — unset them"
        )


# --------------------------------------------------------------------- #
# Lake + model
# --------------------------------------------------------------------- #
@dataclass
class Lake:
    """One seeded lakegen lake, fully materialized (ingest order)."""

    manifest: dict
    tables: "dict[str, Table]"
    generate_s: float
    materialize_s: float

    @property
    def names(self) -> list[str]:
        return self.manifest["order"]

    @property
    def columns(self) -> int:
        return self.manifest["totals"]["columns"]


def build_lake(seed: int, columns: int) -> Lake:
    started = time.perf_counter()
    manifest = generate_manifest(LakeSpec(columns=columns, seed=seed))
    generated = time.perf_counter()
    tables = {
        name: materialize_table(manifest, name) for name in manifest["order"]
    }
    return Lake(
        manifest=manifest,
        tables=tables,
        generate_s=generated - started,
        materialize_s=time.perf_counter() - generated,
    )


@dataclass
class Model:
    model: TabSketchFM
    tokenizer: WordPieceTokenizer
    encoder: InputEncoder

    @property
    def config(self) -> TabSketchFMConfig:
        return self.model.config

    def embedder(self) -> TableEmbedder:
        """A fresh embedder (own engine, own forward counter)."""
        return TableEmbedder(self.model, self.encoder)

    def fingerprint(self, n_shards: int) -> str:
        return config_fingerprint(
            self.model.config, model=self.model, n_shards=n_shards
        )


def build_model(lake: Lake) -> Model:
    """Tokenizer trained as in `lakegen.driver.build_service`; untrained
    paper-depth trunk, `seed=0`."""
    order = lake.names
    stride = max(1, len(order) // TOKENIZER_SAMPLE_TABLES)
    texts: list[str] = []
    for name in order[::stride][:TOKENIZER_SAMPLE_TABLES]:
        table = lake.tables[name]
        texts.append(table.description)
        texts.extend(table.header)
        for column in table.columns:
            texts.extend(column.values[:3])
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=VOCAB_SIZE)
    config = TabSketchFMConfig(
        vocab_size=len(tokenizer.vocabulary),
        dim=DIM,
        num_layers=NUM_LAYERS,
        num_heads=NUM_HEADS,
        ffn_dim=FFN_DIM,
        dropout=0.0,
        sketch=SketchConfig(num_perm=NUM_PERM, seed=1),
        seed=0,
    )
    model = TabSketchFM(config)
    return Model(model, tokenizer, InputEncoder(config, tokenizer))


# --------------------------------------------------------------------- #
# Stores and services
# --------------------------------------------------------------------- #
def new_service(model: Model, root: Path, n_shards: int) -> LakeService:
    """Empty on-disk store + weight bundle + catalog + service."""
    store = LakeStore(root, model.fingerprint(n_shards), n_shards=n_shards)
    save_bundle(root, model.model, model.tokenizer)
    catalog = LakeCatalog(model.embedder(), store=store, batch_size=BATCH_SIZE)
    return LakeService(catalog, cache_size=CACHE_SIZE)


def warm_service(model: Model, root: Path, n_shards: int) -> LakeService:
    """Warm open: the persisted index is deserialized, nothing re-embedded."""
    store = LakeStore.open(root, expected_fingerprint=model.fingerprint(n_shards))
    catalog = LakeCatalog.from_store(model.embedder(), store)
    return LakeService(catalog, cache_size=CACHE_SIZE)


def chunks(lake: Lake, size: int) -> "list[dict[str, Table]]":
    names = lake.names
    return [
        {name: lake.tables[name] for name in names[start : start + size]}
        for start in range(0, len(names), size)
    ]


def store_usage(root: Path) -> tuple[int, int]:
    """Exact ``(files, bytes)`` under a store directory."""
    files = 0
    size = 0
    for directory, _, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(directory, name))
    return files, size


# --------------------------------------------------------------------- #
# Requests and output checks
# --------------------------------------------------------------------- #
def member_request(name: str, mode: str) -> DiscoveryRequest:
    return DiscoveryRequest(
        mode=mode, k=K, table=name, column="key" if mode == "join" else None
    )


def payload_request(table: Table, name: str, mode: str) -> DiscoveryRequest:
    """``table`` under a new name: never seen (new cache digest), yet its
    planted partners — and the member it copies — are true hits."""
    renamed = Table(name=name, columns=table.columns, description=table.description)
    return DiscoveryRequest(
        mode=mode, k=K, payload=renamed, column="key" if mode == "join" else None
    )


def sample_requests(lake: Lake, seed: int, count: int) -> list[DiscoveryRequest]:
    """The fixed member-query sample whose rankings must survive a restart."""
    rng = np.random.default_rng(seed)
    names = lake.names
    return [
        member_request(names[int(rng.integers(len(names)))], MODES[i % 3])
        for i in range(count)
    ]


def rankings(service, requests: list[DiscoveryRequest]) -> list:
    """Ranked ``(table, score, version)`` per request — exact floats."""
    return [
        [(hit.table, hit.score, hit.version) for hit in service.discover(r).hits]
        for r in requests
    ]


def mismatches(expected: list, actual: list) -> int:
    return sum(1 for a, b in zip(expected, actual) if a != b) + abs(
        len(expected) - len(actual)
    )


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def p50(values) -> float:
    return float(statistics.median(values))


def p95(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), 95))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Host-speed reference
# --------------------------------------------------------------------- #
#: What one reference tick costs on the reference box in a quiet hour. Only a
#: unit scale: it turns "ticks" back into milliseconds and never has to be
#: re-measured — a change to the repo cannot move a tick.
REFERENCE_TICK_MS = 2.0


class HostReference:
    """A fixed kernel timed *beside* the measured operations.

    The reference box is a shared 2-vCPU VM whose speed drifts by ±15 % for
    seconds to minutes at a time and by more in a bad hour; everything in a
    run is slow or fast together, so no statistic over one run's samples
    removes it. A tick is interpreter work only (dict updates and a sort —
    what most of this repo's time is spent on) and touches none of the
    repo's code. A duration measured next to tick ``i`` is multiplied by
    ``scale(i)`` = nominal tick / tick measured then — what it would have
    taken at the reference speed — so the two time axes read the program,
    not the neighbours' load. (A tick that also streamed an index-sized
    array through numpy tracked the host worse: after a 200 ms write it
    read the cold cache, not the host.)"""

    #: Ticks either side of ``i`` whose median sets the speed at ``i``: one
    #: descheduled tick must not rescale its neighbours' operations.
    HALF_WINDOW = 2

    def __init__(self):
        self.ms: list[float] = []

    def tick(self) -> int:
        """Run the kernel once; returns the index to pass to `scale`."""
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(12_000):
            key = i & 1023
            counts[key] = counts.get(key, 0) + i
        sorted(counts.values())
        self.ms.append(1000.0 * (time.perf_counter() - started))
        return len(self.ms) - 1

    def scale(self, tick: int) -> float:
        window = self.ms[max(0, tick - self.HALF_WINDOW) : tick + self.HALF_WINDOW + 1]
        return REFERENCE_TICK_MS / statistics.median(window)


# --------------------------------------------------------------------- #
# Scratch space — inside the checkout, removed at exit
# --------------------------------------------------------------------- #
class WorkDir:
    """``benchmarks/e2e/.work/run-<pid>``: the driver's checkout is the only
    place the benchmark may write, so no ``/tmp``."""

    def __init__(self):
        self.root = HERE / ".work" / f"run-{os.getpid()}"

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()  # last run out removes `.work` itself
        except OSError:
            pass

    def path(self, name: str) -> Path:
        return self.root / name

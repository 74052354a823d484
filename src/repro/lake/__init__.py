"""`repro.lake` — a persistent, incrementally-updatable data-lake service.

The paper's deployment recipe: "we recommend indexing the datalake offline
and at query time only compute embeddings for the query table." This package
is that serving substrate:

- :mod:`repro.lake.serialization` — sketches <-> npz/JSON artifacts, plus
  config fingerprinting so stale artifacts are detected, never silently
  reused;
- :mod:`repro.lake.store` — :class:`LakeStore`, the hash-partitioned on-disk
  layout (N :class:`LakeShard` s, each npz archives of up to 64 tables a
  write stored together + a journaled JSON manifest; the index is
  assembled from the archives at open);
- :mod:`repro.lake.bundle` — model/tokenizer persistence so a warm process
  can embed *query* tables identically to the one that built the lake;
- :mod:`repro.lake.catalog` — :class:`LakeCatalog`, add/remove/update with
  incremental index maintenance (a 1-table delta re-embeds only that table);
- :mod:`repro.lake.api` — the versioned Discovery API: typed
  :class:`DiscoveryRequest` / :class:`DiscoveryResult` (scored
  :class:`Hit` s with per-column evidence), the :class:`DiscoveryError`
  taxonomy, and strict JSON codecs shared by every surface;
- :mod:`repro.lake.service` — :class:`LakeService`, the thread-safe query
  facade (join/union/subset, batching, LRU query-embedding cache),
  answering the same schema in-process; ``LakeService.open`` warm-loads a
  lake directory;
- :mod:`repro.lake.wire` — the one HTTP/1.1 framing every hop speaks (head
  parser, request/response encoders, the keep-alive accept loop, the
  read-only retry rule);
- :mod:`repro.lake.server` — :class:`LakeServer` / :class:`ServerThread`,
  the stdlib asyncio HTTP/1.1 front-end (``POST /v1/query``, batch,
  ingest, stats, healthz);
- :mod:`repro.lake.client` — :class:`LakeClient`, the socket SDK that
  round-trips the same dataclasses over the wire;
- :mod:`repro.lake.target` — :class:`ServiceTarget` / :class:`ClientTarget`,
  one op surface over an in-process service or a remote server (what the
  CLI's ``--lake`` / ``--server`` and the lakegen driver run against);
- :mod:`repro.lake.replica` — :class:`SnapshotPublisher` /
  :class:`ReplicaService`: a leader publishes versioned store snapshots,
  stateless read replicas blue/green-swap onto the newest complete
  generation (refusing torn ones, with pin-based rollback);
- :mod:`repro.lake.frontend` — :class:`LakeFrontend`, the round-robin
  proxy fanning queries across replicas;
- ``python -m repro.lake`` — the ingest/query/serve/publish/replica/
  frontend/stats CLI.
"""

from repro.lake.api import (
    API_VERSION,
    ColumnMatch,
    DiscoveryError,
    DiscoveryRequest,
    DiscoveryResult,
    Hit,
    Timings,
)
from repro.lake.catalog import LakeCatalog
from repro.lake.client import LakeClient
from repro.lake.serialization import (
    FingerprintMismatchError,
    StoreLayoutError,
    config_fingerprint,
    pack_table_sketch,
    unpack_table_sketch,
)
from repro.lake.frontend import FrontendThread, LakeFrontend
from repro.lake.replica import ReplicaService, SnapshotPublisher
from repro.lake.server import LakeServer, ServerThread
from repro.lake.service import LakeService
from repro.lake.store import LakeShard, LakeStore, LakeTableRecord

__all__ = [
    "API_VERSION",
    "ColumnMatch",
    "DiscoveryError",
    "DiscoveryRequest",
    "DiscoveryResult",
    "FingerprintMismatchError",
    "FrontendThread",
    "Hit",
    "LakeCatalog",
    "LakeClient",
    "LakeFrontend",
    "LakeServer",
    "LakeService",
    "LakeShard",
    "LakeStore",
    "LakeTableRecord",
    "ReplicaService",
    "ServerThread",
    "SnapshotPublisher",
    "StoreLayoutError",
    "Timings",
    "config_fingerprint",
    "pack_table_sketch",
    "unpack_table_sketch",
]

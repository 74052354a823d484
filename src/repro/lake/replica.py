"""`repro.lake.replica` — snapshot-shipped read replicas for a lake.

Scaling reads past one process is a two-piece protocol over artifacts the
store already makes self-contained and atomically flushed
(:mod:`repro.lake.store`):

- **Leader side** — :class:`SnapshotPublisher` copies the lake's store
  artifacts (manifests, per-shard ``index.npz``, table archives) into a
  *versioned generation directory* under a snapshot dir, stamps a
  completion marker (``SNAPSHOT.json``: generation number, config
  fingerprint, table/column counts), and atomically renames the staged
  directory into place before advancing the ``CURRENT`` pointer. A crash
  at any point leaves either the previous generation or a nameless
  staging dir — never a half-visible generation.
- **Replica side** — :class:`ReplicaService` serves the v1 Discovery API
  from the newest *complete* generation. It polls the snapshot dir (or is
  told to :meth:`~ReplicaService.refresh`), warm-loads a candidate
  generation into a fresh :class:`~repro.lake.service.LakeService`, and
  **blue/green swaps** it in atomically: the old generation keeps
  answering queries until the new one has fully loaded and validated
  (fingerprint and table count against the marker). A torn or invalid
  generation is *refused* — the previous generation keeps serving and a
  refusal counter ticks. :meth:`~ReplicaService.pin` re-pins an older
  generation explicitly — the rollback lever when a published generation
  turns out bad.

Replicas are stateless and read-only: ingest (``add_tables`` /
``remove_table``) raises a typed ``bad-request`` pointing at the leader.
Every answer is stamped with the serving ``generation`` and
``fingerprint`` in its diagnostics, so a caller can always tell *which*
version of the lake answered — a one-generation-stale replica still
returns a valid, verifiably-versioned response.

An unmodified :class:`~repro.lake.server.LakeServer` can host a
``ReplicaService`` directly (it implements the same ``discover`` /
``discover_batch`` / ``stats`` / ``slow_log`` surface), so
``python -m repro.lake replica`` is just ``serve`` pointed at snapshots.
:mod:`repro.lake.frontend` fans queries across N such replicas.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
import warnings
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.core.embed import TableEmbedder
from repro.lake.api import DiscoveryError, DiscoveryRequest, DiscoveryResult
from repro.lake.bundle import CONFIG_NAME, VOCAB_NAME, WEIGHTS_NAME, has_bundle
from repro.lake.catalog import LakeCatalog
from repro.lake.service import LakeService
from repro.lake.store import STORE_FILES, LakeStore
from repro.text.sbert import HashedSentenceEncoder
from repro.utils.io import ensure_dir, read_json, write_json

#: Completion marker inside a generation dir — its presence (with a valid
#: JSON body) is what makes a generation *complete*; it is written into the
#: staging dir, so only the atomic rename publishes it.
SNAPSHOT_MARKER = "SNAPSHOT.json"
#: Pointer file naming the latest published generation (a hint for
#: handshakes; replicas trust the markers, not the pointer).
CURRENT_NAME = "CURRENT"
GENERATION_PREFIX = "gen-"
_STAGING_SUFFIX = ".staging"

#: Shipped once to the snapshot-dir root, beside the generations (each of
#: which holds ``STORE_FILES``) — weights never change within a lake's
#: lifetime.
_BUNDLE_FILES = (CONFIG_NAME, WEIGHTS_NAME, VOCAB_NAME)

_GENERATION = obs.gauge(
    "replica_generation", "Snapshot generation this replica currently serves"
)
_SWAPS = obs.counter(
    "replica_swaps_total", "Blue/green generation adoptions completed"
)
_REFUSALS = obs.counter(
    "replica_adoptions_refused_total",
    "Candidate generations refused at adoption (torn or invalid snapshot)",
)
_PUBLISHES = obs.counter(
    "replica_snapshots_published_total", "Generations published by a leader"
)


def generation_dir_name(generation: int) -> str:
    return f"{GENERATION_PREFIX}{generation:06d}"


def _parse_generation(name: str) -> int | None:
    if not name.startswith(GENERATION_PREFIX) or name.endswith(_STAGING_SUFFIX):
        return None
    try:
        return int(name[len(GENERATION_PREFIX) :])
    except ValueError:
        return None


def list_generations(snapshot_dir: str | os.PathLike) -> list[int]:
    """All *complete* generations (marker present and readable), ascending."""
    root = Path(snapshot_dir)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        generation = _parse_generation(entry.name)
        if generation is None or not entry.is_dir():
            continue
        if read_marker(entry) is not None:
            found.append(generation)
    return sorted(found)


def read_marker(generation_dir: str | os.PathLike) -> dict | None:
    """The generation's completion marker, or None when torn/absent."""
    path = Path(generation_dir) / SNAPSHOT_MARKER
    try:
        marker = read_json(path)
    except (OSError, ValueError):
        return None
    if not isinstance(marker, dict) or "generation" not in marker:
        return None
    return marker


def newest_complete_generation(snapshot_dir: str | os.PathLike) -> int | None:
    generations = list_generations(snapshot_dir)
    return generations[-1] if generations else None


def read_current(snapshot_dir: str | os.PathLike) -> int | None:
    """The ``CURRENT`` pointer's generation (handshake hint), or None."""
    path = Path(snapshot_dir) / CURRENT_NAME
    try:
        return int(read_json(path)["generation"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


class SnapshotPublisher:
    """Leader-side: publish versioned store snapshots into a snapshot dir.

    ``publish()`` copies the lake's current store artifacts into
    ``<snapshots>/gen-NNNNNN.staging``, writes the completion marker, then
    atomically renames the staging dir to ``gen-NNNNNN`` and advances
    ``CURRENT`` (write-then-rename). Replicas only ever see directories
    whose marker landed with the rename — a torn copy is invisible.
    """

    def __init__(self, lake_root: str | os.PathLike, snapshot_dir: str | os.PathLike):
        self.lake_root = Path(lake_root)
        if LakeStore.peek_n_shards(self.lake_root) is None:
            raise FileNotFoundError(
                f"no lake store at {self.lake_root} (run ingest first)"
            )
        if LakeStore.needs_conversion(self.lake_root):
            # A flat-layout lake: convert it in place before the first
            # copy, so a generation never ships the old layout (a replica
            # refuses one — it must not rewrite a shared snapshot).
            LakeStore.open(self.lake_root)
        self.snapshot_dir = ensure_dir(snapshot_dir)

    def publish(self) -> int:
        """Snapshot the lake's store as the next generation; returns it."""
        generations = list_generations(self.snapshot_dir)
        generation = (generations[-1] + 1) if generations else 1
        staging = self.snapshot_dir / (
            generation_dir_name(generation) + _STAGING_SUFFIX
        )
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            for name in STORE_FILES:
                source = self.lake_root / name
                if not source.exists():
                    continue
                if source.is_dir():
                    shutil.copytree(source, staging / name)
                else:
                    shutil.copy2(source, staging / name)
            self._copy_bundle()
            store = LakeStore.open(staging)
            stats = store.stats()
            write_json(
                staging / SNAPSHOT_MARKER,
                {
                    "generation": generation,
                    "fingerprint": store.fingerprint,
                    "n_tables": stats["n_tables"],
                    "n_columns": stats["n_columns"],
                    "n_shards": store.n_shards,
                    "published_unix": time.time(),
                },
            )
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        final = self.snapshot_dir / generation_dir_name(generation)
        os.replace(staging, final)
        self._write_current(generation)
        _PUBLISHES.inc()
        return generation

    def _copy_bundle(self) -> None:
        """Ship the weight bundle once, beside the generations — replicas
        need it to embed external query payloads exactly like the leader."""
        if not has_bundle(self.lake_root):
            return
        for name in _BUNDLE_FILES:
            source = self.lake_root / name
            target = self.snapshot_dir / name
            if source.exists() and not target.exists():
                shutil.copy2(source, target)

    def _write_current(self, generation: int) -> None:
        path = self.snapshot_dir / CURRENT_NAME
        temporary = path.with_name(CURRENT_NAME + ".tmp")
        write_json(temporary, {"generation": generation})
        os.replace(temporary, path)


class ReplicaService:
    """A stateless read replica over published snapshot generations.

    Implements the same query surface as :class:`LakeService`
    (``discover`` / ``discover_batch`` / ``stats`` / ``slow_log`` /
    ``catalog``), so :class:`~repro.lake.server.LakeServer`
    hosts it unmodified. Mutations raise: replicas are read-only.

    Generation swaps are blue/green: :meth:`refresh` loads and validates
    the candidate *before* the one-tuple-assignment swap, so concurrent
    queries always see a fully-adopted generation — either the old one or
    the new one, never a half-loaded index.
    """

    def __init__(
        self,
        embedder: TableEmbedder,
        snapshot_dir: str | os.PathLike,
        sbert: HashedSentenceEncoder | None = None,
        cache_size: int = 128,
        poll_interval: float = 2.0,
    ):
        self.embedder = embedder
        self.sbert = sbert
        self.snapshot_dir = Path(snapshot_dir)
        self.cache_size = cache_size
        self.poll_interval = poll_interval
        #: ``(service, generation, fingerprint)`` — swapped as one tuple so
        #: readers never observe a service/generation mismatch.
        self._state: tuple[LakeService, int, str | None] | None = None
        self._pinned: int | None = None
        #: Serializes refresh/pin (adoption); queries never take it.
        self._refresh_lock = threading.Lock()
        self.swaps = 0
        self.refusals = 0
        self._poll_stop: threading.Event | None = None
        self._poll_thread: threading.Thread | None = None
        self.refresh()

    # ------------------------------------------------------------------ #
    # Generation adoption
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int | None:
        state = self._state
        return state[1] if state is not None else None

    @property
    def available(self) -> bool:
        return self._state is not None

    def _current(self) -> tuple[LakeService, int, str | None]:
        state = self._state
        if state is None:
            raise DiscoveryError(
                "unavailable",
                f"replica has no complete snapshot generation to serve "
                f"(snapshot dir {str(self.snapshot_dir)!r})",
            )
        return state

    def refresh(self) -> bool:
        """Adopt the newest complete generation (or the pinned one).

        Returns True when a swap happened. A candidate that fails to load
        or validate is refused: the previous generation keeps serving,
        ``refusals`` ticks, and the next poll retries.
        """
        with self._refresh_lock:
            target = (
                self._pinned
                if self._pinned is not None
                else newest_complete_generation(self.snapshot_dir)
            )
            if target is None or target == self.generation:
                return False
            return self._adopt(target)

    def pin(self, generation: int | None) -> bool:
        """Pin serving to one generation (rollback lever); None unpins.

        Pinning an incomplete/unknown generation is refused like any other
        bad candidate — the current generation keeps serving.
        """
        with self._refresh_lock:
            self._pinned = generation
            target = (
                generation
                if generation is not None
                else newest_complete_generation(self.snapshot_dir)
            )
            if target is None or target == self.generation:
                return False
            return self._adopt(target)

    def _adopt(self, generation: int) -> bool:
        """Load + validate one generation, then swap it in. Never raises:
        a refusal leaves the previous state serving untouched."""
        root = self.snapshot_dir / generation_dir_name(generation)
        marker = read_marker(root)
        if marker is None:
            self._refuse(generation, "missing or unreadable SNAPSHOT.json marker")
            return False
        try:
            if LakeStore.needs_conversion(root):
                raise ValueError(
                    f"generation {generation} is in the flat store layout, "
                    "which opening would rewrite — snapshots are shared and "
                    "read-only; republish it from the leader"
                )
            with warnings.catch_warnings():
                # A torn snapshot must be *refused*, not healed in place:
                # the store's degrade-to-empty / rebuild-and-persist warm
                # paths are for a leader's own lake, not for shared
                # read-only artifacts.
                warnings.simplefilter("error", RuntimeWarning)
                store = LakeStore.open(
                    root, expected_fingerprint=marker.get("fingerprint")
                )
                catalog = LakeCatalog.from_store(
                    self.embedder, store, sbert=self.sbert
                )
            if len(catalog) != int(marker.get("n_tables", -1)):
                raise ValueError(
                    f"generation {generation} loaded {len(catalog)} tables "
                    f"but its marker promises {marker.get('n_tables')}"
                )
            # A leader may publish between an append and its lazy
            # re-embed; refresh eagerly here (persist=False — snapshot
            # generations are shared read-only artifacts) so every query
            # this replica answers serves fresh vectors.
            catalog.refresh_stale(persist=False)
        except Exception as exc:  # noqa: BLE001 — refusal must never kill serving
            self._refuse(generation, repr(exc))
            return False
        service = LakeService(catalog, cache_size=self.cache_size)
        self._state = (service, generation, store.fingerprint)
        self.swaps += 1
        _SWAPS.inc()
        _GENERATION.set(generation)
        return True

    def _refuse(self, generation: int, why: str) -> None:
        self.refusals += 1
        _REFUSALS.inc()
        warnings.warn(
            f"replica refused snapshot generation {generation}: {why}; "
            f"generation {self.generation} keeps serving",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------ #
    # Background polling
    # ------------------------------------------------------------------ #
    def start_polling(self) -> "ReplicaService":
        """Poll the snapshot dir for new generations on a daemon thread."""
        if self._poll_thread is not None:
            return self
        stop = threading.Event()

        def poll() -> None:
            while not stop.wait(self.poll_interval):
                try:
                    self.refresh()
                except Exception:  # noqa: BLE001 — the poller must survive
                    pass

        thread = threading.Thread(target=poll, name="lake-replica-poll", daemon=True)
        self._poll_stop = stop
        self._poll_thread = thread
        thread.start()
        return self

    def stop_polling(self) -> None:
        if self._poll_stop is not None:
            self._poll_stop.set()
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=10)
        self._poll_stop = None
        self._poll_thread = None

    def __enter__(self) -> "ReplicaService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_polling()

    # ------------------------------------------------------------------ #
    # LakeService-compatible query surface
    # ------------------------------------------------------------------ #
    def _stamp(
        self, result: DiscoveryResult, generation: int, fingerprint: str | None
    ) -> DiscoveryResult:
        # diagnostics is a plain dict on the frozen dataclass; stamping in
        # place keeps hits/timings untouched, so ranked answers stay
        # byte-identical to the in-process service.
        result.diagnostics["replica"] = True
        result.diagnostics["generation"] = generation
        result.diagnostics["fingerprint"] = fingerprint
        return result

    def discover(self, request: DiscoveryRequest) -> DiscoveryResult:
        service, generation, fingerprint = self._current()
        return self._stamp(service.discover(request), generation, fingerprint)

    def discover_batch(
        self, requests: Sequence[DiscoveryRequest]
    ) -> list[DiscoveryResult]:
        service, generation, fingerprint = self._current()
        return [
            self._stamp(result, generation, fingerprint)
            for result in service.discover_batch(requests)
        ]

    @property
    def catalog(self) -> LakeCatalog:
        return self._current()[0].catalog

    @property
    def slow_log(self) -> obs.SlowQueryLog:
        state = self._state
        if state is None:
            return obs.SlowQueryLog()
        return state[0].slow_log

    def generation_info(self) -> dict:
        """The handshake payload: what this replica serves right now."""
        state = self._state
        return {
            "available": state is not None,
            "generation": state[1] if state else None,
            "fingerprint": state[2] if state else None,
            "pinned": self._pinned,
            "newest_published": newest_complete_generation(self.snapshot_dir),
            "current_pointer": read_current(self.snapshot_dir),
            "swaps": self.swaps,
            "refusals": self.refusals,
            "polling": self._poll_thread is not None,
        }

    def stats(self) -> dict:
        state = self._state
        if state is None:
            return {"replica": self.generation_info(), "n_tables": 0}
        stats = state[0].stats()
        stats["replica"] = self.generation_info()
        return stats

    # ------------------------------------------------------------------ #
    # Mutations: replicas are read-only
    # ------------------------------------------------------------------ #
    def _read_only(self, what: str):
        raise DiscoveryError(
            "bad-request",
            f"replica is read-only: {what} must go to the leader, which "
            "publishes the change as a new snapshot generation",
        )

    def add_table(self, table):
        self._read_only("add_table")

    def add_tables(self, tables, **kwargs):
        self._read_only("add_tables")

    def remove_table(self, name: str):
        self._read_only("remove_table")

    def update_table(self, table):
        self._read_only("update_table")

    def append_rows(self, name: str, rows):
        self._read_only("append_rows")

    def refresh_stale(self, names=None):
        # A replica never serves stale vectors (adoption refreshes
        # in-memory), and its snapshot artifacts are shared read-only —
        # an explicit persisted refresh belongs on the leader.
        self._read_only("refresh_stale")


__all__ = [
    "SNAPSHOT_MARKER",
    "CURRENT_NAME",
    "GENERATION_PREFIX",
    "SnapshotPublisher",
    "ReplicaService",
    "generation_dir_name",
    "list_generations",
    "newest_complete_generation",
    "read_current",
    "read_marker",
]

"""Shared fixtures for the `repro.lake` subsystem tests: a small grouped
corpus plus a frozen embedding stack.

Every test in this directory runs twice, with every store and catalog it
creates without an explicit shard count defaulting to 1 shard and to 4
hash-partitioned shards (the ``lake_layout_shards`` fixture below): the
shard count must be invisible to everything these tests assert, so no test
body names it or branches on it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import socket
import threading
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.embed import TableEmbedder
from repro.lake import store as store_module
from repro.lake.catalog import LakeCatalog
from repro.lake.store import LakeStore
from repro.table.schema import Table, table_from_rows


@pytest.fixture(autouse=True, params=[1, 4], ids=["1shard", "4shards"])
def lake_layout_shards(request, monkeypatch) -> int:
    """The shard count this test's lakes default to."""
    monkeypatch.setattr(LakeStore, "DEFAULT_SHARDS", request.param)
    return request.param


@pytest.fixture(scope="module")
def lake_tables() -> dict[str, Table]:
    tables: dict[str, Table] = {}
    for group in range(3):
        base = [f"grp{group}val{i}" for i in range(30)]
        for member in range(3):
            name = f"g{group}t{member}"
            keep = base[: 20 + 3 * member]
            rows = [
                [value, str((group + 1) * i), f"tag{i % 4}"]
                for i, value in enumerate(keep)
            ]
            tables[name] = table_from_rows(
                name, ["entity", "count", "tag"], rows,
                description=f"group {group} member {member}",
            )
    return tables


@pytest.fixture()
def lake_embedder(tiny_model, tiny_encoder) -> TableEmbedder:
    return TableEmbedder(tiny_model, tiny_encoder)


@pytest.fixture()
def cold_catalog(lake_embedder, lake_tables) -> LakeCatalog:
    catalog = LakeCatalog(lake_embedder)
    for table in lake_tables.values():
        catalog.add_table(table)
    return catalog


def _assert_same_answers(actual: dict, expected: dict) -> None:
    """Order, versions and counts exactly; rankings by name exactly and by
    score to 1e-9 (distances come out of a BLAS matmul)."""
    for key in ("table_names", "versions", "counts"):
        assert actual[key] == expected[key], key
    for mode, by_table in expected["rankings"].items():
        for name, recorded in by_table.items():
            served = actual["rankings"][mode][name]
            assert [t for t, _ in served] == [t for t, _ in recorded], (mode, name)
            assert [score for _, score in served] == pytest.approx(
                [score for _, score in recorded], rel=1e-9
            )


def _load_recipe(name: str):
    """`data/<name>/make_fixture.py` as a module."""
    path = Path(__file__).parent / "data" / name / "make_fixture.py"
    spec = importlib.util.spec_from_file_location(f"{name}_make_fixture", path)
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    return recipe


def _committed_fixture(name: str) -> SimpleNamespace:
    """A committed lake under `data/<name>/`, written by an older commit,
    and the answers that commit served.

    ``lake``: the store + weight bundle (read-only — copy before opening);
    ``expected``: `expected.json`, whose join and subset rankings were
    re-recorded from the same stored sketches when each moved from the
    trunk's vectors to signature containment; ``build_state(catalog)``: the
    mutation sequence that produced the lake; ``assert_serves(service)``: the
    service answers as that commit did (order, versions, counts, top-3
    rankings per mode — names exactly, scores to 1e-9).
    """
    root = Path(__file__).parent / "data" / name
    recipe = _load_recipe("flat_store")
    expected = json.loads((root / "expected.json").read_text())
    return SimpleNamespace(
        lake=root / "lake",
        expected=expected,
        build_state=recipe.build_flat_fixture_state,
        assert_serves=lambda service: _assert_same_answers(
            recipe.recorded_answers(service), expected
        ),
    )


@pytest.fixture(scope="session")
def flat_fixture() -> SimpleNamespace:
    """The flat-layout lake (`data/flat_store`, written by the last commit
    that had that layout); see :func:`_committed_fixture`."""
    return _committed_fixture("flat_store")


@pytest.fixture(scope="session")
def compact_fixture() -> SimpleNamespace:
    """A 4-shard lake with compact manifests and no manifest journal
    (`data/compact_store`, written by the last commit before shard
    manifests had one); see :func:`_committed_fixture`."""
    return _committed_fixture("compact_store")


@pytest.fixture(scope="session")
def journal_fixture() -> SimpleNamespace:
    """A 4-shard lake with one archive per table and journaled shard
    manifests (`data/journal_store`, written by the last commit before a
    bulk write's tables shared archives); see :func:`_committed_fixture`."""
    return _committed_fixture("journal_store")


@pytest.fixture()
def small_archives(monkeypatch) -> int:
    """Shard commits write archives of at most two tables instead of
    :data:`repro.lake.store.ARCHIVE_TABLES`, so the few tables of a test
    lake span several archives; returns the cap."""
    monkeypatch.setattr(store_module, "ARCHIVE_TABLES", 2)
    return 2


def _assert_archives_live(store: LakeStore) -> None:
    for shard in store.shards:
        named = {entry["file"] for entry in shard.entries()}
        on_disk = {f"tables/{path.name}" for path in shard.root.glob("tables/*.npz")}
        assert on_disk == named, shard.root


@pytest.fixture()
def archives_live():
    """``archives_live(store)`` asserts that the table archives on disk are
    exactly those ``store``'s live entries name: none that no entry names,
    and none an entry names missing. It opens nothing, so nothing is swept
    first."""
    return _assert_archives_live


@pytest.fixture(scope="session")
def shared_fixture() -> SimpleNamespace:
    """A 4-shard lake whose bulk write shared archives, the last layout
    before the root manifest recorded one (`data/shared_store`); see
    :func:`_committed_fixture`."""
    return _committed_fixture("shared_store")


def _as_the_last_unversioned_build_left_it(root: Path) -> None:
    """Rewrite a store's root manifest as the last build before the
    ``layout`` key wrote it: no ``layout``, and that build's ``+shared``
    mark in place of :data:`repro.lake.store._LAYOUT_MARK`. Every other
    file of a store is that build's already, byte for byte."""
    path = root / "manifest.json"
    top = json.loads(path.read_text())
    del top["layout"]
    unmarked = top["fingerprint"].removesuffix(store_module._LAYOUT_MARK)
    top["fingerprint"] = unmarked + "+shared"
    path.write_text(store_module._dumps(top) + "\n")


@pytest.fixture()
def unmigrated():
    """``unmigrated(root)`` turns the store at ``root`` into the one the
    last build before layout versions would have written; see
    :func:`_as_the_last_unversioned_build_left_it`."""
    return _as_the_last_unversioned_build_left_it


@pytest.fixture(scope="session")
def sharded_fixture() -> SimpleNamespace:
    """A 4-shard lake with pretty-printed manifests and counter-less
    ``index.npz`` archives (`data/sharded_store`, written by the last commit
    before compact manifests); see :func:`_committed_fixture`."""
    return _committed_fixture("sharded_store")


# --------------------------------------------------------------------- #
# The every-k kill shim
# --------------------------------------------------------------------- #
class _Killed(Exception):
    pass


def _is_write_mode(mode: str) -> bool:
    return any(flag in mode for flag in "wax+")


@contextmanager
def _killed_at_call(k: int):
    """Make the k-th file operation inside the block raise instead of
    running — the file system is left as after a kill just before it.

    Counted: ``os.replace`` / ``os.rename`` / ``shutil.move`` (renames),
    :func:`repro.lake.archive.write_archive` as ``repro.lake.store`` calls
    it (every table archive write), ``os.unlink`` (which ``Path.unlink``
    calls), ``open`` for writing as ``repro.lake.store`` calls it (a
    manifest's staging file), and the store's journal append
    (``_append_journal``) twice: whole (the kill lands before it writes)
    and torn (it writes the first half of its line, then the kill lands).
    The kill ends the block quietly; ``.fired`` says whether it happened
    (``False``: the block ran to the end in fewer than k calls).
    """
    state = SimpleNamespace(calls=0, fired=False)

    def counted() -> bool:
        state.calls += 1
        return state.calls == k

    def guarded(real):
        def wrapper(*args, **kwargs):
            if counted():
                raise _Killed(f"killed at file operation {k}")
            return real(*args, **kwargs)

        return wrapper

    def guarded_open(file, mode="r", *args, **kwargs):
        if _is_write_mode(mode) and counted():
            raise _Killed(f"killed at file operation {k} (open {file})")
        return open(file, mode, *args, **kwargs)

    append_journal = store_module._append_journal

    def guarded_append(path, line, keep):
        if counted():
            raise _Killed(f"killed at file operation {k} (journal, whole)")
        if counted():
            append_journal(path, line[: len(line) // 2], keep)
            raise _Killed(f"killed at file operation {k} (journal, torn)")
        return append_journal(path, line, keep)

    with pytest.MonkeyPatch.context() as patch:
        for owner, name in (
            (os, "replace"), (os, "rename"), (shutil, "move"),
            (store_module, "write_archive"), (os, "unlink"),
        ):
            patch.setattr(owner, name, guarded(getattr(owner, name)))
        patch.setattr(store_module, "open", guarded_open, raising=False)
        patch.setattr(store_module, "_append_journal", guarded_append)
        try:
            yield state
        except _Killed:
            state.fired = True


@pytest.fixture()
def kill_at():
    """``with kill_at(k) as kill: ...`` — see :func:`_killed_at_call`."""
    return _killed_at_call


# --------------------------------------------------------------------- #
# A raw-socket HTTP peer
# --------------------------------------------------------------------- #
class RawServer:
    """A one-thread socket listener that reads requests off each connection
    and answers the i-th with the canned bytes ``replies[i]``; a ``None``
    reply, or running out of replies, closes the connection. ``[ok]`` is a
    server that drops a keep-alive connection once it goes idle, ``[ok,
    None]`` one that drops it after reading the next request, and ``[bad]``
    a backend whose answer cannot be relayed. ``requests`` lists every
    request line read, in order."""

    def __init__(self, replies: "list[bytes | None]"):
        self.replies = replies
        self.requests: list[str] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            with conn:
                try:
                    self._answer(conn)
                except OSError:
                    pass

    def _answer(self, conn: socket.socket) -> None:
        conn.settimeout(10)
        data = b""
        for reply in self.replies:
            while b"\r\n\r\n" not in data:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                data += chunk
            head, _, data = data.partition(b"\r\n\r\n")
            length = re.search(rb"(?im)^content-length:\s*(\d+)", head)
            length = int(length.group(1)) if length else 0
            while len(data) < length:
                # Read the whole body: closing on unread bytes would send a
                # reset instead of the reply.
                chunk = conn.recv(65536)
                if not chunk:
                    return
                data += chunk
            data = data[length:]
            self.requests.append(head.split(b"\r\n", 1)[0].decode("latin-1"))
            if reply is None:
                return
            conn.sendall(reply)

    def close(self) -> None:
        self._stopped.set()
        self._thread.join()
        self._listener.close()


@pytest.fixture()
def raw_server():
    """``raw_server(replies)`` starts a :class:`RawServer`; all stop at
    teardown."""
    started: list[RawServer] = []

    def start(replies: "list[bytes | None]") -> RawServer:
        started.append(RawServer(replies))
        return started[-1]

    yield start
    for server in started:
        server.close()

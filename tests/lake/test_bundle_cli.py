"""Model-bundle persistence and the ``python -m repro.lake`` CLI."""

import json

import numpy as np
import pytest

from repro.core.embed import TableEmbedder
from repro.lake.bundle import has_bundle, load_bundle, save_bundle
from repro.lake.serialization import config_fingerprint
from repro.lake import __main__ as cli
from repro.lake.store import LakeStore
from repro.sketch.pipeline import sketch_table
from repro.table.csvio import write_csv


def test_bundle_roundtrip_reproduces_embeddings(
    tmp_path, tiny_model, tiny_encoder, city_table, tiny_sketch_config
):
    assert not has_bundle(tmp_path)
    save_bundle(tmp_path, tiny_model, tiny_encoder.tokenizer)
    assert has_bundle(tmp_path)

    model, encoder, sbert = load_bundle(tmp_path)
    assert sbert is None
    assert config_fingerprint(model.config, model=model) == config_fingerprint(
        tiny_model.config, model=tiny_model
    )
    sketch = sketch_table(city_table, tiny_sketch_config)
    original = TableEmbedder(tiny_model, tiny_encoder).engine.embed_batch([sketch])
    restored = TableEmbedder(model, encoder).engine.embed_batch([sketch])
    original, restored = original[0].columns, restored[0].columns
    assert np.array_equal(original, restored)


def test_bundle_persists_sbert_settings(tmp_path, tiny_model, tiny_encoder):
    from repro.text.sbert import HashedSentenceEncoder

    save_bundle(
        tmp_path, tiny_model, tiny_encoder.tokenizer,
        sbert=HashedSentenceEncoder(dim=48, ngram=2, positional=True),
    )
    _, _, sbert = load_bundle(tmp_path)
    assert (sbert.dim, sbert.ngram, sbert.positional) == (48, 2, True)


@pytest.fixture()
def csv_dir(tmp_path, lake_tables):
    directory = tmp_path / "csvs"
    for name, table in lake_tables.items():
        write_csv(table, directory / f"{name}.csv")
    return directory


def test_cli_ingest_query_stats_roundtrip(tmp_path, csv_dir, capsys, lake_tables):
    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    out = capsys.readouterr().out
    assert f"ingested {len(lake_tables)} tables" in out

    # Re-ingest warm-loads and adds nothing.
    cli.main(["ingest", "--lake", lake, "--csv-dir", str(csv_dir)])
    out = capsys.readouterr().out
    assert "ingested 0 tables" in out
    assert f"({len(lake_tables)} already present)" in out

    cli.main(["query", "--lake", lake, "--table", "g1t1", "--mode", "union", "-k", "3"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "union results for 'g1t1'" in lines[0]
    assert lines[1:], "expected ranked results"
    assert all("g1t1" not in line for line in lines[1:])  # leave-one-out

    cli.main(["remove", "--lake", lake, "--table", "g0t0"])
    out = capsys.readouterr().out
    assert f"{len(lake_tables) - 1} tables remain" in out

    cli.main(["stats", "--lake", lake])
    out = capsys.readouterr().out
    assert f'"n_tables": {len(lake_tables) - 1}' in out
    assert '"api_version": "v1"' in out
    assert '"shard_tables"' in out
    # The removed table's rows stay in the archive it shared, counted dead.
    store_stats = LakeStore.open(lake).stats()
    assert json.loads(out)["store"]["dead_bytes"] == store_stats["dead_bytes"] > 0
    assert json.loads(out)["store"]["disk_bytes"] == store_stats["disk_bytes"]


def test_cli_query_json_emits_discovery_result(tmp_path, csv_dir, capsys):
    """`query --json` prints the exact DiscoveryResult envelope — the CLI
    is a serializer of the same schema the HTTP server speaks."""
    import json as json_module

    from repro.lake.api import API_VERSION, DiscoveryResult

    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    capsys.readouterr()
    cli.main([
        "query", "--lake", lake, "--table", "g1t1",
        "--mode", "union", "-k", "3", "--json",
    ])
    out = capsys.readouterr().out
    result = DiscoveryResult.from_dict(json_module.loads(out))
    assert result.version == API_VERSION
    assert result.query == "g1t1"
    assert result.hits and all(hit.score > 0 for hit in result.hits)
    scores = [hit.score for hit in result.hits]
    assert scores == sorted(scores, reverse=True)

    # The human-readable form carries the same ranking, scored.
    cli.main(["query", "--lake", lake, "--table", "g1t1", "-k", "3"])
    human = capsys.readouterr().out
    for hit in result.hits:
        assert hit.table in human
    assert "score=" in human


def test_cli_query_via_server(tmp_path, csv_dir, capsys):
    """`query --server` answers through a live `serve` instance with the
    same hits the local lake returns."""
    from repro.lake.server import ServerThread
    from repro.lake.service import LakeService

    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    capsys.readouterr()
    with ServerThread(LakeService.open(lake)) as server:
        cli.main([
            "query", "--server", f"127.0.0.1:{server.port}",
            "--table", "g0t1", "-k", "3", "--json",
        ])
        remote_out = capsys.readouterr().out
    cli.main(["query", "--lake", lake, "--table", "g0t1", "-k", "3", "--json"])
    local_out = capsys.readouterr().out
    import json as json_module

    remote = json_module.loads(remote_out)
    local = json_module.loads(local_out)
    assert remote["hits"] == local["hits"]
    assert remote["version"] == local["version"] == "v1"


def test_cli_remove_via_server(tmp_path, csv_dir, capsys, lake_tables):
    """`remove --server` drops the table through a live `serve` instance,
    prints what `remove --lake` prints, and exits with the same error for
    a table the lake does not hold."""
    from repro.lake.server import ServerThread
    from repro.lake.service import LakeService

    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    capsys.readouterr()
    with ServerThread(LakeService.open(lake)) as server:
        address = f"127.0.0.1:{server.port}"
        cli.main(["remove", "--server", address, "--table", "g0t0"])
        out = capsys.readouterr().out
        assert out == f"removed 'g0t0'; {len(lake_tables) - 1} tables remain\n"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["remove", "--server", address, "--table", "g0t0"])
        assert excinfo.value.code == "error: table 'g0t0' not in catalog"
    # The server's store committed the remove: a fresh open agrees.
    assert "g0t0" not in LakeService.open(lake).catalog.records
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["remove", "--lake", lake, "--table", "g0t0"])
    assert excinfo.value.code == "error: table 'g0t0' not in catalog"


def test_cli_query_external_csv(tmp_path, csv_dir, capsys):
    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    capsys.readouterr()
    probe = csv_dir / "g2t2.csv"
    cli.main(["query", "--lake", lake, "--csv", str(probe), "--mode", "join", "-k", "2"])
    out = capsys.readouterr().out
    assert "join results" in out


def test_cli_errors_on_missing_lake(tmp_path):
    with pytest.raises(SystemExit, match="not an ingested lake"):
        cli.main(["stats", "--lake", str(tmp_path / "void")])


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--lake", "lake", "--csv-dir", "csvs", "--ingest-procs", "2"],
        ["ingest", "--lake", "lake", "--csv-dir", "csvs", "--ingest-workers", "2"],
        ["reshard", "--lake", "lake", "--shards", "2", "--workers", "2"],
    ],
    ids=["ingest-procs", "ingest-workers", "reshard-workers"],
)
def test_cli_rejects_removed_concurrency_flags(argv, capsys):
    """Ingest has one in-process path; its old fan-out flags are a usage
    error (argparse's exit 2), not a silently ignored option."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_ingest_query_reshard_roundtrip(tmp_path, csv_dir, capsys, lake_tables):
    """End-to-end ingest → query → reshard → query → remove → re-ingest:
    exit codes are clean, rankings survive resharding byte-for-byte, and
    incremental ops keep working on the migrated layout."""
    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    out = capsys.readouterr().out
    assert f"ingested {len(lake_tables)} tables" in out

    def ranking(table: str) -> list[str]:
        cli.main(["query", "--lake", lake, "--table", table, "--mode",
                  "union", "-k", "4"])
        return capsys.readouterr().out.splitlines()[1:]

    before = {name: ranking(name) for name in ("g0t1", "g1t2", "g2t0")}

    cli.main(["reshard", "--lake", lake, "--shards", "3"])
    out = capsys.readouterr().out
    assert "-> 3 shard(s)" in out and "no re-embedding" in out

    after = {name: ranking(name) for name in before}
    assert after == before, "rankings must survive resharding"

    cli.main(["stats", "--lake", lake])
    out = capsys.readouterr().out
    assert '"n_shards": 3' in out

    # Resharding to the current count is a visible no-op, not an error.
    cli.main(["reshard", "--lake", lake, "--shards", "3"])
    assert "nothing to do" in capsys.readouterr().out

    # Incremental remove + re-ingest work on the migrated layout.
    cli.main(["remove", "--lake", lake, "--table", "g0t0"])
    assert f"{len(lake_tables) - 1} tables remain" in capsys.readouterr().out
    cli.main(["ingest", "--lake", lake, "--csv-dir", str(csv_dir)])
    out = capsys.readouterr().out
    assert "ingested 1 tables" in out and "3 shard(s)" in out
    assert {name: ranking(name) for name in before} == before

    # A conflicting --shards on a warm lake fails fast with guidance.
    with pytest.raises(SystemExit, match="reshard"):
        cli.main([
            "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
            "--shards", "8",
        ])
    # ... and so does resharding a lake that was never ingested.
    with pytest.raises(SystemExit, match="not an ingested lake"):
        cli.main(["reshard", "--lake", str(tmp_path / "void"), "--shards", "2"])


def _kill_reshard_mid_swap(lake) -> None:
    """What a reshard killed inside the swap window leaves: the store files
    parked in .reshard.old, nothing moved in yet, a stale stage dir."""
    import shutil

    backup = lake / ".reshard.old"
    backup.mkdir()
    for name in ("manifest.json", "index.npz", "tables", "shards"):
        source = lake / name
        if source.exists():
            shutil.move(str(source), str(backup / name))
    (lake / ".reshard.tmp").mkdir()


def test_cli_recovers_reshard_killed_mid_swap(tmp_path, csv_dir, capsys):
    """A reshard killed inside the swap window (old store parked in
    .reshard.old, nothing moved in yet) must roll back to the complete old
    layout on the next command instead of dying on a missing manifest."""
    lake = tmp_path / "lake"
    cli.main([
        "ingest", "--lake", str(lake), "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    capsys.readouterr()
    cli.main(["query", "--lake", str(lake), "--table", "g1t1", "-k", "3"])
    before = capsys.readouterr().out.splitlines()[1:]

    _kill_reshard_mid_swap(lake)
    with pytest.warns(RuntimeWarning, match="recovering interrupted reshard"):
        cli.main(["stats", "--lake", str(lake)])
    capsys.readouterr()
    assert not (lake / ".reshard.old").exists()
    assert not (lake / ".reshard.tmp").exists()
    cli.main(["query", "--lake", str(lake), "--table", "g1t1", "-k", "3"])
    assert capsys.readouterr().out.splitlines()[1:] == before


def test_publish_and_store_open_recover_reshard_killed_mid_swap(
    tmp_path, csv_dir, capsys
):
    """Recovery lives in the store, so every reader of the root manifest
    gets it — `publish` and a bare `LakeStore.open`, not only the commands
    that warm-load a service — and what gets published is a plain store a
    replica adopts without writing to it."""
    from repro.lake.replica import ReplicaService
    from repro.lake.service import LakeService
    from repro.lake.store import STORE_FILES, LakeStore

    lake = tmp_path / "lake"
    cli.main([
        "ingest", "--lake", str(lake), "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    names = LakeStore.open(lake).table_names()

    _kill_reshard_mid_swap(lake)
    with pytest.warns(RuntimeWarning, match="recovering interrupted reshard"):
        cli.main(["publish", "--lake", str(lake), "--snapshots", str(tmp_path / "s")])
    assert "published generation 1" in capsys.readouterr().out
    assert not (lake / ".reshard.old").exists()

    _kill_reshard_mid_swap(lake)
    with pytest.warns(RuntimeWarning, match="recovering interrupted reshard"):
        assert LakeStore.open(lake).table_names() == names

    generation = tmp_path / "s" / "gen-000001"
    assert sorted(p.name for p in generation.iterdir()) == sorted(
        (*STORE_FILES, "SNAPSHOT.json")
    )
    shipped = {
        p: p.read_bytes() for p in sorted(generation.rglob("*")) if p.is_file()
    }
    embedder = LakeService.open(lake).catalog.embedder
    replica = ReplicaService(embedder, tmp_path / "s")
    assert replica.generation == 1 and replica.catalog.table_names() == names
    assert {
        p: p.read_bytes() for p in sorted(generation.rglob("*")) if p.is_file()
    } == shipped, "a replica never writes to a snapshot"


def _normalized(out: str) -> str:
    """CLI output with the one figure that legitimately differs blanked."""
    import re

    return re.sub(r"\d+\.\d+ms", "<elapsed>ms", out)


def test_cli_prints_one_format_for_lake_and_server(tmp_path, csv_dir, capsys):
    """`query` / `append` / `refresh` / `update` print the same text whether
    the op ran on `--lake` or went through `--server` to an identical lake."""
    import shutil

    from repro.lake.server import ServerThread
    from repro.lake.service import LakeService

    local = str(tmp_path / "local")
    cli.main([
        "ingest", "--lake", local, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    served = str(tmp_path / "served")
    shutil.copytree(local, served)
    capsys.readouterr()
    ops = [
        ["query", "--table", "g1t1", "--mode", "join", "-k", "3"],
        ["query", "--csv", str(csv_dir / "g2t2.csv"), "--mode", "subset", "-k", "4"],
        ["append", "--table", "g0t0", "--csv", str(csv_dir / "g0t1.csv")],
        ["append", "--table", "g1t0", "--csv", str(csv_dir / "g1t1.csv")],
        ["refresh", "--tables", "g0t0"],
        ["refresh"],
        ["update", "--csv", str(csv_dir / "g2t0.csv")],
        ["query", "--table", "g0t0", "-k", "5"],
    ]
    with ServerThread(LakeService.open(served)) as server:
        for op in ops:
            cli.main([*op, "--lake", local])
            on_lake = capsys.readouterr().out
            cli.main([*op, "--server", f"127.0.0.1:{server.port}"])
            on_server = capsys.readouterr().out
            assert on_lake and _normalized(on_lake) == _normalized(on_server), op


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--lake", "lake", "--csv-dir", "csvs"],
        ["query", "--lake", "lake", "--table", "t"],
        ["serve", "--lake", "lake"],
    ],
    ids=["ingest", "query", "serve"],
)
def test_cli_has_no_index_backend_flag(argv, capsys):
    """There is one vector index, so there is nothing to pick: the old flag
    is a usage error, not a silently ignored option."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--index-backend", "exact"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --index-backend" in capsys.readouterr().err


#: Every option each subcommand accepts. Scripts, smokes and the lake
#: benchmark drive the CLI by these spellings, so the surface is pinned:
#: an option may only appear or vanish together with an edit here.
CLI_OPTIONS = {
    "append": ["--csv", "--lake", "--server", "--table"],
    "frontend": ["--backends", "--health-interval", "--host", "--port"],
    "migrate": ["--lake"],
    "ingest": [
        "--batch-size", "--csv-dir", "--dim", "--heads", "--lake", "--layers",
        "--num-perm", "--sbert-dim", "--seed", "--shards", "--sketch-seed",
        "--vocab-size",
    ],
    "publish": ["--lake", "--snapshots"],
    "query": [
        "--column", "--csv", "--json", "--lake", "--min-score", "--mode",
        "--server", "--table", "-k",
    ],
    "refresh": ["--lake", "--server", "--tables"],
    "remove": ["--lake", "--server", "--table"],
    "replica": ["--host", "--poll-interval", "--port", "--snapshots", "--workers"],
    "reshard": ["--lake", "--shards"],
    "serve": ["--host", "--lake", "--port", "--workers"],
    "stats": ["--lake", "--metrics"],
    "update": ["--csv", "--lake", "--server"],
}


def _subcommands() -> dict:
    import argparse

    parser = cli.build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_cli_subcommands_are_pinned():
    assert sorted(_subcommands()) == sorted(CLI_OPTIONS)


@pytest.mark.parametrize("name", sorted(CLI_OPTIONS))
def test_cli_options_are_pinned(name):
    parser = _subcommands()[name]
    options = sorted(
        option
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    )
    assert options == sorted(CLI_OPTIONS[name])
    assert "--index-backend" not in options


def _files(root) -> dict:
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _as_hnsw_lake(root, bundle_dir) -> str:
    """Rewrite a store's manifests into what an older build's `ingest
    --index-backend hnsw` left: the root manifest records the HNSW index
    and no layout, and every manifest carries the fingerprint computed
    under that index, so the older reader opened it. Returns that
    fingerprint."""
    import json as json_module

    from repro.search.backend import IndexSpec
    from repro.utils.io import write_json

    model, _, sbert = load_bundle(bundle_dir)
    spec = IndexSpec("hnsw", {"m": 12})
    top = json_module.loads((root / "manifest.json").read_text())
    fingerprint = config_fingerprint(
        model.config, sbert=sbert, model=model, index_spec=spec,
        n_shards=top["n_shards"],
    )
    del top["layout"]
    write_json(
        root / "manifest.json",
        {**top, "fingerprint": fingerprint, "index_spec": spec.to_dict()},
    )
    for path in sorted(root.glob("shards/*/manifest.json")):
        shard = json_module.loads(path.read_text())
        write_json(path, {**shard, "fingerprint": fingerprint})
    return fingerprint


def test_hnsw_lake_is_refused_untouched(tmp_path, csv_dir, capsys):
    """A lake recorded under the removed HNSW index predates layout
    versions, so it is refused whole — by `LakeService.open`, by every CLI
    command (an `error:` line, no traceback) and by replica adoption (the
    previous generation keeps serving) — and `migrate` refuses it too,
    naming the index; not one byte of it is rewritten."""
    import shutil

    from repro.lake.replica import ReplicaService, read_marker
    from repro.lake.serialization import StoreLayoutError
    from repro.lake.service import LakeService
    from repro.utils.io import write_json

    lake = tmp_path / "lake"
    snapshots = tmp_path / "snapshots"
    cli.main([
        "ingest", "--lake", str(lake), "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
    ])
    cli.main(["publish", "--lake", str(lake), "--snapshots", str(snapshots)])
    capsys.readouterr()
    _as_hnsw_lake(lake, lake)
    before = _files(lake)

    with pytest.raises(StoreLayoutError, match="older store layout.*migrate"):
        LakeService.open(lake)
    for argv in (
        ["query", "--lake", str(lake), "--table", "g1t1"],
        ["stats", "--lake", str(lake)],
        ["ingest", "--lake", str(lake), "--csv-dir", str(csv_dir)],
        ["reshard", "--lake", str(lake), "--shards", "2"],
        ["publish", "--lake", str(lake), "--snapshots", str(snapshots)],
        ["migrate", "--lake", str(lake)],
    ):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        message = str(excinfo.value)
        assert message.startswith("error: "), argv
        if argv[0] == "migrate":
            assert "'hnsw'" in message and "re-ingest" in message, argv
        else:
            assert f"migrate --lake {lake}" in message, argv
    assert capsys.readouterr().out == ""
    assert _files(lake) == before

    model, encoder, sbert = load_bundle(snapshots)
    replica = ReplicaService(TableEmbedder(model, encoder), snapshots, sbert=sbert)
    assert replica.generation == 1
    second = snapshots / "gen-000002"
    shutil.copytree(snapshots / "gen-000001", second)
    fingerprint = _as_hnsw_lake(second, snapshots)
    write_json(
        second / "SNAPSHOT.json",
        {**read_marker(second), "generation": 2, "fingerprint": fingerprint},
    )
    shipped = _files(second)
    with pytest.warns(RuntimeWarning, match="refused snapshot generation 2.*migrate"):
        assert not replica.refresh()
    assert replica.generation == 1 and replica.refusals == 1
    assert _files(second) == shipped

"""Model-bundle persistence and the ``python -m repro.lake`` CLI."""

import numpy as np
import pytest

from repro.core.embed import TableEmbedder
from repro.lake.bundle import has_bundle, load_bundle, save_bundle
from repro.lake.serialization import config_fingerprint
from repro.lake import __main__ as cli
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
    original = TableEmbedder(tiny_model, tiny_encoder).column_embeddings(sketch)
    restored = TableEmbedder(model, encoder).column_embeddings(sketch)
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


def test_cli_hnsw_backend_roundtrip(tmp_path, csv_dir, capsys, lake_tables):
    """The whole CLI runs unmodified on the HNSW backend, warm loads reuse
    the persisted graph, and a backend switch trips the fingerprint
    guard."""
    lake = str(tmp_path / "lake")
    cli.main([
        "ingest", "--lake", lake, "--csv-dir", str(csv_dir),
        "--num-perm", "16", "--dim", "32", "--vocab-size", "400",
        "--index-backend", "hnsw:m=12,ef_search=48",
    ])
    out = capsys.readouterr().out
    assert "hnsw:ef_search=48,m=12 backend" in out
    assert f"ingested {len(lake_tables)} tables" in out

    # Warm re-ingest without the flag picks up the stored backend.
    cli.main(["ingest", "--lake", lake, "--csv-dir", str(csv_dir)])
    out = capsys.readouterr().out
    assert "ingested 0 tables" in out
    assert "hnsw:ef_search=48,m=12 backend" in out

    cli.main(["query", "--lake", lake, "--table", "g1t1", "--mode", "union", "-k", "3"])
    out = capsys.readouterr().out
    assert "union results for 'g1t1'" in out

    cli.main(["stats", "--lake", lake])
    out = capsys.readouterr().out
    assert '"index_backend": "hnsw:ef_search=48,m=12"' in out
    assert '"index_insertions": 0' in out  # warm load deserialized the graph

    # A store built under HNSW refuses to serve as exact.
    with pytest.raises(SystemExit, match="fingerprint mismatch"):
        cli.main([
            "query", "--lake", lake, "--table", "g1t1",
            "--index-backend", "exact",
        ])

"""How ``lake/`` and ``expected.json`` beside this file were made.

They are a **4-shard** store and the answers it served, both written by the
last commit before shard manifests had a journal (0644171): compact
single-line manifests, every write a rewrite of its shard's whole
``manifest.json``, no ``manifest.log`` and no index archive.
`tests/lake/test_format_compat.py` opens copies of the store under the
current code and holds it to those answers. The corpus and the mutation
sequence are those of `../flat_store/make_fixture.py` (bulk add, one remove,
one staged replace), so every committed fixture records the same answers.

Not run by the test suite. To regenerate (only ever from that commit)::

    git clone <repo> /tmp/old && git -C /tmp/old checkout 0644171
    PYTHONPATH=/tmp/old/src python tests/lake/data/compact_store/make_fixture.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
N_SHARDS = 4


def _flat_recipe():
    path = HERE.parent / "flat_store" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("flat_store_make_fixture", path)
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    return recipe


def main() -> None:
    from repro.core.config import TabSketchFMConfig
    from repro.core.embed import TableEmbedder
    from repro.core.inputs import InputEncoder
    from repro.core.model import TabSketchFM
    from repro.lake.bundle import save_bundle
    from repro.lake.catalog import LakeCatalog
    from repro.lake.serialization import config_fingerprint
    from repro.lake.service import LakeService
    from repro.lake.store import LakeStore
    from repro.sketch.pipeline import SketchConfig
    from repro.text.tokenizer import WordPieceTokenizer

    recipe = _flat_recipe()
    lake = HERE / "lake"
    if lake.exists():
        shutil.rmtree(lake)
    texts: list[str] = []
    for table in recipe.flat_fixture_tables().values():
        texts.append(table.description)
        texts.extend(table.header)
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=200)
    config = TabSketchFMConfig(
        vocab_size=len(tokenizer.vocabulary), dim=16, num_layers=1, num_heads=2,
        ffn_dim=32, dropout=0.0, sketch=SketchConfig(num_perm=16, seed=1), seed=0,
    )
    model = TabSketchFM(config)
    save_bundle(lake, model, tokenizer)
    fingerprint = config_fingerprint(config, model=model, n_shards=N_SHARDS)
    store = LakeStore(lake, fingerprint, n_shards=N_SHARDS)
    catalog = LakeCatalog(TableEmbedder(model, InputEncoder(config, tokenizer)), store=store)
    recipe.build_flat_fixture_state(catalog)
    assert not list(lake.rglob("manifest.log")), "run this under commit 0644171"
    assert not list(lake.rglob("index.npz")), "run this under commit 0644171"

    warm = LakeService.open(lake)
    assert warm.catalog.searcher.insertions == 0 and warm.catalog.embed_calls == 0
    expected = {"fingerprint": fingerprint, **recipe.recorded_answers(warm)}
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()

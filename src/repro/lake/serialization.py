"""Sketch <-> artifact conversion and config fingerprinting.

Persisted lake artifacts are only valid under the exact configuration that
produced them: a different MinHash family (seed / ``num_perm``), a different
trunk, or different weights all yield incomparable sketches/embeddings. We
therefore fingerprint the full configuration — :class:`SketchConfig`, the
model config, the frozen text-encoder settings, and a digest of the model
*weights* — and refuse to load artifacts whose fingerprint disagrees.

A :class:`TableSketch` round-trips through ``(arrays, meta)``: uint64 MinHash
signatures and float64 numeric statistics go into an npz archive (exact
binary round-trip), strings and enums into the JSON manifest. The arrays
are a one-table :class:`~repro.sketch.pipeline.SketchBatch`'s members:
:func:`pack_table_sketch` is its gather from the objects and
:func:`unpack_table_sketch` its :meth:`~repro.sketch.pipeline.SketchBatch.sketches`.
No lake write calls either: an ingest's records view the arrays it
sketched to, a refresh encodes stored members as they are, and an append
merges arrays (:func:`merge_rows`). They serve ``record.sketch``, tests and
the lake benchmark's replay.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.search.backend import IndexSpec
from repro.sketch.minhash import MinHash, MinHasher
from repro.sketch.numeric import numeric_stats, pack_accumulators, unpack_accumulators
from repro.sketch.pipeline import (
    SketchBatch, SketchConfig, TableSketch, sketch_rows, split_members,
)
from repro.table.schema import ColumnType

#: A fingerprint input, frozen at 2: bumping it would change every
#: fingerprint and so refuse every lake. The store's layout is versioned on
#: its own, as :data:`repro.lake.store.LAYOUT`.
FINGERPRINT_FORMAT = 2


class FingerprintMismatchError(RuntimeError):
    """Stored artifacts were produced under a different configuration."""

    def __init__(self, expected: str, found: str, where: str = "lake store"):
        super().__init__(
            f"{where} fingerprint mismatch: expected {expected!r}, found "
            f"{found!r} — the artifacts were built under a different "
            "sketch/model/index configuration and must be re-ingested"
        )
        self.expected = expected
        self.found = found


class UnsupportedIndexBackendError(ValueError):
    """A vector index other than ``exact``: this code serves exact search
    only, so ``migrate`` refuses an older build's HNSW lake whole and a
    store refuses to record such a spec, each writing nothing."""

    def __init__(self, root, backend: str):
        super().__init__(
            f"lake at {str(root)!r} was built with the {backend!r} vector "
            "index, which is no longer supported (exact search is the only "
            "index); re-ingest it from its CSVs"
        )


class StoreLayoutError(ValueError):
    """A lake's root manifest records no store layout (an older build's
    store, which ``migrate`` rewrites) or one newer than
    :data:`repro.lake.store.LAYOUT`."""

    def __init__(self, root, found):
        super().__init__(
            f"lake at {str(root)!r} is in an older store layout; run `python -m "
            f"repro.lake migrate --lake {root}` to rewrite it"
            if found is None
            else f"lake at {str(root)!r} records store layout {found!r}, "
            "which this build does not read"
        )


# --------------------------------------------------------------------- #
# Fingerprints
# --------------------------------------------------------------------- #
def _weights_digest(model) -> str:
    """SHA-256 over the model's named parameters, order-independent."""
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def config_fingerprint(
    model_config,
    sbert=None,
    model=None,
    index_spec: IndexSpec | None = None,
    n_shards: int | None = None,
) -> str:
    """Stable hex fingerprint of everything embeddings depend on.

    ``model_config`` is a :class:`repro.core.config.TabSketchFMConfig` (which
    nests the :class:`SketchConfig`); ``sbert`` the optional frozen value
    encoder; ``model`` the (possibly fine-tuned) trunk, whose weights are
    digested so a fine-tune invalidates a pre-finetune lake; ``index_spec``
    the spec the lake recorded for its index (``None`` is the default
    ``IndexSpec()``, which is what every lake the CLI writes records);
    ``n_shards`` the lake's shard partitioning (``None``/1 is left out of
    the digest; any other count is folded in, so differently-sharded stores
    never cross-load without an explicit ``reshard``).
    """
    payload: dict = {
        "format": FINGERPRINT_FORMAT,
        "model_config": dataclasses.asdict(model_config),
        "sbert": None
        if sbert is None
        else {
            "dim": sbert.dim,
            "ngram": sbert.ngram,
            "use_ngrams": sbert.use_ngrams,
            "positional": sbert.positional,
        },
        "index": (index_spec or IndexSpec()).to_dict(),
    }
    if n_shards is not None and n_shards > 1:
        payload["shards"] = int(n_shards)
    if model is not None:
        payload["weights"] = _weights_digest(model)
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# --------------------------------------------------------------------- #
# MinHash
# --------------------------------------------------------------------- #
def minhash_to_array(minhash: MinHash) -> np.ndarray:
    """The signature as a copyable uint64 array (exact round-trip form)."""
    return np.asarray(minhash.signature, dtype=np.uint64).copy()


def minhash_from_array(array: np.ndarray) -> MinHash:
    return MinHash(np.asarray(array, dtype=np.uint64).copy())


# --------------------------------------------------------------------- #
# TableSketch
# --------------------------------------------------------------------- #
def pack_table_sketch(sketch: TableSketch) -> tuple[dict[str, np.ndarray], dict]:
    """Split a :class:`TableSketch` into npz arrays + JSON-safe metadata:
    the one table of its :meth:`SketchBatch.of_sketches` gather."""
    batch = SketchBatch.of_sketches([sketch])
    return split_members(batch.members, batch.widths)[0], batch.metas()[0]


def merge_rows(
    members: dict[str, np.ndarray],
    rows: "list[list[str]]",
    config: SketchConfig,
    hasher: MinHasher | None = None,
) -> dict[str, np.ndarray]:
    """The packed members of a table with ``rows`` appended, read-only.

    ``members`` must hold the ``acc_*`` state. The rows are sketched as
    arrays under the stored column types (:func:`sketch_rows`), and merged
    member by member: each signature slotwise with one ``np.minimum``, the
    accumulators unpacked once and merged by
    :meth:`NumericAccumulator.merge`, and ``numeric_stats`` / ``n_values``
    read off the merged state (one :func:`numeric_stats` call for the
    table). Equal in dtype, shape and bytes to
    :func:`pack_table_sketch` of the unpacked sketch's
    :meth:`TableSketch.merge` with the rows' :func:`sketch_table`, with no
    sketch object built.
    """
    ctypes = np.array(members["ctypes"], dtype=np.int64)
    delta = sketch_rows(rows, [ColumnType(c) for c in ctypes.tolist()], config, hasher)
    accs = [
        ours.merge(theirs)
        for ours, theirs in zip(unpack_accumulators(members), delta.accumulators)
    ]
    packed = pack_accumulators(accs)
    scalars = packed["acc_scalars"]
    merged = {
        "snapshot_sig": np.minimum(members["snapshot_sig"], delta.snapshots[0]),
        "values_sig": np.minimum(members["values_sig"], delta.values),
        "words_sig": np.minimum(members["words_sig"], delta.words),
        "numeric_stats": numeric_stats(accs, scalars=scalars),
        "n_values": scalars[:, 10].astype(np.int64),
        "ctypes": ctypes,
        **packed,
    }
    for array in merged.values():
        array.flags.writeable = False
    return merged


def unpack_table_sketch(arrays: dict[str, np.ndarray], meta: dict) -> TableSketch:
    """Rebuild the exact :class:`TableSketch` from :func:`pack_table_sketch`
    output: the one sketch of a one-table :class:`SketchBatch`, which owns
    its arrays, so ``arrays`` may be read-only views of a shared archive."""
    return SketchBatch.of_tables(
        SketchConfig(**meta["sketch_config"]),
        [(meta["table_name"], meta["description"], meta["columns"])],
        [arrays],
    ).sketches()[0]

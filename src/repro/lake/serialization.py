"""Sketch <-> artifact conversion and config fingerprinting.

Persisted lake artifacts are only valid under the exact configuration that
produced them: a different MinHash family (seed / ``num_perm``), a different
trunk, or different weights all yield incomparable sketches/embeddings. We
therefore fingerprint the full configuration — :class:`SketchConfig`, the
model config, the frozen text-encoder settings, and a digest of the model
*weights* — and refuse to load artifacts whose fingerprint disagrees.

A :class:`TableSketch` round-trips through ``(arrays, meta)``: uint64 MinHash
signatures and float64 numeric statistics go into an npz archive (exact
binary round-trip), strings and enums into the JSON manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.search.backend import IndexSpec
from repro.sketch.minhash import MinHash
from repro.sketch.numeric import NumericAccumulator, NumericalSketch, _PERCENTILES
from repro.sketch.pipeline import ColumnSketch, SketchConfig, TableSketch
from repro.table.schema import ColumnType

#: Bumped whenever the on-disk artifact layout changes shape.
#: v2: persisted vector index (an index archive per shard + manifest spec),
#: per-entry disk_bytes, and the index spec folded into the fingerprint.
#: (``shards/sNNN/`` is the only layout; a store that still keeps one
#: shard's files directly under its root — its manifest lacks the
#: ``sharded`` flag — is converted by renames when opened, entry for entry,
#: so v2 covers both and the conversion bumps nothing.)
#: The index is no longer persisted (a warm open assembles it from the
#: table archives' ``column_vectors``), and that bumps nothing either: the
#: version is folded into ``config_fingerprint``, so a bump would refuse
#: every existing lake, while both directions still read — this code never
#: reads an older shard's index archive and retires it at the shard's first
#: write, and an older reader rebuilds an index-less shard from its tables.
#: The shard manifest journal (:mod:`repro.lake.store` owns it, beside a
#: base ``manifest.json``) bumps nothing either, for the same reason, but
#: it reads one way only: this code folds an older store's bases (no journal)
#: as they are, while an older reader would read a base alone. So a store
#: this code writes records its fingerprint with a mark in the root
#: manifest (``repro.lake.store._JOURNAL_MARK``), which that reader
#: compares before it touches a file, and refuses; the fingerprint this
#: code derives and checks is the unmarked one.
#: Shared archives (a commit's tables, up to 64 to an archive, each member
#: their row concatenation; :mod:`repro.lake.store` owns the layout) bump
#: nothing either and read one way too: an archive without the member of
#: per-table column counts holds one table, so this code reads every older
#: archive as it is, while the journal build would read a shared one as one
#: table. The root manifest's mark becomes ``repro.lake.store._SHARED_MARK``,
#: which that build does not strip, so it refuses the store.
FORMAT_VERSION = 2


class FingerprintMismatchError(RuntimeError):
    """Stored artifacts were produced under a different configuration."""

    def __init__(self, expected: str, found: str, where: str = "lake store"):
        super().__init__(
            f"{where} fingerprint mismatch: expected {expected!r}, found "
            f"{found!r} — the artifacts were built under a different "
            "sketch/model/index configuration (or an older artifact "
            "format) and must be re-ingested"
        )
        self.expected = expected
        self.found = found


class UnsupportedIndexBackendError(ValueError):
    """A lake's root manifest records a vector index other than ``exact``.

    Older builds could write lakes under an approximate (HNSW) index; this
    code serves exact search only, so such a lake is refused whole — before
    any of its files is opened — rather than half-loaded.
    """

    def __init__(self, root, backend: str):
        super().__init__(
            f"lake at {str(root)!r} was built with the {backend!r} vector "
            "index, which is no longer supported (exact search is the only "
            "index); re-ingest it from its CSVs"
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
    the digest — that is what keeps lakes written before shard counts
    existed, and before one shard moved under ``shards/s000/``, opening
    with the fingerprint they were built under; any other count is folded
    in, so differently-sharded stores never cross-load without an explicit
    ``reshard``).
    """
    payload: dict = {
        "format": FORMAT_VERSION,
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
# NumericalSketch
# --------------------------------------------------------------------- #
#: unique_fraction, nan_fraction, avg_cell_width, 9 percentiles, mean, std,
#: min, max — the *raw* statistics (not the arcsinh model-input form), so a
#: loaded sketch reproduces ``to_vector()`` bit-for-bit.
NUMERIC_RECORD_DIM = 7 + len(_PERCENTILES)


def numeric_to_array(sketch: NumericalSketch) -> np.ndarray:
    return np.asarray(
        [
            sketch.unique_fraction,
            sketch.nan_fraction,
            sketch.avg_cell_width,
            *sketch.percentiles,
            sketch.mean,
            sketch.std,
            sketch.min_value,
            sketch.max_value,
        ],
        dtype=np.float64,
    )


def numeric_from_array(array: np.ndarray) -> NumericalSketch:
    array = np.asarray(array, dtype=np.float64)
    if array.shape != (NUMERIC_RECORD_DIM,):
        raise ValueError(
            f"numeric record must have shape ({NUMERIC_RECORD_DIM},), got {array.shape}"
        )
    n_pct = len(_PERCENTILES)
    return NumericalSketch(
        unique_fraction=float(array[0]),
        nan_fraction=float(array[1]),
        avg_cell_width=float(array[2]),
        percentiles=tuple(float(p) for p in array[3 : 3 + n_pct]),
        mean=float(array[3 + n_pct]),
        std=float(array[4 + n_pct]),
        min_value=float(array[5 + n_pct]),
        max_value=float(array[6 + n_pct]),
    )


# --------------------------------------------------------------------- #
# NumericAccumulator
# --------------------------------------------------------------------- #
#: Per-column scalar row of the accumulator arrays: n_rows, n_nonnull,
#: width_sum, is_numeric, n_numeric, total, total_sq, min_value, max_value,
#: sample_exact, n_distinct, distinct_exact. Counts and flags ride float64
#: losslessly (all are integers far below 2**53).
ACC_SCALAR_DIM = 12


def _pack_accumulators(
    sketches: "list[ColumnSketch]",
) -> "dict[str, np.ndarray] | None":
    accs = [c.numeric_acc for c in sketches]
    if any(a is None for a in accs):
        # Legacy sketch state (pre-live-tables archive round-tripping
        # through an update path) — omit the arrays rather than invent
        # approximate accumulators; appends to such tables are refused.
        return None
    scalars = np.asarray(
        [
            [
                a.n_rows,
                a.n_nonnull,
                a.width_sum,
                float(a.is_numeric),
                a.n_numeric,
                a.total,
                a.total_sq,
                a.min_value,
                a.max_value,
                float(a.sample_exact),
                a.n_distinct,
                float(a.distinct_exact),
            ]
            for a in accs
        ],
        dtype=np.float64,
    ).reshape(len(accs), ACC_SCALAR_DIM)
    return {
        "acc_scalars": scalars,
        "acc_sample": np.concatenate([a.sample for a in accs])
        if accs
        else np.zeros(0, dtype=np.float64),
        "acc_sample_len": np.asarray([len(a.sample) for a in accs], dtype=np.int64),
        "acc_distinct": np.concatenate([a.distinct for a in accs])
        if accs
        else np.zeros(0, dtype=np.uint64),
        "acc_distinct_len": np.asarray(
            [len(a.distinct) for a in accs], dtype=np.int64
        ),
    }


def _unpack_accumulator(arrays: dict[str, np.ndarray], i: int) -> NumericAccumulator:
    row = arrays["acc_scalars"][i]
    sample_lens = np.asarray(arrays["acc_sample_len"], dtype=np.int64)
    distinct_lens = np.asarray(arrays["acc_distinct_len"], dtype=np.int64)
    s0 = int(sample_lens[:i].sum())
    d0 = int(distinct_lens[:i].sum())
    sample = np.asarray(
        arrays["acc_sample"][s0 : s0 + int(sample_lens[i])], dtype=np.float64
    ).copy()
    distinct = np.asarray(
        arrays["acc_distinct"][d0 : d0 + int(distinct_lens[i])], dtype=np.uint64
    ).copy()
    return NumericAccumulator(
        n_rows=int(row[0]),
        n_nonnull=int(row[1]),
        width_sum=int(row[2]),
        is_numeric=bool(row[3]),
        n_numeric=int(row[4]),
        total=float(row[5]),
        total_sq=float(row[6]),
        min_value=float(row[7]),
        max_value=float(row[8]),
        sample=sample,
        sample_exact=bool(row[9]),
        n_distinct=int(row[10]),
        distinct=distinct,
        distinct_exact=bool(row[11]),
    )


# --------------------------------------------------------------------- #
# TableSketch
# --------------------------------------------------------------------- #
def pack_table_sketch(sketch: TableSketch) -> tuple[dict[str, np.ndarray], dict]:
    """Split a :class:`TableSketch` into npz arrays + JSON-safe metadata."""
    arrays = {
        "snapshot_sig": minhash_to_array(sketch.snapshot),
        "values_sig": np.stack(
            [minhash_to_array(c.values_minhash) for c in sketch.column_sketches]
        )
        if sketch.column_sketches
        else np.zeros((0, sketch.config.num_perm), dtype=np.uint64),
        "words_sig": np.stack(
            [minhash_to_array(c.words_minhash) for c in sketch.column_sketches]
        )
        if sketch.column_sketches
        else np.zeros((0, sketch.config.num_perm), dtype=np.uint64),
        "numeric_stats": np.stack(
            [numeric_to_array(c.numeric) for c in sketch.column_sketches]
        )
        if sketch.column_sketches
        else np.zeros((0, NUMERIC_RECORD_DIM), dtype=np.float64),
        "n_values": np.asarray(
            [c.n_values for c in sketch.column_sketches], dtype=np.int64
        ),
        "ctypes": np.asarray(
            [int(c.ctype) for c in sketch.column_sketches], dtype=np.int64
        ),
    }
    acc_arrays = _pack_accumulators(sketch.column_sketches)
    if acc_arrays is not None:
        arrays.update(acc_arrays)
    meta = {
        "table_name": sketch.table_name,
        "description": sketch.description,
        "columns": [c.name for c in sketch.column_sketches],
        "sketch_config": dataclasses.asdict(sketch.config),
    }
    return arrays, meta


def unpack_table_sketch(arrays: dict[str, np.ndarray], meta: dict) -> TableSketch:
    """Rebuild the exact :class:`TableSketch` from :func:`pack_table_sketch`
    output."""
    config = SketchConfig(**meta["sketch_config"])
    columns = meta["columns"]
    has_acc = "acc_scalars" in arrays  # absent in pre-live-tables archives
    column_sketches = [
        ColumnSketch(
            name=name,
            ctype=ColumnType(int(arrays["ctypes"][i])),
            values_minhash=minhash_from_array(arrays["values_sig"][i]),
            words_minhash=minhash_from_array(arrays["words_sig"][i]),
            numeric=numeric_from_array(arrays["numeric_stats"][i]),
            n_values=int(arrays["n_values"][i]),
            numeric_acc=_unpack_accumulator(arrays, i) if has_acc else None,
        )
        for i, name in enumerate(columns)
    ]
    return TableSketch(
        table_name=meta["table_name"],
        description=meta["description"],
        column_sketches=column_sketches,
        snapshot=minhash_from_array(arrays["snapshot_sig"]),
        config=config,
    )

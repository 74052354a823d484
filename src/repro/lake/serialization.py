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
from itertools import accumulate

import numpy as np

from repro.search.backend import IndexSpec
from repro.sketch.minhash import MinHash, MinHasher
from repro.sketch.numeric import (
    NumericAccumulator, NumericalSketch, _PERCENTILES, numeric_sketches,
)
from repro.sketch.pipeline import ColumnSketch, SketchConfig, TableSketch, sketch_rows
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


def _numeric_from_row(row: list[float]) -> NumericalSketch:
    """A numeric record, already a list of Python floats, as its sketch."""
    n_pct = len(_PERCENTILES)
    return NumericalSketch(
        unique_fraction=row[0],
        nan_fraction=row[1],
        avg_cell_width=row[2],
        percentiles=tuple(row[3 : 3 + n_pct]),
        mean=row[3 + n_pct],
        std=row[4 + n_pct],
        min_value=row[5 + n_pct],
        max_value=row[6 + n_pct],
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
    accs: "list[NumericAccumulator]",
) -> dict[str, np.ndarray]:
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


def _unpack_accumulators(arrays: dict[str, np.ndarray]) -> list[NumericAccumulator]:
    """Every column's accumulator. Each array member is converted once for
    the table: the scalars to Python numbers, the runs copied out in one
    block per member that the columns' ``sample`` / ``distinct`` slice."""
    sample = np.array(arrays["acc_sample"], dtype=np.float64)
    distinct = np.array(arrays["acc_distinct"], dtype=np.uint64)
    sample_ends = list(accumulate(arrays["acc_sample_len"].tolist()))
    distinct_ends = list(accumulate(arrays["acc_distinct_len"].tolist()))
    return [
        NumericAccumulator(
            n_rows=int(row[0]),
            n_nonnull=int(row[1]),
            width_sum=int(row[2]),
            is_numeric=bool(row[3]),
            n_numeric=int(row[4]),
            total=row[5],
            total_sq=row[6],
            min_value=row[7],
            max_value=row[8],
            sample=sample[s0:s1],
            sample_exact=bool(row[9]),
            n_distinct=int(row[10]),
            distinct=distinct[d0:d1],
            distinct_exact=bool(row[11]),
        )
        for row, s0, s1, d0, d1 in zip(
            np.asarray(arrays["acc_scalars"], dtype=np.float64).tolist(),
            [0, *sample_ends],
            sample_ends,
            [0, *distinct_ends],
            distinct_ends,
        )
    ]


# --------------------------------------------------------------------- #
# TableSketch
# --------------------------------------------------------------------- #
def _members(
    snapshot: np.ndarray,
    values: np.ndarray,
    words: np.ndarray,
    numerics: "list[NumericalSketch]",
    n_values: list[int],
    ctypes: np.ndarray,
    accs: "list[NumericAccumulator] | None",
) -> dict[str, np.ndarray]:
    """A table's packed members, in archive order; ``accs`` is ``None``
    for a sketch without mergeable state (the ``acc_*`` members are then
    left out)."""
    members = {
        "snapshot_sig": snapshot,
        "values_sig": values,
        "words_sig": words,
        "numeric_stats": np.stack([numeric_to_array(n) for n in numerics])
        if numerics
        else np.zeros((0, NUMERIC_RECORD_DIM), dtype=np.float64),
        "n_values": np.asarray(n_values, dtype=np.int64),
        "ctypes": ctypes,
    }
    if accs is not None:
        members.update(_pack_accumulators(accs))
    return members


def pack_table_sketch(sketch: TableSketch) -> tuple[dict[str, np.ndarray], dict]:
    """Split a :class:`TableSketch` into npz arrays + JSON-safe metadata."""
    columns = sketch.column_sketches
    empty = np.zeros((0, sketch.config.num_perm), dtype=np.uint64)
    accs = [c.numeric_acc for c in columns]
    arrays = _members(
        minhash_to_array(sketch.snapshot),
        np.stack([minhash_to_array(c.values_minhash) for c in columns])
        if columns
        else empty,
        np.stack([minhash_to_array(c.words_minhash) for c in columns])
        if columns
        else empty.copy(),
        [c.numeric for c in columns],
        [c.n_values for c in columns],
        np.asarray([int(c.ctype) for c in columns], dtype=np.int64),
        # Legacy sketch state (a pre-live-tables archive round-tripping
        # through an update path) has no accumulators: leave the arrays out
        # rather than invent approximate ones; appends to it are refused.
        None if any(a is None for a in accs) else accs,
    )
    meta = {
        "table_name": sketch.table_name,
        "description": sketch.description,
        "columns": [c.name for c in columns],
        "sketch_config": dataclasses.asdict(sketch.config),
    }
    return arrays, meta


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
    read off the merged state (one :func:`numeric_sketches` call for the
    table). Equal in dtype, shape and bytes to
    :func:`pack_table_sketch` of the unpacked sketch's
    :meth:`TableSketch.merge` with the rows' :func:`sketch_table`, with no
    sketch object built.
    """
    ctypes = np.array(members["ctypes"], dtype=np.int64)
    delta = sketch_rows(rows, [ColumnType(c) for c in ctypes.tolist()], config, hasher)
    accs = [
        ours.merge(theirs)
        for ours, theirs in zip(_unpack_accumulators(members), delta.accumulators)
    ]
    merged = _members(
        np.minimum(members["snapshot_sig"], delta.snapshots[0]),
        np.minimum(members["values_sig"], delta.values),
        np.minimum(members["words_sig"], delta.words),
        numeric_sketches(accs),
        [acc.n_distinct for acc in accs],
        ctypes,
        accs,
    )
    for array in merged.values():
        array.flags.writeable = False
    return merged


def unpack_table_sketch(arrays: dict[str, np.ndarray], meta: dict) -> TableSketch:
    """Rebuild the exact :class:`TableSketch` from :func:`pack_table_sketch`
    output.

    The sketch owns its arrays: each signature and run member is copied out
    once for the table (each column's array a row or slice of that copy),
    and the numeric members are read as Python numbers in one conversion
    each, so ``arrays`` may be read-only views of a shared archive.
    """
    config = SketchConfig(**meta["sketch_config"])
    columns = meta["columns"]
    values_sigs = np.array(arrays["values_sig"], dtype=np.uint64)
    words_sigs = np.array(arrays["words_sig"], dtype=np.uint64)
    stats = np.asarray(arrays["numeric_stats"], dtype=np.float64).tolist()
    # Accumulators are absent in pre-live-tables archives.
    accs = (
        _unpack_accumulators(arrays)
        if "acc_scalars" in arrays
        else [None] * len(columns)
    )
    column_sketches = [
        ColumnSketch(
            name=name,
            ctype=ColumnType(ctype),
            values_minhash=MinHash(values_sig),
            words_minhash=MinHash(words_sig),
            numeric=_numeric_from_row(row),
            n_values=n_values,
            numeric_acc=acc,
        )
        for name, ctype, values_sig, words_sig, row, n_values, acc in zip(
            columns,
            arrays["ctypes"].tolist(),
            values_sigs,
            words_sigs,
            stats,
            arrays["n_values"].tolist(),
            accs,
        )
    ]
    return TableSketch(
        table_name=meta["table_name"],
        description=meta["description"],
        column_sketches=column_sketches,
        snapshot=minhash_from_array(arrays["snapshot_sig"]),
        config=config,
    )

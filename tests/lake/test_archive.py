"""The store's archive codec against numpy's own npz writer and reader.

``write_archive`` must write the bytes ``np.savez`` writes, and
``read_archive`` must read an ``np.savez`` file as ``np.load`` does — keys in
order, dtype, shape and every byte of every array — for uint64, int64,
float64 and fixed-width str arrays of zero, one and two dimensions, empty
ones included. Anything that is not such an archive is an ``ArchiveError``:
a flipped data byte (the CRC-32), a truncation at any offset, a compressed
npz, a pickled object array, a Fortran-ordered array. Every archive the
committed fixture lakes hold reads as ``np.load`` reads it.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.lake import archive
from repro.lake.archive import ArchiveError, read_archive, write_archive

#: The lake conftest's autouse shard-count fixture and ``tmp_path`` are
#: function-scoped; every example overwrites the same two files.
_PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_DATA = Path(__file__).parent / "data"

_DTYPES = st.sampled_from([np.uint64, np.int64, np.float64]) | st.integers(
    min_value=1, max_value=6
).map(lambda width: np.dtype(f"<U{width}"))
_ARRAYS = _DTYPES.flatmap(
    lambda dtype: hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)
    )
)
#: ``file`` and ``allow_pickle`` are np.savez's own parameters.
_KEYS = st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda key: key not in ("file", "allow_pickle")
)
_ARCHIVES = st.dictionaries(_KEYS, _ARRAYS, min_size=1, max_size=5)


@pytest.fixture(autouse=True)
def lake_layout_shards() -> int:
    """The codec has no shard count; run each test once."""
    return 1


def _assert_same_arrays(got: dict, expected) -> None:
    assert list(got) == list(expected)
    for key in expected:
        assert got[key].dtype == expected[key].dtype, key
        assert got[key].shape == expected[key].shape, key
        assert got[key].tobytes() == expected[key].tobytes(), key


def _np_load(path) -> dict:
    with np.load(path) as loaded:
        return {key: loaded[key] for key in loaded.files}


@_PROPERTY
@given(arrays=_ARCHIVES)
def test_write_archive_writes_the_bytes_np_savez_writes(tmp_path, arrays):
    np.savez(tmp_path / "numpy.npz", **arrays)
    size = write_archive(tmp_path / "codec.npz", arrays)
    expected = (tmp_path / "numpy.npz").read_bytes()
    assert (tmp_path / "codec.npz").read_bytes() == expected
    assert size == len(expected)


@_PROPERTY
@given(arrays=_ARCHIVES)
def test_read_archive_reads_what_np_load_reads(tmp_path, arrays):
    path = tmp_path / "numpy.npz"
    np.savez(path, **arrays)
    got = read_archive(path)
    _assert_same_arrays(got, _np_load(path))
    assert all(array.flags.owndata and array.flags.writeable for array in got.values())


def test_archives_past_the_zip64_limit_match_np_savez(tmp_path, monkeypatch):
    """Sizes and offsets past ``ZIP64_LIMIT`` move into zip64 fields and a
    zip64 end record; a lowered limit puts a small archive there."""
    rng = np.random.default_rng(0)
    arrays = {"big": rng.normal(size=(40, 4)), "small": np.arange(3, dtype=np.uint64)}
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 100)
    monkeypatch.setattr(archive, "ZIP64_LIMIT", 100)
    reference, codec = tmp_path / "numpy.npz", tmp_path / "codec.npz"
    np.savez(reference, **arrays)
    write_archive(codec, arrays)
    assert codec.read_bytes() == reference.read_bytes()
    _assert_same_arrays(read_archive(reference), _np_load(reference))


def _payload_offsets(path) -> list[int]:
    """Every byte offset inside a member's stored data (npy header + array)."""
    offsets = []
    with zipfile.ZipFile(path) as zipped:
        for info in zipped.infolist():
            # A 30-byte local header, the name, np.savez's 20-byte zip64 extra.
            first = info.header_offset + 30 + len(info.filename) + 20
            offsets += range(first, first + info.file_size)
    return offsets


@_PROPERTY
@given(arrays=_ARCHIVES, pick=st.integers(min_value=0), bit=st.integers(0, 7))
def test_a_flipped_data_byte_fails_the_crc(tmp_path, arrays, pick, bit):
    path = tmp_path / "numpy.npz"
    np.savez(path, **arrays)
    offsets = _payload_offsets(path)
    data = bytearray(path.read_bytes())
    data[offsets[pick % len(offsets)]] ^= 1 << bit
    path.write_bytes(bytes(data))
    with pytest.raises(ArchiveError, match="CRC-32"):
        read_archive(path)


@_PROPERTY
@given(arrays=_ARCHIVES, cut=st.integers(min_value=0))
def test_a_truncated_archive_is_refused_at_any_offset(tmp_path, arrays, cut):
    path = tmp_path / "numpy.npz"
    np.savez(path, **arrays)
    data = path.read_bytes()
    path.write_bytes(data[: cut % len(data)])
    with pytest.raises(ArchiveError):
        read_archive(path)


@pytest.mark.parametrize(
    "save, member, why",
    [
        (np.savez_compressed, np.arange(9.0), "compressed"),
        (np.savez, np.array([{"x": 1}], dtype=object), "dtype object"),
        (np.savez, np.asfortranarray(np.ones((3, 2))), "Fortran order"),
    ],
    ids=["compressed", "object", "fortran"],
)
def test_archives_np_load_reads_but_the_store_never_writes_are_refused(
    tmp_path, save, member, why
):
    path = tmp_path / "numpy.npz"
    save(path, a=member)
    with pytest.raises(ArchiveError, match=why):
        read_archive(path)


def test_write_archive_refuses_what_npy_would_pickle(tmp_path):
    with pytest.raises(ValueError, match="pickling"):
        write_archive(tmp_path / "codec.npz", {"a": np.array([None], dtype=object)})


def test_every_committed_store_archive_reads_as_np_load_reads_it():
    """The tables and ``index.npz`` of the two fixture lakes older builds
    wrote through np.savez (``model.npz``, the compressed weight bundle, is
    no store archive; ``compact_store`` was written through this codec)."""
    paths = sorted(
        path
        for fixture in ("flat_store", "sharded_store")
        for path in (_DATA / fixture).glob("lake/**/*.npz")
        if path.name != "model.npz"
    )
    assert len(paths) == 23
    for path in paths:
        _assert_same_arrays(read_archive(path), _np_load(path))

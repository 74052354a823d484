"""The one codec for store archives: npz files built and parsed in one buffer.

A store archive (``tables/tNNNNNN.npz``, one per table or per group of a
commit's tables, see :mod:`repro.lake.store`) is a zip of ``.npy``
members laid out exactly as :func:`numpy.savez` lays it out: stored
(uncompressed) members stamped 1980-01-01, each with a zip64 local extra,
and npy v1.0 headers padded to 64 bytes. :func:`write_archive` builds those
bytes in memory and writes them with one ``write``; :func:`read_archive`
reads the file once and walks its central directory. The bytes are the same
bytes ``np.savez`` writes for C-ordered arrays, so ``np.load`` reads what
this writes and this reads what ``np.savez`` wrote: the format is unchanged,
only the per-member cost of numpy's generic zip machinery is gone.

The reader checks every signature, that each member is stored, its CRC-32,
the npy magic and version, and that the data is exactly as long as its
header says. It refuses object dtypes (pickles) and Fortran order. Any of
these raises :class:`ArchiveError`.
"""

from __future__ import annotations

import math
import os
import re
import struct
import zlib
from typing import Mapping

import numpy as np

#: Sizes and offsets past this take zip64 fields in the central directory
#: and a zip64 end record, as ``zipfile.ZIP64_LIMIT`` decides for np.savez.
ZIP64_LIMIT = (1 << 31) - 1

_LOCAL = struct.Struct("<4s2B4HL2L2H")
_CENTRAL = struct.Struct("<4s4B4HL2L5H2L")
_END = struct.Struct("<4s4H2LH")
_END64 = struct.Struct("<4sQ2H2L4Q")
_LOCATOR64 = struct.Struct("<4sLQL")
_LOCAL_SIG, _CENTRAL_SIG, _END_SIG = b"PK\x03\x04", b"PK\x01\x02", b"PK\x05\x06"
_END64_SIG, _LOCATOR64_SIG = b"PK\x06\x06", b"PK\x06\x07"
_SATURATED = 0xFFFFFFFF
#: zipfile's values for a forced-zip64 member of a ZipInfo left at its
#: defaults on a unix host: version 4.5, DOS date 1980-01-01 at 00:00,
#: permissions rw-------.
_ZIP64_VERSION, _UNIX, _DOS_DATE, _EXTERNAL_ATTR = 45, 3, 33, 0o600 << 16
_LOCAL_EXTRA = struct.Struct("<HHQQ")
_NPY_MAGIC = b"\x93NUMPY\x01\x00"
_NPY_ALIGN = 64
#: Spaces numpy leaves after the header so the first axis can grow in place.
_GROWTH_AXIS_MAX_DIGITS = 21
#: Bool, integer, float, complex, bytes, str, datetime and timedelta: what
#: npy stores as raw bytes. Anything else np.savez would pickle.
_RAW_KINDS = frozenset("biufcSUMm")
_HEADER = re.compile(
    rb"\{'descr': '([^']+)', 'fortran_order': (False|True), "
    rb"'shape': \(((?:[0-9]+, )*(?:[0-9]+,?)?)\), \} *\n"
)


class ArchiveError(ValueError):
    """A store archive is truncated, corrupt, or not a plain npz."""


def write_archive(path: str | os.PathLike, arrays: Mapping[str, np.ndarray]) -> int:
    """Write ``arrays`` to ``path`` as the bytes ``np.savez`` writes for
    them, with one ``open`` and one ``write``; returns the byte count.

    Every array is written in C order (np.savez keeps a Fortran-ordered one
    as such, which :func:`read_archive` refuses).
    """
    chunks: list = []  # bytes and byte views of the arrays
    central: list[bytes] = []
    offset = 0
    for key, value in arrays.items():
        array = np.asarray(value, order="C")
        if array.dtype.kind not in _RAW_KINDS:
            raise ValueError(
                f"archive member {key!r} has dtype {array.dtype}, which npy "
                "stores only by pickling"
            )
        name = f"{key}.npy".encode("ascii")
        header = _npy_header(array)
        # A byte view, not ``tobytes()``: the join below is the one copy.
        data = array.reshape(-1).view(np.uint8)
        size = len(header) + len(data)
        crc = zlib.crc32(data, zlib.crc32(header))
        chunks += [
            _LOCAL.pack(
                _LOCAL_SIG, _ZIP64_VERSION, 0, 0, 0, 0, _DOS_DATE, crc,
                _SATURATED, _SATURATED, len(name), _LOCAL_EXTRA.size,
            ),
            name,
            _LOCAL_EXTRA.pack(1, 16, size, size),
            header,
            data,
        ]
        central.append(_central_entry(name, crc, size, offset))
        offset += _LOCAL.size + len(name) + _LOCAL_EXTRA.size + size
    directory = b"".join(central)
    chunks.append(directory)
    count, cd_size, cd_offset = len(central), len(directory), offset
    if count > 0xFFFF or cd_offset > ZIP64_LIMIT or cd_size > ZIP64_LIMIT:
        chunks += [
            _END64.pack(
                _END64_SIG, 44, _ZIP64_VERSION, _ZIP64_VERSION, 0, 0,
                count, count, cd_size, cd_offset,
            ),
            _LOCATOR64.pack(_LOCATOR64_SIG, 0, cd_offset + cd_size, 1),
        ]
        count = min(count, 0xFFFF)
        cd_size, cd_offset = min(cd_size, _SATURATED), min(cd_offset, _SATURATED)
    chunks.append(_END.pack(_END_SIG, 0, 0, count, count, cd_size, cd_offset, 0))
    buffer = b"".join(chunks)
    with open(path, "wb") as handle:
        handle.write(buffer)
    return len(buffer)


def _npy_header(array: np.ndarray) -> bytes:
    """The npy v1.0 header np.save writes for a C-ordered ``array``."""
    shape = array.shape
    text = (
        f"{{'descr': {array.dtype.str!r}, 'fortran_order': False, "
        f"'shape': {shape!r}, }}"
    )
    if shape:
        text += " " * (_GROWTH_AXIS_MAX_DIGITS - len(repr(shape[0])))
    length = len(text) + 1  # the closing newline
    pad = _NPY_ALIGN - (len(_NPY_MAGIC) + 2 + length) % _NPY_ALIGN
    return (
        _NPY_MAGIC
        + struct.pack("<H", length + pad)
        + text.encode("latin1")
        + b" " * pad
        + b"\n"
    )


def _central_entry(name: bytes, crc: int, size: int, offset: int) -> bytes:
    zip64 = ([size, size] if size > ZIP64_LIMIT else []) + (
        [offset] if offset > ZIP64_LIMIT else []
    )
    extra = b""
    if zip64:
        extra = struct.pack(f"<HH{len(zip64)}Q", 1, 8 * len(zip64), *zip64)
    size = _SATURATED if size > ZIP64_LIMIT else size
    offset = _SATURATED if offset > ZIP64_LIMIT else offset
    return (
        _CENTRAL.pack(
            _CENTRAL_SIG, _ZIP64_VERSION, _UNIX, _ZIP64_VERSION, 0, 0, 0, 0,
            _DOS_DATE, crc, size, size, len(name), len(extra), 0, 0, 0,
            _EXTERNAL_ATTR, offset,
        )
        + name
        + extra
    )


def read_archive(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Every member of the archive at ``path``, in archive order, each
    copied out of the file's buffer (as ``np.load`` would hand them out)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return _members(memoryview(data))
    except (ArchiveError, struct.error) as exc:
        raise ArchiveError(f"{os.fspath(path)}: {exc}") from exc


def _members(data: memoryview) -> dict[str, np.ndarray]:
    end = len(data) - _END.size
    if end < 0:
        raise ArchiveError("shorter than an end-of-archive record")
    sig, _, _, count, _, cd_size, cd_offset, comment = _END.unpack_from(data, end)
    if sig != _END_SIG or comment:
        raise ArchiveError("no end-of-archive record at the end of the file")
    locator = end - _LOCATOR64.size
    if locator >= 0 and data[locator : locator + 4] == _LOCATOR64_SIG:
        end = _LOCATOR64.unpack_from(data, locator)[2]
        record = _END64.unpack_from(data, end)
        if record[0] != _END64_SIG:
            raise ArchiveError("zip64 locator points at no zip64 end record")
        count, cd_size, cd_offset = record[7], record[8], record[9]
    if cd_offset + cd_size > end:
        raise ArchiveError("central directory overruns the end record")
    arrays: dict[str, np.ndarray] = {}
    pos = cd_offset
    for _ in range(count):
        (
            sig, _, _, _, _, _, method, _, _, crc, csize, size,
            name_len, extra_len, comment_len, _, _, _, offset,
        ) = _CENTRAL.unpack_from(data, pos)
        if sig != _CENTRAL_SIG:
            raise ArchiveError("bad central directory signature")
        start = pos + _CENTRAL.size
        name = bytes(data[start : start + name_len])
        if method != 0 or csize != size:
            raise ArchiveError(f"member {name!r} is compressed")
        if _SATURATED in (size, offset):
            size, offset = _zip64_fields(
                data[start + name_len : start + name_len + extra_len], size, offset
            )
        pos = start + name_len + extra_len + comment_len
        if data[offset : offset + 4] != _LOCAL_SIG:
            raise ArchiveError(f"bad local header signature for {name!r}")
        local_name, local_extra = struct.unpack_from("<HH", data, offset + 26)
        first = offset + _LOCAL.size + local_name + local_extra
        if first + size > cd_offset:
            raise ArchiveError(f"member {name!r} overruns the central directory")
        member = data[first : first + size]
        if zlib.crc32(member) != crc:
            raise ArchiveError(f"CRC-32 mismatch in member {name!r}")
        if not name.endswith(b".npy"):
            raise ArchiveError(f"member {name!r} is not an .npy array")
        try:
            key = name[:-4].decode("ascii")
        except UnicodeDecodeError:
            raise ArchiveError(f"member name {name!r} is not ASCII") from None
        arrays[key] = _npy_array(member, name)
    if pos != cd_offset + cd_size:
        raise ArchiveError("central directory size does not match its entries")
    return arrays


def _zip64_fields(extra: memoryview, size: int, offset: int) -> tuple[int, int]:
    """The real size and offset a saturated central entry keeps in its
    zip64 extra field (np.savez's is the entry's only extra field)."""
    tag, length = struct.unpack_from("<HH", extra)
    values = list(struct.unpack_from(f"<{length // 8}Q", extra, 4))
    wanted = 2 * (size == _SATURATED) + (offset == _SATURATED)
    if tag != 1 or len(values) != wanted:
        raise ArchiveError("saturated central entry without its zip64 field")
    if size == _SATURATED:
        size = values[0]  # uncompressed; values[1] is the equal stored size
    if offset == _SATURATED:
        offset = values[-1]
    return size, offset


def _npy_array(member: memoryview, name: bytes) -> np.ndarray:
    if member[: len(_NPY_MAGIC)] != _NPY_MAGIC:
        raise ArchiveError(f"member {name!r} is not an npy v1.0 array")
    (length,) = struct.unpack_from("<H", member, len(_NPY_MAGIC))
    first = len(_NPY_MAGIC) + 2 + length
    header = _HEADER.fullmatch(bytes(member[len(_NPY_MAGIC) + 2 : first]))
    if header is None:
        raise ArchiveError(f"member {name!r} has an unreadable npy header")
    descr, fortran_order, dims = header.groups()
    if fortran_order == b"True":
        raise ArchiveError(f"member {name!r} is in Fortran order")
    try:
        dtype = np.dtype(descr.decode("latin1"))
    except (TypeError, ValueError):
        raise ArchiveError(f"member {name!r} has an unknown dtype {descr!r}") from None
    if dtype.kind not in _RAW_KINDS or dtype.itemsize == 0:
        raise ArchiveError(f"member {name!r} has dtype {dtype}, which is not raw data")
    shape = tuple(int(dim) for dim in dims.split(b",") if dim.strip())
    count = math.prod(shape)
    if first + count * dtype.itemsize != len(member):
        raise ArchiveError(f"member {name!r} is not as long as its header says")
    return np.frombuffer(member, dtype, count, first).reshape(shape).copy()

"""Stable 64-bit string hashing.

Python's built-in ``hash`` is salted per process (PYTHONHASHSEED), which would
make MinHash sketches non-reproducible between runs. We therefore use a fixed
FNV-1a 64-bit hash over UTF-8 bytes. These values are the compatibility
surface of every stored lake: signatures, KMV reservoirs and shard routing
are all functions of them, so they are pinned by published test vectors.

:func:`hash_strings` is the implementation all sketching routes through;
:func:`hash_bytes` / :func:`hash_string` are the scalar form, for single
keys (seeds, shard routing) and as the reference the batch form is
property-tested against. A batch is hashed one of two ways, chosen by its
own sizes: the vector loop costs one numpy step per byte position of its
longest string, the scalar loop one Python step per byte. On one core of a
2-vCPU x86 host a step costs ~4 us and a byte ~0.15-0.2 us, and the two
loops cross at 24-32 bytes per step, so a batch holding fewer than
:data:`SCALAR_BYTES_PER_STEP` bytes per byte position of its longest
string goes through :func:`hash_bytes`. An append's delta (a median of 7-14
strings, 150-250 bytes, the longest ~50) is hashed scalar; ingest batches
(thousands of strings) and most query payloads (a median of ~100 strings,
the longest 14 bytes, ~1 250 in all) stay on the vector loop.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: Bytes a batch must hold per byte position of its longest string for the
#: vector loop to be used: the low end of the measured crossover above.
SCALAR_BYTES_PER_STEP = 24


def hash_bytes(data: bytes) -> int:
    """FNV-1a 64-bit hash of ``data``; stable across processes and platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_string(text: str) -> int:
    """Stable 64-bit hash of a unicode string."""
    return hash_bytes(text.encode("utf-8"))


def hash_strings(texts: Iterable[str]) -> np.ndarray:
    """FNV-1a 64-bit hash of every string, as a ``uint64`` array.

    Equal to ``[hash_string(t) for t in texts]``, computed across the batch:
    strings are ranked longest first, so at byte position ``p`` the strings
    still being hashed are a prefix of that ranking, and one wrapping numpy
    xor/multiply advances all of them. The cost is ``max_len`` numpy steps
    plus one pass over the bytes, instead of one Python step per byte; a
    batch with fewer than :data:`SCALAR_BYTES_PER_STEP` bytes per step is
    cheaper byte by byte, and takes :func:`hash_bytes` instead.
    """
    encoded = [text.encode("utf-8") for text in texts]
    if not encoded:
        return np.zeros(0, dtype=np.uint64)
    sizes = list(map(len, encoded))
    if sum(sizes) < SCALAR_BYTES_PER_STEP * max(sizes):
        return np.fromiter(map(hash_bytes, encoded), np.uint64, len(encoded))
    ranked = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    lengths = np.array(sizes, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    data = np.frombuffer(
        b"".join([encoded[i] for i in order.tolist()]), dtype=np.uint8
    )
    cursor = np.cumsum(lengths) - lengths  # offset of each string's next byte
    # active[p]: how many strings are longer than p bytes.
    active = len(encoded) - np.searchsorted(
        lengths[::-1], np.arange(int(lengths[0])), side="right"
    )
    prime = np.uint64(_FNV_PRIME)
    for n in active.tolist():
        head = ranked[:n]
        head ^= data[cursor[:n]]
        head *= prime  # uint64 arrays wrap mod 2^64
        cursor[:n] += 1
    hashes = np.empty_like(ranked)
    hashes[order] = ranked
    return hashes

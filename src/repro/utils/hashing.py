"""Stable 64-bit string hashing.

Python's built-in ``hash`` is salted per process (PYTHONHASHSEED), which would
make MinHash sketches non-reproducible between runs. We therefore use a fixed
FNV-1a 64-bit hash over UTF-8 bytes. These values are the compatibility
surface of every stored lake: signatures, KMV reservoirs and shard routing
are all functions of them, so they are pinned by published test vectors.

:func:`hash_strings` is the implementation all sketching routes through
(vectorised over the batch); :func:`hash_bytes` / :func:`hash_string` are
the scalar form, for single keys (seeds, shard routing) and as the reference
the batch form is property-tested against.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


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
    plus one pass over the bytes, instead of one Python step per byte.
    """
    encoded = [text.encode("utf-8") for text in texts]
    ranked = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    if not encoded:
        return ranked
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
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

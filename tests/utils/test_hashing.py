"""FNV-1a hashing: published vectors, and batch == scalar.

These hashes are the compatibility surface of every stored lake (MinHash
signatures, KMV reservoirs, shard routing), so the values are pinned. A
batch is hashed by the vector loop or, under the crossover
(``SCALAR_BYTES_PER_STEP``), by the scalar one; both must give the scalar
reference's values, checked on each side of it.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils import hashing
from repro.utils.hashing import hash_bytes, hash_string, hash_strings

#: Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo reference suite).
FNV1A_64 = {
    "": 0xCBF29CE484222325,
    "a": 0xAF63DC4C8601EC8C,
    "foobar": 0x85944171F73967E8,
}


@pytest.mark.parametrize("text, expected", FNV1A_64.items())
def test_published_vectors_scalar(text, expected):
    assert hash_bytes(text.encode()) == expected
    assert hash_string(text) == expected


def test_published_vectors_batch():
    batch = hash_strings(FNV1A_64)
    assert batch.dtype == np.uint64
    assert batch.tolist() == list(FNV1A_64.values())


def test_hash_strings_empty_batch():
    batch = hash_strings([])
    assert batch.dtype == np.uint64 and batch.shape == (0,)


def test_hash_strings_accepts_any_iterable():
    texts = ["vienna", "graz", "", "vienna"]
    expected = [hash_string(t) for t in texts]
    assert hash_strings(iter(texts)).tolist() == expected
    assert hash_strings(tuple(texts)).tolist() == expected


def test_different_strings_differ():
    assert hash_string("vienna") != hash_string("graz")
    assert hash_string("münchen") != hash_string("munchen")


@given(st.text(max_size=50))
def test_hash_fits_in_64_bits(text):
    assert 0 <= hash_string(text) < 2**64


#: Arbitrary unicode (multi-byte included) mixed with 1-500-byte ASCII runs,
#: so batches hold both many short strings and a long-tailed few.
_TEXTS = st.lists(
    st.one_of(
        st.text(max_size=40),
        st.text(alphabet="ab\x1f 0", min_size=1, max_size=500),
        st.sampled_from(["", "a", "日本語", "ü"]),
    ),
    max_size=30,
)


@given(_TEXTS)
def test_batch_equals_scalar(texts):
    assert hash_strings(texts).tolist() == [hash_string(t) for t in texts]


def _straddling(longest: str, short: list[str], total: int) -> list[str]:
    """``longest`` among the ``short`` strings that fit under it, padded
    with ASCII runs no longer than it to exactly ``total`` UTF-8 bytes."""
    width = len(longest.encode("utf-8"))
    batch, size = [longest], width
    for text in short:
        n = len(text.encode("utf-8"))
        if n <= width and size + n <= total:
            batch.append(text)
            size += n
    while size < total:
        pad = min(width, total - size)
        batch.append("a" * pad)
        size += pad
    return batch


@given(
    longest=st.text(min_size=1, max_size=60),
    short=st.lists(
        st.one_of(st.text(max_size=8), st.sampled_from(["", "ü", "日本", "\x1f"])),
        max_size=40,
    ),
    offset=st.integers(-3, 2),
)
def test_batch_equals_scalar_on_both_sides_of_the_crossover(longest, short, offset):
    width = len(longest.encode("utf-8"))
    total = hashing.SCALAR_BYTES_PER_STEP * width + offset
    batch = _straddling(longest, short, total)
    expected = [hash_bytes(text.encode("utf-8")) for text in batch]
    calls = []

    def counted(data):
        calls.append(data)
        return hash_bytes(data)

    with mock.patch.object(hashing, "hash_bytes", counted):
        hashes = hash_strings(batch)
    assert hashes.dtype == np.uint64 and hashes.tolist() == expected
    # Under the crossover every string goes through the scalar loop, at or
    # over it none does.
    assert len(calls) == (len(batch) if offset < 0 else 0)

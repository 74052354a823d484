"""FNV-1a hashing: published vectors, and batch == scalar.

These hashes are the compatibility surface of every stored lake (MinHash
signatures, KMV reservoirs, shard routing), so the values are pinned.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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

"""The host probe shared by the trunk digest tests.

A float64 forward's last bits also depend on the BLAS and SIMD kernels
numpy dispatches to on the CPU at hand. ``HOST_PROBE_DIGEST`` pins the
trunk's primitives on fixed inputs; where the probe differs, the host
computes other bits for reasons outside this repo and the pinned digests
are skipped rather than failed.
"""

import hashlib

import numpy as np
import pytest

HOST_PROBE_DIGEST = (
    "9a24acecf203dd749c7a70b6fdf6cd640868fef2dd8fae73fbdb4156832c90b7"
)


def host_probe_digest() -> str:
    """The trunk's numpy primitives (batched matmul, exp, tanh, the
    LayerNorm power, reductions) on fixed inputs."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 40, 32))
    w = rng.normal(size=(32, 32))
    q = rng.normal(size=(16, 2, 40, 16))
    h = x @ w
    scores = q @ q.transpose(0, 1, 3, 2)
    out = [
        h,
        scores,
        np.exp(scores - scores.max(axis=-1, keepdims=True)),
        np.tanh(h),
        np.power((h * h).sum(axis=-1, keepdims=True) + 1e-5, -0.5),
    ]
    return hashlib.sha256(b"".join(a.tobytes() for a in out)).hexdigest()


@pytest.fixture(scope="session")
def pinned_host():
    """Skips a digest test on a CPU whose float64 kernels differ."""
    if host_probe_digest() != HOST_PROBE_DIGEST:
        pytest.skip("numpy's float64 kernels differ on this CPU from the "
                    "ones the digests were taken with")

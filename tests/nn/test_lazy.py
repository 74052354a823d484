"""Unit tests for the lazy, fusing tensor engine (``repro.nn.lazy``).

Covers the recording/realization contract, kernel-cache keying across
shape buckets, the documented strength-reduction deviation, the hand-fused
softmax/LayerNorm realization kernels, and thread-safety of the kernel
cache under concurrent forwards (the PR-4 parallel ingest pattern).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.nn import lazy
from repro.nn.lazy import lazy_mode
from repro.nn.layers import LayerNorm
from repro.nn.tensor import Tensor, no_grad, softmax


@pytest.fixture(autouse=True)
def _fresh_cache():
    lazy.clear_cache()
    yield
    lazy.clear_cache()


def _lazy_ctx():
    """Inference-mode lazy recording: grad off + lazy forced on."""
    return no_grad(), lazy_mode(True)


# --------------------------------------------------------------------- #
# Recording and realization
# --------------------------------------------------------------------- #
def test_elementwise_chain_records_without_materializing():
    grad_ctx, mode_ctx = _lazy_ctx()
    with grad_ctx, mode_ctx:
        x = Tensor(np.arange(12.0).reshape(3, 4))
        y = Tensor(np.ones((3, 4)))
        z = ((x + y) * 2.0).tanh() - 0.5
        assert not z.is_realized
        assert z.shape == (3, 4)  # shape tracked without realization
        assert lazy.cache_info()["kernels_executed"] == 0
        out = z.numpy()  # forced realization point
    assert z.is_realized
    info = lazy.cache_info()
    assert info["kernels_executed"] == 1
    assert info["cache_misses"] == 1
    expected = np.tanh((np.arange(12.0).reshape(3, 4) + 1.0) * 2.0) - 0.5
    assert np.array_equal(out, expected)


@pytest.mark.parametrize(
    "force",
    [
        lambda t: t.sum(),
        lambda t: t.mean(axis=-1),
        lambda t: t @ Tensor(np.eye(4)),
        lambda t: softmax(t),
        lambda t: t.reshape(4, 3),
        lambda t: t.numpy(),
    ],
    ids=["sum", "mean", "matmul", "softmax", "reshape", "numpy"],
)
def test_forced_realization_points(force):
    grad_ctx, mode_ctx = _lazy_ctx()
    with grad_ctx, mode_ctx:
        t = Tensor(np.ones((3, 4))) * 2.0 + 1.0
        assert not t.is_realized
        force(t)
        executed = lazy.cache_info()["kernels_executed"]
    assert executed >= 1


def test_training_mode_stays_eager():
    with lazy_mode(True):  # lazy enabled, but grad mode wins
        x = Tensor(np.ones(4), requires_grad=True)
        y = (x * 3.0 + 1.0).sum()
        assert x.is_realized
        y.backward()
    assert np.array_equal(x.grad, np.full(4, 3.0))
    assert lazy.cache_info()["kernels_executed"] == 0


def test_lazy_matches_eager_values():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
    with no_grad():
        with lazy_mode(False):
            eager = ((Tensor(a) * Tensor(b)).sigmoid() + Tensor(a).relu()).numpy()
        with lazy_mode(True):
            fused = ((Tensor(a) * Tensor(b)).sigmoid() + Tensor(a).relu()).numpy()
    assert np.array_equal(eager, fused)


def test_shared_subchain_realized_once_is_consumed_as_leaf():
    grad_ctx, mode_ctx = _lazy_ctx()
    with grad_ctx, mode_ctx:
        base = Tensor(np.ones((2, 2))) + 1.0
        first = (base * 2.0).numpy()
        executed = lazy.cache_info()["kernels_executed"]
        # base is realized now; the second consumer fuses a 1-op chain
        # over its materialized value instead of recomputing the add.
        second = (base * 3.0).numpy()
    assert lazy.cache_info()["kernels_executed"] == executed + 1
    assert np.array_equal(first, np.full((2, 2), 4.0))
    assert np.array_equal(second, np.full((2, 2), 6.0))


# --------------------------------------------------------------------- #
# Kernel cache keying
# --------------------------------------------------------------------- #
def test_cache_hits_across_same_shape_bucket():
    grad_ctx, mode_ctx = _lazy_ctx()
    with grad_ctx, mode_ctx:
        (Tensor(np.ones((4, 8))) * 2.0 + 1.0).numpy()
        assert lazy.cache_info()["cache_misses"] == 1
        # Same structure, same bucket (both 2**5 elements): cache hit.
        (Tensor(np.ones((4, 7))) * 2.0 + 1.0).numpy()
        info = lazy.cache_info()
        assert info["cache_hits"] == 1
        assert info["cache_misses"] == 1
        # Same structure, different bucket: new kernel.
        (Tensor(np.ones((64, 64))) * 2.0 + 1.0).numpy()
        info = lazy.cache_info()
        assert info["cache_misses"] == 2


def test_broadcast_pattern_is_part_of_the_signature():
    grad_ctx, mode_ctx = _lazy_ctx()
    with grad_ctx, mode_ctx:
        (Tensor(np.ones((4, 4))) + Tensor(np.ones((4, 4)))).numpy()
        misses = lazy.cache_info()["cache_misses"]
        # Broadcasting operand: different signature even in the same bucket.
        (Tensor(np.ones((4, 4))) + Tensor(np.ones((1, 4)))).numpy()
    assert lazy.cache_info()["cache_misses"] == misses + 1


def test_shape_bucket_is_power_of_two_elements():
    assert lazy.shape_bucket((4, 8)) == 32
    assert lazy.shape_bucket((4, 7)) == 32
    assert lazy.shape_bucket((33,)) == 64
    assert lazy.shape_bucket(()) == 1


def test_ops_fused_counts_chain_length():
    grad_ctx, mode_ctx = _lazy_ctx()
    with grad_ctx, mode_ctx:
        (Tensor(np.ones(8)) * 2.0 + 1.0 - 0.5).numpy()  # 3-op chain
    assert lazy.cache_info()["ops_fused"] == 3


# --------------------------------------------------------------------- #
# Strength reduction (the documented non-bitwise rewrite)
# --------------------------------------------------------------------- #
def test_integer_power_strength_reduction_tolerance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64,))
    with no_grad():
        with lazy_mode(False):
            eager = (Tensor(x) ** 3 * 0.5).numpy()
        with lazy_mode(True):
            reduced = (Tensor(x) ** 3 * 0.5).numpy()
    # x**3 runs as x*x*x inside the fused kernel: ulp-level deviation only.
    assert np.allclose(reduced, eager, atol=1e-10, rtol=0)


def test_strength_reduction_off_is_bitwise():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((64,))
    with no_grad():
        with lazy_mode(False):
            eager = (Tensor(x) ** 3 * 0.5).numpy()
        previous = lazy.strength_reduce
        lazy.strength_reduce = False
        try:
            with lazy_mode(True):
                fused = (Tensor(x) ** 3 * 0.5).numpy()
        finally:
            lazy.strength_reduce = previous
    assert np.array_equal(fused, eager)


def test_non_integer_power_is_untouched():
    x = np.abs(np.random.default_rng(5).standard_normal(32)) + 0.1
    with no_grad():
        with lazy_mode(False):
            eager = (Tensor(x) ** -0.5 + 1.0).numpy()
        with lazy_mode(True):
            fused = (Tensor(x) ** -0.5 + 1.0).numpy()
    assert np.array_equal(fused, eager)


# --------------------------------------------------------------------- #
# Hand-fused realization kernels
# --------------------------------------------------------------------- #
def test_fused_softmax_bitwise_vs_eager():
    scores = np.random.default_rng(11).standard_normal((2, 3, 5, 5))
    with no_grad():
        with lazy_mode(False):
            eager = softmax(Tensor(scores), axis=-1).numpy()
        with lazy_mode(True):
            fused = softmax(Tensor(scores) * 1.0, axis=-1).numpy()  # via chain
            plain = softmax(Tensor(scores), axis=-1).numpy()  # realized input
    assert np.array_equal(fused, eager)
    assert np.array_equal(plain, eager)
    assert lazy.cache_info()["fused_softmax"] == 2


def test_fused_layernorm_bitwise_vs_eager():
    layer = LayerNorm(16)
    layer.eval()
    x = np.random.default_rng(13).standard_normal((3, 7, 16))
    with no_grad():
        with lazy_mode(False):
            eager = layer(Tensor(x)).numpy()
        with lazy_mode(True):
            fused = layer(Tensor(x) + 0.0).numpy()  # realizes pending chain
    assert np.array_equal(fused, eager)
    assert lazy.cache_info()["fused_layernorm"] == 1


def test_softmax_graph_input_not_memoized_recompute_is_correct():
    grad_ctx, mode_ctx = _lazy_ctx()
    with grad_ctx, mode_ctx:
        scores = Tensor(np.random.default_rng(17).standard_normal((2, 4, 4)))
        chain = scores * 0.5 + 1.0
        probs = softmax(chain, axis=-1)
        # The chain realized into the softmax arena without memoization; a
        # later .data access must recompute into a fresh, correct array.
        recomputed = chain.numpy()
    expected = scores.numpy() * 0.5 + 1.0
    assert np.array_equal(recomputed, expected)
    assert np.allclose(probs.numpy().sum(axis=-1), 1.0)


# --------------------------------------------------------------------- #
# Gating
# --------------------------------------------------------------------- #
def test_env_gating_and_overrides(monkeypatch):
    monkeypatch.setenv(lazy.ENV_LAZY, "0")
    lazy.set_lazy_enabled(None)  # re-read the environment
    try:
        assert not lazy.is_lazy_enabled()
        with lazy_mode(True):
            assert lazy.is_lazy_enabled()  # thread override wins
        monkeypatch.setenv(lazy.ENV_LAZY, "1")
        lazy.set_lazy_enabled(None)
        assert lazy.is_lazy_enabled()
    finally:
        monkeypatch.delenv(lazy.ENV_LAZY, raising=False)
        lazy.set_lazy_enabled(None)


def test_cache_info_reports_enabled_flag():
    with lazy_mode(False):
        assert lazy.cache_info()["enabled"] is False
    with lazy_mode(True):
        assert lazy.cache_info()["enabled"] is True


# --------------------------------------------------------------------- #
# Thread safety (server request threads share one kernel cache)
# --------------------------------------------------------------------- #
def test_kernel_cache_thread_safety_under_concurrent_forwards():
    rng = np.random.default_rng(23)
    inputs = [rng.standard_normal((16, 24)) for _ in range(24)]

    def chain(data):
        with no_grad(), lazy_mode(True):
            t = Tensor(data)
            return (((t * 2.0 + 1.0).tanh() - 0.25).relu()).numpy()

    expected = [chain(data) for data in inputs]
    lazy.clear_cache()
    with ThreadPoolExecutor(max_workers=8) as pool:
        # Same signatures racing from 8 threads: compiles must be
        # idempotent and every result bitwise equal to single-threaded.
        results = list(pool.map(chain, inputs * 4))
    for i, result in enumerate(results):
        assert np.array_equal(result, expected[i % len(expected)])
    info = lazy.cache_info()
    assert info["kernels_executed"] == len(inputs) * 4
    # However the compile race resolved, the cache holds one kernel per
    # (signature, bucket) — not one per thread.
    assert info["cached_kernels"] <= 2

"""Lazy, fusing evaluation for the ``repro.nn`` inference hot path.

Eager mode executes every elementwise op immediately: each ``a + b`` pays a
fresh numpy temporary and a Python dispatch, and a trunk forward is dozens
of them. This module records those ops instead — ``Tensor`` arithmetic under
:func:`~repro.nn.tensor.no_grad` builds a :class:`LazyBuffer` DAG and
materializes nothing — then *fuses* each chain into one compiled kernel at a
forced realization point (matmul, softmax, reduction, ``.numpy()``, any
``.data`` access).

A fused kernel is generated numpy source walked once per chain shape: the
chain's ops in data-flow order, every interior result written ``out=`` into
a per-thread scratch arena so only the final output allocates. Compiled
kernels are cached by ``(op-chain signature, dtype, shape bucket)`` — the
signature encodes op structure and broadcast patterns, *not* concrete sizes,
so the length-bucketed batches of
:meth:`repro.core.engine.EmbeddingEngine.embed_corpus` hit the cache on
every forward after the first.

Semantics are untouched: kernels execute the *same* numpy ufuncs in the
same data-flow order as eager mode, so realized values are bitwise
identical to the eager reference implementation (the equivalence oracle in
``tests/core/test_engine.py``) — with one documented exception: small
integer powers (``x**2/3/4``, the GELU cube) are strength-reduced to
repeated multiplies, which differ from ``np.power`` by at most a couple of
ulps (~1e-16 relative) but run ~60x faster on builds whose ``power`` loop
is not vectorized. Disable via :data:`strength_reduce` for strict bitwise
runs. Gradient mode always wins: recording only happens while graph
construction is off, so training never sees a lazy tensor.

Gating: ``$REPRO_NN_LAZY`` (default on; ``0``/``false``/``no``/``off``
disables) with :func:`set_lazy_enabled` / :func:`lazy_mode` for
programmatic and per-thread control.

Thread safety: the kernel cache is lock-guarded (a racing compile is
idempotent — last writer wins on an identical kernel), scratch arenas are
per-thread, and realization of a shared buffer from two threads is a benign
idempotent race — required by the lake server, whose request threads
embed queries concurrently on one engine.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable

import numpy as np

from repro import obs

ENV_LAZY = "REPRO_NN_LAZY"

#: Executions of fused elementwise kernels (each replaces a chain of
#: eager ops); the live proof fusion is on, surfaced via ``/v1/metrics``.
_FUSED_KERNELS = obs.counter(
    "nn_fused_kernels_total", "Fused elementwise kernels executed by the lazy engine"
)
_CACHE_HITS = obs.counter(
    "nn_fusion_cache_hits", "Fused-kernel cache hits, by chain signature + shape bucket"
)
_CACHE_MISSES = obs.counter(
    "nn_fusion_cache_misses", "Fused-kernel cache misses (each compiles a new kernel)"
)
_CHAIN_OPS = obs.histogram(
    "nn_ops_fused_per_chain",
    "Elementwise ops fused into one kernel execution",
    buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0),
)
_FUSED_SOFTMAX = obs.counter(
    "nn_fused_softmax_total", "Hand-fused softmax realizations (inference mode)"
)
_FUSED_LAYERNORM = obs.counter(
    "nn_fused_layernorm_total", "Hand-fused LayerNorm realizations (inference mode)"
)


def _env_lazy_default() -> bool:
    raw = os.environ.get(ENV_LAZY, "").strip().lower()
    return raw not in ("0", "false", "no", "off")


_GLOBAL_ENABLED: bool = _env_lazy_default()


class _ThreadOverride(threading.local):
    value: bool | None = None


_override = _ThreadOverride()


def is_lazy_enabled() -> bool:
    """Whether elementwise ops record lazily in the current thread.

    (Only consulted while gradient mode is off — training is always eager.)
    """
    local = _override.value
    if local is not None:
        return local
    return _GLOBAL_ENABLED


def set_lazy_enabled(value: bool | None) -> None:
    """Set the process-wide lazy flag; ``None`` re-reads ``$REPRO_NN_LAZY``."""
    global _GLOBAL_ENABLED
    _GLOBAL_ENABLED = _env_lazy_default() if value is None else bool(value)


class lazy_mode:
    """Context manager: force lazy recording on/off for the current thread."""

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self._previous: bool | None = None

    def __enter__(self) -> "lazy_mode":
        self._previous = _override.value
        _override.value = self.enabled
        return self

    def __exit__(self, *exc) -> None:
        _override.value = self._previous


# --------------------------------------------------------------------- #
# The op graph
# --------------------------------------------------------------------- #
#: op name -> (numpy function name, arity). ``pow`` carries its exponent in
#: ``LazyBuffer.const``; binary ops may take a const node operand. The
#: emitted functions are exactly the ufuncs eager mode runs, so fused
#: results are bitwise identical.
_OPS: dict[str, tuple[str, int]] = {
    "add": ("add", 2),
    "sub": ("subtract", 2),
    "mul": ("multiply", 2),
    "div": ("divide", 2),
    "maximum": ("maximum", 2),
    "neg": ("negative", 1),
    "exp": ("exp", 1),
    "log": ("log", 1),
    "tanh": ("tanh", 1),
    "pow": ("power", 1),
}


class LazyBuffer:
    """One node of a recorded elementwise chain.

    ``op`` is ``"leaf"`` (a concrete ndarray in ``_realized``), ``"const"``
    (a Python scalar in ``const``), or a key of ``_OPS``. ``shape`` is
    tracked at record time so ``Tensor.shape`` never forces realization.
    """

    __slots__ = ("op", "srcs", "const", "shape", "_realized")

    def __init__(self, op, srcs=(), const=None, shape=(), realized=None):
        self.op = op
        self.srcs = srcs
        self.const = const
        self.shape = shape
        self._realized = realized

    def realize(self) -> np.ndarray:
        """Materialize this buffer (running one fused kernel if needed)."""
        if self._realized is None:
            self._realized = _run(self)
        return self._realized


def leaf(array: np.ndarray) -> LazyBuffer:
    return LazyBuffer("leaf", shape=array.shape, realized=array)


def const(value) -> LazyBuffer:
    return LazyBuffer("const", const=value)


def _broadcast(a: tuple, b: tuple) -> tuple:
    return a if a == b else np.broadcast_shapes(a, b)


def unary(op: str, x: LazyBuffer, exponent=None) -> LazyBuffer:
    return LazyBuffer(op, srcs=(x,), const=exponent, shape=x.shape)


def binary(op: str, a: LazyBuffer, b: LazyBuffer) -> LazyBuffer:
    if a.op == "const" and b.op == "const":  # fold; cannot arise from Tensor
        return const(getattr(np, _OPS[op][0])(a.const, b.const))
    shape = _broadcast(
        a.shape if a.op != "const" else (),
        b.shape if b.op != "const" else (),
    )
    return LazyBuffer(op, srcs=(a, b), shape=shape)


# --------------------------------------------------------------------- #
# Fusion: chain walk -> signature -> compiled kernel
# --------------------------------------------------------------------- #
def _collect(root: LazyBuffer) -> tuple[list[LazyBuffer], list[LazyBuffer]]:
    """Postorder op nodes + leaf nodes reachable from ``root``.

    Anything already realized counts as a leaf: a shared subchain another
    realization materialized is consumed as data, not recomputed.
    """
    order: list[LazyBuffer] = []
    leaves: list[LazyBuffer] = []
    seen: set[int] = set()
    stack: list[tuple[LazyBuffer, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._realized is not None or node.op == "const":
            if node.op != "const":
                leaves.append(node)
            order.append(node)
            continue
        stack.append((node, True))
        for src in reversed(node.srcs):
            if id(src) not in seen:
                stack.append((src, False))
    return order, leaves


def _signature(order: list[LazyBuffer]) -> str:
    """Structural signature: ops, operand wiring, broadcast patterns and
    constants — everything the generated source depends on, and nothing
    shape-specific beyond which axes broadcast."""
    index = {id(node): i for i, node in enumerate(order)}
    tokens: list[str] = []
    for node in order:
        if node._realized is not None:
            tokens.append(
                "L" + "".join("1" if s == 1 else "x" for s in node.shape)
            )
        elif node.op == "const":
            tokens.append(f"C{node.const!r}")
        elif node.op == "pow":
            tokens.append(f"pow{node.const!r}[{index[id(node.srcs[0])]}]")
        else:
            wires = ",".join(str(index[id(s)]) for s in node.srcs)
            tokens.append(f"{node.op}[{wires}]")
    return "|".join(tokens)


#: Rewrite ``x**k`` for k in {2, 3, 4} into repeated multiplies inside fused
#: kernels. ``np.power`` takes a scalar C loop on this numpy build (~60x the
#: cost of ``multiply``); the rewrite deviates from eager by <= 2 ulps.
#: Part of the kernel-cache key, so flipping it mid-process is safe.
strength_reduce: bool = True

_REDUCIBLE_POWERS = (2.0, 3.0, 4.0)


def shape_bucket(shape: tuple) -> int:
    """Power-of-two element-count bucket (mirrors the engine's padded-waste
    bucketing, so one bucket ~= one ``embed_corpus`` length bucket)."""
    size = 1
    for s in shape:
        size *= s
    return 1 << max(0, size - 1).bit_length()


def _generate(order: list[LazyBuffer]) -> tuple[str, int]:
    """Numpy source for the chain — the string walked once per kernel.

    Each op becomes one ufunc call in data-flow order; interior results go
    ``out=`` into arena scratch slots, the final op writes the caller's
    fresh output buffer. Returns ``(source, n_ops)``.
    """
    index = {id(node): i for i, node in enumerate(order)}
    leaf_slot: dict[int, int] = {}
    lines = ["def _fused(leaves, out, arena):"]
    op_nodes = [n for n in order if n._realized is None and n.op != "const"]
    root = op_nodes[-1]

    def ref(node: LazyBuffer) -> str:
        if node.op == "const":
            return repr(node.const)
        if node._realized is not None:
            if id(node) not in leaf_slot:
                leaf_slot[id(node)] = len(leaf_slot)
            return f"t{index[id(node)]}"
        return f"t{index[id(node)]}"

    # Bind leaves to locals first (stable first-encounter order).
    for node in order:
        if node._realized is not None:
            ref(node)
    for node_id, slot in leaf_slot.items():
        lines.append(f"    t{index[node_id]} = leaves[{slot}]")

    for node in op_nodes:
        i = index[id(node)]
        func, _ = _OPS[node.op]
        args = [ref(s) for s in node.srcs]
        shapes = [
            f"{ref(s)}.shape" for s in node.srcs if s.op != "const"
        ]
        if node is root:
            target = "out"
        elif len(shapes) == 1:
            lines.append(f"    b{i} = _scratch(arena, {i}, {shapes[0]})")
            target = f"b{i}"
        else:
            lines.append(f"    s{i} = _bshape({', '.join(shapes)})")
            lines.append(f"    b{i} = _scratch(arena, {i}, s{i})")
            target = f"b{i}"
        if (
            node.op == "pow"
            and strength_reduce
            and float(node.const) in _REDUCIBLE_POWERS
        ):
            # x**k as repeated multiplies (see `strength_reduce`); the
            # target buffer doubles as the intermediate.
            base = args[0]
            lines.append(f"    t{i} = _np.multiply({base}, {base}, out={target})")
            if node.const == 3:
                lines.append(f"    t{i} = _np.multiply(t{i}, {base}, out={target})")
            elif node.const == 4:
                lines.append(f"    t{i} = _np.multiply(t{i}, t{i}, out={target})")
            continue
        if node.op == "pow":
            args.append(repr(node.const))
        lines.append(f"    t{i} = _np.{func}({', '.join(args)}, out={target})")
    lines.append("    return out")
    return "\n".join(lines), len(op_nodes)


def _scratch(arena: dict, slot: int, shape: tuple) -> np.ndarray:
    # Keyed by (slot, shape): one kernel serves every concrete shape in its
    # bucket, and embed_corpus cycles through its length buckets each pass —
    # keying by slot alone would realloc (and page-fault) on every call.
    key = (slot, shape)
    buf = arena.get(key)
    if buf is None:
        if len(arena) >= 32:  # pathological shape churn: reset, stay bounded
            arena.clear()
        buf = np.empty(shape)
        arena[key] = buf
    return buf


def _bshape(*shapes: tuple) -> tuple:
    a, b = shapes
    return a if a == b else np.broadcast_shapes(a, b)


class FusedKernel:
    """One compiled chain: generated source + per-thread scratch arenas."""

    __slots__ = ("signature", "source", "n_ops", "_fn", "_tls")

    def __init__(self, signature: str, source: str, n_ops: int):
        self.signature = signature
        self.source = source
        self.n_ops = n_ops
        namespace = {"_np": np, "_scratch": _scratch, "_bshape": _bshape}
        exec(compile(source, f"<fused:{signature[:48]}>", "exec"), namespace)
        self._fn: Callable = namespace["_fused"]
        self._tls = threading.local()

    def __call__(
        self, leaves: list[np.ndarray], out_shape: tuple,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        arena = self._tls.__dict__.setdefault("arena", {})
        if out is None:
            out = np.empty(out_shape)
        return self._fn(leaves, out, arena)


#: Compiled kernels keyed by (signature, dtype, shape bucket). Bounded: a
#: pathological workload that never repeats a chain shape gets a full clear
#: instead of unbounded growth.
_MAX_CACHED_KERNELS = 512

_cache_lock = threading.Lock()
_kernel_cache: dict[tuple[str, str, int], FusedKernel] = {}
_stats = {"kernels_executed": 0, "cache_hits": 0, "cache_misses": 0,
          "fused_softmax": 0, "fused_layernorm": 0, "ops_fused": 0}


def _run(root: LazyBuffer, out: np.ndarray | None = None) -> np.ndarray:
    """Realize ``root``: fuse its chain into one cached kernel and run it.

    ``out`` (optional) receives the result instead of a fresh allocation —
    used by realization points that consume the chain immediately (fused
    softmax), where the result never escapes and its buffer can be arena-
    recycled. Callers passing ``out`` must not memoize the result.
    """
    order, leaf_nodes = _collect(root)
    signature = _signature(order)
    key = (signature, "float64", shape_bucket(root.shape), strength_reduce)
    with _cache_lock:
        kernel = _kernel_cache.get(key)
        if kernel is not None:
            _stats["cache_hits"] += 1
    if kernel is None:
        source, n_ops = _generate(order)
        kernel = FusedKernel(signature, source, n_ops)
        with _cache_lock:
            # A racing thread may have compiled the same kernel; keep the
            # first so its warm arenas survive.
            existing = _kernel_cache.get(key)
            if existing is not None:
                kernel = existing
            else:
                if len(_kernel_cache) >= _MAX_CACHED_KERNELS:
                    _kernel_cache.clear()
                _kernel_cache[key] = kernel
            _stats["cache_misses"] += 1
        _CACHE_MISSES.inc()
    else:
        _CACHE_HITS.inc()
    arrays = [node._realized for node in leaf_nodes]
    result = kernel(arrays, root.shape, out)
    with _cache_lock:
        _stats["kernels_executed"] += 1
        _stats["ops_fused"] += kernel.n_ops
    _FUSED_KERNELS.inc()
    _CHAIN_OPS.observe(kernel.n_ops)
    return result


# --------------------------------------------------------------------- #
# Fused softmax — a forced realization point with a hand-fused kernel
# --------------------------------------------------------------------- #
class _SoftmaxArena(threading.local):
    bufs: dict | None = None


_softmax_arena = _SoftmaxArena()


def _softmax_scratch(slot, shape: tuple) -> np.ndarray:
    bufs = _softmax_arena.bufs
    if bufs is None:
        bufs = _softmax_arena.bufs = {}
    key = (slot, shape)
    scratch = bufs.get(key)
    if scratch is None:
        if len(bufs) >= 32:  # pathological shape churn: reset, stay bounded
            bufs.clear()
        scratch = bufs[key] = np.empty(shape)
    return scratch


def _softmax_core(
    data: np.ndarray, axis: int, in_place: bool,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``max`` → ``negative`` → ``add`` → ``exp`` → ``sum`` → ``divide`` —
    the exact ufunc sequence of the eager reference, so results are bitwise
    identical. ``in_place`` shifts/exponentiates directly in ``data`` (only
    legal when the caller owns that buffer); ``out`` receives the quotient
    instead of a fresh allocation."""
    shifted_max = data.max(axis=axis, keepdims=True)
    np.negative(shifted_max, out=shifted_max)
    scratch = data if in_place else _softmax_scratch("shift", data.shape)
    np.add(data, shifted_max, out=scratch)
    np.exp(scratch, out=scratch)
    denominator = scratch.sum(axis=axis, keepdims=True)
    if out is None:
        out = np.empty(data.shape)
    np.divide(scratch, denominator, out=out)
    with _cache_lock:
        _stats["fused_softmax"] += 1
    _FUSED_SOFTMAX.inc()
    return out


def fused_softmax(data: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax with arena temporaries.

    The shift/exp intermediate lives in a per-thread arena and only the
    final quotient allocates; results are bitwise identical to eager.
    """
    return _softmax_core(data, axis, in_place=False)


def fused_layernorm(
    data: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> np.ndarray:
    """Whole LayerNorm as one hand-fused realization kernel.

    Recorded op-by-op, LayerNorm splits into two chains around its
    reductions and recomputes the centered intermediate in each; fused, it
    runs the exact eager ufunc sequence (``sum``/``*1/n`` mean → ``subtract``
    → ``multiply``/``sum``/``*1/n`` variance → ``+eps`` → ``**-0.5`` →
    affine ``multiply``/``multiply``/``add``) once, with the two full-size
    intermediates in the per-thread arena — bitwise identical to eager,
    three fewer full passes and one fewer allocation than the recorded form.
    """
    inv_n = 1.0 / float(data.shape[-1])
    mean = data.sum(axis=-1, keepdims=True)
    np.multiply(mean, inv_n, out=mean)
    centered = _softmax_scratch("ln_centered", data.shape)
    np.subtract(data, mean, out=centered)
    squared = _softmax_scratch("ln_squared", data.shape)
    np.multiply(centered, centered, out=squared)
    variance = squared.sum(axis=-1, keepdims=True)
    np.multiply(variance, inv_n, out=variance)
    np.add(variance, eps, out=variance)
    np.power(variance, -0.5, out=variance)
    np.multiply(centered, variance, out=squared)
    np.multiply(squared, gamma, out=squared)
    out = np.empty(data.shape)
    np.add(squared, beta, out=out)
    with _cache_lock:
        _stats["fused_layernorm"] += 1
    _FUSED_LAYERNORM.inc()
    return out


def fused_softmax_graph(root: LazyBuffer, axis: int = -1) -> np.ndarray:
    """Softmax over an *unrealized* chain, consuming it in place.

    The attention-scores pattern: ``scores = q@k * scale + mask`` records a
    chain whose only consumer is softmax. Realizing it through ``.data``
    would allocate a fresh scores-sized buffer that dies immediately;
    instead the chain realizes into softmax's own arena scratch and the
    shift/exp run in place on it — zero score-sized allocations besides the
    result. The chain is deliberately *not* memoized: the scratch is
    recycled, so a (rare) later ``.data`` on the same buffer recomputes
    into a fresh array instead of aliasing the arena.
    """
    if root._realized is not None:
        return _softmax_core(root._realized, axis, in_place=False)
    scratch = _softmax_scratch("graph", root.shape)
    data = _run(root, out=scratch)
    return _softmax_core(data, axis, in_place=True)


def fused_softmax_probs(root: LazyBuffer, axis: int = -1) -> np.ndarray:
    """Fully arena-owned softmax for results consumed immediately.

    The attention-probabilities pattern: the softmax result feeds straight
    into the context matmul and never escapes as a tensor, so the quotient
    can live in the per-thread arena too — zero allocations for the whole
    mask → softmax → probabilities pipeline. The caller must finish with
    the returned array before this thread softmaxes the same shape again.
    """
    out = _softmax_scratch("probs", root.shape)
    if root._realized is not None:
        return _softmax_core(root._realized, axis, in_place=False, out=out)
    scratch = _softmax_scratch("graph", root.shape)
    data = _run(root, out=scratch)
    return _softmax_core(data, axis, in_place=True, out=out)


# --------------------------------------------------------------------- #
# Introspection
# --------------------------------------------------------------------- #
def cache_info() -> dict:
    """Fusion counters as plain ints (obs-independent; used by the engine's
    ``fusion_stats`` and the benches)."""
    with _cache_lock:
        snapshot = dict(_stats)
        snapshot["cached_kernels"] = len(_kernel_cache)
    snapshot["enabled"] = is_lazy_enabled()
    return snapshot


def clear_cache() -> None:
    """Drop compiled kernels and zero the fusion counters (tests/benches)."""
    with _cache_lock:
        _kernel_cache.clear()
        for key in _stats:
            _stats[key] = 0

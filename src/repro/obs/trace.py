"""Structured tracing: a `Span` tree with contextvar propagation.

One trace covers server -> service -> catalog -> engine -> index: every
layer opens a :func:`span` and, because the current span rides a
:class:`contextvars.ContextVar`, nested calls attach as children without
any plumbing through signatures. Threads start from an empty context, so
a worker thread's spans never attach to another thread's trace — the
isolation the 8-thread service-concurrency harness asserts.

Spans are the timing substrate the Discovery API's
:class:`~repro.lake.api.Timings` is projected from (``timings =
projection of the span tree``), replacing the ad-hoc ``time.perf_counter()`` pairs the service used to carry.
A span costs one object allocation and two clock reads — the same price
as the pair it replaced.

:func:`Span.add_child_duration` creates *synthetic* children with a
fixed duration — how ``discover_batch`` charges each query its share of
the work the batch did once (the sketch and embed pass, a lazy refresh).
An open parent's duration grows by the same amount, so a query's total
includes what it was charged and its parts never exceed it.

Request-id propagation rides a second contextvar:
:func:`bind_request_id` scopes an id around a request (the HTTP server
binds the ``X-Request-Id`` it received or generated), and
:func:`request_id` reads it anywhere downstream — the service stamps it
into result diagnostics and the slow-query log.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar

#: Per-span child cap: a long-lived outer span (e.g. a whole bulk ingest)
#: must not accumulate unbounded engine-forward children.
MAX_CHILDREN = 256


class Span:
    """One timed operation; children are sub-operations."""

    __slots__ = (
        "name", "meta", "children", "dropped_children", "duration_ms", "_t0",
    )

    def __init__(self, name: str, meta: dict | None = None):
        self.name = name
        self.meta = dict(meta) if meta else {}
        self.children: list[Span] = []
        self.dropped_children = 0
        self.duration_ms: float | None = None
        self._t0 = time.perf_counter()

    def finish(self) -> float:
        """Freeze the duration (idempotent); returns ``duration_ms``."""
        if self.duration_ms is None:
            self.duration_ms = 1000.0 * (time.perf_counter() - self._t0)
        return self.duration_ms

    def _attach(self, child: "Span") -> None:
        if len(self.children) >= MAX_CHILDREN:
            self.dropped_children += 1
        else:
            self.children.append(child)

    def add_child_duration(
        self, name: str, duration_ms: float, **meta
    ) -> "Span":
        """Attach a synthetic, already-finished child (amortized shares).

        An open span's own duration then covers the child: its start moves
        back by ``duration_ms``.
        """
        child = Span(name, meta or None)
        child.duration_ms = float(duration_ms)
        self._attach(child)
        if self.duration_ms is None:
            self._t0 -= child.duration_ms / 1000.0
        return child

    def child_sum(self, name: str) -> float:
        """Summed duration of direct children named ``name`` (0.0 when
        none) — the projection primitive ``Timings`` is built from."""
        return sum(
            child.duration_ms or 0.0
            for child in self.children
            if child.name == name
        )

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "duration_ms": self.duration_ms}
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        if self.dropped_children:
            out["dropped_children"] = self.dropped_children
        return out

    def __repr__(self) -> str:
        duration = (
            f"{self.duration_ms:.3f}ms"
            if self.duration_ms is not None
            else "open"
        )
        return f"Span({self.name!r}, {duration}, {len(self.children)} children)"


_current: ContextVar[Span | None] = ContextVar("repro_obs_span", default=None)


def current_span() -> Span | None:
    """The innermost open span in this context (None outside any trace)."""
    return _current.get()


@contextmanager
def span(name: str, **meta):
    """Open a span as a child of the current one (or as a root)."""
    opened = Span(name, meta or None)
    parent = _current.get()
    if parent is not None:
        parent._attach(opened)
    token = _current.set(opened)
    try:
        yield opened
    finally:
        opened.finish()
        _current.reset(token)


# --------------------------------------------------------------------- #
# Request-id propagation
# --------------------------------------------------------------------- #
_request_id: ContextVar[str | None] = ContextVar(
    "repro_obs_request_id", default=None
)


def request_id() -> str | None:
    """The request id bound in this context, if any."""
    return _request_id.get()


def new_request_id() -> str:
    """A fresh 16-hex-char request id (client stamp / server fallback)."""
    return uuid.uuid4().hex[:16]


@contextmanager
def bind_request_id(value: str):
    """Scope ``value`` as the current request id."""
    token = _request_id.set(value)
    try:
        yield value
    finally:
        _request_id.reset(token)

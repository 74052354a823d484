"""In-memory span recorder owned by the benchmark.

Spans are recorded **from outside** the program: the benchmark wraps its
own calls into each layer's public functions (spans *inside* ``src/`` are
a later change). One mechanism serves both passes:

- every ``with tracer.span(...)`` takes a ``perf_counter`` pair, so the
  untraced pass reads its latencies off the very same call sites;
- only an *enabled* tracer keeps the span (name, layer, start, end, parent
  id, op id) and tracks nesting, so the end-to-end metrics are measured
  with recording off and the traced pass shows what recording costs.

A stage the benchmark cannot nest from outside (the input encoding that
happens inside ``embed_corpus``, the sketch packing inside ``save_tables``)
is timed standalone on the same inputs and attached with :meth:`Tracer.child`
as a *synthetic* child, so self time (span minus children) still splits the
composite call by layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


class Span:
    """One timed call. ``seconds``/``ms`` are valid after the ``with``."""

    __slots__ = ("tracer", "id", "parent", "op", "name", "layer", "start", "end",
                 "synthetic")

    def __init__(self, tracer: "Tracer", name: str, layer: str, op):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.op = op
        self.id = None
        self.parent = None
        self.synthetic = False
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        if self.tracer.enabled:
            self.tracer._open(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        if self.tracer.enabled:
            self.tracer._close(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Span store for one benchmark process (single-threaded by design:
    every workload is one closed-loop client)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, layer: str, op=None) -> Span:
        return Span(self, name, layer, op)

    def _open(self, span: Span) -> None:
        span.id = len(self.spans)
        span.parent = self._stack[-1].id if self._stack else None
        self.spans.append(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        self._stack.pop()

    def child(self, parent: Span, name: str, layer: str, seconds: float) -> None:
        """Attach a stage measured standalone as a synthetic child of
        ``parent`` (it starts where the parent starts; only its duration
        is meaningful)."""
        if not self.enabled:
            return
        span = Span(self, name, layer, parent.op)
        span.id = len(self.spans)
        span.parent = parent.id
        span.synthetic = True
        span.start = parent.start
        span.end = parent.start + min(seconds, parent.seconds)
        self.spans.append(span)

    # ------------------------------------------------------------------ #
    def self_seconds_by_layer(self, names: "set[str]") -> dict:
        """``{layer: {"self_s": ..., "spans": n}}`` over the top-level spans
        called ``names`` and their children — a span's self time is its
        duration minus the part its child spans cover."""
        children: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        keep: set[int] = set()
        out: dict[str, dict] = {}
        for span in self.spans:  # parents are recorded before their children
            if span.parent in keep or (span.parent is None and span.name in names):
                keep.add(span.id)
                row = out.setdefault(span.layer, {"self_s": 0.0, "spans": 0})
                row["self_s"] += max(0.0, span.seconds - children.get(span.id, 0.0))
                row["spans"] += 1
        return out

    def seconds_by_op(self, names: "set[str]") -> dict:
        """Summed duration of the top-level spans called ``names``, per op
        id — what the replay's stage sum is reconciled against."""
        out: dict = defaultdict(float)
        for span in self.spans:
            if span.parent is None and span.name in names:
                out[span.op] += span.seconds
        return out

    def flush(self, path: "str | Path") -> int:
        """Write every span as one JSON line; returns the span count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.id,
                    "parent": span.parent,
                    "op": span.op,
                    "name": span.name,
                    "layer": span.layer,
                    "start": span.start,
                    "end": span.end,
                    "synthetic": span.synthetic,
                }) + "\n")
        return len(self.spans)

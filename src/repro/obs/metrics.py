"""Thread-safe metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` owns named metrics; each metric owns one child
per label-value combination (a label-less metric has exactly one child).
Recording is a per-child lock around a float update — cheap enough to
leave on for the lake's query hot path (``benchmarks/bench_obs_overhead.py``
holds it under 3 % of a member query's p50), so there is no off switch.

Histograms use fixed cumulative-style buckets (defaults tuned for
millisecond latencies) and estimate p50/p95/p99 by linear interpolation
inside the bucket containing the rank — the classic Prometheus
``histogram_quantile`` estimator, computed client-side so the CLI and
``/v1/metrics`` JSON can show quantiles without a scrape stack.

Two export surfaces, one walk over the metrics:

- :meth:`MetricsRegistry.collect` — a JSON-able snapshot (the
  ``/v1/metrics`` default and ``stats --metrics`` payload);
- :meth:`MetricsRegistry.render_prometheus` — that snapshot formatted as
  Prometheus text exposition format 0.0.4 (``# HELP`` / ``# TYPE`` /
  samples, histogram ``_bucket{le=...}`` cumulative counts + ``_sum`` +
  ``_count``).

The module-level :func:`counter` / :func:`gauge` / :func:`histogram`
helpers register on the process-default registry (:func:`get_registry`),
which is what the lake stack instruments; re-registering an existing
name returns the existing metric (idempotent module-level handles).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left

#: Default histogram bucket upper bounds, in milliseconds — spans the
#: ~50µs sketch of a tiny table through multi-second bulk ingests. A
#: terminal +Inf bucket is always appended implicitly.
DEFAULT_MS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Prometheus sample values: integral floats render without a dot."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


# --------------------------------------------------------------------- #
# Children — one per label-value combination, each with its own lock.
# --------------------------------------------------------------------- #
def bucket_quantile(
    edges: "list[float]", counts: "list[int]", total: int, q: float
) -> float | None:
    """The q-quantile of per-bucket ``counts`` (not cumulative; one more
    than ``edges``, the last being +Inf) by linear interpolation within the
    rank's bucket; ``None`` when ``total`` is 0. Observations in the +Inf
    bucket clamp to the last finite edge."""
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        below = cumulative
        cumulative += bucket_count
        if cumulative >= rank:
            if index >= len(edges):
                return edges[-1]
            lower = edges[index - 1] if index > 0 else 0.0
            upper = edges[index]
            fraction = (rank - below) / bucket_count
            return lower + (upper - lower) * fraction
    return edges[-1]


class _ValueChild:
    """A counter's or a gauge's value; a counter's child is ``monotonic``."""

    __slots__ = ("_lock", "value", "monotonic")

    def __init__(self, monotonic: bool):
        self._lock = threading.Lock()
        self.value = 0.0
        self.monotonic = monotonic

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0 and self.monotonic:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def _reset(self) -> None:
        with self._lock:
            self.value = 0.0


class _HistogramChild:
    __slots__ = ("_lock", "edges", "counts", "sum", "count")

    def __init__(self, edges: tuple):
        self._lock = threading.Lock()
        self.edges = edges
        # counts[i] — observations with value <= edges[i]; the final slot
        # is the +Inf bucket. Non-cumulative internally; the exposition
        # accumulates.
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.edges, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def quantile(self, q: float) -> float | None:
        """Estimated q-quantile (0..1) by linear interpolation within the
        rank's bucket; ``None`` on an empty histogram. Observations in the
        +Inf bucket clamp to the last finite edge (the standard
        ``histogram_quantile`` behavior)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self.counts)
            total = self.count
        return bucket_quantile(self.edges, counts, total, q)

    def _reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.edges) + 1)
            self.sum = 0.0
            self.count = 0


# --------------------------------------------------------------------- #
# Metrics — named families of children.
# --------------------------------------------------------------------- #
class _Metric:
    """A named family of children. Counters and gauges share this base's
    value children and snapshot; :class:`Histogram` brings its own."""

    kind = "untyped"

    def __init__(self, name: str, description: str, labelnames: tuple):
        self.name = _check_name(name)
        self.description = description
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple, object] = {}
        self._lock = threading.Lock()
        #: The sole child of a label-less metric, resolved once.
        self._default = self.labels() if not self.labelnames else None

    def _make_child(self):
        return _ValueChild(monotonic=self.kind == "counter")

    def labels(self, **labels):
        """The child for one label-value combination (created on first
        use). Label names must match the declaration exactly."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} wants labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _only(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} is labeled; use .labels(...)"
            )
        return self._default

    def _sorted_children(self) -> list[tuple[tuple, object]]:
        with self._lock:
            return sorted(self._children.items())

    def _reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child._reset()

    def _collect_values(self) -> list[dict]:
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "value": child.value,
            }
            for key, child in self._sorted_children()
        ]

    def collect(self) -> dict:
        return {
            "type": self.kind,
            "description": self.description,
            "values": self._collect_values(),
        }


class Counter(_Metric):
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    @property
    def value(self) -> float:
        """Total across every label combination."""
        with self._lock:
            return sum(child.value for child in self._children.values())


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float) -> None:
        self._only().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._only().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._only().dec(amount)


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str,
        labelnames: tuple = (),
        buckets: tuple = DEFAULT_MS_BUCKETS,
    ):
        edges = tuple(float(edge) for edge in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(set(edges)):
            raise ValueError(f"bucket edges must strictly increase: {edges}")
        if edges[-1] == math.inf:
            edges = edges[:-1]  # the +Inf bucket is implicit
        self.edges = edges
        super().__init__(name, description, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.edges)

    def observe(self, value: float) -> None:
        self._only().observe(value)

    def quantile(self, q: float) -> float | None:
        return self._only().quantile(q)

    def _collect_values(self) -> list[dict]:
        out = []
        for key, child in self._sorted_children():
            with child._lock:
                counts = list(child.counts)
                total = child.count
                observed_sum = child.sum
            buckets = {}
            cumulative = 0
            for edge, bucket_count in zip(self.edges, counts):
                cumulative += bucket_count
                buckets[_format_value(edge)] = cumulative
            buckets["+Inf"] = total
            out.append(
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "count": total,
                    "sum": observed_sum,
                    "buckets": buckets,
                    "p50": bucket_quantile(self.edges, counts, total, 0.50),
                    "p95": bucket_quantile(self.edges, counts, total, 0.95),
                    "p99": bucket_quantile(self.edges, counts, total, 0.99),
                }
            )
        return out


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class MetricsRegistry:
    """Named metrics with idempotent registration and two exporters."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _register(self, cls, name: str, description: str, labelnames, **kw):
        labelnames = tuple(labelnames)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, description, labelnames, **kw)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, description: str = "", labelnames=()
    ) -> Counter:
        return self._register(Counter, name, description, labelnames)

    def gauge(self, name: str, description: str = "", labelnames=()) -> Gauge:
        return self._register(Gauge, name, description, labelnames)

    def histogram(
        self,
        name: str,
        description: str = "",
        labelnames=(),
        buckets: tuple = DEFAULT_MS_BUCKETS,
    ) -> Histogram:
        return self._register(
            Histogram, name, description, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> dict:
        """JSON-able snapshot: ``{name: {type, description, values}}``."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        return {name: metric.collect() for name, metric in metrics}

    def render_prometheus(self) -> str:
        """The :meth:`collect` snapshot as text exposition format 0.0.4
        (one trailing newline)."""
        lines: list[str] = []
        for name, metric in self.collect().items():
            lines.append(f"# HELP {name} {metric['description']}")
            lines.append(f"# TYPE {name} {metric['type']}")
            for value in metric["values"]:
                labels = value["labels"]
                suffix = _label_suffix(labels)
                if metric["type"] != "histogram":
                    lines.append(f"{name}{suffix} {_format_value(value['value'])}")
                    continue
                for edge, cumulative in value["buckets"].items():
                    bucket = _label_suffix({**labels, "le": edge})
                    lines.append(f"{name}_bucket{bucket} {cumulative}")
                lines.append(f"{name}_sum{suffix} {_format_value(value['sum'])}")
                lines.append(f"{name}_count{suffix} {value['count']}")
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        """Zero every child (registrations and label sets survive)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric._reset()


#: Content type a Prometheus scraper expects for the text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-default registry the lake stack instruments."""
    return _default_registry


def counter(name: str, description: str = "", labelnames=()) -> Counter:
    return _default_registry.counter(name, description, labelnames)


def gauge(name: str, description: str = "", labelnames=()) -> Gauge:
    return _default_registry.gauge(name, description, labelnames)


def histogram(
    name: str,
    description: str = "",
    labelnames=(),
    buckets: tuple = DEFAULT_MS_BUCKETS,
) -> Histogram:
    return _default_registry.histogram(
        name, description, labelnames, buckets=buckets
    )

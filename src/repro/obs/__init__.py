"""`repro.obs` — dependency-free observability for the lake stack.

Three pillars, stdlib-only:

- **Metrics** (:mod:`repro.obs.metrics`): thread-safe counters, gauges,
  and fixed-bucket histograms with p50/p95/p99 estimation, exported as
  JSON (:func:`get_registry`\\ ``().collect()``) or Prometheus text
  exposition (``render_prometheus()``). The module-level
  :func:`counter` / :func:`gauge` / :func:`histogram` helpers register
  on the process-default registry every subsystem shares.
- **Tracing** (:mod:`repro.obs.trace`): a :class:`Span` tree with
  contextvar propagation — one trace covers
  server -> service -> catalog -> engine -> index. Spans are the timing
  source the Discovery API's ``Timings`` is projected from, so they are
  always live.
- **Request ids + slow queries** (:mod:`repro.obs.trace` /
  :mod:`repro.obs.slowlog`): :func:`bind_request_id` scopes the
  ``X-Request-Id`` a client stamped; :class:`SlowQueryLog` keeps the
  top-N slowest requests with their span breakdowns.

Recording is always on: ``benchmarks/bench_obs_overhead.py`` holds
metrics and the slow log under 3 % of a member query's p50. The server's
access-log lines follow the ``repro.lake.access`` logger's level.
"""

from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    MAX_CHILDREN,
    Span,
    bind_request_id,
    current_span,
    new_request_id,
    request_id,
    span,
)

__all__ = [
    "DEFAULT_MS_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "MAX_CHILDREN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "Span",
    "bind_request_id",
    "counter",
    "current_span",
    "gauge",
    "get_registry",
    "histogram",
    "new_request_id",
    "request_id",
    "span",
]

"""`repro.obs.metrics`: registry semantics, quantiles, and the exposition."""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry, bucket_quantile


@pytest.fixture()
def registry() -> MetricsRegistry:
    """A private registry — tests never touch the process default."""
    return MetricsRegistry()


# --------------------------------------------------------------------- #
# Counters / gauges
# --------------------------------------------------------------------- #
def test_counter_counts_and_sums_labels(registry):
    queries = registry.counter("q_total", "queries", ("mode",))
    queries.labels(mode="join").inc()
    queries.labels(mode="union").inc(2)
    assert queries.value == 3.0
    values = {
        tuple(v["labels"].items()): v["value"]
        for v in queries.collect()["values"]
    }
    assert values == {(("mode", "join"),): 1.0, (("mode", "union"),): 2.0}


def test_counter_rejects_negative_and_labeled_bare_inc(registry):
    plain = registry.counter("plain_total")
    with pytest.raises(ValueError):
        plain.inc(-1)
    labeled = registry.counter("labeled_total", labelnames=("mode",))
    with pytest.raises(ValueError):
        labeled.inc()
    with pytest.raises(ValueError):
        labeled.labels(wrong="x")


def test_gauge_set_inc_dec(registry):
    depth = registry.gauge("depth")
    depth.set(5)
    depth.inc(2)
    depth.dec()
    assert depth.collect()["values"][0]["value"] == 6.0


def test_registration_is_idempotent_but_typed(registry):
    first = registry.counter("shared_total", "first wins", ("backend",))
    again = registry.counter("shared_total", "ignored", ("backend",))
    assert again is first
    assert first.description == "first wins"
    with pytest.raises(ValueError):
        registry.gauge("shared_total")
    with pytest.raises(ValueError):
        registry.counter("shared_total", labelnames=("other",))


def test_invalid_names_rejected(registry):
    with pytest.raises(ValueError):
        registry.counter("1bad")
    with pytest.raises(ValueError):
        registry.counter("ok_total", labelnames=("le-gal",))


# --------------------------------------------------------------------- #
# Histograms
# --------------------------------------------------------------------- #
def test_histogram_buckets_and_totals(registry):
    lat = registry.histogram("lat_ms", buckets=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 50.0, 500.0):
        lat.observe(value)
    snap = lat.collect()["values"][0]
    # le semantics: 1.0 lands in the <=1 bucket, 500 in +Inf.
    assert snap["buckets"] == {"1": 2, "10": 3, "100": 4, "+Inf": 5}
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(556.5)


def test_histogram_quantiles_match_numpy(registry):
    """With unit-width buckets the interpolation error is bounded by one
    bucket, so the estimates track ``numpy.percentile`` closely."""
    edges = tuple(float(e) for e in range(1, 201))
    hist = registry.histogram("fine_ms", buckets=edges)
    rng = np.random.default_rng(7)
    samples = rng.uniform(0.0, 200.0, size=5000)
    for value in samples:
        hist.observe(float(value))
    for q in (0.50, 0.95, 0.99):
        estimate = hist.quantile(q)
        exact = float(np.percentile(samples, 100 * q))
        assert estimate == pytest.approx(exact, abs=1.0)


def test_histogram_quantile_edge_cases(registry):
    hist = registry.histogram("edge_ms", buckets=(1.0, 2.0))
    assert hist.quantile(0.5) is None  # empty
    hist.observe(100.0)  # +Inf bucket clamps to the last finite edge
    assert hist.quantile(0.99) == 2.0
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_rejects_bad_buckets(registry):
    with pytest.raises(ValueError):
        registry.histogram("bad_ms", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("bad_ms", buckets=(2.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("bad_ms", buckets=(1.0, 1.0, 2.0))



@st.composite
def _edges_and_observations(draw):
    """Strictly increasing edges, and observations that are empty, on the
    edges, between them, or past the last one."""
    edges = sorted(draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=8,
        unique=True,
    )))
    observations = draw(st.lists(
        st.one_of(
            st.sampled_from(edges),
            st.floats(min_value=0.0, max_value=2.0 * edges[-1]),
        ),
        max_size=40,
    ))
    return edges, observations


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_edges_and_observations())
def test_snapshot_buckets_rebuild_the_exposed_quantiles(drawn):
    """A scraper that has only the JSON snapshot (keys sorted, as the
    server sends it) rebuilds p50/p95/p99 from its cumulative buckets:
    parse each edge string, order by edge, de-accumulate, and walk them
    with ``bucket_quantile``. It must get the exposed values."""
    edges, observations = drawn
    registry = MetricsRegistry()
    hist = registry.histogram("drawn_ms", buckets=tuple(edges))
    for value in observations:
        hist.observe(value)
    snapshot = json.loads(json.dumps(registry.collect(), sort_keys=True))
    (value,) = snapshot["drawn_ms"]["values"]
    buckets = dict(value["buckets"])
    total = buckets.pop("+Inf")
    assert total == value["count"] == len(observations)
    parsed, cumulative = zip(*sorted(
        (float(edge), count) for edge, count in buckets.items()
    ))
    counts = np.diff([0, *cumulative, total]).tolist()
    for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        assert bucket_quantile(list(parsed), counts, total, q) == value[name], name


# --------------------------------------------------------------------- #
# Prometheus text exposition (golden)
# --------------------------------------------------------------------- #
def test_prometheus_exposition_golden(registry):
    queries = registry.counter("lake_q_total", "Queries answered", ("mode",))
    queries.labels(mode="join").inc(3)
    queries.labels(mode="union").inc(1)
    depth = registry.gauge("pool_depth", "Busy workers")
    depth.set(2)
    lat = registry.histogram("q_ms", "Latency", buckets=(0.5, 1.0, 5.0))
    for value in (0.25, 0.75, 2.0, 20.5):
        lat.observe(value)
    expected = "\n".join(
        [
            "# HELP lake_q_total Queries answered",
            "# TYPE lake_q_total counter",
            'lake_q_total{mode="join"} 3',
            'lake_q_total{mode="union"} 1',
            "# HELP pool_depth Busy workers",
            "# TYPE pool_depth gauge",
            "pool_depth 2",
            "# HELP q_ms Latency",
            "# TYPE q_ms histogram",
            'q_ms_bucket{le="0.5"} 1',
            'q_ms_bucket{le="1"} 2',
            'q_ms_bucket{le="5"} 3',
            'q_ms_bucket{le="+Inf"} 4',
            "q_ms_sum 23.5",
            "q_ms_count 4",
        ]
    ) + "\n"
    assert registry.render_prometheus() == expected


def test_prometheus_label_escaping(registry):
    oddity = registry.counter("odd_total", "odd", ("name",))
    oddity.labels(name='a"b\\c\nd').inc()
    line = registry.render_prometheus().splitlines()[-1]
    assert line == 'odd_total{name="a\\"b\\\\c\\nd"} 1'


_LABEL_VALUES = st.text(alphabet='ab"\\\n{}=, ', max_size=6)
_RECORD = {"counter": "inc", "gauge": "set", "histogram": "observe"}


@st.composite
def _registries(draw) -> MetricsRegistry:
    """Counters, gauges and histograms, labelled or not, with label values
    that need escaping and drawn bucket edges, each given some values."""
    registry = MetricsRegistry()
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("counter", "gauge", "histogram")))
        labelnames = ("mode", "name")[: draw(st.integers(min_value=0, max_value=2))]
        name = f"drawn{i}_{kind}"
        if kind == "histogram":
            edges = sorted(draw(st.lists(
                st.floats(min_value=1e-3, max_value=1e4), min_size=1,
                max_size=5, unique=True,
            )))
            metric = registry.histogram(name, "drawn", labelnames, tuple(edges))
        else:
            metric = getattr(registry, kind)(name, "drawn", labelnames)
        low = -1e6 if kind == "gauge" else 0.0
        label_sets = draw(st.lists(
            st.tuples(*[_LABEL_VALUES] * len(labelnames)),
            min_size=1, max_size=3 if labelnames else 1,
        ))
        for values in label_sets:
            child = metric.labels(**dict(zip(labelnames, values)))
            record = getattr(child, _RECORD[kind])
            for amount in draw(st.lists(
                st.floats(min_value=low, max_value=1e6), max_size=6
            )):
                record(amount)
    return registry


_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)",?')


def _parse_labels(inner: str) -> tuple:
    pairs = list(_LABEL_PAIR_RE.finditer(inner))
    assert "".join(pair.group(0) for pair in pairs) == inner
    return tuple(
        (pair.group(1), re.sub(
            r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1),
            pair.group(2),
        ))
        for pair in pairs
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_registries())
def test_every_prometheus_sample_is_a_snapshot_value(registry):
    """Each sample line of the exposition parses back to the value
    ``collect()`` reports for that metric, label set and bucket, and every
    reported value has exactly one line."""
    snapshot = registry.collect()
    expected = {}
    for name, metric in snapshot.items():
        for value in metric["values"]:
            labels = tuple(value["labels"].items())
            if metric["type"] != "histogram":
                expected[(name, labels)] = value["value"]
                continue
            for edge, cumulative in value["buckets"].items():
                expected[(f"{name}_bucket", labels + (("le", edge),))] = cumulative
            expected[(f"{name}_sum", labels)] = value["sum"]
            expected[(f"{name}_count", labels)] = value["count"]
    exposed, types = {}, {}
    for line in registry.render_prometheus().splitlines():
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].split(" ")
            types[name] = kind
            continue
        if line.startswith("# HELP "):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, line
        key = (match.group(1), _parse_labels(match.group(2) or ""))
        assert key not in exposed, line
        exposed[key] = float(match.group(3))
    assert exposed == expected
    assert types == {name: metric["type"] for name, metric in snapshot.items()}


# --------------------------------------------------------------------- #
# Threads and reset
# --------------------------------------------------------------------- #
def test_concurrent_increments_are_exact(registry):
    counter = registry.counter("threads_total")
    hist = registry.histogram("threads_ms", buckets=(10.0,))
    threads, per_thread = 8, 2000

    def work() -> None:
        for _ in range(per_thread):
            counter.inc()
            hist.observe(1.0)

    pool = [threading.Thread(target=work) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert counter.value == threads * per_thread
    (observed,) = hist.collect()["values"]
    assert observed["count"] == threads * per_thread
    assert observed["sum"] == pytest.approx(threads * per_thread)


def test_reset_zeroes_but_keeps_registrations(registry):
    counter = registry.counter("reset_total", labelnames=("mode",))
    counter.labels(mode="join").inc(4)
    registry.reset()
    assert counter.value == 0.0
    assert registry.get("reset_total") is counter
    # The label child survives and keeps recording.
    counter.labels(mode="join").inc()
    assert counter.value == 1.0

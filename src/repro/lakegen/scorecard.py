"""Scorecards: planted-truth recall + server-scraped latency, with deltas.

A scorecard distills one :func:`~repro.lakegen.driver.run_scenario`
record into the few numbers that tell you whether the lake got better or
worse: recall@k per discovery mode against the generator's planted
truth, latency quantiles per query mode, cache and ingest counters, and
the slowest observed stages.

Latency comes **exclusively** from the scraped ``/v1/metrics`` envelope
(or the identical in-process registry snapshot) — never from client-side
timers, which would fold in transport and driver overhead. As a guard
against ever silently drifting from the server's own math,
:func:`latency_quantiles` *re-estimates* every quantile from the scraped
cumulative buckets with the interpolation walk the registry itself uses
(:func:`repro.obs.metrics.bucket_quantile`), and raises :class:`ScorecardError` if
the re-estimate disagrees with the exposed ``p50``/``p95``/``p99``
beyond tolerance — the scraped histogram must reconcile with itself.

``results/lakegen_scorecard.json`` keeps a bounded run history so
:func:`build_scorecard` (and ``scripts/summarize_results.py``) can print
regression deltas between the two most recent runs.
"""

from __future__ import annotations

import math
import os

from repro.obs.metrics import bucket_quantile
from repro.utils.io import read_json, write_json

DEFAULT_PATH = os.path.join("results", "lakegen_scorecard.json")
SCORECARD_FORMAT = "lakegen-scorecard/v1"

#: Runs retained in the scorecard file's history.
HISTORY_LIMIT = 20

#: Relative tolerance for bucket-vs-exposed quantile reconciliation. The
#: walk is deterministic, so agreement should be exact up to float noise;
#: the slack only absorbs representation round-trips through JSON.
RECONCILE_RTOL = 1e-6


class ScorecardError(Exception):
    """A scraped metrics envelope that cannot be turned into a scorecard
    (missing series, malformed buckets, or failed quantile reconciliation)."""


# --------------------------------------------------------------------- #
# Quantiles, re-derived from the scraped buckets
# --------------------------------------------------------------------- #
def _parse_edge(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    try:
        return float(raw)
    except ValueError:
        raise ScorecardError(f"unparseable bucket edge {raw!r}") from None


def _reconciled(label: str, exposed, recomputed, quantile: str) -> float:
    if exposed is None and recomputed is None:
        return None
    if exposed is None or recomputed is None:
        raise ScorecardError(
            f"{label}: exposed {quantile}={exposed!r} but bucket "
            f"re-estimate says {recomputed!r}"
        )
    if not math.isclose(
        exposed, recomputed, rel_tol=RECONCILE_RTOL, abs_tol=1e-9
    ):
        raise ScorecardError(
            f"{label}: exposed {quantile}={exposed} does not reconcile "
            f"with bucket re-estimate {recomputed}"
        )
    return exposed


def latency_quantiles(
    metrics: dict, name: str = "lake_query_duration_ms"
) -> dict:
    """Per-label-set latency summary from a scraped metrics envelope.

    Returns ``{label_key: {labels, count, sum, p50, p95, p99}}`` where
    ``label_key`` is the sorted ``k=v`` join (``"mode=join"``). Every
    quantile is cross-checked against a re-estimate from the cumulative
    buckets; a mismatch raises :class:`ScorecardError`.
    """
    series = metrics.get(name)
    if series is None:
        raise ScorecardError(f"metrics envelope has no {name!r} histogram")
    out: dict = {}
    for value in series.get("values", []):
        labels = value.get("labels", {})
        label_key = (
            ",".join(f"{k}={labels[k]}" for k in sorted(labels)) or "all"
        )
        buckets = value.get("buckets")
        if not isinstance(buckets, dict) or "+Inf" not in buckets:
            raise ScorecardError(
                f"{name}{{{label_key}}}: malformed buckets {buckets!r}"
            )
        finite = sorted(
            (
                (_parse_edge(edge), int(cumulative))
                for edge, cumulative in buckets.items()
                if edge != "+Inf"
            ),
            key=lambda pair: pair[0],
        )
        edges = [edge for edge, _ in finite]
        total = int(buckets["+Inf"])
        # De-accumulate: cumulative-per-edge back to per-bucket counts,
        # with the +Inf overflow bucket appended.
        counts = []
        previous = 0
        for _, cumulative in finite:
            counts.append(cumulative - previous)
            previous = cumulative
        counts.append(total - previous)
        if any(count < 0 for count in counts):
            raise ScorecardError(
                f"{name}{{{label_key}}}: non-monotonic cumulative buckets"
            )
        entry = {"labels": labels, "count": total, "sum": value.get("sum")}
        for quantile, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            entry[quantile] = _reconciled(
                f"{name}{{{label_key}}}",
                value.get(quantile),
                bucket_quantile(edges, counts, total, q),
                quantile,
            )
        out[label_key] = entry
    return out


def counter_total(metrics: dict, name: str, **labels) -> "float | None":
    """Sum a counter's values, optionally filtered by label equality.
    ``None`` when the series is absent (e.g. obs disabled)."""
    series = metrics.get(name)
    if series is None:
        return None
    total = 0.0
    for value in series.get("values", []):
        got = value.get("labels", {})
        if all(got.get(k) == v for k, v in labels.items()):
            total += float(value.get("value", 0.0))
    return total


def slowest_stages(slow_queries: "list[dict]", top: int = 3) -> list[dict]:
    """For the ``top`` slowest logged queries, the dominant stage: the
    direct child span of the root with the largest duration."""
    ranked = sorted(
        (entry for entry in slow_queries if entry.get("spans")),
        key=lambda entry: entry.get("total_ms", 0.0),
        reverse=True,
    )[:top]
    out = []
    for entry in ranked:
        children = entry["spans"].get("children", [])
        dominant = max(
            children, key=lambda span: span.get("duration_ms", 0.0)
        ) if children else None
        out.append(
            {
                "query": entry.get("query"),
                "mode": entry.get("mode"),
                "total_ms": entry.get("total_ms"),
                "stage": dominant.get("name") if dominant else None,
                "stage_ms": dominant.get("duration_ms") if dominant else None,
            }
        )
    return out


# --------------------------------------------------------------------- #
# Building + persisting the scorecard
# --------------------------------------------------------------------- #
def _summarize(run: dict) -> dict:
    """One run record -> one history entry."""
    metrics = run.get("metrics", {}).get("metrics", {})
    enabled = run.get("metrics", {}).get("enabled", False)
    latency = latency_quantiles(metrics) if enabled else {}
    counters = {
        "queries_total": counter_total(metrics, "lake_queries_total"),
        "cache_hits": counter_total(metrics, "lake_cache_hits_total"),
        "cache_misses": counter_total(metrics, "lake_cache_misses_total"),
        "tables_added": counter_total(metrics, "lake_tables_added_total"),
        "rows_appended": counter_total(metrics, "lake_rows_appended_total"),
    }
    churn = run.get("churn", {})
    return {
        "unix_time": run.get("unix_time"),
        "target": run.get("target", {}).get("kind"),
        "metrics_source": run.get("target", {}).get("metrics_source"),
        "tables": run.get("totals", {}).get("tables"),
        "columns": run.get("totals", {}).get("columns"),
        "recall": run.get("recall", {}),
        "latency_ms": latency,
        "counters": counters,
        "slowest": slowest_stages(run.get("slow_queries", [])),
        "churn": {
            "ops": churn.get("spec", {}).get("ops"),
            "counts": churn.get("counts"),
            "errors": churn.get("errors"),
            "appended_rows": churn.get("appended_rows"),
            "distractors_ingested": churn.get("distractors_ingested"),
        },
        "wall_s": run.get("wall_s"),
    }


def _delta(new, old) -> "float | None":
    if new is None or old is None:
        return None
    return round(new - old, 6)


def _deltas(latest: dict, previous: "dict | None") -> dict:
    if previous is None:
        return {}
    out: dict = {"recall": {}, "latency_ms": {}}
    for mode, stats in latest.get("recall", {}).items():
        prior = previous.get("recall", {}).get(mode, {})
        out["recall"][mode] = {
            "recall_at_k": _delta(
                stats.get("recall_at_k"), prior.get("recall_at_k")
            ),
            "mrr": _delta(stats.get("mrr"), prior.get("mrr")),
        }
    for label_key, stats in latest.get("latency_ms", {}).items():
        prior = previous.get("latency_ms", {}).get(label_key, {})
        out["latency_ms"][label_key] = {
            quantile: _delta(stats.get(quantile), prior.get(quantile))
            for quantile in ("p50", "p95", "p99")
        }
    return out


def build_scorecard(run: dict, previous: "dict | None" = None) -> dict:
    """A run record (+ optionally the prior summary) -> scorecard dict."""
    if run.get("format") != "lakegen-run/v1":
        raise ScorecardError(
            f"not a lakegen run record: format={run.get('format')!r}"
        )
    latest = _summarize(run)
    return {
        "format": SCORECARD_FORMAT,
        "experiment": "lakegen_scorecard",
        "latest": latest,
        "previous": previous,
        "deltas": _deltas(latest, previous),
    }


def write_scorecard(run: dict, path: str = DEFAULT_PATH) -> dict:
    """Fold a run into the scorecard file, keeping bounded history.

    Reads any existing scorecard at ``path``, shifts its ``latest`` into
    the history, computes deltas of the new run against it, and writes
    the merged file back. Returns the written scorecard.
    """
    history: list = []
    previous = None
    if os.path.exists(path):
        try:
            existing = read_json(path)
        except (ValueError, OSError):
            existing = None
        if isinstance(existing, dict) and existing.get("format") == SCORECARD_FORMAT:
            previous = existing.get("latest")
            history = list(existing.get("runs", []))
            if previous is not None:
                history.append(previous)
    scorecard = build_scorecard(run, previous)
    scorecard["runs"] = history[-(HISTORY_LIMIT - 1):]
    write_json(path, scorecard)
    return scorecard


__all__ = [
    "DEFAULT_PATH",
    "HISTORY_LIMIT",
    "SCORECARD_FORMAT",
    "ScorecardError",
    "build_scorecard",
    "counter_total",
    "latency_quantiles",
    "slowest_stages",
    "write_scorecard",
]

"""Retrieval metrics: P@k, R@k, per-query F1@k, mean F1, F1-vs-k curves.

The paper reports "Mean F1" (percent), "P@10"/"R@10" (Tables V-VIII) and F1
plots against varying k (Figs. 4 and 8). F1@k for one query is the harmonic
mean of precision@k and recall@k; the mean is over queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.lakebench.base import SearchBenchmark, SearchQuery


def precision_recall_at_k(
    retrieved: list[str], relevant: set[str], k: int
) -> tuple[float, float]:
    """Precision and recall of the top-``k`` retrieved ids."""
    if k <= 0:
        return 0.0, 0.0
    top = retrieved[:k]
    hits = sum(1 for item in top if item in relevant)
    precision = hits / k
    recall = hits / len(relevant) if relevant else 0.0
    return precision, recall


def f1_at_k(retrieved: list[str], relevant: set[str], k: int) -> float:
    """Harmonic mean of P@k and R@k (0 when both are 0)."""
    precision, recall = precision_recall_at_k(retrieved, relevant, k)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass
class SearchResult:
    """Aggregated metrics of one system over one benchmark."""

    system: str
    benchmark: str
    k: int
    mean_f1: float
    precision_at_k: float
    recall_at_k: float
    #: k -> mean F1 over queries, for Fig. 4 / Fig. 8 style curves.
    f1_curve: dict[int, float] = field(default_factory=dict)

    def row(self) -> dict:
        """A paper-style table row (Mean F1 in percent)."""
        return {
            "system": self.system,
            "mean_f1": round(100.0 * self.mean_f1, 2),
            f"p@{self.k}": round(self.precision_at_k, 2),
            f"r@{self.k}": round(self.recall_at_k, 2),
        }


def evaluate_search(
    system: str,
    benchmark: SearchBenchmark,
    retrieve: Callable[[SearchQuery, int], list[str]],
    k: int = 10,
    curve_ks: Iterable[int] | None = None,
) -> SearchResult:
    """Run ``retrieve(query, k)`` for every query and aggregate metrics.

    ``retrieve`` must return ranked table names, *excluding* the query table
    itself. Every distinct k — the headline ``k`` and each curve point — is
    scored from its own ``retrieve(query, k)``: Fig. 6 gathers ``3k``
    candidate columns, so a top-``max(ks)`` list cut to k is not the
    system's top-k, and the headline must not depend on ``curve_ks``.
    """
    ks = sorted(set(curve_ks or [])) or [k]
    f1_sums = {kk: 0.0 for kk in ks}
    f1_sum = precision_sum = recall_sum = 0.0
    n = 0
    for query in benchmark.queries:
        relevant = benchmark.relevant(query)
        if not relevant:
            continue
        ranked = {kk: retrieve(query, kk) for kk in sorted({k, *ks})}
        f1_sum += f1_at_k(ranked[k], relevant, k)
        precision, recall = precision_recall_at_k(ranked[k], relevant, k)
        precision_sum += precision
        recall_sum += recall
        for kk in ks:
            f1_sums[kk] += f1_at_k(ranked[kk], relevant, kk)
        n += 1
    n = max(1, n)
    return SearchResult(
        system=system,
        benchmark=benchmark.name,
        k=k,
        mean_f1=f1_sum / n,
        precision_at_k=precision_sum / n,
        recall_at_k=recall_sum / n,
        f1_curve={kk: f1_sums[kk] / n for kk in ks},
    )

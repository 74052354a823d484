"""Retrieval metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.lakebench.base import SearchBenchmark, SearchQuery
from repro.search.metrics import evaluate_search, f1_at_k, precision_recall_at_k


def test_precision_recall_basics():
    retrieved = ["a", "b", "c", "d"]
    relevant = {"a", "c", "x"}
    precision, recall = precision_recall_at_k(retrieved, relevant, k=4)
    assert precision == pytest.approx(0.5)
    assert recall == pytest.approx(2 / 3)


def test_perfect_retrieval_f1():
    assert f1_at_k(["a", "b"], {"a", "b"}, k=2) == pytest.approx(1.0)


def test_zero_overlap_f1():
    assert f1_at_k(["x"], {"a"}, k=1) == 0.0


def test_k_zero():
    assert precision_recall_at_k(["a"], {"a"}, k=0) == (0.0, 0.0)


@given(
    retrieved=st.lists(st.sampled_from("abcdefgh"), max_size=8, unique=True),
    relevant=st.sets(st.sampled_from("abcdefgh"), max_size=8),
    k=st.integers(min_value=1, max_value=8),
)
def test_metric_bounds_property(retrieved, relevant, k):
    precision, recall = precision_recall_at_k(retrieved, relevant, k)
    f1 = f1_at_k(retrieved, relevant, k)
    assert 0.0 <= precision <= 1.0
    assert 0.0 <= recall <= 1.0
    assert 0.0 <= f1 <= 1.0
    assert f1 <= max(precision, recall) + 1e-12


def _benchmark():
    return SearchBenchmark(
        name="toy",
        kind="union",
        tables={},
        queries=[SearchQuery("q1"), SearchQuery("q2"), SearchQuery("empty")],
        ground_truth={"q1": {"a", "b"}, "q2": {"c"}},
    )


def test_evaluate_search_aggregates():
    ranking = {"q1": ["a", "b", "z"], "q2": ["z", "c", "y"]}
    result = evaluate_search(
        "sys", _benchmark(), lambda q, k: ranking[q.table], k=2,
        curve_ks=[1, 2, 3],
    )
    # q1: P@2=1, R@2=1, F1=1. q2: P@2=.5, R@2=1, F1=2/3.
    assert result.mean_f1 == pytest.approx((1.0 + 2 / 3) / 2)
    assert result.precision_at_k == pytest.approx(0.75)
    assert result.recall_at_k == pytest.approx(1.0)
    assert set(result.f1_curve) == {1, 2, 3}
    # Queries without ground truth are skipped, not scored as zero.
    assert result.row()["mean_f1"] == pytest.approx(83.33, abs=0.01)


def test_f1_curve_monotone_in_recall_regime():
    """With one relevant item ranked first, F1 decreases as k grows."""
    bench = SearchBenchmark(
        "toy", "join", {}, [SearchQuery("q")], {"q": {"a"}}
    )
    result = evaluate_search(
        "sys", bench, lambda q, k: ["a", "b", "c", "d"], k=1, curve_ks=[1, 2, 4]
    )
    curve = result.f1_curve
    assert curve[1] >= curve[2] >= curve[4]


def test_headline_does_not_depend_on_curve_ks():
    """Every k is scored from its own retrieval: a system whose top-k
    depends on k (as Fig. 6's 3k candidate pool does) gets the same
    headline with and without a curve, and the curve's point at k is the
    headline."""
    calls = []

    def retrieve(query, k):
        calls.append(k)
        # A wider pool lets two decoys outrank the relevant table.
        return ["z", "y", "a", "x", "w"][:k] if k >= 5 else ["a", "z"][:k]

    bench = SearchBenchmark("toy", "join", {}, [SearchQuery("q")], {"q": {"a"}})
    alone = evaluate_search("sys", bench, retrieve, k=2)
    curved = evaluate_search("sys", bench, retrieve, k=2, curve_ks=[1, 2, 5])
    assert curved.mean_f1 == alone.mean_f1 == pytest.approx(2 / 3)
    assert curved.precision_at_k == alone.precision_at_k
    assert curved.recall_at_k == alone.recall_at_k
    assert curved.f1_curve == {1: 1.0, 2: curved.mean_f1, 5: pytest.approx(1 / 3)}
    assert calls == [2, 1, 2, 5]

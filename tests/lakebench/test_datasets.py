"""The eight LakeBench datasets: labelling semantics and task shapes."""

import numpy as np
import pytest

from repro.core.finetune import TaskType
from repro.lakebench import DATASET_BUILDERS
from repro.lakebench.joins import ECB_JOIN_SLOTS, make_ecb_join, make_wiki_jaccard
from repro.lakebench.subsets import CKAN_TEMPLATE, make_ckan_subset
from repro.lakebench.unions import make_ecb_union, make_tus_santos, make_wiki_union
from repro.sketch.minhash import exact_containment, exact_jaccard

SCALE = 0.2


def _pairs(dataset):
    """Every labelled pair of ``dataset``, all three splits."""
    return dataset.train + dataset.test + dataset.valid


@pytest.mark.parametrize("name", list(DATASET_BUILDERS))
def test_dataset_integrity(name):
    dataset = DATASET_BUILDERS[name](scale=SCALE)
    assert dataset.name == name
    # Every pair references existing tables.
    for pair in _pairs(dataset):
        assert pair.first in dataset.tables
        assert pair.second in dataset.tables
    # Splits are non-empty and disjoint by construction order.
    assert dataset.train and dataset.test and dataset.valid
    stats = dataset.stats()
    assert stats["n_tables"] == len(dataset.tables)
    assert abs(sum(stats["dtype_pct"].values()) - 100.0) < 0.5


def test_tus_santos_headers_discriminate():
    """Positives share header vocabulary far more than negatives — the
    property that makes the benchmark header-solvable (§IV-A2)."""
    dataset = make_tus_santos(scale=SCALE)

    def header_overlap(pair):
        a = set(dataset.tables[pair.first].header)
        b = set(dataset.tables[pair.second].header)
        return len(a & b) / len(a | b)

    positives = [header_overlap(p) for p in _pairs(dataset) if p.label == 1]
    negatives = [header_overlap(p) for p in _pairs(dataset) if p.label == 0]
    assert np.mean(positives) > np.mean(negatives) + 0.3


def test_wiki_union_headers_uninformative():
    """Every Wiki Union table uses the same generic header vocabulary."""
    dataset = make_wiki_union(scale=SCALE)
    headers = {h for t in dataset.tables.values() for h in t.header}
    assert headers <= {"name", "value 1", "value 2", "value 3", "value date"}


def test_wiki_union_has_zero_overlap_positives():
    dataset = make_wiki_union(scale=SCALE)
    zero_overlap = 0
    for pair in _pairs(dataset):
        if pair.label != 1:
            continue
        a = set(dataset.tables[pair.first].columns[0].values)
        b = set(dataset.tables[pair.second].columns[0].values)
        if not a & b:
            zero_overlap += 1
    assert zero_overlap > 0  # the Fig. 5 hard case exists


def test_ecb_union_label_counts_scale_matched_columns():
    dataset = make_ecb_union(scale=SCALE)
    for pair in _pairs(dataset)[:20]:
        a = dataset.tables[pair.first]
        b = dataset.tables[pair.second]
        indicators_a = dict(a.metadata["indicators"])
        indicators_b = dict(b.metadata["indicators"])
        matched = sum(
            1
            for ind, scale in indicators_b.items()
            if ind in indicators_a and indicators_a[ind] == scale
        )
        assert pair.label == pytest.approx(matched / 10.0)


def test_wiki_jaccard_labels_are_exact():
    dataset = make_wiki_jaccard(scale=SCALE)
    for pair in _pairs(dataset)[:20]:
        a = set(dataset.tables[pair.first].columns[0].values)
        b = set(dataset.tables[pair.second].columns[0].values)
        assert pair.label == pytest.approx(exact_jaccard(a, b))


def test_wiki_containment_labels_are_exact():
    from repro.lakebench.joins import make_wiki_containment

    dataset = make_wiki_containment(scale=SCALE)
    for pair in _pairs(dataset)[:20]:
        a = set(dataset.tables[pair.first].columns[0].values)
        b = set(dataset.tables[pair.second].columns[0].values)
        assert pair.label == pytest.approx(exact_containment(a, b))


def test_spider_positives_have_value_overlap():
    from repro.lakebench.joins import make_spider_opendata

    dataset = make_spider_opendata(scale=SCALE)
    for pair in _pairs(dataset)[:30]:
        a = set(dataset.tables[pair.first].columns[0].values)
        b = set(dataset.tables[pair.second].columns[0].values)
        containment = exact_containment(a, b)
        if pair.label == 1:
            assert containment > 0.3
        else:
            assert containment < 0.2


def test_ecb_join_multilabel_semantics():
    dataset = make_ecb_join(scale=SCALE)
    assert dataset.task == TaskType.MULTILABEL
    assert dataset.num_outputs == len(ECB_JOIN_SLOTS)
    for pair in _pairs(dataset)[:10]:
        label = np.asarray(pair.label)
        assert label.shape == (len(ECB_JOIN_SLOTS),)
        a = dataset.tables[pair.first]
        b = dataset.tables[pair.second]
        for slot_index, slot in enumerate(ECB_JOIN_SLOTS):
            if slot not in ("country", "currency code", "reporting sector"):
                assert label[slot_index] == 0.0
                continue
            overlap = exact_containment(
                set(a.column(slot).values), set(b.column(slot).values)
            )
            if label[slot_index] == 1.0:
                assert overlap > 0.3
            else:
                assert overlap < 0.2


def test_ckan_subset_identical_headers():
    dataset = make_ckan_subset(scale=SCALE)
    for table in dataset.tables.values():
        assert table.header == CKAN_TEMPLATE


def test_ckan_subset_positive_is_row_subset():
    dataset = make_ckan_subset(scale=SCALE)
    for pair in _pairs(dataset)[:20]:
        a = dataset.tables[pair.first]
        b = dataset.tables[pair.second]
        rows_a = {tuple(r) for r in a.rows()}
        rows_b = {tuple(r) for r in b.rows()}
        if pair.label == 1:
            assert rows_b <= rows_a
        else:
            assert not rows_b <= rows_a


def test_scale_parameter_grows_datasets():
    small = make_wiki_jaccard(scale=0.2)
    large = make_wiki_jaccard(scale=0.5)
    assert len(_pairs(large)) > len(_pairs(small))


def test_builders_are_deterministic():
    a = make_wiki_union(scale=SCALE)
    b = make_wiki_union(scale=SCALE)
    assert [p.label for p in _pairs(a)] == [p.label for p in _pairs(b)]
    assert list(a.tables) == list(b.tables)

"""Per-column numerical sketches (§III-A) and their mergeable accumulator.

The paper's numerical sketch is the fixed-length vector::

    [unique count, NaN count, cell width,
     10th percentile, 20th, ..., 90th percentile,
     mean, standard deviation, min value, max value]

with unique/NaN counts normalized by the number of rows and cell width (for
string columns) being the average cell byte width. For non-numeric columns
the distribution statistics are zero; for numeric columns the cell width is
zero. Date columns are converted to POSIX timestamps first.

Live tables need this sketch to be *mergeable*: appending rows must update
the statistics in O(delta) without re-reading the stored column.
:class:`NumericAccumulator` carries the exactly-mergeable moments (row/null
counts, byte-width sum, sum, sum of squares, min/max) plus two bounded
summaries with documented approximation behaviour:

* a **sorted sample** of the numeric values, exact up to
  :data:`RESERVOIR_CAP` values; beyond the cap it is compressed by a
  deterministic equi-depth resample. Percentiles are read off this sample.
  Each compression moves a percentile by at most about one sample step,
  ``1 / (RESERVOIR_CAP - 1)``, in rank, plus ``1 / n`` for reading between
  two of the ``n`` values: one step for a cold sketch, two for a merge of
  cold sketches (``tests/sketch/test_numeric.py``). Every later merge past
  the cap resamples again, and the error grows with them: a resample
  reads its points at ranks ``j / (RESERVOIR_CAP - 1)``, the next merge
  weighs them as equal-mass midpoints, and the tails drift toward the
  median. 200 merges of 20-value deltas into a 3 000-value column leave
  its deciles about 0.1 off in rank.
* a **bottom-k set of value hashes** (KMV sketch), exact up to
  :data:`DISTINCT_CAP` distinct values; beyond the cap the distinct count
  of a merge is the standard KMV estimate ``(k - 1) * 2^64 / h_(k)``
  (Bar-Yossef et al. 2002), clamped to ``[max(|A|,|B|), |A|+|B|]``. Its
  relative standard error is ``1 / sqrt(k - 2)``, 1.6 % at ``k = 4096``;
  a merge of cold sketches stays within four of them.

While every input stays under both caps, merge-then-derive is **bitwise
identical** to sketching the concatenated column from scratch: the cold
path sorts the numeric view first so every statistic is order-canonical,
and an exact merged sample *is* the full sorted array. There is no RNG
anywhere — identical inputs always produce identical bytes.

Featurization is **array-at-a-time**. :func:`numerical_profiles` sketches
every column of a batch at once: one :func:`_mix64` over all value hashes,
and one :func:`sorted_percentiles` call over all numeric columns. It is two
halves, :func:`numeric_accumulators` and :func:`numeric_stats` (the raw
statistics rows a lake stores; :func:`numeric_sketches` is their objects);
an append's delta runs only the first. :func:`pack_accumulators` and
:func:`unpack_accumulators` convert a batch's accumulators to and from the
``acc_*`` arrays a lake stores. :func:`stats_inputs` maps raw statistics
rows to model-input rows in one pass, and :func:`numeric_inputs` does the
same for sketch objects (:func:`stats_rows`). A merge's statistics come
from its accumulators in one :func:`numeric_stats` call.
``numerical_profile``, ``NumericalSketch.to_vector`` and
``NumericAccumulator.to_sketch`` are one-row calls of these batch forms. :func:`sorted_percentiles` is
bit-identical to ``np.percentile`` on each sorted column: it reads numpy's
linear rule off the sorted array instead of partitioning a copy of every
column. Means and standard deviations run the same ufunc sequence as
``np.mean`` and ``np.std``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.table.infer import numeric_view
from repro.table.schema import Column, ColumnType
from repro.utils.hashing import hash_strings

#: unique + nan + width + 9 percentiles + mean + std + min + max
NUMERICAL_SKETCH_DIM = 16

_PERCENTILES = tuple(range(10, 100, 10))

#: ``_PERCENTILES`` as ``np.percentile`` turns them into fractions.
_QUANTILES = np.true_divide(_PERCENTILES, 100)

#: Numeric stats are squashed by ``arcsinh`` then scaled by this constant so
#: typical magnitudes (counts, money, timestamps ~1e9) land in roughly [-1,1];
#: keeping model inputs well-conditioned.
_ASINH_SCALE = 1.0 / np.arcsinh(1e12)

#: Max stored numeric sample values per column. Module-level (not part of
#: ``SketchConfig``) so existing lake fingerprints are unchanged; tests may
#: monkeypatch it to exercise the compressed regime cheaply.
RESERVOIR_CAP = 512

#: Max stored distinct-value hashes per column (KMV bottom-k size).
DISTINCT_CAP = 4096

_U64_SCALE = float(2**64)


def _mix64(hashes: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic).

    The KMV estimator assumes hashes uniform on ``[0, 2^64)``; raw FNV-1a
    of short, near-sequential keys is visibly non-uniform, so the distinct
    reservoir stores finalized hashes instead.
    """
    z = np.asarray(hashes, dtype=np.uint64).copy()
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class NumericalSketch:
    """The raw statistics plus the normalized model-input vector."""

    unique_fraction: float
    nan_fraction: float
    avg_cell_width: float
    percentiles: tuple[float, ...]
    mean: float
    std: float
    min_value: float
    max_value: float

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "NumericalSketch":
        """The sketch of one raw statistics row (:func:`stats_rows`'s
        order), given as Python floats."""
        n_pct = len(_PERCENTILES)
        return cls(
            unique_fraction=row[0],
            nan_fraction=row[1],
            avg_cell_width=row[2],
            percentiles=tuple(row[3 : 3 + n_pct]),
            mean=row[3 + n_pct],
            std=row[4 + n_pct],
            min_value=row[5 + n_pct],
            max_value=row[6 + n_pct],
        )

    def to_vector(self) -> np.ndarray:
        """Normalized ``float64[NUMERICAL_SKETCH_DIM]`` vector for the model:
        ``numeric_inputs([self])[0]``."""
        return numeric_inputs([self])[0]


def stats_rows(sketches: Sequence[NumericalSketch]) -> np.ndarray:
    """The raw statistics of many sketches, ``float64[n, NUMERICAL_SKETCH_DIM]``:
    unique and NaN fractions, cell width, the percentiles, mean, std, min
    and max — the ``numeric_stats`` row a lake stores per column."""
    return np.array(
        [
            (
                s.unique_fraction,
                s.nan_fraction,
                s.avg_cell_width,
                *s.percentiles,
                s.mean,
                s.std,
                s.min_value,
                s.max_value,
            )
            for s in sketches
        ],
        dtype=np.float64,
    ).reshape(len(sketches), NUMERICAL_SKETCH_DIM)


def stats_inputs(raw: np.ndarray) -> np.ndarray:
    """Model-input rows of raw statistics rows (:func:`stats_rows`' form).

    Fractions pass through unchanged; magnitude statistics are squashed
    with ``arcsinh`` (sign-preserving log-like compression) so that
    timestamps and small counts coexist on a comparable scale. Element
    ``j`` of row ``i`` is ``float(np.arcsinh(x) * _ASINH_SCALE)`` of that
    raw statistic, as it would be one scalar at a time.
    """
    rows = np.arcsinh(raw) * _ASINH_SCALE
    rows[:, :2] = raw[:, :2]
    return rows


def numeric_inputs(sketches: Sequence[NumericalSketch]) -> np.ndarray:
    """Model-input rows of many sketches, ``float64[n, NUMERICAL_SKETCH_DIM]``:
    :func:`stats_inputs` of their :func:`stats_rows`."""
    return stats_inputs(stats_rows(sketches))


def sorted_percentiles(flat: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """``np.percentile`` at ``_PERCENTILES`` of consecutive sorted runs.

    ``flat`` holds run 0's values, then run 1's, …; ``sizes[j] >= 1`` is
    the length of run ``j``, which must be sorted ascending. Returns
    ``float64[len(sizes), len(_PERCENTILES)]``, bit for bit what
    ``np.percentile`` returns on each run, by numpy's linear rule: virtual
    index ``(n - 1) * q``; its floor and the next index, both moved to the
    last element when the virtual index reaches it (numpy marks that
    ``-1``, and the weight ``t`` is measured from the marker); then
    ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` where ``t >= 0.5``.

    ``np.percentile`` reads its neighbours off a partition of a copy of its
    input, which may order equal elements differently from the sorted run.
    Among finite floats only ``-0.0`` and ``+0.0`` tell equal elements
    apart, so a run holding both is partitioned exactly as numpy does it.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    last = (sizes - 1)[:, None]
    virtual = last * _QUANTILES
    lower = np.floor(virtual)
    at_end = virtual >= last
    lower[at_end] = -1.0
    t = virtual - lower
    lower = lower.astype(np.intp)
    upper = lower + 1
    upper[at_end] = -1
    a = flat[np.where(at_end, last, lower) + starts[:, None]]
    b = flat[np.where(at_end, last, upper) + starts[:, None]]

    zeros = flat == 0.0
    negative = np.add.reduceat(zeros & np.signbit(flat), starts)
    mixed = (negative > 0) & (negative < np.add.reduceat(zeros, starts))
    for j in np.flatnonzero(mixed):
        run = flat[starts[j] : starts[j] + sizes[j]].copy()
        run.partition(np.unique(np.concatenate(([0, -1], lower[j], upper[j]))))
        a[j], b[j] = run[lower[j]], run[upper[j]]

    diff = b - a
    out = a + diff * t
    high = t >= 0.5
    out[high] = (b - diff * (1 - t))[high]
    return out


def _stds(
    flat: np.ndarray, sizes: Sequence[int], means: Sequence[float]
) -> list[float]:
    """Standard deviation of consecutive runs of ``flat`` with the given
    means: ``np.std``'s sequence on each run (subtract the mean, square,
    reduce, divide by ``n``, square root). A run's mean is its
    ``np.add.reduce`` (the pairwise sum ``np.mean`` takes) over ``n``."""
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    deviations = flat - np.repeat(means, sizes)
    deviations *= deviations
    return [
        math.sqrt(float(np.add.reduce(deviations[lo:hi])) / (hi - lo))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _equi_depth(points: np.ndarray, weights: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic equi-depth resample of a weighted sorted point cloud.

    Each point sits at the cumulative-weight midpoint of its mass; the
    compressed sample reads ``cap`` evenly spaced quantiles off that stair
    via linear interpolation. ``np.interp`` clamps the 0/1 endpoints, so the
    resample always retains the extremes.
    """
    total = float(weights.sum())
    positions = (np.cumsum(weights) - 0.5 * weights) / total
    targets = np.linspace(0.0, 1.0, cap)
    return np.interp(targets, positions, points)


@dataclass(frozen=True)
class NumericAccumulator:
    """Mergeable per-column state behind :class:`NumericalSketch`.

    ``sample`` is always sorted ascending; ``distinct`` is the sorted
    bottom-k of the :func:`_mix64`-finalized FNV-1a hashes of the distinct
    non-null string values.
    ``sample_exact`` / ``distinct_exact`` record whether those summaries
    still hold *every* underlying value — while they do, merges are exact.
    """

    n_rows: int
    n_nonnull: int
    width_sum: int
    is_numeric: bool
    n_numeric: int
    total: float
    total_sq: float
    min_value: float
    max_value: float
    sample: np.ndarray  # float64, sorted
    sample_exact: bool
    n_distinct: int
    distinct: np.ndarray  # uint64, sorted bottom-k
    distinct_exact: bool

    def merge(self, other: "NumericAccumulator") -> "NumericAccumulator":
        """Accumulator of the concatenated column — exact under the caps."""
        if self.is_numeric != other.is_numeric:
            raise ValueError(
                "cannot merge a numeric accumulator with a non-numeric one"
            )
        n_numeric = self.n_numeric + other.n_numeric
        if self.n_numeric and other.n_numeric:
            min_value = min(self.min_value, other.min_value)
            max_value = max(self.max_value, other.max_value)
        elif self.n_numeric:
            min_value, max_value = self.min_value, self.max_value
        else:
            min_value, max_value = other.min_value, other.max_value

        if self.n_numeric == 0:
            sample, sample_exact = other.sample, other.sample_exact
        elif other.n_numeric == 0:
            sample, sample_exact = self.sample, self.sample_exact
        elif (
            self.sample_exact
            and other.sample_exact
            and n_numeric <= RESERVOIR_CAP
        ):
            sample = np.sort(np.concatenate([self.sample, other.sample]))
            sample_exact = True
        else:
            points = np.concatenate([self.sample, other.sample])
            weights = np.concatenate(
                [
                    np.full(len(self.sample), self.n_numeric / len(self.sample)),
                    np.full(
                        len(other.sample), other.n_numeric / len(other.sample)
                    ),
                ]
            )
            order = np.argsort(points, kind="stable")
            sample = _equi_depth(points[order], weights[order], RESERVOIR_CAP)
            sample_exact = False

        union = np.union1d(self.distinct, other.distinct)
        upper = self.n_distinct + other.n_distinct
        lower = max(self.n_distinct, other.n_distinct)
        if self.distinct_exact and other.distinct_exact:
            n_distinct = int(len(union))  # both hash sets complete ⇒ exact
            if len(union) <= DISTINCT_CAP:
                distinct, distinct_exact = union, True
            else:
                distinct, distinct_exact = union[:DISTINCT_CAP], False
        else:
            # Any inexact side stored a full bottom-k, so the union holds at
            # least DISTINCT_CAP hashes and its bottom-k is the bottom-k of
            # the true union: the KMV estimate applies.
            distinct = union[:DISTINCT_CAP]
            distinct_exact = False
            k = len(distinct)
            kth = float(distinct[-1])
            estimate = int(round((k - 1) * _U64_SCALE / kth)) if kth else upper
            n_distinct = int(min(upper, max(lower, estimate)))

        return NumericAccumulator(
            n_rows=self.n_rows + other.n_rows,
            n_nonnull=self.n_nonnull + other.n_nonnull,
            width_sum=self.width_sum + other.width_sum,
            is_numeric=self.is_numeric,
            n_numeric=n_numeric,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
            min_value=min_value,
            max_value=max_value,
            sample=sample,
            sample_exact=sample_exact,
            n_distinct=n_distinct,
            distinct=distinct,
            distinct_exact=distinct_exact,
        )

    def to_sketch(self) -> NumericalSketch:
        """Derive the paper sketch from the accumulated state: a one-row
        :func:`numeric_sketches` call on the sample."""
        return numeric_sketches([self])[0]


#: Per-column scalar row of the packed accumulators (``acc_scalars``):
#: n_rows, n_nonnull, width_sum, is_numeric, n_numeric, total, total_sq,
#: min_value, max_value, sample_exact, n_distinct, distinct_exact. Counts
#: and flags ride float64 losslessly (all are integers far below 2**53).
ACC_SCALAR_DIM = 12


def pack_accumulators(accs: Sequence[NumericAccumulator]) -> dict[str, np.ndarray]:
    """Many columns' accumulators as the ``acc_*`` arrays a lake stores:
    ``acc_scalars`` (a row per column), and each column's ``sample`` and
    ``distinct`` runs concatenated, with their lengths."""
    scalars = np.asarray(
        [
            [
                a.n_rows,
                a.n_nonnull,
                a.width_sum,
                float(a.is_numeric),
                a.n_numeric,
                a.total,
                a.total_sq,
                a.min_value,
                a.max_value,
                float(a.sample_exact),
                a.n_distinct,
                float(a.distinct_exact),
            ]
            for a in accs
        ],
        dtype=np.float64,
    ).reshape(len(accs), ACC_SCALAR_DIM)
    return {
        "acc_scalars": scalars,
        "acc_sample": np.concatenate([a.sample for a in accs])
        if accs
        else np.zeros(0, dtype=np.float64),
        "acc_sample_len": np.asarray([len(a.sample) for a in accs], dtype=np.int64),
        "acc_distinct": np.concatenate([a.distinct for a in accs])
        if accs
        else np.zeros(0, dtype=np.uint64),
        "acc_distinct_len": np.asarray(
            [len(a.distinct) for a in accs], dtype=np.int64
        ),
    }


def unpack_accumulators(arrays: dict[str, np.ndarray]) -> list[NumericAccumulator]:
    """Every column's accumulator out of :func:`pack_accumulators` arrays.
    Each array member is converted once: the scalars to Python numbers, the
    runs copied out in one block per member that the columns' ``sample`` /
    ``distinct`` slice."""
    sample = np.array(arrays["acc_sample"], dtype=np.float64)
    distinct = np.array(arrays["acc_distinct"], dtype=np.uint64)
    sample_ends = list(accumulate(arrays["acc_sample_len"].tolist()))
    distinct_ends = list(accumulate(arrays["acc_distinct_len"].tolist()))
    return [
        NumericAccumulator(
            n_rows=int(row[0]),
            n_nonnull=int(row[1]),
            width_sum=int(row[2]),
            is_numeric=bool(row[3]),
            n_numeric=int(row[4]),
            total=row[5],
            total_sq=row[6],
            min_value=row[7],
            max_value=row[8],
            sample=sample[s0:s1],
            sample_exact=bool(row[9]),
            n_distinct=int(row[10]),
            distinct=distinct[d0:d1],
            distinct_exact=bool(row[11]),
        )
        for row, s0, s1, d0, d1 in zip(
            np.asarray(arrays["acc_scalars"], dtype=np.float64).tolist(),
            [0, *sample_ends],
            sample_ends,
            [0, *distinct_ends],
            distinct_ends,
        )
    ]


def numeric_accumulators(
    n_rows: Sequence[int],
    ctypes: Sequence[ColumnType],
    non_nulls: Sequence[list[str]],
    value_hashes: np.ndarray,
    bounds: np.ndarray,
) -> tuple[list[NumericAccumulator], list[np.ndarray]]:
    """The accumulator half of :func:`numerical_profiles`: every column's
    :class:`NumericAccumulator`, and the sorted numeric values it was built
    from (empty for a column without any), which the sketch half reads.

    Arguments as for :func:`numerical_profiles`. An append runs only this
    half on its delta: the delta's accumulators merge into the stored ones,
    and the merged sketches are :func:`numeric_sketches` of the merged
    accumulators.
    """
    mixed = _mix64(value_hashes)
    accumulators, samples = [], []
    for i, (rows, ctype, non_null) in enumerate(zip(n_rows, ctypes, non_nulls)):
        numbers = np.asarray(
            numeric_view(non_null, ctype) if ctype.is_numeric else [],
            dtype=np.float64,
        )
        # Order-canonical: every derived statistic (and the stored sample)
        # is a function of the multiset, so merge-vs-rebuild can be bitwise.
        numbers.sort()
        samples.append(numbers)
        if ctype.is_numeric:
            width_sum = 0
        else:
            # UTF-8 of a concatenation is the concatenation of the UTF-8s.
            width_sum = len("".join(non_null).encode("utf-8"))
        if numbers.size:
            total = float(np.add.reduce(numbers))
            total_sq = float(np.add.reduce(numbers * numbers))
            min_value, max_value = float(numbers[0]), float(numbers[-1])
        else:
            total = total_sq = min_value = max_value = 0.0

        if numbers.size <= RESERVOIR_CAP:
            sample = numbers
            sample_exact = True
        else:
            sample = _equi_depth(
                numbers, np.ones(numbers.size, dtype=np.float64), RESERVOIR_CAP
            )
            sample_exact = False

        n_distinct = int(bounds[i + 1] - bounds[i])
        hashes = np.sort(mixed[bounds[i] : bounds[i + 1]])
        if n_distinct <= DISTINCT_CAP:
            distinct = hashes
            distinct_exact = True
        else:
            distinct = hashes[:DISTINCT_CAP].copy()
            distinct_exact = False

        accumulators.append(NumericAccumulator(
            n_rows=rows,
            n_nonnull=len(non_null),
            width_sum=width_sum,
            is_numeric=bool(ctype.is_numeric),
            n_numeric=int(numbers.size),
            total=total,
            total_sq=total_sq,
            min_value=min_value,
            max_value=max_value,
            sample=sample,
            sample_exact=sample_exact,
            n_distinct=n_distinct,
            distinct=distinct,
            distinct_exact=distinct_exact,
        ))
    return accumulators, samples


def numeric_stats(
    accumulators: Sequence[NumericAccumulator],
    numbers: Sequence[np.ndarray] | None = None,
    scalars: np.ndarray | None = None,
) -> np.ndarray:
    """The sketch half of :func:`numerical_profiles`, as raw statistics
    rows (:func:`stats_rows`' form, ``float64[n, NUMERICAL_SKETCH_DIM]``):
    each column's from its accumulator's counts and moments and a sorted
    run of its numeric values, with one :func:`sorted_percentiles` call and
    one :func:`_stds` pass over every numeric column of the batch, and the
    counts read off the accumulators' scalar rows in array steps
    (``scalars``: their ``acc_scalars``, when the caller packed them
    already).

    The cold path passes ``numbers``, each column's full sorted numeric
    values (never the compressed sample, so a cold sketch stays exact
    whatever the caps). Without them each accumulator's sample is read (a
    merge's sketches): an exact sample gives the statistics the cold path
    would, bit for bit; a compressed one gives the percentiles, and mean
    and std come off the exact moments. A column with no numeric value has
    zero distribution statistics.
    """
    if scalars is None:
        scalars = pack_accumulators(accumulators)["acc_scalars"]
    n_rows, n_nonnull, width_sum, is_numeric, n_numeric = scalars[:, :5].T
    n_distinct = scalars[:, 10]
    stats = np.zeros((len(accumulators), NUMERICAL_SKETCH_DIM), dtype=np.float64)
    has_rows = n_rows != 0
    np.divide(n_distinct, n_rows, out=stats[:, 0], where=has_rows)
    nonnull = np.divide(n_nonnull, n_rows, out=np.zeros_like(n_rows), where=has_rows)
    stats[:, 1] = np.where(has_rows, 1.0 - nonnull, 0.0)
    texts = (is_numeric == 0) & (n_nonnull != 0)
    np.divide(width_sum, n_nonnull, out=stats[:, 2], where=texts)
    has_numbers = n_numeric != 0
    stats[:, -2] = np.where(has_numbers, scalars[:, 7], 0.0)
    stats[:, -1] = np.where(has_numbers, scalars[:, 8], 0.0)

    runs = [acc.sample for acc in accumulators] if numbers is None else numbers
    numeric = [i for i, run in enumerate(runs) if run.size]
    if numeric:
        flat = np.concatenate([runs[i] for i in numeric])
        sizes = [runs[i].size for i in numeric]
        means = [float(np.add.reduce(runs[i])) / runs[i].size for i in numeric]
        n_pct = len(_PERCENTILES)
        stats[numeric, 3 : 3 + n_pct] = sorted_percentiles(flat, sizes)
        stats[numeric, 3 + n_pct] = means
        stats[numeric, 4 + n_pct] = _stds(flat, sizes, means)
    if numbers is None:
        for i in np.flatnonzero(has_numbers & (scalars[:, 9] == 0)).tolist():
            acc = accumulators[i]
            mean = acc.total / acc.n_numeric
            stats[i, -4] = mean
            stats[i, -3] = float(
                np.sqrt(max(0.0, acc.total_sq / acc.n_numeric - mean * mean))
            )
    return stats


def numeric_sketches(
    accumulators: Sequence[NumericAccumulator],
    numbers: Sequence[np.ndarray] | None = None,
) -> list[NumericalSketch]:
    """Each column's :class:`NumericalSketch`: the rows of
    :func:`numeric_stats` as sketch objects."""
    return [
        NumericalSketch.from_row(row)
        for row in numeric_stats(accumulators, numbers).tolist()
    ]


def numerical_profiles(
    n_rows: Sequence[int],
    ctypes: Sequence[ColumnType],
    non_nulls: Sequence[list[str]],
    value_hashes: np.ndarray,
    bounds: np.ndarray,
) -> list[tuple[NumericalSketch, NumericAccumulator]]:
    """Sketch *and* accumulator of every column of a batch — the one cold path.

    Column ``i`` has ``n_rows[i]`` rows, is sketched as ``ctypes[i]`` (an
    append freezes a delta column to its stored type this way), holds the
    non-null cells ``non_nulls[i]``, and the raw FNV-1a hash of each of its
    *distinct* non-null cells sits at
    ``value_hashes[bounds[i]:bounds[i + 1]]``. It is
    :func:`numeric_accumulators` followed by :func:`numeric_sketches`.
    """
    accumulators, numbers = numeric_accumulators(
        n_rows, ctypes, non_nulls, value_hashes, bounds
    )
    return list(zip(numeric_sketches(accumulators, numbers), accumulators))


def numerical_profile(
    column: Column, ctype: "ColumnType | None" = None
) -> tuple[NumericalSketch, NumericAccumulator]:
    """Sketch and accumulator of one column: a one-row
    :func:`numerical_profiles` call. ``ctype`` overrides type inference."""
    non_null = column.non_null_values()
    hashes = hash_strings(set(non_null))
    return numerical_profiles(
        [column.n_rows],
        [column.inferred_type if ctype is None else ctype],
        [non_null],
        hashes,
        np.array([0, hashes.size]),
    )[0]


def numerical_sketch(column: Column) -> NumericalSketch:
    """Compute the paper's numerical sketch for one column."""
    return numerical_profile(column)[0]

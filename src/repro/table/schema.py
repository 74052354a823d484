"""Core table data model.

Cells are stored as strings (possibly empty, representing NaN/missing), which
mirrors how CSV files arrive from a data lake; typed views are derived lazily
through :mod:`repro.table.infer`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Sequence


class ColumnType(enum.IntEnum):
    """Column data types, encoded exactly as in the paper (§III-B.4).

    The integer values are used directly as column-type embedding indices:
    string=1, integer=2, float=3, date=4 (0 is reserved for padding /
    table-description positions).
    """

    STRING = 1
    INTEGER = 2
    FLOAT = 3
    DATE = 4

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.DATE)


@dataclass
class Column:
    """A named column of string cells with an inferred type.

    Parameters
    ----------
    name:
        Column header. May be empty for headerless lakes.
    values:
        Cell contents as raw strings; ``""`` encodes a missing value.
    ctype:
        Inferred :class:`ColumnType`. If ``None``, it is inferred on first
        access via :func:`repro.table.infer.infer_column_type`.
    """

    name: str
    values: list[str]
    ctype: ColumnType | None = None

    def __post_init__(self) -> None:
        self.values = [v if isinstance(v, str) else str(v) for v in self.values]

    @property
    def n_rows(self) -> int:
        return len(self.values)

    @property
    def inferred_type(self) -> ColumnType:
        if self.ctype is None:
            from repro.table.infer import infer_column_type

            self.ctype = infer_column_type(self.values)
        return self.ctype

    def non_null_values(self) -> list[str]:
        """Cells that are neither empty nor a conventional NaN marker."""
        return [v for v in self.values if not is_null(v)]

    def distinct_values(self) -> set[str]:
        return set(self.non_null_values())

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)


@dataclass
class Table:
    """A named table: an ordered list of equal-length columns plus metadata.

    ``description`` corresponds to the table metadata string the paper places
    before the first column separator in the model input.
    """

    name: str
    columns: list[Column]
    description: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {c.n_rows for c in self.columns}
        if len(lengths) > 1:
            raise ValueError(
                f"table {self.name!r} has ragged columns: lengths {sorted(lengths)}"
            )

    @property
    def n_rows(self) -> int:
        return self.columns[0].n_rows if self.columns else 0

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def header(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        """Look up a column by name; raises ``KeyError`` if absent."""
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"table {self.name!r} has no column {name!r}")

    def row(self, index: int) -> list[str]:
        return [c.values[index] for c in self.columns]

    def rows(self, limit: int | None = None) -> Iterator[list[str]]:
        stop = self.n_rows if limit is None else min(limit, self.n_rows)
        for i in range(stop):
            yield self.row(i)

    def with_columns(self, columns: Sequence[Column], name: str | None = None) -> "Table":
        """A shallow-copied table with a new column list."""
        return Table(
            name=name if name is not None else self.name,
            columns=list(columns),
            description=self.description,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table(name={self.name!r}, shape={self.shape})"


_NULL_MARKERS = frozenset({"", "nan", "null", "none", "na", "n/a", "-", "?"})


def is_null(cell: str) -> bool:
    """True when a raw cell encodes a missing value."""
    return cell.strip().lower() in _NULL_MARKERS


def table_from_rows(
    name: str,
    header: Sequence[str],
    rows: Sequence[Sequence[str]],
    description: str = "",
) -> Table:
    """Build a :class:`Table` from a header plus row-major data."""
    columns = cells_by_column(rows, len(header))
    return Table(
        name=name,
        columns=[Column(h, vals) for h, vals in zip(header, columns)],
        description=description,
    )


def cells_by_column(rows: Sequence[Sequence[str]], n_cols: int) -> list[list[str]]:
    """Row-major data as ``n_cols`` lists of cells, each cell ``str``-ed;
    raises ``ValueError`` on a row of any other width."""
    columns: list[list[str]] = [[] for _ in range(n_cols)]
    for row in rows:
        if len(row) != n_cols:
            raise ValueError(
                f"row has {len(row)} cells, expected {n_cols}: {row!r}"
            )
        for j, cell in enumerate(row):
            columns[j].append(str(cell))
    return columns

"""Column type inference and value parsing.

Implements the paper's best-effort rule (§III-B.4): *"we made a best-case
effort to parse the first 10 values of each column as dates, integers, or
floats and defaulted to string if we could not convert them"*, and the
date-to-timestamp conversion used by numerical sketches (§III-A).
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from itertools import islice

from repro.table.schema import ColumnType, is_null

#: How many leading values the paper inspects when guessing a column's type.
TYPE_INFERENCE_SAMPLE = 10

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")

_DATE_FORMATS = (
    "%Y-%m-%d",
    "%Y/%m/%d",
    "%d-%m-%Y",
    "%d/%m/%Y",
    "%m/%d/%Y",
    "%Y-%m-%d %H:%M:%S",
    "%d/%m/%y %H:%M:%S",
    "%Y-%m-%dT%H:%M:%S",
    "%d %b %Y",
    "%b %d, %Y",
    "%Y",
)

#: Necessary shape of any cell :data:`_DATE_FORMATS` can parse, so ordinary
#: words, keys and numbers never enter ``strptime`` (which reports a miss by
#: raising, once per format). Deliberately loose — any run of digits for a
#: field, any token for a month name, optional blanks around fields — so it
#: is a superset under every locale; ``strptime`` still decides. The bare
#: ``%Y`` form needs no branch: all-digit cells return before the gate.
_DATE_SHAPE = re.compile(
    r"\s*\d+\s*[-/]\s*\d+\s*[-/]\s*\d+(?:[Tt\s]\s*\d+\s*:\s*\d+\s*:\s*\d+)?$"
    r"|\d+\s+\S+\s+\d+$"  # %d %b %Y
    r"|\S+\s+\d+\s*,\s+\d+$"  # %b %d, %Y
)


def parse_date(cell: str) -> float | None:
    """Parse ``cell`` as a date and return a POSIX timestamp, else ``None``.

    Bare 4-digit years are accepted (Eurostat-style TIME_PERIOD columns) but
    only in a plausible range so integer codes are not mistaken for years.
    """
    text = cell.strip()
    if not text:
        return None
    if _INT_RE.match(text):
        # Interpret as a year only when it plausibly is one.
        year = int(text)
        if 1500 <= year <= 2200 and len(text) == 4:
            return _dt.datetime(year, 1, 1, tzinfo=_dt.timezone.utc).timestamp()
        return None
    if not _DATE_SHAPE.match(text):
        return None
    for fmt in _DATE_FORMATS:
        try:
            parsed = _dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=_dt.timezone.utc).timestamp()
    return None


def to_float(cell: str) -> float | None:
    """Parse ``cell`` as a finite float (int/float syntax only), else ``None``.

    A number beyond float64's range (``"1e400"``) has no finite value and
    is unparseable like any other non-number: as ``inf`` it would turn a
    column's mean, std and percentiles into ``inf``/``nan``.
    """
    text = cell.strip().replace(",", "")
    if not text or not _FLOAT_RE.match(text):
        return None
    try:
        number = float(text)
    except ValueError:  # pragma: no cover - regex should prevent this
        return None
    return number if math.isfinite(number) else None


def infer_column_type(values: list[str]) -> ColumnType:
    """Infer a column's :class:`ColumnType` from its first non-null values.

    The decision order matches the paper: date, then integer, then float,
    defaulting to string. A sample is typed as a class only when *every*
    sampled non-null value parses as that class.
    """
    sample = list(
        islice((v for v in values if not is_null(v)), TYPE_INFERENCE_SAMPLE)
    )
    if not sample:
        return ColumnType.STRING

    if all(_looks_like_date(v) for v in sample):
        return ColumnType.DATE
    if all(_INT_RE.match(v.strip()) for v in sample):
        return ColumnType.INTEGER
    if all(_FLOAT_RE.match(v.strip().replace(",", "")) for v in sample):
        return ColumnType.FLOAT
    return ColumnType.STRING


def _looks_like_date(cell: str) -> bool:
    text = cell.strip()
    if _INT_RE.match(text):
        # Bare integers are never typed as dates at the *column* level: a
        # column of years is more usefully treated as an integer column.
        return False
    return parse_date(text) is not None


def numeric_view(values: list[str], ctype: ColumnType) -> list[float]:
    """Convert cells to floats for numerical sketching.

    Date cells become POSIX timestamps ("when possible, we convert date
    columns to timestamps and treat them as numeric columns", §III-A);
    unparseable cells are dropped. Null markers need no check of their
    own: none of them parses as a date or a number.
    """
    out: list[float] = []
    for cell in values:
        if ctype == ColumnType.DATE:
            stamp = parse_date(cell)
            if stamp is None:
                stamp = to_float(cell)
            if stamp is not None:
                out.append(stamp)
        else:
            number = to_float(cell)
            if number is not None:
                out.append(number)
    return out

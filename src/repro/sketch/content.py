"""Table-level content snapshot (§III-A).

"Recognizing that row information could be crucial in detecting similarity of
tables, we create a sketch from the first 10000 rows. We convert each row into
a string and generate a MinHash signature from the set of rows."
"""

from __future__ import annotations

from typing import Sequence

from repro.sketch.minhash import MinHash, MinHasher
from repro.table.schema import Table

#: Row budget from the paper.
CONTENT_SNAPSHOT_ROWS = 10_000

#: Cell separator used when a row is serialized to a single string. Unit
#: separator (0x1F) cannot appear in CSV cell text, so distinct rows never
#: collide through concatenation artifacts.
_ROW_SEP = "\x1f"


def row_strings(table: Table, limit: int = CONTENT_SNAPSHOT_ROWS) -> list[str]:
    """Serialize the first ``limit`` rows to strings (one string per row)."""
    return joined_rows([c.values for c in table.columns], limit)


def joined_rows(
    columns: Sequence[list[str]], limit: int = CONTENT_SNAPSHOT_ROWS
) -> list[str]:
    """:func:`row_strings` of a table given as its columns' cell lists."""
    return list(map(_ROW_SEP.join, zip(*(values[:limit] for values in columns))))


def content_snapshot(
    table: Table,
    hasher: MinHasher,
    limit: int = CONTENT_SNAPSHOT_ROWS,
) -> MinHash:
    """MinHash signature over the set of serialized rows."""
    return hasher.sketch(row_strings(table, limit=limit))

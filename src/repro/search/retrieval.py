"""The ranking tail every paper searcher shares (Tables V-VIII, Fig. 8).

Each system scores the corpus its own way; these rules turn its scores into
``retrieve(query, k)``'s answer, the ranked table names
:func:`repro.search.metrics.evaluate_search` consumes: the query's own table
left out, each table at most once, at most ``k`` of them. Column rankers
(DeepJoin, WarpGate, LSH-Forest) end in :func:`first_tables`, table scorers
(Starmie, D3L, SANTOS) in :func:`top_scored`, and the column-embedding
systems (SBERT, TaBERT-FT, TabSketchFM) in :func:`rank_names`, the
:meth:`~repro.search.tables.TableSearcher.rank` call the lake serves.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.lakebench.base import SearchQuery
from repro.search.tables import TableSearcher
from repro.table.schema import Column, Table

#: A table's ``(column, vector)`` pairs in column order, the query form.
ColumnPairs = list[tuple[str, np.ndarray]]


def query_column(tables: Mapping[str, Table], query: SearchQuery) -> str:
    """The column ``query`` names, or else its table's first column."""
    return query.column or tables[query.table].columns[0].name


def first_tables(keys: Iterable[tuple[str, str]], query: SearchQuery,
                 k: int) -> list[str]:
    """The first ``k`` distinct tables over ranked ``(table, column)`` keys,
    the query's own table left out. Callers over-fetch columns: several may
    share a table, and the query table's own columns rank near the top."""
    tables = dict.fromkeys(table for table, _ in keys if table != query.table)
    return list(tables)[:k]


def top_scored(scored: Iterable[tuple[str, float]], k: int) -> list[str]:
    """The ``k`` highest-scoring table names; ties keep ``scored``'s order."""
    return [name for name, _ in sorted(scored, key=lambda item: -item[1])[:k]]


def index_columns(
    tables: Mapping[str, Table], dim: int,
    embed: Callable[[Table, Column], np.ndarray],
) -> tuple[TableSearcher, dict[str, ColumnPairs]]:
    """A searcher over ``embed(table, column)`` for every column of every
    table, and each table's pairs, the query :func:`rank_names` takes."""
    searcher = TableSearcher(dim)
    column_pairs: dict[str, ColumnPairs] = {}
    for name, table in tables.items():
        pairs = [(column.name, embed(table, column)) for column in table.columns]
        column_pairs[name] = pairs
        searcher.add_table(name, [c for c, _ in pairs], [v for _, v in pairs])
    return searcher, column_pairs


def rank_names(searcher: TableSearcher, pairs: Sequence[tuple[str, np.ndarray]],
               query: SearchQuery, k: int) -> list[str]:
    """Top-``k`` table names for a member table's ``pairs``: the closest
    column to the named one for a join query, NEARTABLES + RANK1/RANK2 over
    every column otherwise."""
    matches = searcher.rank(
        pairs, k, join=query.column is not None, column=query.column,
        exclude_table=query.table,
    )
    return [match.table for match in matches[:k]]

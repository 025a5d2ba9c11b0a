"""Read-only columnar tables of row records.

A wafer sweep produces one value per site for each of a handful of
fields. Holding each field as one numpy array, rather than one object
per site, keeps a sweep's cost in array arithmetic; callers that want
records still read the table as a sequence of them.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np


class Table(Sequence):
    """Columns of equal length, read as a sequence of `row` records.

    `row` is a NamedTuple or a dataclass; there is one column per
    field, in the field order its annotations give.
    A column is a numpy array of floats, or of objects such as ids. A
    record is built only when it is asked for. The arrays are made
    read-only.
    """

    def __init__(self, row: type, **columns: np.ndarray) -> None:
        names = list(row.__annotations__)
        if list(columns) != names:
            raise TypeError(f"{row.__name__} columns must be {names}, got {list(columns)}")
        lengths = {len(c) for c in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"{row.__name__} columns differ in length: {sorted(lengths)}")
        for c in columns.values():
            c.flags.writeable = False
        self.row = row
        self.columns = columns
        self._length = lengths.pop()

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        return self.row(*(c.item(index) for c in self.columns.values()))

    def __iter__(self):
        return map(self.row, *(c.tolist() for c in self.columns.values()))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.row is other.row and list(self) == list(other)

    def __repr__(self) -> str:
        return f"<Table of {self._length} {self.row.__name__} rows>"

    def take(self, index) -> Table:
        """The rows at `index` (an integer or boolean array), in that
        order, as a new table."""
        return Table(self.row, **{name: c[index] for name, c in self.columns.items()})


def column(rows: Sequence, name: str) -> np.ndarray:
    """Field `name` of every row as an array: a Table's own column,
    otherwise read row by row as floats."""
    if isinstance(rows, Table):
        return rows.columns[name]
    return np.array([getattr(r, name) for r in rows], dtype=float)


def group_codes(keys: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of equal-length key columns 0, 1, ... in
    ascending lexicographic order; values equal under == share a number
    (so do -0.0 and 0.0). Returns each row's number and, per number, the
    index of its first row. One stable sort: each group's rows lie
    together in row order, and a group starts where a key differs."""
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for key in keys:
        ordered = key[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    codes = np.empty(len(order), dtype=np.intp)
    codes[order] = np.cumsum(starts) - 1
    return codes, order[starts]


def group_mean(codes: np.ndarray, values) -> np.ndarray:
    """Mean of `values` per group number in `codes` (see `group_codes`).
    Each group's values are added in row order from 0.0: a sequential
    left-to-right sum, as Python <= 3.11's `sum` adds floats (np.sum is
    pairwise)."""
    return np.bincount(codes, weights=values) / np.bincount(codes)

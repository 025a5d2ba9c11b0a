"""Read-only columnar tables of row records.

A wafer sweep produces one value per site for each of a handful of
fields. Holding each field as one numpy array, rather than one object
per site, keeps a sweep's cost in array arithmetic; callers that want
records still read the table as a sequence of them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import fields
from typing import Any, Union

import numpy as np


class Table(Sequence):
    """Columns of equal length, read as a sequence of `row` records.

    `row` is a dataclass; there is one column per field, in field order.
    A column is a numpy array (floats, or objects such as ids) or a
    nested Table (a field holding records, such as a result's site). A
    record is built only when it is asked for. The arrays are made
    read-only.
    """

    def __init__(self, row: type, **columns: Union[np.ndarray, Table]) -> None:
        names = [f.name for f in fields(row)]
        if list(columns) != names:
            raise TypeError(f"{row.__name__} columns must be {names}, got {list(columns)}")
        lengths = {len(c) for c in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"{row.__name__} columns differ in length: {sorted(lengths)}")
        for c in columns.values():
            if isinstance(c, np.ndarray):
                c.flags.writeable = False
        self.row = row
        self.columns = columns
        self._length = lengths.pop()

    @classmethod
    def from_rows(cls, row: type, rows: Iterable) -> Table:
        """A table of `rows`, records of type `row`: a field holding only
        floats becomes a float column, any other an object column."""
        rows = list(rows)
        columns = {}
        for f in fields(row):
            values = [getattr(r, f.name) for r in rows]
            if all(type(v) is float for v in values):
                columns[f.name] = np.array(values, dtype=float)
            else:
                columns[f.name] = np.empty(len(values), dtype=object)
                columns[f.name][:] = values
        return cls(row, **columns)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._length))]
        return self.row(
            *(c.item(index) if isinstance(c, np.ndarray) else c[index]
              for c in self.columns.values())
        )

    def __iter__(self):
        return map(
            self.row,
            *(c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns.values()),
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.row is other.row and list(self) == list(other)

    def __repr__(self) -> str:
        return f"<Table of {self._length} {self.row.__name__} rows>"

    def take(self, index) -> Table:
        """The rows at `index` (an integer or boolean array), in that
        order, as a new table."""
        return Table(
            self.row,
            **{name: c[index] if isinstance(c, np.ndarray) else c.take(index)
               for name, c in self.columns.items()},
        )


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
    index of its first row."""
    codes = np.zeros(len(keys[0]), dtype=np.intp)
    for key in keys:
        values, inverse = np.unique(key, return_inverse=True)
        _, first, codes = np.unique(
            codes * len(values) + inverse, return_index=True, return_inverse=True
        )
    return codes, first


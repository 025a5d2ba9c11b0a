import csv
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shadowevap import csvio
from shadowevap.config import default_config
from shadowevap.errors import ParseError
from shadowevap.geometry import WaferSite
from shadowevap.table import Table

# Measured per-wafer entries: (wafer_id, area_class um^2, R_N ohm, J_c uA/um^2).
# Wafers 3-5 are the internally consistent set; wafers 1-2 carry R_N rounded
# to two significant figures and serve as data-quality outliers.
WAFER_TABLE = [
    ("w1", 0.025, 20000.0, 0.50),
    ("w1", 0.090, 8000.0, 0.51),
    ("w2", 0.025, 18000.0, 0.46),
    ("w2", 0.090, 5300.0, 0.47),
    ("w3", 0.025, 2600.0, 5.61),
    ("w3", 0.090, 700.0, 5.80),
    ("w4", 0.025, 3200.0, 4.71),
    ("w4", 0.090, 900.0, 4.56),
    ("w5", 0.025, 13000.0, 1.12),
    ("w5", 0.090, 3300.0, 1.15),
]

CONSISTENT_WAFERS = ("w3", "w4", "w5")


@pytest.fixture
def config():
    return default_config()


def run_cli(argv, cwd=None, env=(), script=None, **streams):
    """`python -m shadowevap.cli *argv` (or `python -c script *argv`) as a
    user runs it: the package's source directory on PYTHONPATH and
    PYTHONUNBUFFERED unset, so stdout is block-buffered and stderr
    line-buffered unless `env` (added to the environment) sets it. Its
    stdout and stderr are captured as text unless `streams` gives one."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    environ.update(PYTHONPATH=str(Path(csvio.__file__).parents[1]), **dict(env))
    command = ["-c", script] if script else ["-m", "shadowevap.cli"]
    return subprocess.run(
        [sys.executable, *command, *map(str, argv)], cwd=cwd, env=environ, text=True,
        timeout=120, **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams},
    )


def site_table(points, chip_ids=None):
    """`WaferLayout.sites` at the (x_mm, y_mm) points, built column by
    column: float coordinates, the given chip ids (None if not given) and
    no site ids."""
    x, y = np.array(points, dtype=float).reshape(-1, 2).T
    none = np.full(x.size, None, dtype=object)
    chips = none if chip_ids is None else np.fromiter(chip_ids, object, x.size)
    return Table(WaferSite, x_mm=x, y_mm=y, chip_id=chips, site_id=none)


def oracle_records(path, header, extra=()):
    """(line number, row) of each non-blank csv record of a table file,
    read by a csv.reader loop after a strict header check: `header`,
    optionally followed by `extra`. A record is numbered by the physical
    line it starts on, the header being line 1; one leading byte-order
    mark is not part of the header."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise ParseError(f"{path}: empty file")
            if found not in (header, header + list(extra)):
                raise ParseError(
                    f"{path}: unexpected header {found}; expected {header}"
                    + (f" optionally followed by {list(extra)}" if extra else "")
                )
            records, lineno = [], 2
            for row in reader:
                if row:
                    records.append((lineno, row))
                # The reader has read line_num lines when the next record starts.
                lineno = reader.line_num + 1
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return records


#: Lines a reader's slice holds under `small_slices` when every line is
#: 32 characters long, line end included.
SLICE_ROWS = 8


@pytest.fixture
def small_slices(monkeypatch):
    """The readers parse SLICE_ROWS 32-character lines a slice."""
    monkeypatch.setattr(csvio, "ROWS_PER_CHUNK", SLICE_ROWS)


@pytest.fixture
def csv_slices(monkeypatch):
    """A list that gets, for each slice of a table that csv.reader parses,
    its first line and the lines of its non-blank records, those read on
    past the slice included; none for a header or any other csv read."""
    slices = []
    stream = csvio._csv_rows

    def recorded(records, lines):
        for lineno, row in records:
            if row:
                lines.append(lineno)
            yield lineno, row

    def spy(path, lines, first=2):
        if not isinstance(lines, itertools.chain):
            return stream(path, lines, first)
        slices.append((first, []))
        return recorded(stream(path, lines, first), slices[-1][1])

    monkeypatch.setattr(csvio, "_csv_rows", spy)
    return slices


@pytest.fixture
def loadtxt_rows(monkeypatch):
    """A list that gets the row count of each slice whose numbers
    np.loadtxt parses."""
    rows = []
    loadtxt = np.loadtxt

    def spy(lines, **kwargs):
        if kwargs["dtype"] is float:
            rows.append(len(lines))
        return loadtxt(lines, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return rows


def padded(fields, end="\n", width=32):
    """A CSV line of `fields` ending in `end`, `width` characters long:
    its first field has leading zeros added."""
    text = ",".join(fields)
    return "0" * (width - len(text) - len(end)) + text + end


def quoted(fields):
    """`padded(fields)` with its first field in double quotes, which
    sends its slice to csv.reader."""
    return '"' + padded(fields, width=30).replace(",", '",', 1)


#: What `boundary_text` can make of a line at a slice boundary.
BOUNDARY_KINDS = ["flagged", "blank_end", "blank_start", "crlf", "long", "short"]


def boundary_text(header, rows, kind, at):
    """CSV text of `header` and 32-character lines of the field lists
    `rows`, the lines at the positions in `at` made `kind`: "crlf" ends
    one in CRLF, "long" and "short" give it one field too many or too
    few, and "blank_end" or "blank_start" puts a blank line after or
    before it (one character shorter), so that the blank line ends or
    starts a slice where the row would. A "flagged" line is left as it
    is: its row holds the value its reader flags."""
    make = {
        "crlf": lambda f: padded(f, "\r\n"),
        "long": lambda f: padded(f + ["1"]),
        "short": lambda f: padded(f[:-1]),
        "blank_end": lambda f: padded(f, width=31) + "\n",
        "blank_start": lambda f: "\n" + padded(f, width=31),
    }.get(kind, padded)
    lines = [make(fields) if i in at else padded(fields) for i, fields in enumerate(rows)]
    return ",".join(header) + "\n" + "".join(lines)


def straddling(header, rows, at, newlines):
    """CSV text of `header` and 32-character lines of the field lists
    `rows`, but line `at` is 32 characters up to an opening quote before
    its last field: the field holds `newlines` line ends and closes on
    a line of its own or, if `newlines` is 0, runs to the end of the
    text."""
    lines = [padded(fields) for fields in rows]
    lines[at] = padded(rows[at][:-1] + ['"' + rows[at][-1]])
    if newlines:
        lines[at] += "\n" * (newlines - 1) + '"\n'
    return ",".join(header) + "\n" + "".join(lines)

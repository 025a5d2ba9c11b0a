"""CSV and JSON artifact emission and ingestion.

All tables are plain CSV with units in the column names, decimal points
(never commas) and 12 significant digits so values survive a round trip
to 1e-9 relative. Output is bit-stable for identical input.

Numeric tables are written a column at a time, one `%` pass formatting
every row. Site maps, corrections and measurements are read by one
reader: the file is read once, a well-formed text is parsed by
np.loadtxt a column at a time, and the rows that fail a check (or the
whole text, when np.loadtxt cannot take it) are replayed through one
csv.reader loop and a per-row parser, so a ParseError names file:line
and a skipped measurement row is reported as `line N:`. JSON reports
write each `JsonRecords` (a list of flat records held as columns) with
one `%` template per record.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import EmptyInput, IoError, ParseError, ValidationError, ZeroValidRows
from .stats import MeasurementRecord
from .table import Table, column, group_codes
from .wafer import CorrectionRow, CorrectionTable, SiteResult, site_table, sites_of

PathLike = Union[str, Path]


@dataclass(frozen=True)
class SiteMapRow:
    """One re-imported site-map row (angles back in radians)."""

    x_mm: float
    y_mm: float
    theta_bottom_rad: float
    theta_top_rad: float
    t_prime_nm: float
    w_bottom_nm: float
    w_top_nm: float
    area_um2: float
    bias_bottom_nm: float
    bias_top_nm: float


#: The columns of a site map: the fields of SiteMapRow, angles in degrees.
SITE_MAP_HEADER = [f.name.replace("_rad", "_deg") for f in fields(SiteMapRow)]

#: The columns of a correction table: the site's offsets, then the
#: other fields of CorrectionRow.
CORRECTIONS_HEADER = ["x_mm", "y_mm", *(f.name for f in fields(CorrectionRow)[1:])]

#: The columns of a measurement file: the fields of MeasurementRecord.
#: The last, a reported critical-current density needed only for gap
#: fitting, is optional.
*MEASUREMENT_HEADER, MEASUREMENT_JC_COLUMN = [f.name for f in fields(MeasurementRecord)]


def fmt(value: float) -> str:
    """12 significant digits, plain decimal point."""
    return format(value, ".12g")


def write_columns(path: PathLike, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns as CSV rows, every value as
    `fmt` formats it (`'%.12g' % v` equals `format(v, '.12g')`)."""
    line = ",".join(["%.12g"] * len(header)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(map(line.__mod__, rows))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def export_site_map(results: Sequence[SiteResult], path: PathLike) -> None:
    """Write a simulated site map; refuses to create a file for an
    empty result list."""
    if not results:
        raise EmptyInput("no site results to export")
    sites = sites_of(results)
    write_columns(
        path,
        SITE_MAP_HEADER,
        [
            column(sites, "x_mm"),
            column(sites, "y_mm"),
            np.degrees(column(results, "theta_bottom_rad")),
            np.degrees(column(results, "theta_top_rad")),
            *(column(results, name) for name in SITE_MAP_HEADER[4:]),
        ],
    )


def import_site_map(path: PathLike) -> Table:
    """Read back an exported site map as a Table of SiteMapRow."""
    (x, y, theta_b, theta_t, *rest), _ = _read_numbers(path, SITE_MAP_HEADER)
    return Table(
        SiteMapRow,
        x_mm=x,
        y_mm=y,
        theta_bottom_rad=np.radians(theta_b),
        theta_top_rad=np.radians(theta_t),
        **dict(zip(SITE_MAP_HEADER[4:], rest)),
    )


def export_corrections(table: CorrectionTable, path: PathLike) -> None:
    if not table.rows:
        raise EmptyInput("no correction rows to export")
    sites = sites_of(table.rows)
    write_columns(
        path,
        CORRECTIONS_HEADER,
        [
            column(sites, "x_mm"),
            column(sites, "y_mm"),
            *(column(table.rows, name) for name in CORRECTIONS_HEADER[2:]),
        ],
    )


def import_corrections(path: PathLike) -> Table:
    """Read a correction table as a Table of CorrectionRow. Two rows for
    one site are rejected: each site takes one correction."""
    (x, y, *rest), lines = _read_numbers(path, CORRECTIONS_HEADER)
    code, first = group_codes([x, y])
    repeats = np.flatnonzero(first[code] != np.arange(len(code)))
    if len(repeats):
        i = repeats[0]
        j = first[code[i]]
        raise ParseError(
            f"{path}:{lines[i]}: duplicate site ({x[j]}, {y[j]}) mm, "
            f"first given at line {lines[j]}"
        )
    return Table(CorrectionRow, site=site_table(x, y), **dict(zip(CORRECTIONS_HEADER[2:], rest)))


def _read_numbers(path: PathLike, header: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The data rows of a numeric table as columns, a (len(header), n)
    float array, and their line numbers. Every value must be finite, and
    there must be at least one row; a ParseError names file:line."""

    def parse_row(row: list[str]) -> tuple[list[float], tuple]:
        if len(row) != len(header):
            raise ValueError(f"expected {len(header)} columns, got {len(row)}")
        values = [float(v) for v in row]
        for name, v in zip(header, values):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        return values, ()

    numbers, _, lines = _read_table(
        path, header, parse_row, lambda v: np.isfinite(v).all(axis=1), "no data rows"
    )
    return np.ascontiguousarray(numbers.T), lines


def _not_utf8(path: PathLike, exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"{path}: not UTF-8 text ({exc.reason})")


def read_header(path: PathLike) -> list[str]:
    """The header row of a CSV file ([] for an empty file)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return next(csv.reader(fh), [])
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _read_table(
    path: PathLike,
    header: list[str],
    parse_row: Callable[[list[str]], tuple[Sequence, Sequence]],
    valid: Callable[[np.ndarray], np.ndarray],
    no_rows: str,
    diagnostics: Optional[list[str]] = None,
    label_columns: Sequence[int] = (),
    allow_extra: Sequence[str] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(numbers, labels, line numbers) of the valid rows of a CSV table:
    an (n, k) float array of the columns not in `label_columns`, and an
    array of those. ZeroValidRows says `no_rows` if there are none.

    If the text has no quote, lone carriage return or NUL, and its
    non-blank lines have one column count the header allows, np.loadtxt
    reads it (taking no token that float() rejects, and giving the same
    value) and the rows `valid` rejects are replayed; otherwise every csv
    record is. `parse_row` gives a replayed row's (numbers, labels) or raises
    ValueError, which becomes a `line N: ...` diagnostic or, without a
    diagnostics list, a ParseError naming file:line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            found = next(csv.reader(fh), None)
            if found is None:
                raise ParseError(f"{path}: empty file")
            if found != header and found != header + list(allow_extra):
                raise ParseError(
                    f"{path}: unexpected header {found}; expected {header}"
                    + (f" optionally followed by {list(allow_extra)}" if allow_extra else "")
                )
            body = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    # A search for "\r" is quicker than replace() finding nothing to do.
    text = body.replace("\r\n", "\n") if "\r" in body else body
    # Without quotes or lone CRs each line is one csv record, and without
    # NULs a numpy str array keeps every label whole.
    lines = [] if '"' in text or "\r" in text or "\0" in text else text.split("\n")
    nonblank = list(map(bool, lines))
    rows = list(itertools.compress(lines, nonblank))
    options = dict(delimiter=",", comments=None, ndmin=2)
    try:
        if not rows:
            raise ValueError("no rows")
        numeric = None
        if label_columns:
            # Given usecols, np.loadtxt takes rows of differing lengths.
            commas, *others = set(map(str.count, rows, itertools.repeat(",")))
            if others:
                raise ValueError("rows differ in length")
            numeric = [i for i in range(commas + 1) if i not in label_columns]
        numbers = np.loadtxt(rows, dtype=float, usecols=numeric, **options)
        if numbers.shape[1] + len(label_columns) not in {len(header), len(header) + len(allow_extra)}:
            raise ValueError("unexpected column count")
        labels = numbers[:, :0]
        if label_columns:
            labels = np.loadtxt(rows, dtype=str, usecols=label_columns, **options)
    except ValueError:
        numbers = None
        replay = enumerate(csv.reader(io.StringIO(body, newline="")), start=2)
    else:
        linenos = np.flatnonzero(nonblank) + 2
        ok = valid(numbers)
        flagged = np.flatnonzero(~ok).tolist()
        replay = zip(linenos[flagged].tolist(), csv.reader([rows[i] for i in flagged]))
    kept = []
    for lineno, row in replay:
        if not row:
            continue
        try:
            kept.append((lineno, *parse_row(row)))
        except ValueError as exc:
            if diagnostics is None:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            diagnostics.append(f"line {lineno}: {exc}")
    if numbers is None:
        linenos, numbers, labels = zip(*kept) if kept else ((), (), ())
        numbers, labels = np.array(numbers, dtype=float), np.array(labels, dtype=object)
        linenos = np.array(linenos)
    elif not ok.all():
        numbers, labels, linenos = numbers[ok], labels[ok], linenos[ok]
    if not len(linenos):
        raise ZeroValidRows(f"{path}: {no_rows}")
    return numbers, labels, linenos


def import_measurements(path: PathLike) -> tuple[Table, list[str]]:
    """Parse a measurement CSV into a Table of MeasurementRecord plus
    per-row diagnostics.

    Invalid rows are skipped and reported with their line numbers, never
    silently dropped; a file with zero valid rows raises ZeroValidRows.
    """
    diagnostics: list[str] = []
    numbers, labels, _ = _read_table(
        path,
        MEASUREMENT_HEADER,
        _measurement_row,
        # The checks of MeasurementRecord.__post_init__, as masks.
        lambda v: np.isfinite(v).all(axis=1) & (v[:, 3] > 0) & (v[:, 2] > 0),
        "no valid measurement rows",
        diagnostics,
        label_columns=(0, 1, 5),
        allow_extra=[MEASUREMENT_JC_COLUMN],
    )
    x, y, area, rn, *jc = numbers.T
    # NaN marks a row without jc_ua_um2, since a given one is finite.
    jc = jc[0] if jc else np.full(len(rn), math.nan)
    missing = np.isnan(jc)
    table = Table(
        MeasurementRecord,
        wafer_id=labels[:, 0],
        chip_id=labels[:, 1],
        x_mm=x,
        y_mm=y,
        area_class_um2=area,
        run_id=labels[:, 2],
        rn_ohm=rn,
        jc_ua_um2=np.where(missing, None, jc) if missing.any() else jc,
    )
    return table, diagnostics


def _measurement_row(row: list[str]) -> tuple[tuple, tuple]:
    """The (numbers, labels) of a measurement row, with jc_ua_um2 NaN if
    it is not given; raises ValueError saying what is wrong with it."""
    if len(row) not in (7, 8):
        raise ValidationError(f"expected 7 or 8 columns, got {len(row)}")
    jc = float(row[7]) if len(row) == 8 and row[7].strip() != "" else None
    r = MeasurementRecord(row[0], row[1], *map(float, row[2:5]), row[5], float(row[6]), jc)
    numbers = (r.x_mm, r.y_mm, r.area_class_um2, r.rn_ohm, math.nan if jc is None else jc)
    return numbers, (r.wafer_id, r.chip_id, r.run_id)


def export_measurements(records: Sequence[MeasurementRecord], path: PathLike) -> None:
    if not records:
        raise EmptyInput("no measurement records to export")
    with_jc = any(r.jc_ua_um2 is not None for r in records)
    header = MEASUREMENT_HEADER + ([MEASUREMENT_JC_COLUMN] if with_jc else [])
    # Ids are written as they are, numbers as `fmt` writes them, and a
    # missing jc_ua_um2 as an empty field.
    rows = [
        [v if isinstance(v, str) else "" if v is None else fmt(v)
         for v in (getattr(r, name) for name in header)]
        for r in records
    ]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            # csv quotes an id that holds a comma, quote or newline.
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


class JsonRecords:
    """A JSON list of flat records held as equal-length columns: record
    i maps each key to the i-th value of that key's column (a list or
    numpy array). `write_json_report` writes it as json.dump writes the
    list of dicts."""

    def __init__(self, **columns: Union[list, np.ndarray]) -> None:
        self.columns = columns


def write_json_report(report: dict, path: PathLike) -> None:
    """Deterministic JSON: sorted keys, two-space indent, newline EOF.

    The bytes are those of json.dump(report, indent=2, sort_keys=True)
    plus the newline, with each JsonRecords written as its list of
    dicts. Such columns are written with one `%` template per record;
    the rest goes through the json encoder.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_json_chunks(report, 0))
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


_encode_json = json.JSONEncoder(indent=2, sort_keys=True).encode
_RECORDS_PER_CHUNK = 4096


def _json_chunks(obj, level: int) -> Iterator[str]:
    """The text json.dumps(obj, indent=2, sort_keys=True) gives `obj`
    nested `level` containers deep, in pieces."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, JsonRecords):
        yield from _record_chunks(obj.columns, level)
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + inner + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(obj[key], level + 1)
        yield "\n" + "  " * level + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            yield ("," if i else "[") + inner
            yield from _json_chunks(item, level + 1)
        yield "\n" + "  " * level + "]"
    else:
        # JSON strings hold no raw newline, so this only indents.
        yield _encode_json(obj).replace("\n", "\n" + "  " * level)


def _record_chunks(columns: dict, level: int) -> Iterator[str]:
    """Records given as columns, written as `_json_chunks` writes their
    list of dicts: one `%` template per record. Columns of finite floats
    or of ints are formatted by the template (`%r` is float.__repr__,
    as json uses); any other column is encoded value by value first."""
    slots, values = [], []
    for key in sorted(columns):
        col = columns[key]
        col = col.tolist() if isinstance(col, np.ndarray) else col
        types = set(map(type, col))
        if types == {float} and np.isfinite(col).all():
            slot = "%r"
        elif types == {int}:
            slot = "%d"
        elif types == {str}:
            slot, col = "%s", list(map(encode_basestring_ascii, col))
        else:
            slot, col = "%s", ["".join(_json_chunks(v, level + 2)) for v in col]
        name = encode_basestring_ascii(key).replace("%", "%%")
        slots.append("  " * (level + 2) + name + ": " + slot)
        values.append(col)
    rows = list(zip(*values))
    if not rows:
        yield "[]"
        return
    inner = "\n" + "  " * (level + 1)
    record = "{\n" + ",\n".join(slots) + inner + "}"
    yield "[" + inner + record % rows[0]
    following = ("," + inner + record).__mod__
    for start in range(1, len(rows), _RECORDS_PER_CHUNK):
        yield "".join(map(following, rows[start:start + _RECORDS_PER_CHUNK]))
    yield "\n" + "  " * level + "]"

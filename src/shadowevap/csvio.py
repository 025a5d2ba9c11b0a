"""CSV and JSON artifact emission and ingestion.

All tables are plain CSV with units in the column names, decimal points
(never commas) and 12 significant digits so values survive a round trip
to 1e-9 relative. Output is bit-stable for identical input.

Numeric tables (site maps, corrections) are written and read a column
at a time: one `%` pass formats every row, and one `np.loadtxt` pass
parses a well-formed file. Anything that pass rejects is re-read line
by line, so a ParseError always names file:line. Measurement files are
also read a column at a time, with the same line-by-line fallback; rows
that fail a record check are replayed one at a time for their `line N:`
diagnostics. JSON reports write each `JsonRecords` (a list of flat
records held as columns) with one `%` template per record.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import EmptyInput, IoError, ParseError, ValidationError, ZeroValidRows
from .stats import MeasurementRecord
from .table import Table, column
from .wafer import CorrectionRow, CorrectionTable, SiteResult, row_major_order, site_table, sites_of

PathLike = Union[str, Path]

SITE_MAP_HEADER = [
    "x_mm",
    "y_mm",
    "theta_bottom_deg",
    "theta_top_deg",
    "t_prime_nm",
    "w_bottom_nm",
    "w_top_nm",
    "area_um2",
    "bias_bottom_nm",
    "bias_top_nm",
]

CORRECTIONS_HEADER = [
    "x_mm",
    "y_mm",
    "drawn_w_bottom_nm",
    "drawn_w_top_nm",
    "predicted_area_um2",
    "residual_area_rel",
]

MEASUREMENT_HEADER = [
    "wafer_id",
    "chip_id",
    "x_mm",
    "y_mm",
    "area_class_um2",
    "run_id",
    "rn_ohm",
]
#: Optional trailing column carrying a reported critical-current density,
#: needed only for gap fitting.
MEASUREMENT_JC_COLUMN = "jc_ua_um2"


def fmt(value: float) -> str:
    """12 significant digits, plain decimal point."""
    return format(value, ".12g")


def write_rows(path: PathLike, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


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


def import_site_map(path: PathLike) -> Table:
    """Read back an exported site map as a Table of SiteMapRow."""
    x, y, theta_b, theta_t, *rest = _read_numbers(path, SITE_MAP_HEADER)
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
    x, y, *rest = _read_numbers(path, CORRECTIONS_HEADER)
    sites = site_table(x, y)
    order = row_major_order(sites)
    same = (np.diff(x[order]) == 0.0) & (np.diff(y[order]) == 0.0)
    if same.any():
        # The sort is stable, so the earliest repeat follows its site's
        # first row in `order`.
        k = np.flatnonzero(same)
        k = k[np.argmin(order[k + 1])]
        lines = [lineno for lineno, _ in _read_csv(path, CORRECTIONS_HEADER)]
        raise ParseError(
            f"{path}:{lines[order[k + 1]]}: duplicate site ({x[order[k]]}, "
            f"{y[order[k]]}) mm, first given at line {lines[order[k]]}"
        )
    return Table(CorrectionRow, site=sites, **dict(zip(CORRECTIONS_HEADER[2:], rest)))


def _read_numbers(path: PathLike, header: Sequence[str]) -> np.ndarray:
    """The data rows of a numeric table as columns, a (len(header), n)
    float array, after the strict header check. Every value must be
    finite, and there must be at least one row."""
    values = _loadtxt(path, header)
    if values is None:
        values = _parse_lines(path, header)
    return np.ascontiguousarray(values.T)


def _loadtxt(path: PathLike, header: Sequence[str]) -> Optional[np.ndarray]:
    """One np.loadtxt pass over a well-formed table, or None for any
    file it does not fit, which `_parse_lines` then reads (np.loadtxt
    accepts no token that float() rejects, and parses the same value)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if next(csv.reader([fh.readline()]), None) != list(header):
                return None
            first = next((line for line in fh if line.strip("\r\n")), None)
            if first is None:
                return None
            values = np.loadtxt(
                itertools.chain([first], fh), delimiter=",", comments=None,
                ndmin=2, dtype=float,
            )
    except (OSError, ValueError):
        return None
    if values.shape[1] != len(header) or not np.isfinite(values).all():
        return None
    return values


def _parse_lines(path: PathLike, header: Sequence[str]) -> np.ndarray:
    """Parse a numeric table line by line; a ParseError names file:line."""
    rows = []
    for lineno, rec in _read_csv(path, header):
        if len(rec) != len(header):
            raise ParseError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(rec)}"
            )
        try:
            vals = [float(v) for v in rec]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        for name, v in zip(header, vals):
            if not math.isfinite(v):
                raise ParseError(f"{path}:{lineno}: {name} must be finite, got {v}")
        rows.append(vals)
    if not rows:
        raise ZeroValidRows(f"{path}: no data rows")
    return np.array(rows, dtype=float)


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


def _read_csv(
    path: PathLike, expected_header: Sequence[str], allow_extra: Sequence[str] = ()
) -> list[tuple[int, list[str]]]:
    """Rows with line numbers after a strict header check."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            base = list(expected_header)
            if header != base and header != base + list(allow_extra):
                raise ParseError(
                    f"{path}: unexpected header {header}; expected {base}"
                    + (f" optionally followed by {list(allow_extra)}" if allow_extra else "")
                )
            return [(i, row) for i, row in enumerate(reader, start=2) if row]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def import_measurements(path: PathLike) -> tuple[Table, list[str]]:
    """Parse a measurement CSV into a Table of MeasurementRecord plus
    per-row diagnostics.

    Invalid rows are skipped and reported with their line numbers, never
    silently dropped; a file with zero valid rows raises ZeroValidRows.
    """
    parsed = _measurement_columns(path)
    if parsed is None:
        records, diagnostics = [], []
        for lineno, row in _read_csv(
            path, MEASUREMENT_HEADER, allow_extra=[MEASUREMENT_JC_COLUMN]
        ):
            try:
                records.append(_measurement_record(row))
            except (ValueError, ValidationError) as exc:
                diagnostics.append(f"line {lineno}: {exc}")
        table = Table.from_rows(MeasurementRecord, records)
    else:
        table, diagnostics = parsed
    if not table:
        raise ZeroValidRows(f"{path}: no valid measurement rows")
    return table, diagnostics


def _measurement_record(row: list[str]) -> MeasurementRecord:
    """One measurement row as a record; raises ValueError or
    ValidationError saying what is wrong with it."""
    if len(row) not in (7, 8):
        raise ValidationError(f"expected 7 or 8 columns, got {len(row)}")
    jc: Optional[float] = None
    if len(row) == 8 and row[7].strip() != "":
        jc = float(row[7])
    return MeasurementRecord(
        wafer_id=row[0],
        chip_id=row[1],
        x_mm=float(row[2]),
        y_mm=float(row[3]),
        area_class_um2=float(row[4]),
        run_id=row[5],
        rn_ohm=float(row[6]),
        jc_ua_um2=jc,
    )


def _measurement_columns(path: PathLike) -> Optional[tuple[Table, list[str]]]:
    """Records and diagnostics of a measurement file read a column at a
    time, or None for any file this pass does not fit, which the csv
    reader then reads line by line: quotes, a lone carriage return or
    NUL, a header of its own, rows of differing or unexpected column
    counts, a blank jc_ua_um2 or a token np.loadtxt rejects. Rows that
    fail a MeasurementRecord check are replayed through
    `_measurement_record`, in line order, for their diagnostics."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read().replace("\r\n", "\n")
    except (OSError, UnicodeDecodeError):
        return None
    if '"' in text or "\r" in text or "\0" in text:
        return None
    header, *lines = text.split("\n")
    if header.split(",") not in (
        MEASUREMENT_HEADER, MEASUREMENT_HEADER + [MEASUREMENT_JC_COLUMN]
    ):
        return None
    # Without quotes each line is one csv row, and a blank one is skipped.
    nonblank = list(map(bool, lines))
    rows = list(itertools.compress(lines, nonblank))
    commas = set(map(str.count, rows, itertools.repeat(",")))
    if len(commas) != 1 or not commas <= {6, 7}:
        return None
    n_numbers = commas.pop() - 2  # x, y, area, rn_ohm [, jc]
    try:
        numbers = np.loadtxt(
            rows, delimiter=",", comments=None, ndmin=2, dtype=float,
            usecols=(2, 3, 4, 6, 7)[:n_numbers],
        )
        labels = np.loadtxt(
            rows, delimiter=",", comments=None, ndmin=2, dtype=str, usecols=(0, 1, 5)
        )
    except ValueError:
        return None
    x, y, area, rn = numbers.T[:4]
    # The checks of MeasurementRecord.__post_init__, as masks.
    bad = ~(np.isfinite(numbers).all(axis=1) & (rn > 0) & (area > 0))
    linenos = (np.flatnonzero(nonblank) + 2).tolist()
    diagnostics = []
    for i in np.flatnonzero(bad).tolist():
        try:
            _measurement_record(rows[i].split(","))
        except (ValueError, ValidationError) as exc:
            diagnostics.append(f"line {linenos[i]}: {exc}")
    ok = ~bad
    table = Table(
        MeasurementRecord,
        wafer_id=labels[ok, 0],
        chip_id=labels[ok, 1],
        x_mm=x[ok],
        y_mm=y[ok],
        area_class_um2=area[ok],
        run_id=labels[ok, 2],
        rn_ohm=rn[ok],
        jc_ua_um2=(
            numbers[ok, 4] if n_numbers == 5
            else np.full(np.count_nonzero(ok), None, dtype=object)
        ),
    )
    return table, diagnostics


def export_measurements(records: Sequence[MeasurementRecord], path: PathLike) -> None:
    if not records:
        raise EmptyInput("no measurement records to export")
    with_jc = any(r.jc_ua_um2 is not None for r in records)
    header = MEASUREMENT_HEADER + ([MEASUREMENT_JC_COLUMN] if with_jc else [])
    rows = []
    for r in records:
        row = [
            r.wafer_id,
            r.chip_id,
            fmt(r.x_mm),
            fmt(r.y_mm),
            fmt(r.area_class_um2),
            r.run_id,
            fmt(r.rn_ohm),
        ]
        if with_jc:
            row.append("" if r.jc_ua_um2 is None else fmt(r.jc_ua_um2))
        rows.append(row)
    write_rows(path, header, rows)


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

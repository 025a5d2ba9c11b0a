"""CSV and JSON artifact emission and ingestion.

All tables are plain CSV with units in the column names, decimal points
(never commas) and 12 significant digits so values survive a round trip
to 1e-9 relative. Output is bit-stable for identical input.

The numeric-table and JSON writers (and the SVG heatmap) format and
write ROWS_PER_CHUNK rows at a time, a numeric table a column at a
time with each distinct value of a chunk formatted once. All three
hand their chunks to `write_text` as a `RowChunks`. Given two or more
chunks, two or more usable CPUs (os.sched_getaffinity) and os.fork,
it forks a child that formats the back half of the chunks into an
unlinked file in tempfile.gettempdir() while this process formats the
front half, then reaps the child and copies its bytes in, or formats
that half itself if the child failed. The child only formats (no BLAS
call) and leaves by os._exit, flushing none of the parent's files.
Otherwise the chunks are formatted here in order: the same bytes.

Site maps, corrections and measurements are read by one reader: the
file is read once, a well-formed text is parsed by np.loadtxt a column
at a time, and the rows that fail a check (or the whole text, when
np.loadtxt cannot take it) are replayed through one csv.reader loop
and a per-row parser, so a ParseError names file:line and a skipped
measurement row is reported as `line N:`. JSON reports write each
`JsonRecords` (a list of flat records held as columns) with one `%`
template per record.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import shutil
import signal
import tempfile
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import EmptyInput, IoError, ParseError, ValidationError, ZeroValidRows
from .stats import MeasurementRecord
from .table import Table, column, group_codes
from .wafer import CorrectionRow, CorrectionTable, SiteResult

PathLike = Union[str, Path]

_SITE_FIELDS = [f.name for f in fields(SiteResult)]

#: The columns of a site map: the fields of SiteResult, angles in degrees.
SITE_MAP_HEADER = [name.replace("_rad", "_deg") for name in _SITE_FIELDS]

#: The columns of a correction table: the fields of CorrectionRow.
CORRECTIONS_HEADER = [f.name for f in fields(CorrectionRow)]

#: The columns of a measurement file: the fields of MeasurementRecord.
#: The last, a reported critical-current density needed only for gap
#: fitting, is optional.
*MEASUREMENT_HEADER, MEASUREMENT_JC_COLUMN = [f.name for f in fields(MeasurementRecord)]


def fmt(value: float) -> str:
    """12 significant digits, plain decimal point."""
    return format(value, ".12g")


#: Rows the CSV, JSON and SVG writers format and write at a time, so a
#: writer holds the text of one chunk, never that of the whole file.
ROWS_PER_CHUNK = 4096


class RowChunks(NamedTuple):
    """The text of `rows` rows, ROWS_PER_CHUNK at a time: `chunk(k)` is
    that of rows k * ROWS_PER_CHUNK up to (k + 1) * ROWS_PER_CHUNK."""

    rows: int
    chunk: Callable[[int], str]


def _formatted(values: np.ndarray, template: str) -> list[str]:
    """`template % v` for each float of `values`, formatting each
    distinct value once. Values are told apart by their bits, since
    np.unique on the floats would merge -0.0 into 0.0."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([template % v for v in bits.view(float).tolist()], dtype=object)
    return texts[inverse].tolist()


def write_columns(path: PathLike, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length numeric columns as CSV rows, every value as
    `fmt` formats it (`'%.12g' % v` equals `format(v, '.12g')`),
    ROWS_PER_CHUNK rows at a time."""
    *head, last = [np.asarray(c, dtype=float) for c in columns]

    def chunk(k: int) -> str:
        rows = slice(k * ROWS_PER_CHUNK, (k + 1) * ROWS_PER_CHUNK)
        cells = [_formatted(c[rows], "%.12g") for c in head]
        return "".join(map(",".join, zip(*cells, _formatted(last[rows], "%.12g\n"))))

    write_text(path, [",".join(header) + "\n", RowChunks(len(last), chunk)], newline="")


def write_text(
    path: PathLike, pieces: Iterable[Union[str, RowChunks]], newline: Optional[str] = None
) -> None:
    """Write the strings and RowChunks of `pieces` to a UTF-8 file as
    they come, the back half of a RowChunks' chunks formatted by a
    forked child where that is possible (see the module docstring); an
    OSError becomes IoError."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            for piece in pieces:
                if isinstance(piece, str):
                    fh.write(piece)
                else:
                    _write_chunks(fh, piece)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_chunks(fh: IO[str], chunks: RowChunks) -> None:
    """Write every chunk to `fh` in order, the back half formatted by a
    forked child where one can be made."""
    count, chunk = -(-chunks.rows // ROWS_PER_CHUNK), chunks.chunk
    split = count // 2
    child = _fork_writer(chunk, range(split, count)) if split else None
    if child is None:
        fh.writelines(map(chunk, range(count)))
        return
    pid, tmp = child
    with tmp:
        try:
            fh.writelines(map(chunk, range(split)))
            status = os.waitpid(pid, 0)[1]
            pid = None
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) == 0:
            fh.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh.buffer, 1 << 20)
        else:
            fh.writelines(map(chunk, range(split, count)))


def _fork_writer(chunk: Callable[[int], str], ks: range) -> Optional[tuple[int, IO[bytes]]]:
    """(pid, file) of a child process that writes chunk(k) for each k
    of `ks`, UTF-8 encoded, to that unlinked temporary file and exits 0;
    None if this process has fewer than two CPUs, or no file or child
    can be made."""
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    if len(usable) < 2 or not hasattr(os, "fork"):
        return None
    try:
        tmp = tempfile.TemporaryFile()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        tmp.close()
        return None
    if pid:
        return pid, tmp
    code = 1
    try:
        with open(tmp.fileno(), "wb", closefd=False) as out:
            for k in ks:
                out.write(chunk(k).encode("utf-8"))
        code = 0
    finally:
        # Neither exit handlers nor the parent's buffers run here.
        os._exit(code)


def export_site_map(results: Sequence[SiteResult], path: PathLike) -> None:
    """Write a simulated site map; refuses to create a file for an
    empty result list."""
    if not results:
        raise EmptyInput("no site results to export")
    write_columns(
        path,
        SITE_MAP_HEADER,
        [
            np.degrees(column(results, name)) if name.endswith("_rad") else column(results, name)
            for name in _SITE_FIELDS
        ],
    )


def import_site_map(path: PathLike) -> Table:
    """Read back an exported site map as a Table of SiteResult, angles
    back in radians."""
    columns, _ = _read_numbers(path, SITE_MAP_HEADER)
    return Table(
        SiteResult,
        **{name: np.radians(c) if name.endswith("_rad") else c
           for name, c in zip(_SITE_FIELDS, columns)},
    )


def export_corrections(table: CorrectionTable, path: PathLike) -> None:
    if not table.rows:
        raise EmptyInput("no correction rows to export")
    write_columns(
        path, CORRECTIONS_HEADER, [column(table.rows, name) for name in CORRECTIONS_HEADER]
    )


def import_corrections(path: PathLike) -> Table:
    """Read a correction table as a Table of CorrectionRow. Two rows for
    one site are rejected: each site takes one correction."""
    columns, lines = _read_numbers(path, CORRECTIONS_HEADER)
    x, y = columns[:2]
    code, first = group_codes([x, y])
    repeats = np.flatnonzero(first[code] != np.arange(len(code)))
    if len(repeats):
        i = repeats[0]
        j = first[code[i]]
        raise ParseError(
            f"{path}:{lines[i]}: duplicate site ({x[j]}, {y[j]}) mm, "
            f"first given at line {lines[j]}"
        )
    return Table(CorrectionRow, **dict(zip(CORRECTIONS_HEADER, columns)))


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


def _csv_rows(
    path: PathLike, lines: Iterable[str], linenos: Iterable[int]
) -> Iterator[tuple[int, list[str]]]:
    """(line number, csv row) of each record of `lines`, numbered by
    `linenos`; a csv.Error (such as an over-long field) becomes a
    ParseError naming file:line."""
    reader = csv.reader(lines)
    for lineno in linenos:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        yield lineno, row


def read_header(path: PathLike) -> list[str]:
    """The header row of a CSV file ([] for an empty file)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return next(_csv_rows(path, fh, [1]), (1, []))[1]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


#: Largest str array of labels, in bytes per character of the text, that
#: np.loadtxt may build. Such an array holds every label at the longest
#: one's width, 4 bytes a character, so one long label among many short
#: ones would take far more memory than the text: that text goes to the
#: csv.reader path.
MAX_LABEL_BYTES_PER_CHAR = 64


def _read_table(
    path: PathLike,
    header: list[str],
    parse_row: Callable[[list[str]], tuple[Sequence, Sequence]],
    valid: Callable[[np.ndarray], np.ndarray],
    no_rows: str,
    diagnostics: Optional[list[str]] = None,
    label_columns: Sequence[int] = (),
    allow_extra: Sequence[str] = (),
    read_labels: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(numbers, labels, line numbers) of the valid rows of a CSV table:
    an (n, k) float array of the columns not in `label_columns`, and an
    array of those. ZeroValidRows says `no_rows` if there are none.
    Without `read_labels`, np.loadtxt parses no label, and labels are
    given only for replayed rows; the same rows are kept either way.

    If the text has no quote, lone carriage return or NUL, its non-blank
    lines have one column count the header allows and a str array of its
    labels fits in MAX_LABEL_BYTES_PER_CHAR bytes a character of it,
    np.loadtxt reads it (taking no token that float() rejects, and giving
    the same value) and the rows `valid` rejects are replayed; otherwise every csv
    record is. `parse_row` gives a replayed row's (numbers, labels) or raises
    ValueError, which becomes a `line N: ...` diagnostic or, without a
    diagnostics list, a ParseError naming file:line.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            _, found = next(_csv_rows(path, fh, [1]), (1, None))
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
            size = len(rows) * max(map(len, rows)) * 4 * len(label_columns)
            if size > MAX_LABEL_BYTES_PER_CHAR * len(text):
                raise ValueError("labels too uneven in length for a str array")
            if read_labels:
                labels = np.loadtxt(rows, dtype=str, usecols=label_columns, **options)
    except ValueError:
        numbers = None
        replay = _csv_rows(path, io.StringIO(body, newline=""), itertools.count(2))
    else:
        linenos = np.flatnonzero(nonblank) + 2
        ok = valid(numbers)
        flagged = np.flatnonzero(~ok).tolist()
        replay = _csv_rows(path, [rows[i] for i in flagged], linenos[flagged].tolist())
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


def import_measurements(path: PathLike, ids: bool = True) -> tuple[Table, list[str]]:
    """Parse a measurement CSV into a Table of MeasurementRecord plus
    per-row diagnostics.

    Invalid rows are skipped and reported with their line numbers, never
    silently dropped; a file with zero valid rows raises ZeroValidRows.
    Without `ids` the wafer, chip and run ids are not parsed (no check
    reads them) and their columns hold None.
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
        read_labels=ids,
    )
    if not ids:
        labels = np.full((len(numbers), 3), None, dtype=object)
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
        lengths = {len(c) for c in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"JsonRecords columns differ in length: {sorted(lengths)}")
        self.columns = columns
        self.rows = lengths.pop() if lengths else 0


def write_json_report(report: dict, path: PathLike) -> None:
    """Deterministic JSON: sorted keys, two-space indent, newline EOF.

    The bytes are those of json.dump(report, indent=2, sort_keys=True)
    plus the newline, with each JsonRecords written as its list of
    dicts. Such columns are written with one `%` template per record;
    the rest goes through the json encoder.
    """
    write_text(path, itertools.chain(_json_chunks(report, 0), ["\n"]))


_encode_json = json.JSONEncoder(indent=2, sort_keys=True).encode


def _json_chunks(obj, level: int) -> Iterator[Union[str, RowChunks]]:
    """The text json.dumps(obj, indent=2, sort_keys=True) gives `obj`
    nested `level` containers deep, in pieces."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, JsonRecords):
        yield from _record_chunks(obj, level)
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


def _record_chunks(records: JsonRecords, level: int) -> Iterator[Union[str, RowChunks]]:
    """Records given as columns, written as `_json_chunks` writes their
    list of dicts, ROWS_PER_CHUNK records at a time: one `%` template per
    record. In each chunk, columns of finite floats or of ints are
    formatted by the template (`%r` is float.__repr__, as json uses); any
    other column is encoded value by value first, which gives the same
    text."""
    if not records.rows:
        yield "[]"
        return
    inner = "\n" + "  " * (level + 1)

    def chunk(k: int) -> str:
        rows = slice(k * ROWS_PER_CHUNK, (k + 1) * ROWS_PER_CHUNK)
        slots, values = [], []
        for key in sorted(records.columns):
            col = records.columns[key][rows]
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
        record = "{\n" + ",\n".join(slots) + inner + "}"
        return ("," if k else "[") + inner + ("," + inner).join(map(record.__mod__, zip(*values)))

    yield RowChunks(records.rows, chunk)
    yield "\n" + "  " * level + "]"

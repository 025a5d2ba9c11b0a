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
file is read once (one leading byte-order mark stripped), a well-formed
text is parsed by np.loadtxt a slice of lines at a time into columns
allocated once, and the rows that fail a check (or the whole text, when
np.loadtxt cannot take it) are replayed through one csv.reader loop
and a per-row parser, so a ParseError names file:line and a skipped
measurement row is reported as `line N:`. The json module lays out each
JSON report, with a placeholder string for each `JsonRecords` (a list
of flat records held as columns); csvio writes only the records, one
`%` template per record, in the placeholders' places.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import shutil
import signal
import tempfile
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import EmptyInput, IoError, ParseError, ValidationError, ZeroValidRows
from .stats import MeasurementRecord
from .table import Table, column, group_codes
from .wafer import CorrectionRow, CorrectionTable, SiteResult

PathLike = Union[str, Path]

_SITE_FIELDS = SiteResult._fields

#: The columns of a site map: the fields of SiteResult, angles in degrees.
SITE_MAP_HEADER = [name.replace("_rad", "_deg") for name in _SITE_FIELDS]

#: The columns of a correction table: the fields of CorrectionRow.
CORRECTIONS_HEADER = list(CorrectionRow._fields)

#: The columns of a measurement file: the fields of MeasurementRecord.
#: The last, a reported critical-current density needed only for gap
#: fitting, is optional.
*MEASUREMENT_HEADER, MEASUREMENT_JC_COLUMN = MeasurementRecord.__annotations__


def fmt(value: float) -> str:
    """12 significant digits, plain decimal point."""
    return format(value, ".12g")


#: Rows the CSV, JSON and SVG writers format and write at a time, so a
#: writer holds the text of one chunk, never that of the whole file.
ROWS_PER_CHUNK = 4096


class RowChunks(NamedTuple):
    """The text of `rows` rows, a chunk at a time: `chunk(rows)` is
    that of the rows of the slice `rows`, which `write_text` picks."""

    rows: int
    chunk: Callable[[slice], str]


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

    def chunk(rows: slice) -> str:
        cells = [_formatted(c[rows], "%.12g") for c in head]
        return "".join(map(",".join, zip(*cells, _formatted(last[rows], "%.12g\n"))))

    write_text(path, [",".join(header) + "\n", RowChunks(len(last), chunk)])


def write_text(path: PathLike, pieces: Iterable[Union[str, RowChunks]]) -> None:
    """Write the strings and RowChunks of `pieces` to a UTF-8 file as
    they come, newlines untranslated on every platform, the back half of
    a RowChunks' chunks formatted by a forked child where that is
    possible (see the module docstring); an OSError becomes IoError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for piece in pieces:
                if isinstance(piece, str):
                    fh.write(piece)
                else:
                    _write_chunks(fh, piece)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_chunks(fh: IO[str], chunks: RowChunks) -> None:
    """Write every chunk of ROWS_PER_CHUNK rows to `fh` in order, the
    back half formatted by a forked child where one can be made."""
    rows = [slice(k, k + ROWS_PER_CHUNK) for k in range(0, chunks.rows, ROWS_PER_CHUNK)]
    front, back = rows[: len(rows) // 2], rows[len(rows) // 2 :]
    child = _fork_writer(chunks.chunk, back) if front else None
    if child is None:
        fh.writelines(map(chunks.chunk, rows))
        return
    pid, tmp = child
    with tmp:
        try:
            fh.writelines(map(chunks.chunk, front))
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
            fh.writelines(map(chunks.chunk, back))


def _fork_writer(chunk: Callable[[slice], str], rows: list) -> Optional[tuple[int, IO[bytes]]]:
    """(pid, file) of a child process that writes chunk(r) for each
    slice r of `rows`, UTF-8 encoded, to that unlinked temporary file
    and exits 0; None if this process has fewer than two CPUs, or no
    file or child can be made."""
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
            for r in rows:
                out.write(chunk(r).encode("utf-8"))
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
    columns, _ = read_numbers(path, SITE_MAP_HEADER)
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
    one site are rejected, since each site takes one correction, and
    then a predicted area not above 0, which `verify` divides by."""
    columns, lines = read_numbers(path, CORRECTIONS_HEADER)
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
    area = columns[CORRECTIONS_HEADER.index("predicted_area_um2")]
    bad = np.flatnonzero(area <= 0)
    if len(bad):
        i = bad[0]
        raise ParseError(f"{path}:{lines[i]}: predicted_area_um2 must be > 0, got {area[i]}")
    return Table(CorrectionRow, **dict(zip(CORRECTIONS_HEADER, columns)))


def read_numbers(path: PathLike, header: list[str]) -> tuple[np.ndarray, np.ndarray]:
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
    return numbers, lines


def _csv_rows(
    path: PathLike, lines: Iterable[str], linenos: Optional[Iterable[int]] = None
) -> Iterator[tuple[int, list[str]]]:
    """(line number, csv row) of each record of `lines`, numbered by
    `linenos`, else by the line it starts on, `lines` being a CSV body
    that starts at line 2; a csv.Error (such as an over-long field)
    becomes a ParseError naming file:line."""
    reader = csv.reader(lines)
    if linenos is None:
        # The reader has read line_num lines before each record.
        linenos = iter(lambda: reader.line_num + 2, None)
    for lineno in linenos:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        yield lineno, row


@contextmanager
def _table_file(path: PathLike) -> Iterator[tuple[Optional[list[str]], IO[str]]]:
    """The header row (None for an empty file) of a CSV file read as UTF-8
    text, one leading byte-order mark stripped, and the file after it; an
    OSError becomes IoError and a decode error ParseError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield next(_csv_rows(path, fh, [1]), (1, None))[1], fh
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_header(path: PathLike) -> list[str]:
    """The header row of a CSV file ([] for an empty file)."""
    with _table_file(path) as (found, _):
        return found or []


#: Largest str array of labels, in bytes per character of the text, that
#: np.loadtxt may build. Such an array holds every label at the longest
#: one's width, 4 bytes a character, so one long label among many short
#: ones would take far more memory than the text: that text goes to the
#: csv.reader path.
MAX_LABEL_BYTES_PER_CHAR = 64


def _line_slices(text: str) -> Iterator[tuple[int, list[str]]]:
    """(first line number, lines) of each slice of `text`, a CSV body
    that starts at line 2: the shortest run of whole lines holding 32 *
    ROWS_PER_CHUNK characters (128 KiB), or the rest, CRLF made LF.
    ValueError if a slice holds a quote, a lone carriage return or a NUL."""
    # The heap keeps what each slice frees: much larger slices raise the
    # peak of what runs after the read.
    size = 32 * ROWS_PER_CHUNK
    first, start = 2, 0
    while start < len(text):
        end = text.find("\n", start + size - 1) + 1 or len(text)
        part = text[start:end]
        # A search for "\r" is quicker than replace() finding nothing to do.
        if "\r" in part:
            part = part.replace("\r\n", "\n")
        # Without quotes or lone CRs each line is one csv record, and without
        # NULs a numpy str array keeps every label whole.
        if '"' in part or "\r" in part or "\0" in part:
            raise ValueError("a line is not one csv record")
        lines = part.split("\n")
        yield first, lines
        first += len(lines) - 1
        start = end


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
    a (k, n) float array, one row per column not in `label_columns`, and
    an (n, len(label_columns)) array of those. ZeroValidRows says
    `no_rows` if there are none. Without `read_labels`, np.loadtxt
    parses no label, and labels are given only for replayed rows; the
    same rows are kept either way.

    If the text has no quote, lone carriage return or NUL, its non-blank
    lines have one column count the header allows and a str array of its
    labels fits in MAX_LABEL_BYTES_PER_CHAR bytes a character of it,
    np.loadtxt reads it a slice of lines at a time (see `_line_slices`),
    taking no token that float() rejects and giving the same value. Each
    slice's valid rows go into columns sized for every line of the text,
    and the rows `valid` rejects are replayed once every slice is read.
    Otherwise every csv record of the text is replayed. `parse_row`
    gives a replayed row's (numbers, labels) or raises ValueError, which
    becomes a `line N: ...` diagnostic or, without a diagnostics list, a
    ParseError naming file:line.
    """
    with _table_file(path) as (found, fh):
        if found is None:
            raise ParseError(f"{path}: empty file")
        if found != header and found != header + list(allow_extra):
            raise ParseError(
                f"{path}: unexpected header {found}; expected {header}"
                + (f" optionally followed by {list(allow_extra)}" if allow_extra else "")
            )
        text = fh.read()
    options = dict(delimiter=",", comments=None, ndmin=2)
    column_counts = {len(header), len(header) + len(allow_extra)}
    numbers = linenos = None
    labels, flagged = [], []
    filled = seen = widest = 0
    try:
        for first, lines in _line_slices(text):
            nonblank = list(map(bool, lines))
            rows = list(itertools.compress(lines, nonblank))
            if not rows:
                continue
            numeric = None
            if label_columns:
                # Given usecols, np.loadtxt takes rows of differing lengths.
                commas, *others = set(map(str.count, rows, itertools.repeat(",")))
                if others:
                    raise ValueError("rows differ in length")
                numeric = [i for i in range(commas + 1) if i not in label_columns]
            block = np.loadtxt(rows, dtype=float, usecols=numeric, **options)
            if numbers is None:
                if block.shape[1] + len(label_columns) not in column_counts:
                    raise ValueError("unexpected column count")
                numbers = np.empty((block.shape[1], text.count("\n") + 1))
                linenos = np.empty(numbers.shape[1], dtype=np.intp)
            elif block.shape[1] != len(numbers):
                raise ValueError("slices differ in column count")
            block_labels = np.empty((len(rows), 0))
            if label_columns:
                # Joined, the labels of every slice so far take at most
                # this much: none is wider than the widest line.
                seen += len(rows)
                widest = max(widest, max(map(len, rows)))
                if seen * widest * 4 * len(label_columns) > MAX_LABEL_BYTES_PER_CHAR * len(text):
                    raise ValueError("labels too uneven in length for a str array")
                if read_labels:
                    block_labels = np.loadtxt(rows, dtype=str, usecols=label_columns, **options)
            at = np.flatnonzero(nonblank) + first
            ok = valid(block)
            if not ok.all():
                bad = np.flatnonzero(~ok).tolist()
                flagged += zip(at[bad].tolist(), [rows[i] for i in bad])
                block, at, block_labels = block[ok], at[ok], block_labels[ok]
            numbers[:, filled : filled + len(at)] = block.T
            linenos[filled : filled + len(at)] = at
            filled += len(at)
            labels.append(block_labels)
        if numbers is None:
            raise ValueError("no rows")
    except ValueError:
        numbers = None
        replay = _csv_rows(path, io.StringIO(text, newline=""))
    else:
        replay = _csv_rows(path, [row for _, row in flagged], [n for n, _ in flagged])
    # Joining the labels holds them twice: the text goes first.
    del text
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
        numbers, labels = np.array(numbers, dtype=float).T, np.array(labels, dtype=object)
        linenos = np.array(linenos)
    else:
        # Widened to the longest label, as one np.loadtxt would give them.
        numbers, labels, linenos = numbers[:, :filled], np.concatenate(labels), linenos[:filled]
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
    x, y, area, rn, *jc = numbers
    # Unread ids share one column of None.
    wafer, chip, run = labels.T if ids else [np.full(len(rn), None, dtype=object)] * 3
    # NaN marks a row without jc_ua_um2, since a given one is finite.
    jc = jc[0] if jc else np.full(len(rn), math.nan)
    missing = np.isnan(jc)
    table = Table(
        MeasurementRecord,
        wafer_id=wafer,
        chip_id=chip,
        x_mm=x,
        y_mm=y,
        area_class_um2=area,
        run_id=run,
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
    # UTF-8 cannot encode a lone surrogate: refuse its id before any byte is written.
    bad = [v for row in rows for v in row if re.search("[\ud800-\udfff]", v)]
    if bad:
        raise ValidationError(f"id {bad[0]!r} holds a lone surrogate, which UTF-8 cannot encode")
    # csv quotes a field that holds a comma, a quote or a character of the
    # line terminator, so rows made to end in CRLF quote a lone CR too.
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, [line[:-2] + "\n" for line in lines])


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
    dicts: json lays out the report with a placeholder string for each
    JsonRecords, and `_record_chunks` writes the records in its place.
    """
    placeholder = "JsonRecords"
    while True:
        records = []

        def default(obj):
            if not isinstance(obj, JsonRecords):
                return _encoder.default(obj)  # json's own TypeError
            records.append(obj)
            return placeholder

        text = json.dumps(report, indent=2, sort_keys=True, default=default)
        pieces = text.split(f'"{placeholder}"')
        if len(pieces) == len(records) + 1:
            break
        # A key or string of the report holds the quoted placeholder.
        placeholder += "_"
    parts = [pieces[0]]
    for rows, before, after in zip(records, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        parts += [*_record_chunks(rows, line[: len(line) - len(line.lstrip())]), after]
    write_text(path, parts + ["\n"])


_encoder = json.JSONEncoder(indent=2, sort_keys=True)


def _record_chunks(records: JsonRecords, indent: str) -> list[Union[str, RowChunks]]:
    """Records given as columns, written as json.dumps(..., indent=2,
    sort_keys=True) writes their list of dicts on a line indented by
    `indent`, a chunk of records at a time: one `%` template per
    record. In each chunk, columns of finite floats or of ints are
    formatted by the template (`%r` is float.__repr__, as json uses); any
    other column is encoded value by value first, which gives the same
    text."""
    if not records.rows:
        return ["[]"]
    inner, field = "\n" + indent + "  ", "\n" + indent + "    "

    def chunk(rows: slice) -> str:
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
                # JSON strings hold no raw newline, so this only indents.
                slot, col = "%s", [_encoder.encode(v).replace("\n", field) for v in col]
            name = encode_basestring_ascii(key).replace("%", "%%")
            slots.append(field + name + ": " + slot)
            values.append(col)
        record = "{" + ",".join(slots) + inner + "}"
        texts = map(record.__mod__, zip(*values))
        return ("," if rows.start else "[") + inner + ("," + inner).join(texts)

    return [RowChunks(records.rows, chunk), "\n" + indent + "]"]

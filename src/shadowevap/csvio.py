"""CSV and JSON artifact emission and ingestion.

All tables are plain CSV with units in the column names, decimal points
(never commas) and 12 significant digits so values survive a round trip
to 1e-9 relative. Output is bit-stable for identical input.

The numeric-table and JSON writers (and the SVG heatmap) format and
write ROWS_PER_CHUNK rows at a time, a numeric table a column at a
time with each distinct value of a chunk formatted once, as is a JSON
record column of floats whose chunk repeats values (fewer distinct
values than half its rows). All three hand their chunks to
`write_text` as a `RowChunks`. Given two or more chunks, two or more
usable CPUs (os.sched_getaffinity) and os.fork, it forks a child that
formats the back half of the chunks into an unlinked file in
tempfile.gettempdir() while this process formats the front half, then
reaps the child and copies its bytes in, or formats that half itself
if the child failed. The child only formats (no BLAS call) and leaves
by os._exit, flushing none of the parent's files. Otherwise the chunks
are formatted here in order: the same bytes.

Site maps, corrections and measurements are read by one reader, in one
pass over the open file, a slice of lines at a time: by np.loadtxt
where every line is one csv record (no quote, lone CR, NUL or line
longer than csv's field limit) and np.loadtxt takes the slice, and by
csv.reader, alone, any other slice. Each slice is checked as an array;
the valid rows are joined once, at the end. Each table lists its checks
once, so a ParseError names file:line and a skipped measurement row is
reported as `line N:`, in one text either way. The json module lays out
each JSON report, with a placeholder string for each `JsonRecords` (a
list of flat records held as columns); csvio writes only the records,
one `%` template per record, in the placeholders' places.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
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
from .stats import MEASUREMENT_CHECKS, MeasurementRecord
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
    columns = read_numbers(path, SITE_MAP_HEADER)
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
    then a predicted area not above 0, which `verify` divides by; row k
    is named by the line of the file's k-th non-empty csv record."""
    columns = read_numbers(path, CORRECTIONS_HEADER)
    x, y = columns[:2]
    code, first = group_codes([x, y])
    repeats = np.flatnonzero(first[code] != np.arange(len(code)))
    area = columns[CORRECTIONS_HEADER.index("predicted_area_um2")]
    bad = np.flatnonzero(area <= 0)
    if len(repeats) or len(bad):
        with _table_file(path) as (_, fh):
            lines = [n for n, row in _csv_rows(path, fh) if row]
        if len(repeats):
            i = repeats[0]
            j = first[code[i]]
            raise ParseError(
                f"{path}:{lines[i]}: duplicate site ({x[j]}, {y[j]}) mm, "
                f"first given at line {lines[j]}"
            )
        i = bad[0]
        raise ParseError(f"{path}:{lines[i]}: predicted_area_um2 must be > 0, got {area[i]}")
    return Table(CorrectionRow, **dict(zip(CORRECTIONS_HEADER, columns)))


def read_numbers(path: PathLike, header: list[str]) -> np.ndarray:
    """The data rows of a numeric table as columns, a (len(header), n)
    float array in the file's own units. Its checks are one finiteness
    check per column, and it needs at least one row; a ParseError names
    file:line."""
    checks = [(name, np.isfinite, name + " must be finite, got {}") for name in header]
    return _read_table(path, header, checks, "no data rows")[0]


def _csv_rows(
    path: PathLike, lines: Iterable[str], first: int = 2
) -> Iterator[tuple[int, list[str]]]:
    """(line number, csv row) of each record of `lines`, a CSV text that
    starts at line `first`, numbered by the line the record starts on; a
    csv.Error (such as an over-long field) becomes a ParseError naming
    file:line."""
    reader = csv.reader(lines)
    while True:
        # The reader has read line_num lines before each record.
        lineno = reader.line_num + first
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
            yield next(_csv_rows(path, fh, 1), (1, None))[1], fh
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_header(path: PathLike) -> list[str]:
    """The header row of a CSV file ([] for an empty file)."""
    with _table_file(path) as (found, _):
        return found or []


#: Largest str array of labels, in bytes per byte of the file, that the
#: reader builds. Such an array holds every label at the longest one's
#: width, 4 bytes a character, so one long label among many short ones
#: would take far more memory than the file: past this bound the labels
#: join as objects.
MAX_LABEL_BYTES_PER_CHAR = 64


def _read_table(
    path: PathLike,
    header: list[str],
    checks: Sequence[tuple[str, Callable, str]],
    no_rows: str,
    diagnostics: Optional[list[str]] = None,
    label_columns: Sequence[int] = (),
    allow_extra: Sequence[str] = (),
    read_labels: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """(numbers, labels) of the valid rows of a CSV table, in file order:
    a (k, n) float array, one row per column of the header and of
    `allow_extra` (at most one optional last column; NaN where it is not
    given) not in `label_columns`, and an (n, len(label_columns)) array
    of those, str where MAX_LABEL_BYTES_PER_CHAR admits them. A row is
    valid if it passes `checks` (see `keep`); ZeroValidRows says
    `no_rows` if none is. Without `read_labels` no label is parsed or
    measured and the labels have no column; the same rows are kept.

    The file is read once, a slice at a time: the shortest run of whole
    lines holding 32 * ROWS_PER_CHUNK characters, or the rest. A slice
    whose every line is one csv record (no quote, lone CR, NUL or line
    longer than csv.field_size_limit()) goes to np.loadtxt, which takes
    no token that float() rejects and gives the same value, if its
    non-blank lines have one column count the header allows and its
    labels are admitted. csv.reader parses any other slice alone,
    reading on from the file only to finish a record open at its end.
    Each slice is checked as an array. Refused rows become `line N: ...`
    diagnostics in line order or, without a diagnostics list (a strict
    table, parsed no further than its first refused row's slice), the
    first a ParseError naming file:line, raised once the rest of the
    file is decoded, so that a file that is not UTF-8 is refused as such.
    """
    names = header + list(allow_extra)
    numeric = [i for i in range(len(names)) if i not in label_columns]
    counts = {len(header), len(names)}
    tests = [(numeric.index(names.index(field)), test, message) for field, test, message in checks]
    read = label_columns if read_labels else ()
    labels_of = operator.itemgetter(*read) if read else lambda row: ()
    # A tuple, since every table has two or more numeric columns.
    numbers_of = operator.itemgetter(*numeric[: len(numeric) - len(allow_extra)])
    options = dict(delimiter=",", comments=None, ndmin=2)
    numbers, labels, failures, errors = [], [], [], []
    seen = widest = chars = file_size = 0

    def parse(row: list[str]) -> tuple:
        """The numbers of a csv row of a column count the header allows, the
        extra column parsed first (None if absent or blank); else ValueError."""
        if len(row) not in counts:
            expected = " or ".join(map(str, sorted(counts)))
            raise ValueError(f"expected {expected} columns, got {len(row)}")
        extra = row[-1] if len(row) > len(header) else ""
        extra = (float(extra) if extra.strip() else None,)[: len(allow_extra)]
        return (*map(float, numbers_of(row)), *extra)

    def admit(rows: int, width: int) -> bool:
        """Whether the labels so far and those of `rows` more rows, none
        wider than `width`, fit MAX_LABEL_BYTES_PER_CHAR as a str array
        (for a pipe, whose size is 0, a byte of the text read so far)."""
        nonlocal seen, widest
        seen, widest = seen + rows, max(widest, width)
        return seen * widest * 4 * len(read) <= MAX_LABEL_BYTES_PER_CHAR * max(file_size, chars)

    def keep(values, block_labels, lines, given=None) -> bool:
        """Put the rows of `values` (one row per column of `numeric`) and
        `block_labels` that pass each of `checks` onto `numbers` and
        `labels`, the extra column's checks only where `given` (None if
        all are) is true. Each other row adds its line (of `lines`) and the
        message of the first check it fails to `failures`. True once a
        strict table refused one."""
        passed = np.array([test(values[j]) for j, test, _ in tests])
        if given is not None:
            passed[[j == len(numeric) - 1 for j, _, _ in tests]] |= ~given
        ok = passed.all(axis=0)
        if not ok.all():
            refused = zip(passed[:, ~ok].argmin(axis=0).tolist(), values[:, ~ok].T.tolist())
            messages = [tests[k][2].format(row[tests[k][0]]) for k, row in refused]
            failures.extend(zip(itertools.compress(lines, ~ok), messages))
            values, block_labels = values[:, ok], block_labels[ok]
        numbers.append(values)
        labels.append(block_labels)
        return diagnostics is None and bool(failures)

    def sliced(part: str) -> bool:
        """Parse and keep the rows of the slice `part` from line `first`, by
        np.loadtxt where it takes them, else by csv.reader, and move `first`
        past it. True once a strict table refused a row, or csv.reader the file."""
        nonlocal first
        # A search for "\r" is quicker than replace() finding nothing to do.
        text = part.replace("\r\n", "\n") if "\r" in part else part
        lines = text.split("\n")
        width = max(map(len, lines))
        rows = list(filter(None, lines))
        try:
            # Without quotes or lone CRs each line is one csv record, without
            # NULs a numpy str array keeps every label whole, a line no longer
            # than csv's field limit holds no field that csv refuses, and
            # np.loadtxt needs a non-blank line.
            if not 0 < width <= csv.field_size_limit() or any(c in text for c in '"\r\0'):
                raise ValueError("not one csv record a line")
            usecols = None
            if label_columns:
                # Given usecols, np.loadtxt takes rows of differing lengths.
                commas, *others = set(map(str.count, rows, itertools.repeat(",")))
                if others or commas + 1 not in counts:
                    raise ValueError("rows differ in length")
                usecols = numeric[: commas + 1 - len(label_columns)]
            block = np.loadtxt(rows, dtype=float, usecols=usecols, **options).T
            if len(block) + len(label_columns) not in counts:
                raise ValueError("unexpected column count")
            block_labels = np.empty((len(rows), 0), dtype=str)
            if read:
                if not admit(len(rows), width):
                    raise ValueError("labels too uneven in length for a str array")
                # Parsed at the line width, which no label exceeds, and kept
                # at the slice's widest label, as dtype=str gives them (at
                # least 1 character).
                block_labels = np.loadtxt(rows, dtype=f"U{width}", usecols=read, **options)
                block_labels = block_labels.astype(f"U{np.char.str_len(block_labels).max()}")
            # An absent extra column is NaN and not given. Stacked, the block
            # is a compact copy, so the heap reuses np.loadtxt's buffer.
            given = np.zeros(len(rows), bool) if len(block) < len(numeric) else None
            block = np.vstack([block, np.full((len(numeric) - len(block), len(rows)), np.nan)])
            numbered = itertools.compress(itertools.count(first), map(bool, lines))
        except ValueError:
            buffer = io.StringIO(part, newline="")
            values, kept, numbered = [], [], []
            try:
                for lineno, row in _csv_rows(path, itertools.chain(buffer, read_on()), first):
                    if row:
                        try:
                            values.append(parse(row))
                            kept.append(labels_of(row))
                            numbered.append(lineno)
                        except ValueError as exc:
                            failures.append((lineno, str(exc)))
                    # Every line of the slice is read and its last record ended.
                    if buffer.tell() == len(part):
                        break
            except ParseError as exc:
                errors.append(exc)
            block = np.array(values, dtype=object).reshape(len(kept), len(numeric)).T
            block_labels = np.array(kept, dtype=object).reshape(len(kept), len(read))
            flat = block_labels.ravel().tolist()
            # A numpy str array drops a label's trailing NULs.
            if admit(len(kept), max(map(len, flat), default=0)) and "\0" not in "".join(flat):
                block_labels = block_labels.astype(str)
            given = np.not_equal(block[-1], None) if allow_extra else None
            block = block.astype(float)
        # A line ends at a LF or, for csv, a lone CR.
        first += text.count("\n") + text.count("\r")
        return keep(block, block_labels, numbered, given) or bool(errors)

    def read_on() -> Iterator[str]:
        """The file's lines past a slice, counted in `chars` and `first`."""
        nonlocal chars, first
        for line in fh:
            chars, first = chars + len(line), first + 1
            yield line

    with _table_file(path) as (found, fh):
        if found is None:
            raise ParseError(f"{path}: empty file")
        if found != header and found != names:
            raise ParseError(
                f"{path}: unexpected header {found}; expected {header}"
                + (f" optionally followed by {list(allow_extra)}" if allow_extra else "")
            )
        file_size = os.fstat(fh.fileno()).st_size
        # The heap keeps what each slice frees: much larger slices raise the
        # peak of what runs after the read.
        size, first, stop = 32 * ROWS_PER_CHUNK, 2, False
        while not stop and (part := fh.read(size - 1) + fh.readline()):
            chars += len(part)
            stop = sliced(part)
        while fh.read(size):
            pass
    for lineno, message in sorted(failures):
        if diagnostics is None:
            raise ParseError(f"{path}:{lineno}: {message}")
        diagnostics.append(f"line {lineno}: {message}")
    if errors:
        raise errors[0]
    if not sum(block.shape[1] for block in numbers):
        raise ZeroValidRows(f"{path}: {no_rows}")
    # Joined one list at a time, the labels at the longest label's width,
    # as one np.loadtxt would give them.
    numbers = np.concatenate(numbers, axis=1)
    return numbers, np.concatenate(labels)


def import_measurements(path: PathLike, ids: bool = True) -> tuple[Table, list[str]]:
    """Parse a measurement CSV into a Table of MeasurementRecord plus
    per-row diagnostics.

    Invalid rows are skipped and reported with their line numbers, never
    silently dropped; a file with zero valid rows raises ZeroValidRows.
    Without `ids` the wafer, chip and run ids are neither parsed nor
    measured (no check reads them), so one long id leaves its slice to
    np.loadtxt, and their columns hold None.
    """
    diagnostics: list[str] = []
    numbers, labels = _read_table(
        path,
        MEASUREMENT_HEADER,
        MEASUREMENT_CHECKS,
        "no valid measurement rows",
        diagnostics,
        label_columns=(0, 1, 5),
        allow_extra=[MEASUREMENT_JC_COLUMN],
        read_labels=ids,
    )
    x, y, area, rn, jc = numbers
    # Unread ids share one column of None.
    wafer, chip, run = labels.T if ids else [np.full(len(rn), None, dtype=object)] * 3
    # NaN marks a row without jc_ua_um2, since a given one is finite.
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
    formatted by the template (`%r` is float.__repr__, as json uses),
    except that a float column holding fewer distinct values than half
    its rows is formatted by `_formatted`, each distinct value once; any
    other column is encoded value by value first, which gives the same
    text."""
    if not records.rows:
        return ["[]"]
    inner, field = "\n" + indent + "  ", "\n" + indent + "    "

    def chunk(rows: slice) -> str:
        slots, values = [], []
        for key in sorted(records.columns):
            given = records.columns[key][rows]
            col = given.tolist() if isinstance(given, np.ndarray) else given
            types = set(map(type, col))
            if types == {float} and np.isfinite(floats := np.asarray(given, dtype=float)).all():
                # Told apart by bits, as `_formatted` tells them apart.
                bits = np.sort(floats.view(np.int64))
                if 2 * np.count_nonzero(bits[1:] != bits[:-1]) + 2 < len(bits):
                    slot, col = "%s", _formatted(floats, "%r")
                else:
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

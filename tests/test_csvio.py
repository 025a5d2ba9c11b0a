"""CSV/JSON artifact round trips and measurement ingestion."""

import csv
import io
import itertools
import json
import math
import os
import re
import tempfile
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    BOUNDARY_KINDS, SLICE_ROWS, boundary_text, oracle_records, padded, quoted, straddling
)
from shadowevap import cli, csvio
from shadowevap.config import default_config
from shadowevap.csvio import (
    CORRECTIONS_HEADER,
    MEASUREMENT_HEADER,
    MEASUREMENT_JC_COLUMN,
    ROWS_PER_CHUNK,
    SITE_MAP_HEADER,
    JsonRecords,
    export_corrections,
    export_measurements,
    export_site_map,
    fmt,
    import_corrections,
    import_measurements,
    import_site_map,
    read_header,
    read_numbers,
    write_columns,
    write_json_report,
)
from shadowevap.table import Table, column
from shadowevap.errors import (
    EmptyInput,
    IoError,
    ParseError,
    UnknownField,
    ValidationError,
    ZeroValidRows,
)
from shadowevap.stats import MeasurementRecord, coefficient_of_variation
from shadowevap.wafer import (
    CorrectionRow,
    CorrectionTable,
    SiteResult,
    compensate_wafer,
    simulate_wafer,
)

#: Ids of measurement records: any text, with the characters csv and
#: the reader treat specially drawn often.
IDS = st.text(st.one_of(st.characters(), st.sampled_from('\r\n",\0\ufeff')))

MEAS_TEXT = (
    "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
    "w1,c1,0,0,0.025,r1,8123.5\n"
    "w1,c1,0,0,0.025,r2,8120.1\n"
    "w1,c2,5,0,0.025,r1,8410.0\n"
)


class TestSiteMapCsv:
    def test_round_trip_and_cardinality(self, tmp_path):
        results = simulate_wafer(default_config())
        path = tmp_path / "sites.csv"
        export_site_map(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 226  # header + 15x15 rows
        assert lines[0] == (
            "x_mm,y_mm,theta_bottom_deg,theta_top_deg,t_prime_nm,"
            "w_bottom_nm,w_top_nm,area_um2,bias_bottom_nm,bias_top_nm"
        )
        back = import_site_map(path)
        assert len(back) == len(results)
        for orig, re in zip(results, back):
            assert re.x_mm == orig.x_mm
            assert re.w_bottom_nm == pytest.approx(orig.w_bottom_nm, rel=1e-9)
            assert re.area_um2 == pytest.approx(orig.area_um2, rel=1e-9)
            assert re.theta_bottom_rad == pytest.approx(
                orig.theta_bottom_rad, rel=1e-9, abs=1e-12
            )

    def test_bit_stable_output(self, tmp_path):
        results = simulate_wafer(default_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_site_map(results, a)
        export_site_map(results, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_results_create_no_file(self, tmp_path):
        path = tmp_path / "sites.csv"
        with pytest.raises(EmptyInput):
            export_site_map([], path)
        assert not path.exists()

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_mm,y_mm\n0,0\n")
        with pytest.raises(ParseError):
            import_site_map(path)

    def test_malformed_value_reports_line(self, tmp_path):
        results = simulate_wafer(default_config())
        path = tmp_path / "sites.csv"
        export_site_map(results, path)
        text = path.read_text().splitlines()
        text[3] = text[3].replace(text[3].split(",")[4], "oops", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError, match=":4:"):
            import_site_map(path)

    def test_statistics_preserved_through_the_file(self, tmp_path):
        # simulate -> export -> import -> statistics agrees with the
        # in-memory pipeline to 1e-9 relative.
        results = simulate_wafer(default_config())
        path = tmp_path / "sites.csv"
        export_site_map(results, path)
        direct = coefficient_of_variation([r.area_um2 for r in results])
        reloaded = coefficient_of_variation(
            [r.area_um2 for r in import_site_map(path)]
        )
        assert reloaded.mean == pytest.approx(direct.mean, rel=1e-9)
        assert reloaded.cv == pytest.approx(direct.cv, rel=1e-9)


class TestCorrectionsCsv:
    def test_round_trip(self, tmp_path):
        table = compensate_wafer(default_config())
        path = tmp_path / "corr.csv"
        export_corrections(table, path)
        back = import_corrections(path)
        assert len(back) == len(table.rows)
        for orig, re in zip(table.rows, back):
            assert re.x_mm == orig.x_mm
            assert re.drawn_w_bottom_nm == pytest.approx(
                orig.drawn_w_bottom_nm, rel=1e-9
            )

    def test_duplicate_after_a_multi_line_record_names_its_lines(self, tmp_path):
        """The quoted x on lines 2-3 leaves the repeated site on lines 4
        and 5; before, they were named lines 3 and 4."""
        path = tmp_path / "c3.csv"
        path.write_text(
            ",".join(CORRECTIONS_HEADER) + "\n"
            '"0\n",0,200,200,0.04,0\n'
            "1,0,200,200,0.04,0\n"
            "1,0,200,200,0.04,0\n"
        )
        with pytest.raises(ParseError) as info:
            import_corrections(path)
        assert str(info.value) == (
            f"{path}:5: duplicate site (1.0, 0.0) mm, first given at line 4"
        )

    @pytest.mark.parametrize(
        "fault, error",
        [
            ("5,0,201,201,0.05,0", "8: duplicate site (5.0, 0.0) mm, first given at line 4"),
            ("7,7,200,200,0,0", "8: predicted_area_um2 must be > 0, got 0.0"),
        ],
        ids=["duplicate", "zero-area"],
    )
    def test_the_fast_path_names_lines_after_blank_lines(
        self, tmp_path, csv_slices, fault, error
    ):
        """A byte-order mark, CRLF line ends and blank lines before the
        faulty row on line 8: np.loadtxt reads the file (no slice goes to
        csv.reader), and the error names the lines the oracle names."""
        rows = ["0,0,200,200,0.04,0", "", "5,0,200,200,0.04,0", "", "", "0,5,200,200,0.04,0"]
        path = tmp_path / "c.csv"
        text = "\r\n".join([",".join(CORRECTIONS_HEADER), *rows, fault]) + "\r\n"
        path.write_bytes(("\ufeff" + text).encode())
        assert outcome(read_corrections, path) == outcome(oracle_corrections, path)
        assert outcome(read_corrections, path) == (ParseError, f"{path}:{error}")
        assert not csv_slices

    def test_a_field_too_long_for_csv_still_names_its_lines(self, tmp_path):
        """An x of 140,001 characters, longer than csv's field limit, is
        refused naming its line, before the repeated site after it (before,
        np.loadtxt read it and the repeated site was named)."""
        path = tmp_path / "c.csv"
        path.write_text(
            ",".join(CORRECTIONS_HEADER) + "\n"
            + "0" * 140_000 + "5,0,200,200,0.04,0\n\n5,0,200,200,0.04,0\n"
        )
        with pytest.raises(ParseError) as info:
            import_corrections(path)
        assert str(info.value) == f"{path}:2: field larger than field limit (131072)"

    def test_a_row_refused_before_a_field_too_long_for_csv_is_named(self, tmp_path):
        """A non-finite x on line 2 is named, not the over-long field on
        line 3, where csv.reader stops."""
        path = tmp_path / "c.csv"
        path.write_text(
            ",".join(CORRECTIONS_HEADER) + "\n"
            + "nan,0,200,200,0.04,0\n" + "0" * 140_000 + "5,0,200,200,0.04,0\n"
        )
        with pytest.raises(ParseError) as info:
            import_corrections(path)
        assert str(info.value) == f"{path}:2: x_mm must be finite, got nan"


# Spellings of finite numbers, and tokens np.loadtxt rejects but float()
# reads, which csv.reader's path then takes.
TOKENS = st.one_of(
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["%r", "%.12g", "%.17e", "%.3f", "%+g", "%E"]),
    ).map(lambda number_format: number_format[1] % number_format[0]),
    st.sampled_from(["1_000", "\uff17", " 7 ", "+.5", "5.", "1E3", "-0"]),
)


class TestNumericColumns:
    """The one-pass writer and the np.loadtxt reader against per-value
    `fmt` and float()."""

    EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1e-300, 1e300,
                   0.1, 123456789012.5, 2.0**53 + 1, math.inf, -math.inf, math.nan]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), max_size=30))
    def test_writer_equals_fmt(self, values):
        values = self.EDGE_VALUES + values
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_columns(path, ["a", "b"], [values, values[::-1]])
            lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1:] == [f"{fmt(a)},{fmt(b)}" for a, b in zip(values, values[::-1])]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(TOKENS, min_size=10, max_size=10), min_size=1, max_size=20))
    def test_loader_equals_float(self, rows):
        rows = [r for r in rows if all(math.isfinite(float(t)) for t in r)]
        if not rows:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sites.csv"
            path.write_text(
                ",".join(SITE_MAP_HEADER) + "\n" + "".join(",".join(r) + "\n" for r in rows)
            )
            table = import_site_map(path)
        for k, name in enumerate(SITE_MAP_HEADER):
            field = name.replace("_deg", "_rad")
            want = [float(r[k]) for r in rows]
            if field != name:
                want = [math.radians(v) for v in want]
            assert [repr(v) for v in column(table, field).tolist()] == [repr(v) for v in want]

    def test_bad_token_still_names_its_line(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(
            ",".join(SITE_MAP_HEADER) + "\n" + ",".join(["1"] * 10) + "\n\n"
            + ",".join(["1"] * 9 + ["0x"]) + "\n"
        )
        with pytest.raises(ParseError, match=r"sites\.csv:4: could not convert"):
            import_site_map(path)

    def test_non_finite_site_map_value(self, tmp_path):
        path = tmp_path / "sites.csv"
        path.write_text(
            ",".join(SITE_MAP_HEADER) + "\n" + ",".join(["1"] * 10) + "\n"
            + ",".join(["1"] * 7 + ["nan", "1", "1"]) + "\n"
        )
        with pytest.raises(ParseError, match=r"sites\.csv:3: area_um2 must be finite"):
            import_site_map(path)

    def test_signed_zeros_are_one_site(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text(
            ",".join(CORRECTIONS_HEADER) + "\n"
            "0,5,200,200,0.04,0\n1,5,200,200,0.04,0\n-0,5,200,200,0.04,0\n"
        )
        with pytest.raises(ParseError, match=r"corr\.csv:4: duplicate site .* line 2"):
            import_corrections(path)

    def test_header_only_table(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text(",".join(CORRECTIONS_HEADER) + "\n\n")
        with pytest.raises(ZeroValidRows):
            import_corrections(path)


class TestChunkedWriter:
    """Rows are formatted and written ROWS_PER_CHUNK at a time."""

    @pytest.mark.parametrize(
        "n", [ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1, 3 * ROWS_PER_CHUNK + 5]
    )
    def test_equals_one_joined_text(self, tmp_path, n):
        """Against every row formatted and joined at once, with a -0.0
        coordinate and values repeated across chunks."""
        rng = np.random.default_rng(n)
        columns = [np.arange(n) % 281 * 0.25 - 35.0, rng.normal(size=n), np.arange(n) % 3 * 1e-3]
        columns[0][[0, -1]] = -0.0
        path = tmp_path / "t.csv"
        write_columns(path, ["x_mm", "a", "b"], columns)
        rows = zip(*(c.tolist() for c in columns))
        assert path.read_text() == "x_mm,a,b\n" + "".join(",".join(map(fmt, r)) + "\n" for r in rows)

    @pytest.mark.parametrize(
        "n", [ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1, 3 * ROWS_PER_CHUNK + 5]
    )
    def test_json_records_equal_the_encoder(self, tmp_path, n):
        """A chunk picks its own templates: here the float column holds a
        NaN only in its last chunk, and the label column a number."""
        cv = np.random.default_rng(n).normal(size=n)
        cv[-1] = math.nan
        labels = [f"w{i % 5}" for i in range(n)]
        labels[0] = 3
        records = JsonRecords(cv_percent=cv, n_runs=np.arange(n) % 4, wafer_id=labels)
        write_json_report({"per_junction": records, "n": n}, tmp_path / "r.json")
        dicts = [{"cv_percent": c, "n_runs": r, "wafer_id": w}
                 for c, r, w in zip(cv.tolist(), (np.arange(n) % 4).tolist(), labels)]
        expected = json.dumps({"per_junction": dicts, "n": n}, indent=2, sort_keys=True)
        assert (tmp_path / "r.json").read_text() == expected + "\n"

    def test_memory_is_under_the_text(self, tmp_path):
        """At 78,961 sites each writer holds less than the size of the
        file it writes (before, the CSV writers held 1.7 times as much
        and the JSON writer 2.3 times)."""
        config = default_config()
        config = replace(config, layout=replace(config.layout, grid_pitch_mm=0.25))
        results, corrections = simulate_wafer(config), compensate_wafer(config)
        assert len(results) == 78_961
        records = JsonRecords(**{name: column(results, name) for name in ("x_mm", "y_mm", "area_um2")})
        writers = {
            "sites.csv": lambda path: export_site_map(results, path),
            "corr.csv": lambda path: export_corrections(corrections, path),
            "sites.json": lambda path: write_json_report({"sites": records}, path),
        }
        for name, write in writers.items():
            tracemalloc.start()
            try:
                write(tmp_path / name)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (tmp_path / name).stat().st_size, name


def oracle_numbers(path, header):
    """A numeric table read record by record (`oracle_records`), each
    row parsed with float()."""
    rows = []
    for lineno, row in oracle_records(path, header):
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        for name, v in zip(header, values):
            if not math.isfinite(v):
                raise ParseError(f"{path}:{lineno}: {name} must be finite, got {v}")
        rows.append((lineno, values))
    if not rows:
        raise ZeroValidRows(f"{path}: no data rows")
    return rows


def oracle_site_map(path):
    return [
        repr(SiteResult(x, y, math.radians(tb), math.radians(tt), *rest))
        for _, (x, y, tb, tt, *rest) in oracle_numbers(path, SITE_MAP_HEADER)
    ]


def oracle_corrections(path):
    first = {}  # -0.0 and 0.0 are one key
    rows = oracle_numbers(path, CORRECTIONS_HEADER)
    for lineno, (x, y, *_) in rows:
        if (x, y) in first:
            x0, y0, line0 = first[(x, y)]
            raise ParseError(
                f"{path}:{lineno}: duplicate site ({x0}, {y0}) mm, first given at line {line0}"
            )
        first[(x, y)] = (x, y, lineno)
    for lineno, (*_, area, _) in rows:
        if not area > 0:
            raise ParseError(f"{path}:{lineno}: predicted_area_um2 must be > 0, got {area}")
    return [repr(tuple(values)) for _, values in rows]


def read_corrections(path):
    return [repr(tuple(r)) for r in import_corrections(path)]


# Tokens that break np.loadtxt's pass, or give a value the row check
# rejects.
SPOILERS = ["nan", "inf", "-inf", "1e400", "1_0", "\uff17", "0x10", "x", "", " ", '"3"', '"1,5"']


@st.composite
def numeric_texts(draw, header):
    """Numeric CSV text: rows of finite numbers whose sites repeat, with
    signed zeros; in a spoilt file some rows have a token replaced, a
    token quoted with a newline in it (the record then spans two lines),
    a field missing or a trailing comma, or are blank or whitespace only.
    The header may carry a BOM. Lines end in LF, CRLF, a lone CR or a
    mix of them."""
    spoilt = draw(st.booleans())
    lines = [draw(st.sampled_from([""] * 7 + ["\ufeff"])) + ",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(st.sampled_from(["0", "-0", "0.0", "5", "-5", "1e1", "2.5"])) for _ in range(2)]
        row += [draw(TOKENS) for _ in range(len(header) - 2)]
        kind = draw(st.sampled_from(
            ["row"] * 3 + ["token", "quoted", "blank", "space", "short", "comma"]
        ))
        if spoilt and kind == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(SPOILERS))
        elif spoilt and kind == "quoted":
            i = draw(st.integers(0, len(row) - 1))
            row[i] = draw(st.sampled_from(['"%s\n"', '"\n%s"'])) % row[i]
        elif spoilt and kind != "row":
            row = {"blank": [], "space": [" \t"], "short": row[:-1], "comma": row + [""]}[kind]
        lines.append(",".join(row))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    if ends == "mixed":
        return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return ends.join(lines) + draw(st.sampled_from(["", ends]))


def outcome(read, path):
    try:
        return read(path)
    except (ParseError, ZeroValidRows) as exc:
        return type(exc), str(exc)


class TestOneReader:
    """Site maps and corrections through the one reader, against the
    line-by-line oracle: values compared by repr, errors by type and
    text."""

    @settings(max_examples=300, deadline=None)
    @given(numeric_texts(SITE_MAP_HEADER))
    # "\r\r\n" ends a record and then a blank one; line 4 is the bad row.
    @example(",".join(SITE_MAP_HEADER) + "\n" + ",".join(["1"] * 10) + "\r\r\n"
             + ",".join(["1"] * 9 + ["nan"]) + "\n")
    def test_site_map_matches_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sites.csv"
            path.write_bytes(text.encode())
            got = outcome(lambda p: [repr(r) for r in import_site_map(p)], path)
            assert got == outcome(oracle_site_map, path)

    @settings(max_examples=300, deadline=None)
    @given(numeric_texts(CORRECTIONS_HEADER))
    def test_corrections_match_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corr.csv"
            path.write_bytes(text.encode())
            assert outcome(read_corrections, path) == outcome(oracle_corrections, path)


K = SLICE_ROWS
#: Rows of a file about the reader's slices: one slice short of full,
#: one full, one row into a second, and four slices, the last short.
SLICED_ROWS = [K - 1, K, K + 1, 3 * K + 5]
#: Each numeric table's header, its i-th row (x first, so no site
#: repeats), its reader and its oracle.
NUMERIC_TABLES = {
    "sites": (
        SITE_MAP_HEADER,
        lambda i: [str(i), "0", "4", "3", "1", "2", "1", "4", "4", "2"],
        lambda p: [repr(r) for r in import_site_map(p)],
        oracle_site_map,
    ),
    "corrections": (
        CORRECTIONS_HEADER,
        lambda i: [str(i), "0", "2", "2", "4", "0"],
        read_corrections,
        oracle_corrections,
    ),
}


def boundary_cases():
    """(rows, position) pairs: a line on each side of each slice boundary
    the file has, and its last line."""
    for n in SLICED_ROWS:
        for at in sorted({K - 1, K, 2 * K - 1, 2 * K, n - 1} & set(range(n))):
            yield n, at


class TestSlicedReader:
    """The reader parses a slice of lines at a time; made small, the
    slices are checked against the csv.reader oracle about their
    boundaries: values by repr, errors by type and text."""

    def test_a_slice_holds_rows_per_chunk_lines(self, tmp_path, small_slices, loadtxt_rows):
        """Of 32-character lines, a slice holds ROWS_PER_CHUNK."""
        header, row, read, oracle = NUMERIC_TABLES["sites"]
        path = tmp_path / "sites.csv"
        path.write_text(",".join(header) + "\n" + "".join(map(padded, map(row, range(3 * K + 5)))))
        assert read(path) == oracle(path)
        assert loadtxt_rows == [K, K, K, 5]

    @pytest.mark.parametrize("table", NUMERIC_TABLES)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_the_oracles_in_small_slices(self, table, data):
        """TestOneReader's texts, read 32 * SLICE_ROWS characters a slice,
        so that records straddle slices. ROWS_PER_CHUNK is patched here,
        since hypothesis refuses function-scoped fixtures."""
        header, _, read, oracle = NUMERIC_TABLES[table]
        text = data.draw(numeric_texts(header))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(csvio, "ROWS_PER_CHUNK", SLICE_ROWS)
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode())
            assert outcome(read, path) == outcome(oracle, path)

    @pytest.mark.parametrize("table", NUMERIC_TABLES)
    @pytest.mark.parametrize("kind", BOUNDARY_KINDS)
    @pytest.mark.parametrize("n, at", boundary_cases())
    def test_a_line_at_a_boundary(self, tmp_path, small_slices, table, kind, n, at):
        header, row, read, oracle = NUMERIC_TABLES[table]
        rows = [row(i) for i in range(n)]
        if kind == "flagged":
            rows[at][-1] = "nan"
        path = tmp_path / "t.csv"
        path.write_bytes(boundary_text(header, rows, kind, {at}).encode())
        assert outcome(read, path) == outcome(oracle, path)

    @pytest.mark.parametrize("table", NUMERIC_TABLES)
    @pytest.mark.parametrize(
        "fields",
        [lambda r: r + ["1"], lambda r: r[:-1], lambda r: r[:1]],
        ids=["more", "fewer", "one"],
    )
    def test_a_later_slice_of_another_column_count(self, tmp_path, small_slices, table, fields):
        """The first slice's rows are whole; every row of the second has
        one field more or fewer, or only one."""
        header, row, read, oracle = NUMERIC_TABLES[table]
        rows = [row(i) for i in range(3 * K)]
        for i in range(K, 2 * K):
            rows[i] = fields(rows[i])
        path = tmp_path / "t.csv"
        path.write_text(",".join(header) + "\n" + "".join(map(padded, rows)))
        got = outcome(read, path)
        assert got == outcome(oracle, path)
        assert got[0] is ParseError and f"t.csv:{K + 2}: expected" in got[1]

    @pytest.mark.parametrize("table", NUMERIC_TABLES)
    @pytest.mark.parametrize("at", [0, K - 1, K, 2 * K + 3, 3 * K + 4])
    def test_a_strict_table_parses_no_slice_past_its_first_refused_row(
        self, tmp_path, small_slices, csv_slices, loadtxt_rows, table, at
    ):
        """A quoted field on line 2 sends the first slice, and only that
        one, to csv.reader; np.loadtxt parses the later slices up to the
        one holding the first refused row (before, csv.reader read the
        rest of the file up to that row's chunk of records)."""
        header, row, read, oracle = NUMERIC_TABLES[table]
        n = 3 * K + 5
        rows = [row(i) for i in range(n)]
        rows[at][-1] = "nan"
        path = tmp_path / "t.csv"
        path.write_text(",".join(header) + "\n" + quoted(rows[0]) + "".join(map(padded, rows[1:])))
        got = outcome(read, path)
        assert got == outcome(oracle, path)
        assert got[0] is ParseError and f"t.csv:{at + 2}: {header[-1]} must be finite" in got[1]
        assert csv_slices == [(2, list(range(2, K + 2)))]
        assert loadtxt_rows == [K, K, 5][: at // K]

    @pytest.mark.parametrize("table", NUMERIC_TABLES)
    @pytest.mark.parametrize("newlines", [1, 2, 3, 0], ids=["1", "2", "3", "unterminated"])
    def test_a_quoted_field_open_at_a_slice_end(
        self, tmp_path, small_slices, csv_slices, loadtxt_rows, table, newlines
    ):
        """Line K + 1, the first slice's last, opens a quoted field that
        holds `newlines` line ends and closes in the next slice, or runs
        to the end of the file. csv.reader reads on from the file to
        finish that record, and the next slice goes to np.loadtxt: the
        nan 3 rows on is named at its line, as the oracle names it."""
        header, row, read, oracle = NUMERIC_TABLES[table]
        rows = [row(i) for i in range(3 * K + 5)]
        rows[K + 2][-1] = "nan"
        path = tmp_path / "t.csv"
        path.write_text(straddling(header, rows, K - 1, newlines))
        got = outcome(read, path)
        assert got == outcome(oracle, path)
        line = K + 4 + newlines if newlines else K + 1
        assert got[0] is ParseError and got[1].startswith(f"{path}:{line}: ")
        assert csv_slices == [(2, list(range(2, K + 2)))]
        assert loadtxt_rows == ([K] if newlines else [])

    @pytest.mark.parametrize("table", NUMERIC_TABLES)
    @pytest.mark.parametrize("fault", ["nan", "quoted", "overlong"])
    def test_a_strict_table_decodes_to_its_end_before_it_raises(
        self, tmp_path, small_slices, table, fault
    ):
        """Line 3 is refused (a nan, also behind a quoted line 2) or holds
        a field longer than csv's limit, and a byte near the end of the
        file is not UTF-8: the file is refused as not UTF-8 text, as the
        oracle, which decodes every record first, refuses it."""
        header, row, read, oracle = NUMERIC_TABLES[table]
        # More than io's 8 KiB decoding chunk of lines after line 3.
        rows = [row(i) for i in range(40 * K)]
        rows[1][-1] = "0" * 140_000 + "1" if fault == "overlong" else "nan"
        first = quoted(rows[0]) if fault == "quoted" else padded(rows[0])
        text = ",".join(header) + "\n" + first + "".join(map(padded, rows[1:-1]))
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode() + b"\xff" + padded(rows[-1]).encode())
        message = f"{path}: not UTF-8 text (invalid start byte)"
        assert outcome(read, path) == (ParseError, message)
        if fault != "overlong":
            assert outcome(oracle, path) == (ParseError, message)

    def test_read_numbers_memory_is_bounded(self, tmp_path):
        """A site map of 16 slices or more: the reader holds its text,
        the columns and one slice's lines and arrays (before slicing, it
        peaked at 3.4 times the file's size)."""
        rng = np.random.default_rng(7)
        path = tmp_path / "sites.csv"
        write_columns(path, SITE_MAP_HEADER, rng.uniform(-50, 250, (len(SITE_MAP_HEADER), 16_000)))
        size = path.stat().st_size
        assert size > 16 * 32 * ROWS_PER_CHUNK
        tracemalloc.start()
        try:
            columns = read_numbers(path, SITE_MAP_HEADER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert columns.shape == (len(SITE_MAP_HEADER), 16_000)
        assert peak < 2.5 * size


def read_measurements(path, ids=True):
    table, diagnostics = import_measurements(path, ids)
    return [repr(r) for r in table], diagnostics


class TestByteOrderMark:
    """Spreadsheet programs start a UTF-8 file with a byte-order mark:
    each reader strips one and reads the same table. A second mark is
    part of the first column's name, so the header is refused."""

    SITES = ",".join(SITE_MAP_HEADER) + "\n" + ",".join(["1"] * 10) + "\n"

    @pytest.mark.parametrize(
        "read, text, twice",
        [
            (lambda p: [repr(r) for r in import_site_map(p)], SITES, ParseError),
            (read_corrections, ",".join(CORRECTIONS_HEADER) + "\n1,2,200,200,0.04,0\n", ParseError),
            (read_measurements, MEAS_TEXT + "w1,c3,1,1,0.025,r1,-5\n", ParseError),
            (lambda p: read_measurements(p, ids=False), MEAS_TEXT, ParseError),
            # Taken for a measurement file, a site map has no area_um2.
            (lambda p: cli._heatmap_points(str(p), "area_um2").tolist(), SITES, UnknownField),
            (lambda p: cli._heatmap_points(str(p), "rn_ohm").tolist(), MEAS_TEXT, ParseError),
        ],
        ids=["site map", "corrections", "measurements", "measurements without ids",
             "heatmap of a site map", "heatmap of measurements"],
    )
    def test_one_leading_mark_is_stripped(self, tmp_path, read, text, twice):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert read_header(marked) == read_header(plain) == text.split("\n")[0].split(",")
        assert read(marked) == read(plain)
        marked.write_text("\ufeff" + text, encoding="utf-8-sig")
        assert read_header(marked)[0] == "\ufeff" + read_header(plain)[0]
        with pytest.raises(twice):
            read(marked)


class TestMeasurementCsv:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(MEAS_TEXT)
        records, diagnostics = import_measurements(path)
        assert len(records) == 3
        assert not diagnostics
        assert records[0].rn_ohm == 8123.5
        assert records[0].jc_ua_um2 is None

    def test_invalid_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(MEAS_TEXT + "w1,c3,1,1,0.025,r1,-5\nw1,c3,1,1,xx,r1,10\n")
        records, diagnostics = import_measurements(path)
        assert len(records) == 3
        assert len(diagnostics) == 2
        assert any("line 5" in d for d in diagnostics)
        assert any("line 6" in d for d in diagnostics)

    def test_lines_after_a_multi_line_record_keep_their_numbers(self, tmp_path):
        """Each record is named by the line it starts on: the id on lines
        2-3 leaves the bad rn_ohm on line 5; before, it was named line 4."""
        path = tmp_path / "meas.csv"
        path.write_text(
            "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
            '"W\n1",c1,0,0,0.04,r1,100\n'
            "w1,c1,1,0,0.04,r1,200\n"
            "w1,c1,2,0,0.04,r1,-5\n"
        )
        records, diagnostics = import_measurements(path)
        assert column(records, "wafer_id").tolist() == ["W\n1", "w1"]
        assert diagnostics == ["line 5: rn_ohm must be > 0"]

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n")
        with pytest.raises(ZeroValidRows):
            import_measurements(path)

    def test_optional_jc_column(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm,jc_ua_um2\n"
            "w3,c1,0,0,0.025,r1,2600,5.61\n"
            "w3,c1,5,0,0.09,r1,700,\n"
        )
        records, diagnostics = import_measurements(path)
        assert not diagnostics
        assert records[0].jc_ua_um2 == 5.61
        assert records[1].jc_ua_um2 is None

    def test_export_round_trip(self, tmp_path):
        records = [
            MeasurementRecord("w1", "c1", 0.0, 0.0, 0.025, "r1", 8123.5, 5.61),
            MeasurementRecord("w1", "c1", 5.0, 0.0, 0.025, "r1", 8201.25),
        ]
        path = tmp_path / "meas.csv"
        export_measurements(records, path)
        back, _ = import_measurements(path)
        assert back[0].jc_ua_um2 == pytest.approx(5.61, rel=1e-9)
        assert back[1].rn_ohm == pytest.approx(8201.25, rel=1e-12)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            import_measurements(tmp_path / "nope.csv")

    def test_export_quotes_ids_as_csv_writer(self, tmp_path):
        """Ids holding a comma, quote, CRLF or LF are quoted as a
        csv.writer on the file quotes them, and read back whole."""
        ids = ["w,1", 'c"2', "r\r\n3", "r\n4", "r 5"]
        records = [
            MeasurementRecord(ids[0], ids[1], 0.0, float(i), 0.04, run, 8000.0 + i, jc)
            for i, (run, jc) in enumerate(zip(ids[2:], [None, 5.61, None]))
        ]
        path, expected = tmp_path / "meas.csv", tmp_path / "expected.csv"
        export_measurements(records, path)
        with open(expected, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*MEASUREMENT_HEADER, MEASUREMENT_JC_COLUMN])
            writer.writerows(
                [r.wafer_id, r.chip_id, fmt(r.x_mm), fmt(r.y_mm), fmt(r.area_class_um2),
                 r.run_id, fmt(r.rn_ohm), "" if r.jc_ua_um2 is None else fmt(r.jc_ua_um2)]
                for r in records
            )
        assert path.read_bytes() == expected.read_bytes()
        back, diagnostics = import_measurements(path)
        assert not diagnostics
        assert column(back, "run_id").tolist() == ids[2:]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(IDS, IDS, IDS), min_size=1, max_size=6))
    @example([("r\r5", "\r", "a\r\nb"), ('q"t', "c,d", "n\0l"), ("\ufeffw", "é→", " s ")])
    @example([("W1", "c1", "r\r5")])
    @example([("W1", "c1", "r\ud800")])
    def test_export_import_round_trip(self, tmp_path, ids):
        """Every id export_measurements writes reads back whole, and a
        file whose ids hold no lone CR has the bytes csv.writer gives.
        Before, an id holding a lone CR was written unquoted, its row was
        split in two on reading, and `W1,c1,...,r\r5` gave ZeroValidRows.
        An id holding a lone surrogate, which UTF-8 cannot encode, is
        refused before a byte is written; before, UnicodeEncodeError
        left a file holding the header alone."""
        records = [
            MeasurementRecord(w, c, float(i), -0.5 * i, 0.04, r, 8000.0 + i)
            for i, (w, c, r) in enumerate(ids)
        ]
        path = tmp_path / "meas.csv"
        path.unlink(missing_ok=True)
        if any(re.search("[\ud800-\udfff]", v) for v in itertools.chain(*ids)):
            with pytest.raises(ValidationError, match=r"^id .* holds a lone surrogate"):
                export_measurements(records, path)
            assert not path.exists()
            return
        export_measurements(records, path)
        back, diagnostics = import_measurements(path)
        assert diagnostics == []
        assert list(back) == records
        if not any(re.search("\r(?!\n)", v) for v in itertools.chain(*ids)):
            text = io.StringIO()
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(MEASUREMENT_HEADER)
            writer.writerows(
                [r.wafer_id, r.chip_id, fmt(r.x_mm), fmt(r.y_mm), fmt(r.area_class_um2),
                 r.run_id, fmt(r.rn_ohm)]
                for r in records
            )
            assert path.read_bytes() == text.getvalue().encode()

    def test_export_to_a_missing_directory_is_io_error(self, tmp_path):
        path = tmp_path / "missing" / "meas.csv"
        record = MeasurementRecord("w1", "c1", 0.0, 0.0, 0.04, "r1", 8000.0)
        with pytest.raises(IoError, match=f"^cannot write {path}: .*No such file"):
            export_measurements([record], path)


#: Floats a JSON record column repeats: both zeros, the least subnormal,
#: a value that repr writes with an exponent and one it rounds.
REPEATED = [-0.0, 0.0, 5e-324, 1e16, 0.1]


class TestJsonReport:
    def test_columns_of_unequal_length_are_refused(self):
        """Records are not cut to the shortest column."""
        with pytest.raises(ValueError, match=r"differ in length: \[2, 3\]"):
            JsonRecords(a=[1.0, 2.0], b=np.arange(3))
        assert JsonRecords().rows == 0

    def test_deterministic_bytes(self, tmp_path):
        report = {"b": 2.0, "a": [1, 2, 3], "nested": {"z": 0.1, "y": "s"}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_json_report(report, p1)
        write_json_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == report

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_equals_the_standard_encoder(self, tmp_path, data):
        """Random nested reports, with lists of same-keyed dicts and of
        dicts whose key sets differ."""
        report = data.draw(st.dictionaries(st.text(max_size=4), json_values(), max_size=5))
        path = tmp_path / "r.json"
        write_json_report(report, path)
        expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_columns_equal_their_list_of_dicts(self, tmp_path, data):
        """Column "p" draws from one or two values of a small pool, so
        most of its rows repeat a value."""
        n = data.draw(st.integers(0, 6))
        pool = data.draw(st.lists(st.sampled_from(REPEATED), min_size=1, max_size=2))
        columns = {
            "f": np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=float),
            "p": np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))),
            "i": np.array(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)), dtype=int),
            "s": np.array(data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n)), dtype=object),
            "m": data.draw(st.lists(json_values(), min_size=n, max_size=n)),
        }
        keys = data.draw(st.lists(st.sampled_from(sorted(columns)), min_size=1, unique=True))
        columns = {k: columns[k] for k in keys}
        rows = [
            {k: (c.tolist() if isinstance(c, np.ndarray) else c)[i] for k, c in columns.items()}
            for i in range(n)
        ]
        path = tmp_path / "r.json"
        write_json_report({"nested": {"records": JsonRecords(**columns)}}, path)
        expected = json.dumps({"nested": {"records": rows}}, indent=2, sort_keys=True)
        assert path.read_text(encoding="utf-8") == expected + "\n"

    def test_non_string_keys_go_to_the_encoder(self, tmp_path):
        report = {"a": {2: [{"x": 1.5}], 1: None}, "b": [{"k": 1}, {"k": 2, "j": 3}]}
        path = tmp_path / "r.json"
        write_json_report(report, path)
        assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_records_under_int_keys(self, tmp_path):
        """json turns int keys into strings and sorts them as ints."""
        columns = {"x": [1.5, -0.0], "s": ["a", "b"]}
        rows = [{"x": 1.5, "s": "a"}, {"x": -0.0, "s": "b"}]
        path = tmp_path / "r.json"
        write_json_report({"a": {10: JsonRecords(**columns), 9: None}}, path)
        expected = json.dumps({"a": {10: rows, 9: None}}, indent=2, sort_keys=True)
        assert path.read_text() == expected + "\n"

    def test_unknown_objects_raise_jsons_error(self, tmp_path):
        with pytest.raises(TypeError, match="^Object of type complex is not JSON serializable$"):
            write_json_report({"r": JsonRecords(x=[1]), "z": [1j]}, tmp_path / "r.json")

    def test_records_at_any_depth(self, tmp_path):
        """Records as the whole report, three containers deep and in a
        list, with nested values whose own lines take the records'
        indent."""
        columns = {"m": [{"k": [1, {"j": []}]}, [[2.5]]], "f": [1.0, 2.0]}
        rows = [{"m": {"k": [1, {"j": []}]}, "f": 1.0}, {"m": [[2.5]], "f": 2.0}]
        path = tmp_path / "r.json"
        write_json_report(JsonRecords(**columns), path)
        assert path.read_text() == json.dumps(rows, indent=2, sort_keys=True) + "\n"
        report = {"a": {"b": {"c": JsonRecords(**columns)}},
                  "l": [JsonRecords(f=[3.0]), {"d": JsonRecords()}]}
        expected = {"a": {"b": {"c": rows}}, "l": [[{"f": 3.0}], {"d": []}]}
        write_json_report(report, path)
        assert path.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "report, encodings",
        [
            ({"JsonRecords": 1, "r": None}, 2),
            ({"a": "JsonRecords", "r": None}, 2),
            ({"a": 'x"JsonRecords', "r": None}, 2),
            ({"JsonRecords": 'x"JsonRecords_', "a": ["JsonRecords__"], "r": None}, 4),
        ],
        ids=["key", "value", "escaped-quote", "three-lengths"],
    )
    def test_placeholder_in_the_report(self, tmp_path, monkeypatch, report, encodings):
        """A key or string that json writes as the quoted placeholder
        (here "JsonRecords", lengthened by "_") costs one more encoding
        per collision, and changes no byte."""
        expected = json.dumps({**report, "r": [{"x": 1}]}, indent=2, sort_keys=True) + "\n"
        calls = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(1) or real(*a, **k))
        path = tmp_path / "r.json"
        write_json_report({**report, "r": JsonRecords(x=[1])}, path)
        assert path.read_text() == expected
        assert len(calls) == encodings


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN, +-inf and -0.0 included
    st.text(),  # non-ASCII included
)


@st.composite
def record_lists(draw, values):
    """Lists of dicts sharing one key set (each key holding floats, ints,
    strings or any value), sometimes with one record's key set changed."""
    kinds = [st.floats(allow_nan=False, allow_infinity=False), st.floats(), st.integers(),
             st.text(max_size=3), values]
    keys = draw(st.lists(st.text(max_size=3), max_size=4, unique=True))
    column_values = {k: draw(st.sampled_from(kinds)) for k in keys}
    records = [
        {k: draw(v) for k, v in column_values.items()} for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        victim = draw(st.sampled_from(records))
        if victim and draw(st.booleans()):
            del victim[draw(st.sampled_from(sorted(victim)))]
        else:
            victim[draw(st.text(max_size=3))] = draw(values)
    return records


def json_values():
    return st.recursive(
        json_scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.tuples(children, children),
            st.dictionaries(st.text(max_size=4), children, max_size=4),
            record_lists(children),
        ),
        max_leaves=25,
    )


#: Row counts about the writers' chunk size: one chunk short of full,
#: one full, one row into a second, and four chunks, the last short.
CHUNKED_ROWS = st.sampled_from(
    [ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1, 3 * ROWS_PER_CHUNK + 5]
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@contextmanager
def writer_cpus(forked):
    """Writers fork a child for the back half of their chunks, or not."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(2 if forked else 1)))
        yield


def pooled_columns(data, count, n, values=FINITE, zero=-0.0):
    """`count` columns of n values drawn from a small drawn pool of
    `values`, each with `zero` as its first and last value."""
    pool = np.array([zero, *data.draw(st.lists(values, min_size=1, max_size=8))])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    columns = pool[rng.integers(0, pool.size, (count, n))]
    columns[:, [0, -1]] = zero
    return columns


def reprs(values):
    """The repr of each value, which tells -0.0 from 0.0."""
    return [repr(v) for v in np.asarray(values).tolist()]


def as_written(values):
    """`reprs` of the values a CSV writer's file gives back: float(fmt(v))."""
    return reprs([float(fmt(v)) for v in np.asarray(values).tolist()])


class TestRoundTrips:
    """Each writer's file reads back as written, at sizes about the
    chunk size and with the forked writer on and off: a CSV value as
    float(fmt(v)), a JSON value whole, and -0.0 with its sign."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), CHUNKED_ROWS, st.booleans())
    def test_site_map(self, tmp_path, data, n, forked):
        """Angles read back as float(fmt(v)) of the degrees written, in
        radians."""
        angles = st.floats(-1e300, 1e300)
        columns = dict(zip(SiteResult._fields, pooled_columns(data, 10, n)))
        columns["theta_bottom_rad"], columns["theta_top_rad"] = pooled_columns(data, 2, n, angles)
        path = tmp_path / "sites.csv"
        with writer_cpus(forked):
            export_site_map(Table(SiteResult, **columns), path)
        back = import_site_map(path)
        for name, values in columns.items():
            if name.endswith("_rad"):
                expected = reprs(np.radians([float(fmt(v)) for v in np.degrees(values).tolist()]))
            else:
                expected = as_written(values)
            assert reprs(column(back, name)) == expected, name

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), CHUNKED_ROWS, st.booleans())
    def test_corrections(self, tmp_path, data, n, forked):
        """Distinct sites (y counts the rows) and predicted areas above 0."""
        x, drawn_b, drawn_t, residual = pooled_columns(data, 4, n)
        y = np.arange(n, dtype=float)
        y[0] = -0.0
        (area,) = pooled_columns(data, 1, n, st.floats(0.0, exclude_min=True, allow_infinity=False),
                                 zero=1e-300)
        columns = dict(x_mm=x, y_mm=y, drawn_w_bottom_nm=drawn_b, drawn_w_top_nm=drawn_t,
                       predicted_area_um2=area, residual_area_rel=residual)
        path = tmp_path / "corr.csv"
        with writer_cpus(forked):
            export_corrections(CorrectionTable(1.0, 1.0, Table(CorrectionRow, **columns), ()), path)
        back = import_corrections(path)
        for name, values in columns.items():
            assert reprs(column(back, name)) == as_written(values), name

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), CHUNKED_ROWS, st.booleans())
    def test_json_report(self, tmp_path, data, n, forked):
        """Records of finite floats, of any floats (NaN and infinities
        too), of ints and of drawn text."""
        finite, any_float = pooled_columns(data, 1, n)[0], pooled_columns(data, 1, n, st.floats())[0]
        labels = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=4))
        columns = dict(finite=finite, any_float=any_float, n_runs=np.arange(n) % 4,
                       label=[labels[i % len(labels)] for i in range(n)])
        path = tmp_path / "r.json"
        with writer_cpus(forked):
            write_json_report({"n": n, "records": JsonRecords(**columns)}, path)
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back["n"] == n and len(back["records"]) == n
        for name, values in columns.items():
            assert reprs([record[name] for record in back["records"]]) == reprs(values), name

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data(), CHUNKED_ROWS, st.booleans())
    def test_json_repeating_columns(self, tmp_path, data, n, forked):
        """Float columns as the report's coordinates and area classes
        repeat: 71 grid values, a drawn pool, and chunks with just under,
        at and just over half their rows distinct. The file is the
        encoder's text of the list of dicts."""
        x = np.arange(n) % 71 * 1.0 - 35.0
        x[0] = -0.0
        (pool,) = pooled_columns(data, 1, n, st.sampled_from(REPEATED))
        # In pairs within each chunk: half of a full chunk's rows are
        # distinct, one pair fewer or one row more as `shift` says.
        at = np.arange(n) % ROWS_PER_CHUNK
        half = np.arange(n) - at + at // 2 + 0.25
        shift = data.draw(st.sampled_from([-1, 0, 1]))
        if shift < 0:
            half[(at == 2) | (at == 3)] -= 1.0
        elif shift > 0:
            half[at == 1] *= -1.0
        columns = dict(x_mm=x, area=pool, half=half, n_runs=np.arange(n) % 4)
        path = tmp_path / "r.json"
        with writer_cpus(forked):
            write_json_report({"records": JsonRecords(**columns)}, path)
        rows = [dict(zip(columns, values)) for values in zip(*(c.tolist() for c in columns.values()))]
        expected = json.dumps({"records": rows}, indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected

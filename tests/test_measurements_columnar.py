"""The columnar measurement path against the per-record implementations.

`csvio.import_measurements` reads a well-formed file a column at a
time, and `stats.aggregate`, `stats.fit_gap` and the heatmap's site
means work on numpy columns. The oracles below are the per-record
implementations they replaced: a csv.reader loop building one
MeasurementRecord per row, dict-of-lists grouping and sequential
left-to-right sums (what Python <= 3.11's `sum` computed; later
versions compensate, so the oracles spell the order out).
Results are compared by repr, diagnostics by their text and order, and
errors by type and text.
"""

import csv
import dataclasses
import hashlib
import math
import operator
import os
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import (
    BOUNDARY_KINDS, SLICE_ROWS, boundary_text, oracle_records, padded, quoted
)
from shadowevap import cli, csvio, stats
from shadowevap.errors import (
    ComputationError,
    DegenerateFit,
    ParseError,
    ShadowEvapError,
    ValidationError,
    ZeroValidRows,
)
from shadowevap.stats import (
    GROUP_FIELDS,
    GapFitRecord,
    GapFitResult,
    JunctionRepeatability,
    MeasurementRecord,
    aggregate,
    coefficient_of_variation,
    fit_gap,
)
from shadowevap.table import Table, group_codes

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


# --- the per-record oracles -------------------------------------------------


def seq_sum(values):
    """Floats added one at a time, left to right, from 0.0."""
    return reduce(operator.add, values, 0.0)


def oracle_import(path):
    raw = oracle_records(path, csvio.MEASUREMENT_HEADER, [csvio.MEASUREMENT_JC_COLUMN])
    records, diagnostics = [], []
    for lineno, row in raw:
        if len(row) not in (7, 8):
            diagnostics.append(f"line {lineno}: expected 7 or 8 columns, got {len(row)}")
            continue
        try:
            jc = None
            if len(row) == 8 and row[7].strip() != "":
                jc = float(row[7])
            records.append(
                MeasurementRecord(
                    wafer_id=row[0],
                    chip_id=row[1],
                    x_mm=float(row[2]),
                    y_mm=float(row[3]),
                    area_class_um2=float(row[4]),
                    run_id=row[5],
                    rn_ohm=float(row[6]),
                    jc_ua_um2=jc,
                )
            )
        except (ValueError, ValidationError) as exc:
            diagnostics.append(f"line {lineno}: {exc}")
    if not records:
        raise ZeroValidRows(f"{path}: no valid measurement rows")
    return records, diagnostics


def oracle_aggregate(records, group_by):
    labels = stats._GROUP_LABELS
    group_key = "|".join(labels[g][1] for g in group_by) or "all"
    groups = {}
    for rec in records:
        values = tuple(getattr(rec, labels[g][0]) for g in group_by)
        groups.setdefault(group_key % values, []).append(rec.rn_ohm)
    warnings, group_stats = [], {}
    for key in sorted(groups):
        vals = groups[key]
        if len(vals) < 2:
            warnings.append(f"group {key!r} skipped: {len(vals)} sample(s)")
            continue
        try:
            group_stats[key] = coefficient_of_variation(vals)
        except ComputationError as exc:
            raise ComputationError(f"group {key!r}: {exc}") from None
    junctions = {}
    for rec in records:
        jkey = (rec.wafer_id, rec.chip_id, rec.x_mm, rec.y_mm, rec.area_class_um2)
        junctions.setdefault(jkey, {}).setdefault(rec.run_id, []).append(rec.rn_ohm)
    repeatability = []
    for jkey in sorted(junctions):
        runs = junctions[jkey]
        if len(runs) < 2:
            continue
        run_means = [seq_sum(v) / len(v) for _, v in sorted(runs.items())]
        mean = seq_sum(run_means) / len(run_means)
        try:
            sd = math.sqrt(seq_sum((v - mean) ** 2 for v in run_means) / (len(run_means) - 1))
        except OverflowError:
            sd = math.inf
        if not (math.isfinite(sd) and math.isfinite(mean)):
            raise ComputationError(
                f"junction ({', '.join(map(str, jkey))}): "
                "the mean or spread of its run means overflows"
            )
        repeatability.append(JunctionRepeatability(*jkey, n_runs=len(runs), cv=sd / mean))
    return group_stats, warnings, repeatability


def oracle_fit_gap(rows):
    if len(rows) < 2:
        raise ValidationError("need >= 2 records to fit a gap")
    for rn, area, jc in rows:
        if not (rn > 0 and area > 0 and jc > 0):
            raise ValidationError(f"non-positive record ({rn}, {area}, {jc})")
    ks, js = [], []
    for rn, area, jc in rows:
        product = 2.0 * rn * area
        k = math.pi / product if product else math.inf
        if not math.isfinite(k):
            raise ValidationError(f"non-finite k = pi/(2 R_N A) for record ({rn}, {area}, {jc})")
        ks.append(k)
        js.append(jc)
    denom = seq_sum(k * k for k in ks)
    if denom <= 0.0:
        raise DegenerateFit("no sensitivity to the gap parameter")
    delta = seq_sum(k * j for k, j in zip(ks, js)) / denom
    if not (math.isfinite(denom) and math.isfinite(delta)):
        raise ComputationError("the least-squares sums of the gap fit overflow")
    fitted = [
        # The implied gap as `implied_gap_uev` computes it, which refuses a
        # scalar result that is not finite rather than returning it.
        GapFitRecord(rn, area, jc, 2.0 * rn * jc * area / math.pi, k * delta,
                     k * delta - jc, (k * delta - jc) / jc)
        for (rn, area, jc), k in zip(rows, ks)
    ]
    for rec in fitted:
        if not all(map(math.isfinite, (rec.implied_delta_uev, rec.jc_fitted, rec.rel_residual))):
            raise ValidationError(
                "non-finite implied gap, fitted J_c or relative residual for record "
                f"({rec.rn_ohm}, {rec.area_um2}, {rec.jc_reported})"
            )
    return GapFitResult(delta_uev=delta, records=tuple(fitted))


def oracle_group_codes(keys):
    """Group numbers and first rows by two np.unique sorts per key
    column: the rows numbered so far, then this column."""
    codes = np.zeros(len(keys[0]), dtype=np.intp)
    for key in keys:
        values, inverse = np.unique(key, return_inverse=True)
        _, first, codes = np.unique(
            codes * len(values) + inverse, return_index=True, return_inverse=True
        )
    return codes, first


def oracle_site_means(records):
    by_site = {}
    for rec in records:
        by_site.setdefault((rec.x_mm, rec.y_mm), []).append(rec.rn_ohm)
    return [(x, y, seq_sum(v) / len(v)) for (x, y), v in sorted(by_site.items())]


# --- inputs -----------------------------------------------------------------

# "W|chip=c1" with chip "c2" and "W" with chip "c1|chip=c2" join to one
# group key; 0.04 and 0.0400000001 format alike under %g.
WAFERS = ["W1", "W2", "W10", "Wé", "W|chip=c1", "W"]
CHIPS = ["c1", "c2", "c10", "c1|chip=c2"]
RUNS = ["R1", "R2", "R3", "r1"]
COORDS = ["0", "-0", "0.0", "-0.0", "5", "5.0", "-5", "1e1", "10", "2.5"]
AREAS = ["0.04", "0.040", "4e-2", "0.0400000001", "0.09"]
# Parse, but fail a record check.
FLAGGED = ["nan", "inf", "-inf", "NaN", "+inf", "-5", "0", "-0", "1e400"]
# Break the column-at-a-time pass: unparseable, blank, quoted.
MESSY = ["xx", "", " ", "1_0", "0x10", '"5"', '"1,5"']

positive = st.floats(1e-3, 1e6, allow_nan=False).map(repr)


@st.composite
def measurement_texts(draw):
    """Measurement CSV text: clean, with rows that fail a record check,
    or messy (9- and 1-column rows, blank lines and jc values, quoted
    numbers, unparseable tokens); a spoilt row has one field replaced.
    Any row may quote its wafer id, which may hold a comma or a newline."""
    mode = draw(st.sampled_from(["clean", "flagged", "messy"]))
    spoilers = {"clean": [], "flagged": FLAGGED, "messy": FLAGGED + MESSY}[mode]
    n_cols = draw(st.sampled_from([7, 8]))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        wafer = draw(st.sampled_from(WAFERS + ["W,1", "W\n1"]))
        if wafer in ("W,1", "W\n1") or draw(st.integers(0, 9)) == 0:
            wafer = f'"{wafer}"'
        row = [
            wafer,
            draw(st.sampled_from(CHIPS)),
            draw(st.sampled_from(COORDS)),
            draw(st.sampled_from(COORDS)),
            draw(st.sampled_from(AREAS)),
            draw(st.sampled_from(RUNS)),
            draw(positive | st.sampled_from(["5000", "7e3"])),
            draw(positive | st.sampled_from(["5.61", "1"])),
        ][:n_cols]
        if spoilers and draw(st.booleans()):
            row[draw(st.integers(2, n_cols - 1))] = draw(st.sampled_from(spoilers))
        if mode == "messy":
            row = row[: draw(st.sampled_from([1, 7, 8, 8, 8, 9]))]
            row += ["extra"] * (draw(st.integers(0, 1)) if len(row) == 8 else 0)
        rows.append(",".join(row))
    if mode == "messy" and rows:
        rows.insert(draw(st.integers(0, len(rows))), "")
    header = csvio.MEASUREMENT_HEADER + [csvio.MEASUREMENT_JC_COLUMN][: draw(st.integers(0, 1))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([",".join(header)] + rows) + draw(st.sampled_from(["", newline]))


def outcome(fn, *args):
    try:
        return fn(*args), None
    except (ShadowEvapError, ValueError, ArithmeticError) as exc:
        return None, (type(exc), str(exc))


def reprs(rows):
    return [repr(r) for r in rows]


# --- properties -------------------------------------------------------------


class TestImport:
    @SETTINGS
    @given(measurement_texts())
    def test_matches_oracle(self, tmp_path, text):
        path = tmp_path / "meas.csv"
        path.write_bytes(text.encode())
        new, new_error = outcome(csvio.import_measurements, path)
        old, old_error = outcome(oracle_import, path)
        assert new_error == old_error
        if old is not None:
            assert reprs(new[0]) == reprs(old[0])
            assert new[1] == old[1]

    @settings(SETTINGS, max_examples=50)
    @given(measurement_texts())
    def test_without_ids_keeps_the_same_rows(self, tmp_path, monkeypatch, text):
        """No check reads an id, so without them the same rows are kept
        with the same diagnostics, and np.loadtxt parses no label."""
        path = tmp_path / "meas.csv"
        path.write_bytes(text.encode())
        full, full_error = outcome(csvio.import_measurements, path)
        dtypes = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            dtypes.append(kwargs["dtype"])
            return loadtxt(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "loadtxt", counted)
            numeric, numeric_error = outcome(csvio.import_measurements, path, False)
        assert str not in dtypes
        assert numeric_error == full_error
        if full is not None:
            assert numeric[1] == full[1]
            ids = [numeric[0].columns[name] for name in ("wafer_id", "chip_id", "run_id")]
            assert ids[0] is ids[1] is ids[2]
            for name, c in numeric[0].columns.items():
                if name in ("wafer_id", "chip_id", "run_id"):
                    assert c.tolist() == [None] * len(full[0])
                else:
                    assert repr(c.tolist()) == repr(full[0].columns[name].tolist())

    def test_signed_zero_sites_keep_the_first_sign(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text(
            "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
            "W1,c1,-0,0,0.04,R1,5000\n"
            "W1,c1,0,-0,0.04,R2,5100\n"
            "W2,c1,0,0,0.04,R1,5200\n"
        )
        points = cli._heatmap_points(str(path), "rn_ohm")
        assert repr(points.tolist()) == repr([[-0.0, 0.0, 5100.0]])
        report = aggregate(csvio.import_measurements(path)[0], ("wafer",))
        assert [(j.x_mm, j.y_mm) for j in report.repeatability] == [(-0.0, 0.0)]
        assert math.copysign(1.0, report.repeatability[0].x_mm) == -1.0


    def test_one_long_label_keeps_memory_small(self, tmp_path):
        """One 50,000-character wafer_id among 2,000 short rows: a numpy
        str array of the three label columns would take about 1.2 GB, so
        the text takes the csv.reader path, with the same outcome."""
        path = tmp_path / "meas.csv"
        rows = [f"{'w' * 50_000},c1,0,0,0.04,r1,5000"]
        rows += [f"w{i % 7},c{i % 3},{i % 5},0,0.04,r{i},{5000 + i}" for i in range(2000)]
        rows[7] = "w1,c1,0,0,0.04,r1,-5"
        path.write_text("\n".join([",".join(csvio.MEASUREMENT_HEADER), *rows]) + "\n")
        tracemalloc.start()
        try:
            new = csvio.import_measurements(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        old = oracle_import(path)
        assert reprs(new[0]) == reprs(old[0])
        assert new[1] == old[1] == ["line 9: rn_ohm must be > 0"]
        assert peak < 50e6

    def test_an_unread_long_label_keeps_the_fast_path(
        self, tmp_path, streamed_tails, replayed_slices
    ):
        """Without ids no label is measured, so one 20,000-character chip
        id leaves the file to np.loadtxt, with the oracle's rows and
        diagnostics; with ids the label guard replays its slice and every
        later one row by row, with the same outcome."""
        path = tmp_path / "meas.csv"
        write_long_chip_id(path)
        records, diagnostics = oracle_import(path)
        assert diagnostics == [
            "line 9: rn_ohm must be > 0", "line 20002: rn_ohm must be finite, got nan"
        ]
        table, found = csvio.import_measurements(path, ids=False)
        assert not streamed_tails and not replayed_slices
        assert found == diagnostics
        unread = dict(wafer_id=None, chip_id=None, run_id=None)
        assert reprs(table) == [repr(dataclasses.replace(r, **unread)) for r in records]
        assert import_outcome(path) == (reprs(records), diagnostics)
        assert not streamed_tails
        lines = path.read_text().split("\n")
        starts = replayed_slices + [len(lines)]
        assert starts[0] <= 12_347 < starts[1]
        # Each slice ends at the first line end 128 KiB or more past its start.
        sizes = [sum(len(line) + 1 for line in lines[a - 1 : b - 1]) for a, b in zip(starts, starts[1:])]
        assert all(size >= 32 * csvio.ROWS_PER_CHUNK for size in sizes[:-1])

    def test_a_heatmap_of_an_unread_long_label_is_pinned(self, tmp_path, capsys):
        """`heatmap` reads no id: the long chip id changes no byte of the
        map (recorded before the label guard stopped applying to it)."""
        meas, svg = tmp_path / "meas.csv", tmp_path / "rn_map.svg"
        write_long_chip_id(meas)
        argv = ["heatmap", "--in", str(meas), "--field", "rn_ohm", "--out", str(svg)]
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (
            "cells: 4757\n",
            "skipped row: line 9: rn_ohm must be > 0\n"
            "skipped row: line 20002: rn_ohm must be finite, got nan\n",
        )
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == LONG_CHIP_ID_MAP

    @pytest.mark.parametrize("ids", [True, False])
    def test_a_chip_id_at_the_field_limit(self, tmp_path, ids):
        """A chip id of csv.field_size_limit() characters is read with the
        oracle's records in a file of 3 rows and in one of 25, and one
        more character is refused in both, as csv.reader refuses it.
        Before, np.loadtxt read the longer id in the 3-row file, and in
        the 25-row one without ids."""
        limit = csv.field_size_limit()
        path = tmp_path / "meas.csv"
        unread = {} if ids else dict(wafer_id=None, chip_id=None, run_id=None)
        for n in (3, 25):
            rows = [measurement_row(i) for i in range(n)]
            rows[1][1] = "c" * limit
            path.write_text("\n".join(map(",".join, [csvio.MEASUREMENT_HEADER, *rows])) + "\n")
            records, diagnostics = oracle_import(path)
            expected = [repr(dataclasses.replace(r, **unread)) for r in records]
            assert import_outcome(path, ids) == (expected, diagnostics)
            rows[1][1] += "c"
            path.write_text("\n".join(map(",".join, [csvio.MEASUREMENT_HEADER, *rows])) + "\n")
            assert import_outcome(path, ids) == (
                ParseError, f"{path}:3: field larger than field limit ({limit})"
            )

    def test_a_long_label_in_a_later_slice_keeps_memory_small(self, tmp_path, small_slices):
        """A 5,000-character wafer_id line that is a slice of its own,
        after 200 short rows and before 2,000 more: its slice's labels
        fit the guard, but all of them at its width would take over
        100 MB, so the text takes the csv.reader path."""
        rows = [measurement_row(i) for i in range(2200)]
        lines = [padded(fields) for fields in rows]
        lines[200] = ",".join(["w" * 5000, *rows[200][1:]]) + "\n"
        path = tmp_path / "meas.csv"
        path.write_text(",".join(csvio.MEASUREMENT_HEADER) + "\n" + "".join(lines))
        tracemalloc.start()
        try:
            new = csvio.import_measurements(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reprs(new[0]) == reprs(oracle_import(path)[0])
        assert peak < 20e6

    def test_memory_is_bounded(self, tmp_path):
        """A measurement file of 16 slices or more, its rows shaped as the
        benchmark writes them: the reader holds the text, the columns,
        each slice's labels and one slice's lines and arrays, then the
        labels joined (before slicing, it peaked at 7.1 times the size
        of the benchmark's file)."""
        rng = np.random.default_rng(11)
        n = 50_000
        rn, jc = rng.uniform(2000, 9000, n).tolist(), rng.uniform(0.5, 1.5, n).tolist()
        lines = [
            f"W{i % 5 + 1},c{i % 9}{i % 7},{i % 71 - 35},{i % 67 - 33},0.04,R{i % 3 + 1},"
            f"{csvio.fmt(rn[i])},{csvio.fmt(jc[i])}\n"
            for i in range(n)
        ]
        path = tmp_path / "meas.csv"
        header = csvio.MEASUREMENT_HEADER + [csvio.MEASUREMENT_JC_COLUMN]
        path.write_text(",".join(header) + "\n" + "".join(lines))
        size = path.stat().st_size
        assert size > 16 * 32 * csvio.ROWS_PER_CHUNK
        tracemalloc.start()
        try:
            table, diagnostics = csvio.import_measurements(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == n and not diagnostics
        assert peak < 4 * size


def write_long_chip_id(path):
    """30,000 measurement rows in several of the reader's slices, row
    12,345's chip id 20,000 characters long, and two invalid rows."""
    rows = [
        f"w{i % 5},c{i % 9},{i % 71 - 35},{i % 67 - 33},0.04,r{i % 3},{5000 + i % 997}"
        for i in range(30_000)
    ]
    rows[7] = rows[7].rsplit(",", 1)[0] + ",-5"
    rows[20_000] = rows[20_000].rsplit(",", 1)[0] + ",nan"
    rows[12_345] = rows[12_345].replace(",c", "," + "c" * 20_000, 1)
    path.write_text("\n".join([",".join(csvio.MEASUREMENT_HEADER), *rows]) + "\n")


#: SHA-256 of `heatmap`'s map of `write_long_chip_id`'s file.
LONG_CHIP_ID_MAP = "c7544cc9226abe1c4f8ad4460e0523a2ab9252bf2d3ca0f82764160ff8e995fa"


def measurement_row(i):
    return ["w1", f"c{i % 3}", str(i % 5), "0", "0.04", "r1", str(5000 + i)]


def import_outcome(path, ids=True):
    """import_measurements' records and diagnostics, or its error."""
    table, error = outcome(csvio.import_measurements, path, ids)
    return error or (reprs(table[0]), table[1])


class TestSlicedImport:
    """Measurement files about the reader's slice boundaries, against the
    csv.reader oracle: records by repr, diagnostics by text and order."""

    @pytest.mark.parametrize("kind", BOUNDARY_KINDS)
    @pytest.mark.parametrize("n", [SLICE_ROWS - 1, SLICE_ROWS, SLICE_ROWS + 1, 3 * SLICE_ROWS + 5])
    def test_lines_at_the_boundaries(self, tmp_path, small_slices, kind, n):
        """Every line on either side of a slice boundary is made `kind`,
        and the last line too."""
        k = SLICE_ROWS
        at = {k - 1, k, 2 * k - 1, 2 * k, n - 1} & set(range(n))
        rows = [measurement_row(i) for i in range(n)]
        if kind == "flagged":
            for i in at:
                rows[i][6] = "-5"
        path = tmp_path / "meas.csv"
        path.write_bytes(boundary_text(csvio.MEASUREMENT_HEADER, rows, kind, at).encode())
        old, old_error = outcome(oracle_import, path)
        expected = old_error or (reprs(old[0]), old[1])
        assert import_outcome(path) == expected
        without_ids = import_outcome(path, ids=False)
        assert without_ids[1:] == expected[1:]
        if kind == "short":
            assert len(expected[1]) == len(at)

    @pytest.mark.parametrize("n", [SLICE_ROWS, 3 * SLICE_ROWS + 5])
    def test_a_quoted_id_is_replayed_a_chunk_at_a_time(
        self, tmp_path, small_slices, replayed_lines, n
    ):
        """The csv.reader stream is checked ROWS_PER_CHUNK records at a
        time and read to its end: each row refused about a chunk
        boundary is reported, in line order."""
        k = SLICE_ROWS
        at = {k - 1, k, 2 * k - 1, 2 * k, n - 1}
        rows = [measurement_row(i) for i in range(n)]
        for i in at & set(range(n)):
            rows[i][6] = "-5"
        path = tmp_path / "meas.csv"
        path.write_text(
            ",".join(csvio.MEASUREMENT_HEADER) + "\n" + quoted(rows[0])
            + "".join(map(padded, rows[1:]))
        )
        old = oracle_import(path)
        assert import_outcome(path) == (reprs(old[0]), old[1])
        assert len(old[1]) == len(at & set(range(n)))
        assert replayed_lines == list(range(2, n + 2))

    @pytest.mark.parametrize(
        "fields",
        [lambda r: r + ["5.6"], lambda r: r + ["5.6", "1"], lambda r: r[:1]],
        ids=["jc", "more", "one"],
    )
    def test_a_later_slice_of_another_column_count(self, tmp_path, small_slices, fields):
        """The first slice's rows have 7 fields; every row of the second
        has a jc_ua_um2 as well, or one field more, or only one."""
        rows = [measurement_row(i) for i in range(3 * SLICE_ROWS)]
        for i in range(SLICE_ROWS, 2 * SLICE_ROWS):
            rows[i] = fields(rows[i])
        path = tmp_path / "meas.csv"
        path.write_text(",".join(csvio.MEASUREMENT_HEADER) + "\n" + "".join(map(padded, rows)))
        old = oracle_import(path)
        assert import_outcome(path) == (reprs(old[0]), old[1])
        assert len(old[0]) == 3 * SLICE_ROWS or old[1][0].startswith(f"line {SLICE_ROWS + 2}: ")

    @pytest.mark.parametrize("fault", [(6, "n/a"), (7, "")], ids=["bad-token", "blank-jc"])
    @pytest.mark.parametrize("at", [SLICE_ROWS - 1, SLICE_ROWS], ids=["last", "first"])
    def test_a_refused_slice_is_replayed_alone(
        self, tmp_path, small_slices, streamed_tails, replayed_slices, fault, at
    ):
        """A token np.loadtxt refuses, last in the first slice or first in
        the second, replays that slice alone, row by row; no slice is
        streamed through csv.reader."""
        rows = [measurement_row(i) + ["0.5"] for i in range(3 * SLICE_ROWS)]
        column, token = fault
        rows[at][column] = token
        path = tmp_path / "meas.csv"
        header = [*csvio.MEASUREMENT_HEADER, csvio.MEASUREMENT_JC_COLUMN]
        path.write_text(",".join(header) + "\n" + "".join(map(padded, rows)))
        old = oracle_import(path)
        assert import_outcome(path) == (reprs(old[0]), old[1])
        assert replayed_slices == [2 + at // SLICE_ROWS * SLICE_ROWS]
        assert not streamed_tails

    @pytest.mark.parametrize("variant", ["clean", "n/a", "blank-jc", "quoted"])
    def test_ids_are_str_on_every_path(self, tmp_path, small_slices, variant):
        """Ids read by np.loadtxt, from a replayed slice or from csv.reader
        chunks join as one numpy str array, equal to the oracle's ids."""
        rows = [measurement_row(i) + ["0.5"] for i in range(3 * SLICE_ROWS + 5)]
        for row in rows:
            row[1] = row[1] * (1 + int(row[6]) % 4)
        if variant == "n/a":
            rows[SLICE_ROWS + 2][6] = "n/a"
        elif variant == "blank-jc":
            rows[SLICE_ROWS + 2][7] = ""
        write = quoted if variant == "quoted" else padded
        path = tmp_path / "meas.csv"
        header = [*csvio.MEASUREMENT_HEADER, csvio.MEASUREMENT_JC_COLUMN]
        path.write_text(",".join(header) + "\n" + "".join(map(write, rows)))
        old = oracle_import(path)
        table, diagnostics = csvio.import_measurements(path)
        assert (reprs(table), diagnostics) == (reprs(old[0]), old[1])
        for name in ("wafer_id", "chip_id", "run_id"):
            assert table.columns[name].dtype.kind == "U"
            assert table.columns[name].tolist() == [getattr(r, name) for r in old[0]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_read_as_its_file(self, tmp_path, small_slices, replayed_slices):
        """A pipe has no size: its labels are bounded by the text read so
        far, so its slices go to np.loadtxt and its ids are str."""
        rows = [measurement_row(i) for i in range(3 * SLICE_ROWS + 5)]
        text = ",".join(csvio.MEASUREMENT_HEADER) + "\n" + "".join(map(padded, rows))
        path, pipe = tmp_path / "meas.csv", tmp_path / "pipe"
        path.write_text(text)
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,))
        writer.start()
        try:
            table, diagnostics = csvio.import_measurements(pipe)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert (reprs(table), diagnostics) == import_outcome(path)
        assert table.columns["chip_id"].dtype.kind == "U"
        assert not replayed_slices

    def test_quoted_ids_stream_the_rest_from_the_first_quoted_slice(
        self, tmp_path, small_slices, streamed_tails, replayed_slices, replayed_lines
    ):
        """Rows quote their wafer id from the fourth line of the second
        slice on: csv.reader reads the file from that slice's first line,
        once, and the first slice goes to np.loadtxt."""
        k = SLICE_ROWS
        rows = [measurement_row(i) for i in range(3 * k + 5)]
        rows[2][6] = rows[2 * k][6] = "-5"
        path = tmp_path / "meas.csv"
        path.write_text(
            ",".join(csvio.MEASUREMENT_HEADER) + "\n" + "".join(map(padded, rows[: k + 3]))
            + "".join(map(quoted, rows[k + 3 :]))
        )
        old = oracle_import(path)
        assert import_outcome(path) == (reprs(old[0]), old[1])
        assert old[1] == ["line 4: rn_ohm must be > 0", f"line {2 * k + 2}: rn_ohm must be > 0"]
        assert streamed_tails == [path]
        assert replayed_lines == list(range(k + 2, len(rows) + 2))
        assert not replayed_slices

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("shift", [-2, -1, 0, 1])
    def test_a_line_end_about_a_slice_boundary(self, tmp_path, small_slices, end, shift):
        """The last line of the first and second slices ends in `end`,
        `shift` characters from where a 32-character line would end:
        a CRLF the slice's read splits, or a lone CR that ends a slice or
        comes just before or after its end. Flagged rows after each
        give the line numbers."""
        k = SLICE_ROWS
        rows = [measurement_row(i) for i in range(3 * k + 5)]
        for i in (k + 1, 2 * k + 1, 3 * k + 1):
            rows[i][6] = "-5"
        lines = [
            padded(row, end, 32 + shift) if i in (k - 1, 2 * k - 1) else padded(row)
            for i, row in enumerate(rows)
        ]
        path = tmp_path / "meas.csv"
        path.write_text(",".join(csvio.MEASUREMENT_HEADER) + "\n" + "".join(lines), newline="")
        old = oracle_import(path)
        assert import_outcome(path) == (reprs(old[0]), old[1])
        assert len(old[0]) == len(rows) - 3 and len(old[1]) == 3

    @pytest.mark.parametrize("first", [7, 8])
    def test_rows_without_jc_and_then_with_it(self, tmp_path, small_slices, first):
        """Under a header with jc_ua_um2, the rows of the first slice have
        `first` columns and the rest the other count: each slice is read
        by np.loadtxt, an absent jc_ua_um2 not given."""
        rows = [measurement_row(i) for i in range(3 * SLICE_ROWS + 5)]
        for i, row in enumerate(rows):
            if (i < SLICE_ROWS) == (first == 8):
                row.append(str(0.5 + i))
        rows[SLICE_ROWS + 1][6] = "-5"
        path = tmp_path / "meas.csv"
        header = [*csvio.MEASUREMENT_HEADER, csvio.MEASUREMENT_JC_COLUMN]
        path.write_text(",".join(header) + "\n" + "".join(map(padded, rows)))
        old = oracle_import(path)
        assert import_outcome(path) == (reprs(old[0]), old[1])
        jc = csvio.import_measurements(path)[0].columns["jc_ua_um2"]
        assert jc.tolist() == [r.jc_ua_um2 for r in old[0]]
        assert old[1] == [f"line {SLICE_ROWS + 3}: rn_ohm must be > 0"]

    @pytest.mark.parametrize("wide", [1, 0], ids=["wide-second", "wide-first"])
    def test_labels_that_differ_past_a_slices_width(self, tmp_path, small_slices, wide):
        """Every label of one slice is 1 character wide; in slice `wide`
        every other chip id is "a" followed by 39 zeros, which differs
        from "a" only past that width. Labels are kept whole, so groups
        by chip stay apart."""
        rows = [measurement_row(i) for i in range(3 * SLICE_ROWS)]
        for i, row in enumerate(rows):
            row[0], row[1], row[5] = "w", "ab"[i % 2], "r"
            if i // SLICE_ROWS == wide and i % 2 == 0:
                row[1] = "a" + "0" * 39
        path = tmp_path / "meas.csv"
        path.write_text(",".join(csvio.MEASUREMENT_HEADER) + "\n" + "".join(map(padded, rows)))
        old = oracle_import(path)
        assert import_outcome(path) == (reprs(old[0]), old[1])
        new = aggregate(csvio.import_measurements(path)[0], ("chip",)).group_stats
        expected = oracle_aggregate(old[0], ("chip",))[0]
        assert len(expected) == 3 and list(new) == list(expected)
        assert reprs(new.values()) == reprs(expected.values())

    def test_labels_at_their_own_width_keep_memory_small(self, tmp_path):
        """Lines of about 260 characters whose labels are 2 wide: each
        slice's labels are parsed at its line width and kept at theirs.
        The file's labels held at the line width would take three times
        the bound."""
        rows = [measurement_row(i) for i in range(20_000)]
        lines = [",".join([*row[:2], "0" * 240 + row[2], *row[3:]]) + "\n" for row in rows]
        path = tmp_path / "meas.csv"
        path.write_text(",".join(csvio.MEASUREMENT_HEADER) + "\n" + "".join(lines))
        size = path.stat().st_size
        assert len(lines) * 3 * 4 * max(map(len, lines)) > 3 * 4 * size
        tracemalloc.start()
        try:
            table, diagnostics = csvio.import_measurements(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == len(rows) and not diagnostics
        assert table.columns["chip_id"].dtype == np.dtype("U2")
        assert peak < 4 * size


#: A valid measurement row with every column, jc_ua_um2 included.
VALID_ROW = dict(
    wafer_id="W1", chip_id="c1", x_mm="1", y_mm="2", area_class_um2="0.04",
    run_id="R1", rn_ohm="5000", jc_ua_um2="0.5",
)

#: Rows that fail one check each, in MEASUREMENT_CHECKS' order, then rows
#: that fail several: the text is that of the first check they fail.
REFUSED = [
    ({"x_mm": "nan"}, "x_mm must be finite, got nan"),
    ({"y_mm": "inf"}, "y_mm must be finite, got inf"),
    ({"area_class_um2": "-inf"}, "area_class_um2 must be finite, got -inf"),
    ({"rn_ohm": "NaN"}, "rn_ohm must be finite, got nan"),
    ({"jc_ua_um2": "1e400"}, "jc_ua_um2 must be finite, got inf"),
    ({"rn_ohm": "0"}, "rn_ohm must be > 0"),
    ({"area_class_um2": "-0.04"}, "area_class_um2 must be > 0"),
    ({"area_class_um2": "0", "rn_ohm": "-5", "jc_ua_um2": "nan"},
     "jc_ua_um2 must be finite, got nan"),
    ({"area_class_um2": "0", "rn_ohm": "-5"}, "rn_ohm must be > 0"),
]


def refused_row_file(path, fields, quoted):
    """A measurement file whose line 3, between two valid rows, is the
    valid row with `fields` (column to token) changed; `quoted` quotes
    line 2's wafer id, so csv.reader reads the file from line 2."""
    header = list(VALID_ROW)
    first = dict(VALID_ROW, wafer_id='"W1"' if quoted else "W1")
    rows = [header, first.values(), {**VALID_ROW, **fields}.values(), VALID_ROW.values()]
    path.write_text("\n".join(map(",".join, rows)) + "\n")


class TestOneMessagePerCheck:
    """Each check's text is the same from np.loadtxt's slices, from the
    rows parsed one at a time and from MeasurementRecord."""

    def test_the_checks_keep_their_order(self):
        assert [field for field, _, _ in stats.MEASUREMENT_CHECKS] == [
            "x_mm", "y_mm", "area_class_um2", "rn_ohm", "jc_ua_um2", "rn_ohm", "area_class_um2"
        ]

    @pytest.mark.parametrize("fields, message", REFUSED)
    @pytest.mark.parametrize("quoted", [False, True], ids=["sliced", "replayed"])
    def test_every_route_gives_the_first_failed_checks_text(
        self, tmp_path, streamed_tails, replayed_slices, fields, message, quoted
    ):
        path = tmp_path / "meas.csv"
        refused_row_file(path, fields, quoted)
        table, diagnostics = csvio.import_measurements(path)
        assert diagnostics == [f"line 3: {message}"]
        assert len(table) == 2
        assert streamed_tails == ([path] if quoted else [])
        assert not replayed_slices
        ids = ("wafer_id", "chip_id", "run_id")
        values = {k: v if k in ids else float(v) for k, v in {**VALID_ROW, **fields}.items()}
        with pytest.raises(ValidationError) as info:
            MeasurementRecord(**values)
        assert str(info.value) == message

    @pytest.mark.parametrize("blank", ["", " "], ids=["empty", "space"])
    def test_a_blank_jc_is_not_given_and_a_nan_is_refused(
        self, tmp_path, streamed_tails, replayed_slices, blank
    ):
        """A literal nan jc_ua_um2 is refused on both paths; a blank one
        (which np.loadtxt refuses, so its slice is replayed) keeps its
        row, with None."""
        path = tmp_path / "meas.csv"
        refused_row_file(path, {"jc_ua_um2": "nan"}, quoted=False)
        table, diagnostics = csvio.import_measurements(path)
        assert diagnostics == ["line 3: jc_ua_um2 must be finite, got nan"]
        assert table.columns["jc_ua_um2"].tolist() == [0.5, 0.5]
        assert not replayed_slices
        lines = path.read_text().split("\n")
        lines[1] = lines[1].replace(",0.5", "," + blank)
        path.write_text("\n".join(lines))
        table, found = csvio.import_measurements(path)
        assert found == diagnostics
        assert table.columns["jc_ua_um2"].tolist() == [None, 0.5]
        assert replayed_slices == [2]
        assert not streamed_tails

    def test_a_replayed_row_converts_jc_first(self, tmp_path):
        """Of an unparseable x_mm and jc_ua_um2, the jc token is named."""
        path = tmp_path / "meas.csv"
        refused_row_file(path, {"x_mm": "x", "jc_ua_um2": "jj"}, quoted=False)
        diagnostics = csvio.import_measurements(path)[1]
        assert diagnostics == ["line 3: could not convert string to float: 'jj'"]

    @pytest.mark.parametrize(
        "read, header",
        [(csvio.import_site_map, csvio.SITE_MAP_HEADER),
         (csvio.import_corrections, csvio.CORRECTIONS_HEADER)],
        ids=["site-map", "corrections"],
    )
    @pytest.mark.parametrize("column", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["sliced", "replayed"])
    def test_numeric_tables_name_the_first_non_finite_value(
        self, tmp_path, streamed_tails, replayed_slices, read, header, column, quoted
    ):
        """Line 3 holds a -inf and line 4 a nan: a strict table names line 3."""
        rows = [[str(i + 1)] * len(header) for i in range(4)]
        rows[1][column] = "-inf"
        rows[2][0] = "nan"
        if quoted:
            rows[0][1] = '"1"'
        path = tmp_path / "table.csv"
        path.write_text("\n".join(map(",".join, [header, *rows])) + "\n")
        with pytest.raises(ParseError) as info:
            read(path)
        assert str(info.value) == f"{path}:3: {header[column]} must be finite, got -inf"
        assert streamed_tails == ([path] if quoted else [])
        assert not replayed_slices


class TestAggregate:
    @SETTINGS
    @given(
        measurement_texts(),
        st.lists(st.sampled_from(GROUP_FIELDS), max_size=4, unique=True),
    )
    def test_matches_oracle(self, tmp_path, text, group_by):
        path = tmp_path / "meas.csv"
        path.write_bytes(text.encode())
        try:
            table, _ = csvio.import_measurements(path)
        except ShadowEvapError:
            return
        group_stats, warnings, repeatability = oracle_aggregate(list(table), group_by)
        report = aggregate(table, group_by)
        assert list(report.group_stats) == list(group_stats)
        assert reprs(report.group_stats.values()) == reprs(group_stats.values())
        assert report.warnings == warnings
        assert reprs(report.repeatability) == reprs(repeatability)

    @SETTINGS
    @given(st.sampled_from([2, 12]), st.data())
    def test_many_probes_per_group(self, tmp_path, n_runs, data):
        """Run means, their spread and site means over groups of up to
        hundreds of values: many probes per run, or many runs (np.sum
        would add groups of 8 or more pairwise). Values are seeded
        lognormal draws, which round in every last bit, at unit scale,
        near the square's overflow and near underflow."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(24, 200))
        scale = data.draw(st.sampled_from([1.0, 1e154, 1e-300]))
        probes = list(zip(
            rng.choice([0.0, -0.0], n).tolist(),
            rng.choice([f"R{i}" for i in range(n_runs)], n).tolist(),
            (scale * rng.lognormal(0.0, 1.0, n)).tolist(),
        ))
        records = [
            MeasurementRecord("W1", "c1", x, 0.0, 0.04, run, rn) for x, run, rn in probes
        ]
        # The Table the reader would give for these records, built column
        # by column: `export_measurements` writes 12 digits, which would
        # round the draws.
        x, runs, rn = zip(*probes)
        table = Table(
            MeasurementRecord,
            wafer_id=np.full(n, "W1", dtype=object),
            chip_id=np.full(n, "c1", dtype=object),
            x_mm=np.array(x),
            y_mm=np.zeros(n),
            area_class_um2=np.full(n, 0.04),
            run_id=np.array(runs, dtype=object),
            rn_ohm=np.array(rn),
            jc_ua_um2=np.full(n, None, dtype=object),
        )
        new, new_error = outcome(aggregate, table, ())
        old, old_error = outcome(oracle_aggregate, records, ())
        assert new_error == old_error  # spreads overflow alike
        if old is not None:
            assert reprs(new.repeatability) == reprs(old[2])
        path = tmp_path / "meas.csv"
        path.write_text(
            ",".join(csvio.MEASUREMENT_HEADER) + "\n"
            + "".join(f"W1,c1,{x!r},0,0.04,{run},{rn!r}\n" for x, run, rn in probes)
        )
        points = cli._heatmap_points(str(path), "rn_ohm")
        assert repr(points.tolist()) == repr([list(p) for p in oracle_site_means(records)])


class TestFitGap:
    @SETTINGS
    @given(
        st.lists(
            # Huge products make k = 0, and all-zero k a DegenerateFit;
            # tiny ones make k or its square overflow.
            st.tuples(*[st.floats(-1.0, 1e5) | st.floats(1e150, 1e300)] * 3),
            max_size=30,
        )
    )
    def test_matches_oracle(self, rows):
        new, new_error = outcome(fit_gap, rows)
        old, old_error = outcome(oracle_fit_gap, rows)
        assert new_error == old_error
        if old is not None:
            assert repr(new.delta_uev) == repr(old.delta_uev)
            assert reprs(new.records) == reprs(old.records)
            assert repr(new.max_abs_rel_residual) == repr(old.max_abs_rel_residual)
            assert reprs(fit_gap(np.array(rows)).records) == reprs(old.records)


# Group key columns: floats (0.0 beside -0.0), labels as objects and as
# a numpy str column.
KEY_FLOATS = [0.0, -0.0, 5.0, -5.0, 0.04, 1e300, -1e300, 5e-324, math.inf, -math.inf]
KEY_LABELS = ["W1", "W10", "W2", "", "é", "W|chip=c1", "r1", "R1"]


@st.composite
def key_columns(draw):
    n = draw(st.integers(1, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["float", "object", "str"]))
        pool = KEY_FLOATS if kind == "float" else KEY_LABELS
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        columns.append(np.array(values, dtype={"float": float, "object": object, "str": str}[kind]))
    return columns


class TestGroupCodes:
    @SETTINGS
    @given(key_columns())
    @example([np.array([-0.0])])
    @example([np.array([0.0, -0.0, 0.0]), np.array(["b", "a", "b"], dtype=object)])
    @example([np.array(["W2", "W10", "W2"]), np.array([-0.0, 0.0, 0.0])])
    def test_one_sort_matches_two_per_column(self, keys):
        """One lexsort numbers the groups and picks their first rows as
        np.unique did, twice per column."""
        codes, first = group_codes(keys)
        old_codes, old_first = oracle_group_codes(keys)
        assert codes.dtype == old_codes.dtype and first.dtype == old_first.dtype
        assert codes.tolist() == old_codes.tolist()
        assert first.tolist() == old_first.tolist()


class TestSiteMeans:
    @SETTINGS
    @given(measurement_texts())
    def test_matches_oracle(self, tmp_path, text):
        path = tmp_path / "meas.csv"
        path.write_bytes(text.encode())
        try:
            records, _ = oracle_import(path)
        except ShadowEvapError:
            return
        points = cli._heatmap_points(str(path), "rn_ohm")
        assert repr(points.tolist()) == repr([list(p) for p in oracle_site_means(records)])

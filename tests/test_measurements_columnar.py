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
import math
import operator
import tracemalloc
from functools import reduce

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    implied_gap_uev,
)

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
    header = csvio.MEASUREMENT_HEADER
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise ParseError(f"{path}: empty file")
            if found not in (header, header + [csvio.MEASUREMENT_JC_COLUMN]):
                raise ParseError(
                    f"{path}: unexpected header {found}; expected {header}"
                    f" optionally followed by {[csvio.MEASUREMENT_JC_COLUMN]}"
                )
            raw = [(i, row) for i, row in enumerate(reader, start=2) if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
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
        GapFitRecord(rn, area, jc, implied_gap_uev(rn, area, jc), k * delta,
                     k * delta - jc, (k * delta - jc) / jc)
        for (rn, area, jc), k in zip(rows, ks)
    ]
    return GapFitResult(delta_uev=delta, records=tuple(fitted))


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
    Any row may quote its wafer id, which may hold a comma."""
    mode = draw(st.sampled_from(["clean", "flagged", "messy"]))
    spoilers = {"clean": [], "flagged": FLAGGED, "messy": FLAGGED + MESSY}[mode]
    n_cols = draw(st.sampled_from([7, 8]))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        wafer = draw(st.sampled_from(WAFERS + ["W,1"]))
        if "," in wafer or draw(st.integers(0, 9)) == 0:
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
        for records in (table, list(table)):
            report = aggregate(records, group_by)
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
        new, new_error = outcome(aggregate, records, ())
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

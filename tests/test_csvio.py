"""CSV/JSON artifact round trips and measurement ingestion."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowevap.config import default_config
from shadowevap.csvio import (
    CORRECTIONS_HEADER,
    SITE_MAP_HEADER,
    export_corrections,
    export_measurements,
    export_site_map,
    fmt,
    import_corrections,
    import_measurements,
    import_site_map,
    write_columns,
    write_json_report,
)
from shadowevap.table import column
from shadowevap.errors import EmptyInput, IoError, ParseError, ZeroValidRows
from shadowevap.stats import MeasurementRecord, coefficient_of_variation
from shadowevap.wafer import compensate_wafer, simulate_wafer

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
            assert re.x_mm == orig.site.x_mm
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
            assert re.site.x_mm == orig.site.x_mm
            assert re.drawn_w_bottom_nm == pytest.approx(
                orig.drawn_w_bottom_nm, rel=1e-9
            )


# Spellings of finite numbers, and tokens np.loadtxt rejects but float()
# reads, which the per-line path then takes.
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


class TestJsonReport:
    def test_deterministic_bytes(self, tmp_path):
        report = {"b": 2.0, "a": [1, 2, 3], "nested": {"z": 0.1, "y": "s"}}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_json_report(report, p1)
        write_json_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == report

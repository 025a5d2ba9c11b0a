"""End-to-end command-line behavior and exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from shadowevap.cli import main
from shadowevap.config import DEFAULTS

DEFAULT_CONFIG = "source:\n  distance_mm: 650\n"

MEAS_TEXT = (
    "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
    "w1,c1,0,0,0.025,r1,8123.5\n"
    "w1,c1,0,0,0.025,r2,8120.1\n"
    "w1,c2,5,0,0.025,r1,8410.0\n"
    "w1,c2,5,5,0.025,r1,8350.0\n"
)

TABLE_TEXT = (
    "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm,jc_ua_um2\n"
    "w3,c1,0,0,0.025,r1,2600,5.61\n"
    "w3,c1,0,5,0.09,r1,700,5.80\n"
    "w4,c1,0,0,0.025,r1,3200,4.71\n"
    "w4,c1,0,5,0.09,r1,900,4.56\n"
    "w5,c1,0,0,0.025,r1,13000,1.12\n"
    "w5,c1,0,5,0.09,r1,3300,1.15\n"
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "process.yaml"
    path.write_text(DEFAULT_CONFIG)
    return str(path)


class TestSimulate:
    def test_writes_site_map(self, tmp_path, config_path, capsys):
        out = tmp_path / "sites.csv"
        assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 226
        stdout = capsys.readouterr().out
        assert "sites: 225" in stdout
        assert "branch_discontinuity" in stdout

    def test_reruns_are_byte_identical(self, tmp_path, config_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", config_path, "--out", str(out1)])
        main(["simulate", "--config", config_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_model_and_pitch_flags(self, tmp_path, config_path):
        out = tmp_path / "sites.csv"
        code = main(
            [
                "simulate",
                "--config",
                config_path,
                "--model",
                "I",
                "--grid-pitch-mm",
                "35",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 10  # header + 3x3

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("bottom_step:\n  tilt_deg: 95\n")
        out = tmp_path / "sites.csv"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert "tilt" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        out = tmp_path / "sites.csv"
        assert main(["simulate", "--config", "/nonexistent.yaml", "--out", str(out)]) == 3


NUMERIC_KEYS = [
    (section, key)
    for section, keys in DEFAULTS.items()
    for key, default in keys.items()
    if isinstance(default, float)
] + [("config", "epsilon_center_mm")]


class TestNonFiniteConfig:
    """A non-finite number anywhere in the config exits 2 naming its key."""

    def simulate(self, tmp_path, text):
        config = tmp_path / "process.yaml"
        config.write_text(text)
        return main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.csv")])

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
    @pytest.mark.parametrize("section, key", NUMERIC_KEYS)
    def test_numeric_key(self, tmp_path, capsys, section, key, value):
        if section == "config":
            text = f"{key}: {value}\n"
        else:
            text = f"{section}:\n  {key}: {value}\n"
        assert self.simulate(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert f"error: {section}.{key} must be finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_site_coordinate(self, tmp_path, capsys):
        text = "wafer:\n  sites:\n    - {x_mm: 0, y_mm: 0}\n    - {x_mm: 5, y_mm: .nan}\n"
        assert self.simulate(tmp_path, text) == 2
        err = capsys.readouterr().err
        assert "error: wafer.sites[1].y_mm must be finite, got nan" in err
        assert "Traceback" not in err


class TestCompareModels:
    def test_emits_three_model_columns(self, tmp_path, config_path):
        out = tmp_path / "models.csv"
        code = main(
            [
                "compare-models",
                "--config",
                config_path,
                "--electrode",
                "bottom",
                "--axis",
                "x",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "offset_mm,bias_I_nm,bias_II_nm,bias_III_nm"
        assert len(lines) == 16
        rows = [line.split(",") for line in lines[1:]]
        assert all(float(r[1]) == 0.0 for r in rows)  # model I flat
        center = next(r for r in rows if float(r[0]) == 0.0)
        assert float(center[2]) == 0.0 and float(center[3]) == 0.0
        edge = next(r for r in rows if float(r[0]) == 35.0)
        assert float(edge[3]) > 10.0

    def test_axis_mismatch_exits_2(self, tmp_path, config_path):
        out = tmp_path / "models.csv"
        code = main(
            [
                "compare-models",
                "--config",
                config_path,
                "--electrode",
                "top",
                "--axis",
                "x",
                "--out",
                str(out),
            ]
        )
        assert code == 2


class TestCompensateAndVerify:
    def test_compensation_loop(self, tmp_path, config_path, capsys):
        corr = tmp_path / "corr.csv"
        report = tmp_path / "verify.json"
        assert main(["compensate", "--config", config_path, "--out", str(corr)]) == 0
        assert len(corr.read_text().splitlines()) == 226
        code = main(
            [
                "verify",
                "--config",
                config_path,
                "--corrections",
                str(corr),
                "--out",
                str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["n_sites"] == 225
        assert data["area_cv_percent"] < 0.05
        assert data["max_abs_rel_dev_from_predicted"] < 1e-9

    def test_explicit_area_target(self, tmp_path, config_path):
        corr = tmp_path / "corr.csv"
        code = main(
            [
                "compensate",
                "--config",
                config_path,
                "--target",
                "area:0.025",
                "--out",
                str(corr),
            ]
        )
        assert code == 0

    def test_malformed_target_exits_2(self, tmp_path, config_path):
        code = main(
            [
                "compensate",
                "--config",
                config_path,
                "--target",
                "area:abc",
                "--out",
                str(tmp_path / "c.csv"),
            ]
        )
        assert code == 2

    def test_denominator_collapse_exits_4(self, tmp_path, capsys):
        # A 500 nm throw equals the bottom mask layer: the compensation
        # inverse must report the collapsed denominator, not divide by it.
        tiny = tmp_path / "tiny.yaml"
        tiny.write_text("source: {distance_mm: 0.0005, radius_mm: 0.0}\n")
        code = main(
            [
                "compensate",
                "--config",
                str(tiny),
                "--target",
                "area:0.04",
                "--out",
                str(tmp_path / "c.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 4
        assert "computation error" in err and "Traceback" not in err

    def test_unreachable_target_exits_4(self, tmp_path, config_path):
        code = main(
            [
                "compensate",
                "--config",
                config_path,
                "--target",
                "area:0.000001",
                "--out",
                str(tmp_path / "c.csv"),
            ]
        )
        assert code == 4


class TestGoldenArtifacts:
    """SHA-256 of the default-config artifacts, as pinned for the
    grid-default benchmark workload: the model's arithmetic must stay
    byte-identical across refactors."""

    HASHES = {
        "sites.csv": "56b61ab716be3f940b7904becac23eb1aa42a9a983aa3381a0c757c7986f84ff",
        "models.csv": "c1421a7f1ce2b3ab93c735c2d92b78cb737ec71d2bdf3a56d57edd7a13a92cbe",
        "corrections.csv": "e1cc18842ea902a14408230112911fe122f92426c83342640be41872c1b55356",
        "verify.json": "89bd743143c85b6aeaadebc12afe414289f3000e1fca84fb269b2ab01add09e5",
        "map.svg": "a5104bdcbf94169e1ad3ea4f93020d460c0b86af4dd52891c24be49acc9119c2",
    }

    def test_default_artifacts_are_pinned(self, tmp_path):
        cfg = tmp_path / "process.yaml"
        cfg.write_text("{}\n")
        sites, models, corr, report, svg = (tmp_path / name for name in self.HASHES)
        assert main(["simulate", "--config", str(cfg), "--out", str(sites)]) == 0
        assert main(["compare-models", "--config", str(cfg), "--electrode", "bottom",
                     "--axis", "x", "--out", str(models)]) == 0
        assert main(["compensate", "--config", str(cfg), "--out", str(corr)]) == 0
        assert main(["verify", "--config", str(cfg), "--corrections", str(corr),
                     "--out", str(report)]) == 0
        assert main(["heatmap", "--in", str(sites), "--field", "area_um2",
                     "--out", str(svg)]) == 0
        for name, digest in self.HASHES.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def write_seeded_measurements(path):
    """A small seeded measurement CSV with J_c: two wafers of a 5 x 5
    grid at 5 mm pitch, both area classes, three runs. Wafer 2 gives
    x = 0 as -0 in run 1; two trailing rows fail record checks."""
    rng = np.random.default_rng(20)
    lines = ["wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm,jc_ua_um2"]
    for w in (1, 2):
        for y in range(-10, 11, 5):
            for x in range(-10, 11, 5):
                for area in (0.04, 0.09):
                    rn = 320.0 / area * (1.0 + rng.normal(0.0, 0.03))
                    jc = math.pi * 180.0 / (2.0 * rn * area) * (1.0 + rng.normal(0.0, 0.01))
                    for run in (1, 2, 3):
                        xs = -0.0 if (x == 0 and w == 2 and run == 1) else float(x)
                        probe = rn * (1.0 + rng.normal(0.0, 0.005))
                        lines.append(
                            "W%d,c%d,%.12g,%.12g,%.12g,R%d,%.12g,%.12g"
                            % (w, (x + 10) // 10, xs, y, area, run, probe, jc)
                        )
    lines += ["W1,c1,0,0,0.04,R4,nan,5", "W2,c2,5,5,0.09,R1,-5,5"]
    path.write_text("\n".join(lines) + "\n")


class TestGoldenMeasurements:
    """SHA-256 of `analyze` and `heatmap` artifacts on a seeded
    measurement file, pinned so the measurement path stays
    byte-identical across refactors."""

    HASHES = {
        "analysis.json": "a9587fb7f4a5a3b7e38099deb095e9041fe988e548eb599538a52c553a168460",
        "rn_map.svg": "78cc64585ebf6e6ae3b6f76fbe51372b46f1e0df43002c83d740786ff96e13b8",
    }

    def test_measurement_artifacts_are_pinned(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        write_seeded_measurements(meas)
        report, svg = (tmp_path / name for name in self.HASHES)
        assert main(["analyze", "--measurements", str(meas), "--group-by",
                     "wafer,chip,area,run", "--fit-gap", "--out", str(report)]) == 0
        assert main(["heatmap", "--in", str(meas), "--field", "rn_ohm", "--out", str(svg)]) == 0
        out, err = capsys.readouterr()
        assert out == "groups: 36\ncells: 25\n"
        assert err == (
            "skipped row: line 302: rn_ohm must be finite, got nan\n"
            "skipped row: line 303: rn_ohm must be > 0\n"
        )
        for name, digest in self.HASHES.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


class TestMalformedTables:
    """A bad row in a site map or correction table exits 2 with an error
    naming file:line, never a traceback."""

    @pytest.fixture
    def sites(self, tmp_path, config_path):
        path = tmp_path / "sites.csv"
        assert main(["simulate", "--config", config_path, "--out", str(path)]) == 0
        return path

    @pytest.fixture
    def corrections(self, tmp_path, config_path):
        path = tmp_path / "corr.csv"
        assert main(["compensate", "--config", config_path, "--out", str(path)]) == 0
        return path

    @staticmethod
    def replace_line(path, lineno, text):
        lines = path.read_text().splitlines()
        lines[lineno - 1] = text
        path.write_text("\n".join(lines) + "\n")

    def heatmap(self, sites, tmp_path):
        return main(["heatmap", "--in", str(sites), "--field", "area_um2",
                     "--out", str(tmp_path / "m.svg")])

    def verify(self, corrections, config_path, tmp_path):
        return main(["verify", "--config", config_path, "--corrections",
                     str(corrections), "--out", str(tmp_path / "v.json")])

    @pytest.mark.parametrize("row, got", [("1,2,3", 3), (",".join(["1"] * 11), 11)])
    def test_site_map_row_of_wrong_length(self, sites, tmp_path, capsys, row, got):
        self.replace_line(sites, 6, row)
        assert self.heatmap(sites, tmp_path) == 2
        assert f"sites.csv:6: expected 10 columns, got {got}" in capsys.readouterr().err

    @pytest.mark.parametrize("row, got", [("1,2,3", 3), (",".join(["1"] * 7), 7)])
    def test_correction_row_of_wrong_length(
        self, corrections, config_path, tmp_path, capsys, row, got
    ):
        self.replace_line(corrections, 4, row)
        assert self.verify(corrections, config_path, tmp_path) == 2
        assert f"corr.csv:4: expected 6 columns, got {got}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_correction(self, corrections, config_path, tmp_path, capsys, value):
        lines = corrections.read_text().splitlines()
        fields = lines[9].split(",")
        fields[2] = value
        self.replace_line(corrections, 10, ",".join(fields))
        assert self.verify(corrections, config_path, tmp_path) == 2
        err = capsys.readouterr().err
        assert f"corr.csv:10: drawn_w_bottom_nm must be finite, got {float(value)}" in err

    def test_duplicate_site_in_corrections(self, corrections, config_path, tmp_path, capsys):
        lines = corrections.read_text().splitlines()
        corrections.write_text("\n".join(lines + [lines[2]]) + "\n")
        assert self.verify(corrections, config_path, tmp_path) == 2
        err = capsys.readouterr().err
        x, y = lines[2].split(",")[:2]
        assert f"corr.csv:{len(lines) + 1}: duplicate site ({float(x)}, {float(y)}) mm, " \
            "first given at line 3" in err


class TestNotUtf8:
    """A CSV that is not UTF-8 text exits 2 naming the file."""

    @pytest.fixture
    def binary(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe\x00bin")
        return str(path)

    @pytest.mark.parametrize(
        "command",
        [
            ["heatmap", "--in", "{csv}", "--field", "area_um2", "--out", "m.svg"],
            ["analyze", "--measurements", "{csv}", "--out", "a.json"],
            ["verify", "--config", "{config}", "--corrections", "{csv}", "--out", "v.json"],
        ],
        ids=["heatmap", "analyze", "verify"],
    )
    def test_exits_2(self, binary, config_path, tmp_path, capsys, command):
        argv = [a.format(csv=binary, config=config_path) for a in command]
        argv[-1] = str(tmp_path / argv[-1])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {binary}: not UTF-8 text" in err
        assert "Traceback" not in err


class TestAnalyze:
    def test_non_finite_rows_are_skipped(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(
            MEAS_TEXT + "w1,c3,0,5,0.025,r1,inf\n" + "w1,c4,nan,5,0.025,r1,8300.0\n"
        )
        out = tmp_path / "stats.json"
        assert main(["analyze", "--measurements", str(meas), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["n_records"] == 4
        assert data["n_skipped_rows"] == 2
        err = capsys.readouterr().err
        assert "skipped row: line 6: rn_ohm must be finite, got inf" in err
        assert "skipped row: line 7: x_mm must be finite, got nan" in err
        code = main(["heatmap", "--in", str(meas), "--field", "rn_ohm",
                     "--out", str(tmp_path / "m.svg")])
        assert code == 0
        assert "cells: 3" in capsys.readouterr().out  # one per (x, y) of MEAS_TEXT

    def test_groups_and_repeatability(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEAS_TEXT)
        out = tmp_path / "stats.json"
        code = main(
            [
                "analyze",
                "--measurements",
                str(meas),
                "--group-by",
                "wafer,area",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n_records"] == 4
        assert "wafer=w1|area=0.025" in data["groups"]
        assert data["repeatability"]["n_junctions_with_repeats"] == 1

    def test_fit_gap(self, tmp_path):
        meas = tmp_path / "table.csv"
        meas.write_text(TABLE_TEXT)
        out = tmp_path / "stats.json"
        code = main(
            [
                "analyze",
                "--measurements",
                str(meas),
                "--group-by",
                "wafer",
                "--fit-gap",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert 215.0 <= data["gap_fit"]["delta_uev"] <= 245.0
        assert data["gap_fit"]["max_abs_rel_residual"] < 0.10
        assert data["gap_fit"]["outliers"] == []

    @pytest.mark.parametrize(
        "row, code, message",
        [
            # 2 R_N A underflows, so k = pi/(2 R_N A) is inf.
            ("w6,c1,0,0,1e-160,r1,1e-160,5", 2,
             "error: non-finite k = pi/(2 R_N A) for record (1e-160, 1e-160, 5.0)"),
            # k is finite, but k^2 overflows the sum of squares.
            ("w6,c1,0,0,1e-80,r1,1e-75,5", 4,
             "computation error: the least-squares sums of the gap fit overflow"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_fit_gap_never_writes_a_non_finite_gap(self, tmp_path, capsys, row, code, message):
        meas = tmp_path / "table.csv"
        meas.write_text(TABLE_TEXT + row + "\n")
        out = tmp_path / "stats.json"
        args = ["analyze", "--measurements", str(meas), "--fit-gap", "--out", str(out)]
        assert main(args) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "group_by, named",
        [("wafer", "group 'wafer=w1'"), ("run", "junction (w1, c1, 0.0, 0.0)")],
    )
    @pytest.mark.filterwarnings("error")
    def test_overflowing_spread_exits_4(self, tmp_path, capsys, group_by, named):
        """Squared deviations near 1e309: grouped by wafer, the group's
        spread overflows; grouped by run, each group is narrow and the
        first junction's spread across its two runs overflows."""
        meas = tmp_path / "meas.csv"
        meas.write_text(
            "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
            "w1,c1,0,0,0.04,r1,1e154\nw1,c1,0,0,0.04,r2,9e154\n"
            "w1,c2,5,0,0.04,r1,1.1e154\nw1,c2,5,0,0.04,r2,9.1e154\n"
        )
        out = tmp_path / "stats.json"
        args = ["analyze", "--measurements", str(meas), "--group-by", group_by, "--out", str(out)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert f"computation error: {named}: the mean or spread of" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_fit_gap_without_jc_column_exits_2(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEAS_TEXT)
        code = main(
            [
                "analyze",
                "--measurements",
                str(meas),
                "--fit-gap",
                "--out",
                str(tmp_path / "s.json"),
            ]
        )
        assert code == 2

    def test_zero_valid_rows_exits_2(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text("wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n")
        code = main(
            ["analyze", "--measurements", str(meas), "--out", str(tmp_path / "s.json")]
        )
        assert code == 2


class TestNonFiniteFlags:
    """Every numeric flag refuses inf and nan: exit 2 naming the flag."""

    COMMANDS = {
        "--grid-pitch-mm": ["simulate", "--config", "{config}", "--out", "{out}"],
        "--rn-ohm": ["frequency", "--rn-ohm", "8000", "--delta-uev", "180", "--ec-mhz", "270"],
        "--delta-uev": ["frequency", "--rn-ohm", "8000", "--delta-uev", "180", "--ec-mhz", "270"],
        "--ec-mhz": ["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06",
                     "--delta-uev", "180", "--ec-mhz", "270", "--n", "10000"],
        "--mean-rn-ohm": ["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06",
                          "--delta-uev", "180", "--ec-mhz", "270", "--n", "10000"],
        "--cv-rn": ["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06",
                    "--delta-uev", "180", "--ec-mhz", "270", "--n", "10000"],
    }

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag", list(COMMANDS))
    def test_exits_2_naming_the_flag(self, flag, value, config_path, tmp_path, capsys):
        argv = [a.format(config=config_path, out=tmp_path / "out.csv")
                for a in self.COMMANDS[flag]]
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv.append(f"{flag}={value}")  # "-inf" alone would read as an option
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be finite, got {value!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    def test_non_number_message_is_unchanged(self, capsys):
        with pytest.raises(SystemExit):
            main(["frequency", "--rn-ohm", "abc", "--delta-uev", "180", "--ec-mhz", "270"])
        assert "argument --rn-ohm: invalid float value: 'abc'" in capsys.readouterr().err


class TestScalarCommands:
    def test_frequency(self, capsys):
        code = main(
            ["frequency", "--rn-ohm", "8000", "--delta-uev", "180", "--ec-mhz", "270"]
        )
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split(": ") for line in out.strip().splitlines())
        assert float(values["f_ghz"]) == pytest.approx(5.89, abs=0.01)
        assert float(values["dlnf_dlnrn"]) == pytest.approx(-0.523, abs=1e-3)

    def test_frequency_too_resistive_exits_4(self):
        code = main(
            ["frequency", "--rn-ohm", "1e9", "--delta-uev", "180", "--ec-mhz", "270"]
        )
        assert code == 4

    def test_propagate_deterministic(self, capsys):
        args = [
            "propagate",
            "--mean-rn-ohm", "8000",
            "--cv-rn", "0.06",
            "--delta-uev", "180",
            "--ec-mhz", "270",
            "--n", "50000",
            "--seed", "11",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        values = dict(line.split(": ") for line in first.strip().splitlines())
        assert 0.50 <= float(values["cv_ratio"]) <= 0.55

    PROPAGATE = ["propagate", "--cv-rn", "0.06", "--delta-uev", "180", "--ec-mhz", "270"]

    def test_propagate_output_is_pinned(self, capsys):
        argv = self.PROPAGATE + ["--mean-rn-ohm", "8000", "--n", "100000", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "cv_f: 0.0313227596903\n"
            "cv_ratio: 0.522045994838\n"
            "mean_f_ghz: 5.89585275418\n"
            "n_invalid: 0\n"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_propagate_counts_draws_that_underflow(self, capsys):
        """A subnormal mean R_N: two draws underflow to 0 and are invalid."""
        argv = ["propagate", "--mean-rn-ohm", "1.2e-323", "--cv-rn", "0.29",
                "--delta-uev", "180", "--ec-mhz", "270", "--n", "1000000", "--seed", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "cv_f: inf\ncv_ratio: inf\nmean_f_ghz: 1.83048729049e+164\nn_invalid: 2\n"
        )


class TestHeatmap:
    def test_site_map_field(self, tmp_path, config_path):
        sites = tmp_path / "sites.csv"
        main(["simulate", "--config", config_path, "--out", str(sites)])
        svg = tmp_path / "map.svg"
        code = main(
            ["heatmap", "--in", str(sites), "--field", "area_um2", "--out", str(svg)]
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_measurement_field(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEAS_TEXT)
        svg = tmp_path / "map.svg"
        code = main(
            ["heatmap", "--in", str(meas), "--field", "rn_ohm", "--out", str(svg)]
        )
        assert code == 0

    def test_unknown_field_exits_2(self, tmp_path, config_path, capsys):
        sites = tmp_path / "sites.csv"
        main(["simulate", "--config", config_path, "--out", str(sites)])
        code = main(
            ["heatmap", "--in", str(sites), "--field", "bogus", "--out", str(tmp_path / "m.svg")]
        )
        assert code == 2
        assert "area_um2" in capsys.readouterr().err

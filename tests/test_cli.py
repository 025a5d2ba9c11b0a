"""End-to-end command-line behavior and exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowevap
from shadowevap import wafer
from shadowevap.cli import main
from shadowevap.config import DEFAULTS
from shadowevap.stats import MAX_MC_SAMPLES
from shadowevap.wafer import MAX_GRID_SITES

DEFAULT_CONFIG = "source:\n  distance_mm: 650\n"

MEAS_TEXT = (
    "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
    "w1,c1,0,0,0.025,r1,8123.5\n"
    "w1,c1,0,0,0.025,r2,8120.1\n"
    "w1,c2,5,0,0.025,r1,8410.0\n"
    "w1,c2,5,5,0.025,r1,8350.0\n"
)

CORRECTIONS_TEXT = (
    "x_mm,y_mm,drawn_w_bottom_nm,drawn_w_top_nm,predicted_area_um2,residual_area_rel\n"
    "0,0,200,200,0.04,0\n"
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


def strict_json(text):
    """JSON as RFC 8259 defines it: NaN, Infinity and -Infinity are
    refused."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


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

    def test_signed_zero_coordinates_survive(self, tmp_path):
        """-0.0 and 0.0 are distinct values to the CSV writer: each keeps
        its sign in the site map and the corrections."""
        config = tmp_path / "process.yaml"
        config.write_text(
            "wafer:\n  sites:\n    - {x_mm: -0.0, y_mm: 0.0}\n    - {x_mm: 0.0, y_mm: -0.0}\n"
        )
        sites, corrections = tmp_path / "sites.csv", tmp_path / "c.csv"
        assert main(["simulate", "--config", str(config), "--out", str(sites)]) == 0
        assert main(["compensate", "--config", str(config), "--out", str(corrections)]) == 0
        for path in (sites, corrections):
            rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
            assert rows == [["-0", "0"], ["0", "-0"]]

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

    @pytest.mark.parametrize("text, flags", [
        ("wafer: {sites: [{x_mm: 0, y_mm: 0}]}\n", []),
        (DEFAULT_CONFIG, ["--grid-pitch-mm", "100"]),
    ], ids=["one-site", "pitch-100"])
    def test_one_site_exits_4_and_writes_no_site_map(self, tmp_path, capsys, text, flags):
        """A map of one site has no area CV; before, its site map was
        written before the command failed."""
        config, out = tmp_path / "one.yaml", tmp_path / "sites.csv"
        config.write_text(text)
        assert main(["simulate", "--config", str(config), *flags, "--out", str(out)]) == 4
        assert capsys.readouterr().err.endswith(
            "computation error: need >= 2 samples for a CV, got 1\n"
        )
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("bottom_step:\n  tilt_deg: 95\n")
        out = tmp_path / "sites.csv"
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert "tilt" in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        out = tmp_path / "sites.csv"
        assert main(["simulate", "--config", "/nonexistent.yaml", "--out", str(out)]) == 3


class TestGridSiteCap:
    """A grid pitch that would make more than MAX_GRID_SITES sites exits
    2 before any offset or site is allocated."""

    @pytest.mark.parametrize(
        "pitch, count", [("1e-4", "4.90001e+11"), ("5e-324", "inf")]
    )
    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["compare-models", "--electrode", "bottom", "--axis", "x"]],
        ids=["simulate", "compare-models"],
    )
    def test_exits_2_without_allocating(self, tmp_path, config_path, capsys, command, pitch, count):
        out = tmp_path / "out.csv"
        argv = command + ["--config", config_path, "--grid-pitch-mm", pitch, "--out", str(out)]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        # 700,001 offsets alone would take over 20 MB.
        assert peak < 1_000_000
        assert capsys.readouterr().err.endswith(
            f"error: wafer.grid_pitch_mm = {float(pitch)} gives a grid of {count} sites, "
            f"more than the cap of {MAX_GRID_SITES}\n"
        )
        assert not out.exists()


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


class TestConfigExtremes:
    """Every numeric config key at extreme finite values, through each
    sweep command: a documented exit code, no traceback, no numpy
    warning, and no nan or inf in stdout or in any file written."""

    COMMANDS = {
        "simulate": [],
        "compensate": [],
        "compare-models": ["--electrode", "bottom", "--axis", "x"],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "value", ["1.0e+308", "-1.0e+308", "1.0e+200", "1.0e-200", "5.0e-324", "0"]
    )
    @pytest.mark.parametrize("section, key", NUMERIC_KEYS)
    def test_sweep(self, tmp_path, capsys, section, key, value, command):
        config = tmp_path / "process.yaml"
        if section == "config":
            config.write_text(f"{key}: {value}\n")
        else:
            config.write_text(f"{section}:\n  {key}: {value}\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [command, "--config", str(config), *self.COMMANDS[command],
                "--out", str(out_dir / "result.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 2, 3, 4)
        assert [str(w.message) for w in caught] == []
        texts = [capsys.readouterr().out] + [p.read_text() for p in out_dir.iterdir()]
        assert [t for t in texts if re.search(r"\b(nan|inf)\b", t, re.IGNORECASE)] == []


def nested(depth, one_line, section="wafer", key="sites"):
    """A config whose `section.key` nests `depth` flow sequences, on one
    line or with one opener per line."""
    opener = "[" if one_line else "[\n   "
    return f"{section}:\n  {key}: " + opener * depth + "]" * depth + "\n"


class TestDeepNesting:
    """Nesting too deep for the parser exits 2, never with a traceback
    or a crashed interpreter."""

    @pytest.mark.parametrize("one_line", [True, False], ids=["one-line", "one-per-line"])
    @pytest.mark.parametrize("section, key", [("wafer", "sites"), ("source", "distance_mm")])
    def test_depth_3000(self, tmp_path, capsys, section, key, one_line):
        """PyYAML runs out of recursion, whether the openers stand on one
        line or one per line: the data is deeper than config.MAX_NESTING."""
        config = tmp_path / "deep.yaml"
        config.write_text(nested(3000, one_line, section, key))
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == f"error: cannot parse {config}: nested too deeply\n"

    @pytest.mark.parametrize("one_line", [True, False], ids=["one-line", "one-per-line"])
    def test_depth_100000_in_a_subprocess(self, tmp_path, one_line):
        """Far deeper than PyYAML's recursion reaches, the run still
        exits 2 with the nesting error, not a crash."""
        config = tmp_path / "deep.yaml"
        config.write_text(nested(100_000, one_line))
        env = {**os.environ, "PYTHONPATH": str(Path(shadowevap.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "shadowevap.cli", "simulate", "--config", str(config),
             "--out", str(tmp_path / "s.csv")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 2
        assert run.stderr == f"error: cannot parse {config}: nested too deeply\n"


def test_overflowing_throw_names_the_key(tmp_path, capsys):
    """2 D sin t overflows for this throw; before, the run reported a
    closed aperture (printed width -inf) with exit 4."""
    config = tmp_path / "process.yaml"
    config.write_text("source: {distance_mm: 1.5e+302}\ntop_step: {tilt_deg: 80}\n")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.endswith(
        "error: source.distance_mm = 1.5e+302 overflows the width formulas in nm\n"
    )


@pytest.mark.parametrize("target, error", [
    ("area:inf", "target area must be finite, got inf"),
    ("area:1e308", "target area:1e+308:1.0 gives printed widths (inf, inf) nm, "
     "which must be finite"),
    ("area:0.025:inf", "target aspect must be finite, got inf"),
    ("area:nan", "target area must be finite, got nan"),
])
def test_non_finite_target_exits_2(tmp_path, config_path, capsys, target, error):
    """Before, the first three exited 4 after rejecting every site or
    naming an area of 0."""
    argv = ["compensate", "--config", config_path, "--target", target,
            "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.endswith(f"error: {error}\n")
    assert "rejected" not in out.err
    assert not (tmp_path / "c.csv").exists()


def test_subnormal_target_area_exits_4(tmp_path, config_path, capsys):
    """area:1e-320 gives finite, tiny target widths that no site reaches."""
    argv = ["compensate", "--config", config_path, "--target", "area:1e-320",
            "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 4
    assert capsys.readouterr().err.endswith(
        "computation error: all sites unreachable for this target\n")


def test_target_area_underflow_exits_4(tmp_path, capsys):
    """A subnormal center width makes the target area 0, which every
    relative residual divides by; before, numpy warned and exit was 0."""
    config = tmp_path / "process.yaml"
    config.write_text(
        "mask: {top_H_nm: 1.0e-308}\njunction: {drawn_w_bottom_nm: 5.0e-324}\n"
        "source: {radius_mm: 5.0e-324}\n"
    )
    assert main(["compensate", "--config", str(config), "--out", str(tmp_path / "c.csv")]) == 4
    assert capsys.readouterr().err.endswith(
        "computation error: target widths (1e-323, 185.3292439328912) nm give an area of 0\n"
    )
    assert not (tmp_path / "c.csv").exists()


#: YAML scalars for the exit-code fuzz: bools, strings, non-finite,
#: huge, tiny and subnormal numbers.
FUZZ_SCALARS = ["true", "off", "~", "x", "'650'", ".inf", "-.inf", ".nan", "1.0e+308",
                "-1.0e+308", "1.0e-308", "5.0e-324", "-5.0e-324", "0.0", "-0.0", "0x10"]
#: The same values as command-line text.
FUZZ_FLAG_VALUES = ["true", "x", "", "inf", "-inf", "nan", "1e308", "-1e308", "1e-308",
                    "5e-324", "-5e-324", "0", "-0", "-1", "0x10", "100000000000000000000"]
CONFIG_KEYS = [(section, key) for section, keys in DEFAULTS.items() for key in keys] + [
    ("config", "epsilon_center_mm"), ("site", "x_mm"), ("site", "y_mm")]
SWEEPS = [["simulate"], ["compensate"], ["compare-models", "--electrode", "bottom", "--axis", "x"]]
FLAG_COMMANDS = [
    ["simulate", "--config", "{config}", "--grid-pitch-mm", "5", "--out", "{out}"],
    ["compare-models", "--config", "{config}", "--electrode", "top", "--axis", "y",
     "--grid-pitch-mm", "5", "--out", "{out}"],
    ["compensate", "--config", "{config}", "--grid-pitch-mm", "5", "--target", "area:{area}",
     "--out", "{out}"],
    ["frequency", "--rn-ohm", "8000", "--delta-uev", "180", "--ec-mhz", "270"],
    ["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06", "--delta-uev", "180",
     "--ec-mhz", "270", "--n", "10000", "--seed", "3"],
]


def run_checked(argv):
    """Run the CLI in process: the exit code is documented and no numpy
    warning was raised (tier-1 turns RuntimeWarning into an error, so a
    numpy warning or any traceback also fails the test)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught] == []
    return code


class TestExitCodeFuzz:
    """Scalars substituted into config keys and numeric flags."""

    @settings(max_examples=80, deadline=None)
    @given(st.dictionaries(st.sampled_from(CONFIG_KEYS), st.sampled_from(FUZZ_SCALARS),
                           min_size=1, max_size=3),
           st.sampled_from(SWEEPS))
    def test_config_scalars(self, values, command):
        sections = {}
        for (section, key), value in values.items():
            sections.setdefault(section, {})[key] = value
        lines = [f"{key}: {value}" for key, value in sections.pop("config", {}).items()]
        if "site" in sections:
            site = {"x_mm": "5.0", "y_mm": "-5.0", **sections.pop("site")}
            entry = ", ".join(f"{k}: {v}" for k, v in site.items())
            sections.setdefault("wafer", {})["sites"] = f"[{{{entry}}}]"
        lines += [f"{section}: {{{', '.join(f'{k}: {v}' for k, v in keys.items())}}}"
                  for section, keys in sections.items()]
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "process.yaml"
            config.write_text("\n".join(lines) + "\n")
            run_checked([*command, "--config", str(config), "--out", str(Path(tmp) / "o.csv")])

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(FLAG_COMMANDS), st.data())
    def test_flag_values(self, template, data):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "process.yaml"
            config.write_text(DEFAULT_CONFIG)
            area = data.draw(st.sampled_from(FUZZ_FLAG_VALUES))
            argv = [a.format(config=config, out=Path(tmp) / "o.csv", area=area)
                    for a in template]
            flags = [i for i, a in enumerate(argv) if a.startswith("--") and
                     argv[i + 1:i + 2] and argv[i + 1][:1].isdigit()]
            for i in data.draw(st.lists(st.sampled_from(flags), min_size=1, unique=True)):
                # --flag=value: "-inf" alone would read as an option.
                argv[i] = f"{argv[i]}={data.draw(st.sampled_from(FUZZ_FLAG_VALUES))}"
                argv[i + 1] = None
            run_checked([a for a in argv if a is not None])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(MAX_MC_SAMPLES + 1, 10**4000).map(str) | st.just("9" * 5000))
    def test_huge_sample_counts(self, n):
        """--n is checked before any draw: exit 2, whatever its size."""
        assert run_checked(["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06",
                            "--delta-uev", "180", "--ec-mhz", "270", f"--n={n}"]) == 2


#: Bytes a damaged CSV file has inserted somewhere. A file is also
#: damaged by cutting it mid-row or by repeating its header line.
INSERTS = {
    "NUL": b"\x00",
    "lone CR": b"\r",
    "stray quote": b'"',
    "BOM": "\ufeff".encode(),
    "not UTF-8": b"\xff\xfe\x80",
    "long number": b"7" * 200_000,
    "long text": b"x" * 200_000,
}


class TestFileInputFuzz:
    """A valid site map, corrections file and measurement file, each
    damaged once, read by the commands that take them: every run exits
    0, 2, 3 or 4 with no numpy warning and no traceback."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("inputs")
        config = tmp / "process.yaml"
        config.write_text(DEFAULT_CONFIG + "wafer: {grid_pitch_mm: 10}\n")
        sites, corrections, meas = tmp / "sites.csv", tmp / "corr.csv", tmp / "meas.csv"
        assert main(["simulate", "--config", str(config), "--out", str(sites)]) == 0
        assert main(["compensate", "--config", str(config), "--out", str(corrections)]) == 0
        meas.write_text(TABLE_TEXT)
        commands = {
            "site map": [["heatmap", "--in", "{csv}", "--field", "area_um2", "--out", "{out}"]],
            "corrections": [["verify", "--config", str(config), "--corrections", "{csv}",
                             "--out", "{out}"]],
            "measurements": [
                ["analyze", "--measurements", "{csv}", "--fit-gap", "--out", "{out}"],
                ["analyze", "--measurements", "{csv}", "--group-by", "chip,run", "--out", "{out}"],
                ["heatmap", "--in", "{csv}", "--field", "rn_ohm", "--out", "{out}"],
            ],
        }
        return {name: (path.read_bytes(), commands[name])
                for name, path in [("site map", sites), ("corrections", corrections),
                                   ("measurements", meas)]}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["site map", "corrections", "measurements"]),
           st.sampled_from(["truncated", "header again", *INSERTS]), st.data())
    def test_exit_codes(self, inputs, name, damage, data):
        text, commands = inputs[name]
        header_end = text.index(b"\n") + 1
        if damage == "truncated":  # mid-row: after the header, not at a line end
            cuts = [i for i in range(header_end, len(text)) if text[i - 1] != ord("\n")]
            damaged = text[:data.draw(st.sampled_from(cuts))]
        elif damage == "header again":  # at a line start
            starts = [i + 1 for i in range(len(text)) if text[i] == ord("\n")]
            at = data.draw(st.sampled_from([0, *starts]))
            damaged = text[:at] + text[:header_end] + text[at:]
        else:
            at = data.draw(st.integers(0, len(text)))
            damaged = text[:at] + INSERTS[damage] + text[at:]
        command = data.draw(st.sampled_from(commands))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_bytes(damaged)
            run_checked([a.format(csv=path, out=Path(tmp) / "out") for a in command])


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

    def test_each_model_center_is_evaluated_once(self, tmp_path, config_path, monkeypatch):
        """Each profile reads its center width from its own sweep, so the
        three models' centers take one one-site chain each (six before)."""
        calls, site_widths = [], wafer._site_widths

        def counted(config, model, *args, **kwargs):
            calls.append(model)
            return site_widths(config, model, *args, **kwargs)

        monkeypatch.setattr(wafer, "_site_widths", counted)
        argv = ["compare-models", "--config", config_path, "--electrode", "top", "--axis", "y",
                "--out", str(tmp_path / "models.csv")]
        assert main(argv) == 0
        assert calls == list(wafer.BiasModel)

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


    @pytest.mark.parametrize("electrode, axis, site", [
        ("bottom", "x", "(-100.0, 0.0)"), ("top", "y", "(0.0, -100.0)"),
    ])
    def test_profile_off_the_wafer_exits_2(self, tmp_path, capsys, electrode, axis, site):
        """A profile point off the wafer is refused as `simulate` refuses
        the same grid; before, it exited 0 with biases out to 100 mm."""
        config = tmp_path / "wide.yaml"
        config.write_text("wafer: {working_span_mm: 200}\n")
        out = tmp_path / "models.csv"
        argv = ["compare-models", "--config", str(config), "--electrode", electrode,
                "--axis", axis, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(
            f"error: site {site} mm lies outside the wafer\n"
        )
        assert not out.exists()


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
        data = strict_json(report.read_text())
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

    def test_bottom_error_precedes_top_error_at_a_site(self, tmp_path, capsys):
        """At a site where both electrodes fail (the throw clears no mask
        layer, and the top ray at y = 5 mm grazes), the chain runs in
        deposition order and reports the bottom electrode's error."""
        config = tmp_path / "short.yaml"
        config.write_text(
            "source: {distance_mm: 1.0e-300, radius_mm: 0.0}\n"
            "wafer:\n  sites:\n    - {x_mm: 0.0, y_mm: 5.0}\n"
        )
        argv = ["compensate", "--config", str(config), "--target", "area:0.04",
                "--out", str(tmp_path / "c.csv")]
        assert main(argv) == 4
        assert capsys.readouterr().err.endswith(
            "computation error: site (0.0, 5.0) mm: "
            "throw D cos(theta) does not clear the bottom mask layer\n"
        )

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

    def test_correction_off_the_wafer_exits_2(self, tmp_path, capsys):
        """A correction row outside the 100 mm wafer is refused as
        `simulate` refuses the same site in `wafer.sites`; before, it was
        simulated and counted in the residual."""
        config = tmp_path / "empty.yaml"
        config.write_text("{}\n")
        corr = tmp_path / "corr.csv"
        corr.write_text(CORRECTIONS_TEXT + "400,0,200,200,0.04,0\n")
        out = tmp_path / "v.json"
        argv = ["verify", "--config", str(config), "--corrections", str(corr), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith(
            "error: site (400.0, 0.0) mm lies outside the wafer\n"
        )
        assert not out.exists()


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
        "analysis.json": "fd9fa0a35b4f35ffd51ebaac467cd004718e0678f2336e73c6bcb35173e0b7e8",
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
        # Each command reports the two skipped rows.
        assert err == (
            "skipped row: line 302: rn_ohm must be finite, got nan\n"
            "skipped row: line 303: rn_ohm must be > 0\n"
        ) * 2
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

    @pytest.mark.parametrize("value", ["0", "-0.04"])
    def test_non_positive_predicted_area(
        self, corrections, config_path, tmp_path, capsys, value
    ):
        """`verify` divides by the predicted area; before, 0 gave a numpy
        warning, a report holding Infinity and exit 0."""
        fields = corrections.read_text().splitlines()[6].split(",")
        fields[4] = value
        self.replace_line(corrections, 7, ",".join(fields))
        assert self.verify(corrections, config_path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"corr.csv:7: predicted_area_um2 must be > 0, got {float(value)}\n")
        assert not (tmp_path / "v.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_deviation_exits_4(self, corrections, config_path, tmp_path, capsys):
        """A predicted area of 1e-320 passes the reader's > 0 check, and
        the deviation from it overflows; before, `verify` warned, wrote
        Infinity and exited 0."""
        fields = corrections.read_text().splitlines()[1].split(",")
        fields[4] = "1e-320"
        self.replace_line(corrections, 2, ",".join(fields))
        assert self.verify(corrections, config_path, tmp_path) == 4
        site = f"({float(fields[0])}, {float(fields[1])})"
        assert capsys.readouterr().err.endswith(
            f"computation error: site {site} mm: the deviation from its predicted area overflows\n"
        )
        assert not (tmp_path / "v.json").exists()

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


class TestOverlongField:
    """A CSV field longer than the csv module's field limit exits 2
    naming file:line, never a traceback: in the header, in a quoted row
    (the whole text is replayed) and in an unquoted row that fails a
    check (that row is replayed)."""

    # A number np.loadtxt reads, far longer than csv's 131,072 characters.
    LONG = "0" * 140_000 + "1"

    @pytest.mark.parametrize("place", ["header", "quoted", "unquoted"])
    @pytest.mark.parametrize("command", ["heatmap", "analyze", "verify"])
    def test_exits_2(self, tmp_path, config_path, capsys, command, place):
        csv_path = tmp_path / "big.csv"
        if command == "verify":
            head, row = CORRECTIONS_TEXT, "{},5,200,200,0.04,nan"
        else:
            head, row = MEAS_TEXT, "w1,c1,{},0,0.025,r3,-5"
        if place == "header":
            text, line = f'"{self.LONG}"\n', 1
        else:
            field = f'"{self.LONG}"' if place == "quoted" else self.LONG
            text, line = head + row.format(field) + "\n", head.count("\n") + 1
        csv_path.write_text(text)
        out = tmp_path / "out"
        argv = {
            "heatmap": ["heatmap", "--in", str(csv_path), "--field", "rn_ohm"],
            "analyze": ["analyze", "--measurements", str(csv_path)],
            "verify": ["verify", "--config", config_path, "--corrections", str(csv_path)],
        }[command]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {csv_path}:{line}: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestAnalyze:
    def test_non_finite_rows_are_skipped(self, tmp_path, capsys):
        meas = tmp_path / "meas.csv"
        meas.write_text(
            MEAS_TEXT + "w1,c3,0,5,0.025,r1,inf\n" + "w1,c4,nan,5,0.025,r1,8300.0\n"
        )
        out = tmp_path / "stats.json"
        assert main(["analyze", "--measurements", str(meas), "--out", str(out)]) == 0
        data = strict_json(out.read_text())
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
        data = strict_json(out.read_text())
        assert data["n_records"] == 4
        assert "wafer=w1|area=0.025" in data["groups"]
        assert data["repeatability"]["n_junctions_with_repeats"] == 1

    def test_repeat_cv_summary(self, tmp_path):
        """mean_cv_percent and max_cv_percent summarise the per-junction
        CVs, and are left out below two junctions with repeats."""
        meas = tmp_path / "meas.csv"
        out = tmp_path / "stats.json"
        args = ["analyze", "--measurements", str(meas), "--out", str(out)]
        meas.write_text(MEAS_TEXT)
        assert main(args) == 0
        assert set(strict_json(out.read_text())["repeatability"]) == {
            "n_junctions_with_repeats", "per_junction"
        }
        meas.write_text(MEAS_TEXT + "w1,c2,5,0,0.025,r2,8398.5\nw1,c2,5,5,0.025,r3,8350.0\n")
        assert main(args) == 0
        repeats = strict_json(out.read_text())["repeatability"]
        cvs = [j["cv_percent"] for j in repeats["per_junction"]]
        assert len(cvs) == 3 and cvs[2] == 0.0
        assert cvs[0] == pytest.approx(100.0 * math.sqrt(3.4**2 / 2) / 8121.8, rel=1e-9)
        assert repeats["mean_cv_percent"] == pytest.approx(sum(cvs) / 3, rel=1e-12)
        assert repeats["max_cv_percent"] == max(cvs)

    def test_fit_gap_report_is_the_encoders_layout(self, tmp_path):
        """The written report is json's own layout of its contents."""
        meas, out = tmp_path / "meas.csv", tmp_path / "stats.json"
        write_seeded_measurements(meas)
        assert main(["analyze", "--measurements", str(meas), "--fit-gap", "--out", str(out)]) == 0
        text = out.read_text()
        report = strict_json(text)
        assert report["gap_fit"]["records"] and report["repeatability"]["per_junction"]
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

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
        data = strict_json(out.read_text())
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
            # The fit is finite, but (J_fit - J) / J overflows for J = 1e-320.
            ("w6,c1,0,0,0.04,r1,8000,1e-320", 2,
             "error: non-finite implied gap, fitted J_c or relative residual for record "
             "(8000.0, 0.04, 1e-320)"),
            # 2 R_N J_c A / pi overflows.
            ("w6,c1,0,0,1e150,r1,1e150,1e150", 2,
             "error: non-finite implied gap, fitted J_c or relative residual for record "
             "(1e+150, 1e+150, 1e+150)"),
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
        [("wafer", "group 'wafer=w1'"), ("run", "junction (w1, c1, 0.0, 0.0, 0.04)")],
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

    def test_propagate_counts_non_positive_draws(self, capsys):
        """A mean R_N about 3.4 sigma below the resistive limit (about
        4.16e6 ohm here): 34 of 100,000 draws give a non-positive
        frequency, are dropped and counted."""
        argv = self.PROPAGATE + ["--mean-rn-ohm", "3.4e6", "--n", "100000", "--seed", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "cv_f: 0.307268165458\n"
            "cv_ratio: 5.12113609097\n"
            "mean_f_ghz: 0.0290983936691\n"
            "n_invalid: 34\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mean-rn-ohm", "1.2e-323", "--cv-rn", "0.29", "--delta-uev", "1e-60",
             "--ec-mhz", "1e-60", "--n", "1000000", "--seed", "2"],
            ["--mean-rn-ohm", "1e-320", "--cv-rn", "0.2", "--delta-uev", "180",
             "--ec-mhz", "270", "--n", "100000", "--seed", "3"],
        ],
    )
    def test_propagate_subnormal_mean_exits_2(self, argv, capsys):
        """Lognormal draws around a subnormal mean are coarse multiples of
        the smallest float, so they cannot have the requested spread."""
        assert main(["propagate", *argv]) == 2
        mean = float(argv[1])
        assert capsys.readouterr() == (
            "",
            f"error: mean_rn_ohm = {mean} ohm is subnormal: the draws cannot "
            "carry the requested spread\n",
        )

    def test_propagate_sample_count_is_bounded(self, capsys):
        """Before, numpy raised `ValueError: Maximum allowed dimension
        exceeded` (a traceback, exit 1) for this --n."""
        argv = self.PROPAGATE + ["--mean-rn-ohm", "8000", "--n", "100000000000000000000"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: n_samples must be <= 1000000000, got 100000000000000000000\n"
        )

    def test_propagate_negative_seed_exits_2(self, capsys):
        argv = ["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06", "--delta-uev", "180",
                "--ec-mhz", "270", "--n", "10000", "--seed=-1"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")

    def test_propagate_overflowing_spread_exits_2(self, capsys):
        """A tiny mean R_N whose frequencies' spread overflows exits 2
        naming the flag, with no numpy warning (tier-1 makes one an error)."""
        argv = ["propagate", "--mean-rn-ohm", "1e-300", "--cv-rn", "0.2",
                "--delta-uev", "180", "--ec-mhz", "270", "--n", "100000", "--seed", "3"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "",
            "error: mean_rn_ohm = 1e-300 ohm: the mean or spread of the drawn "
            "frequencies overflows\n",
        )

    def test_frequency_overflow_exits_2(self, capsys):
        argv = ["frequency", "--rn-ohm", "8000", "--delta-uev", "1e200", "--ec-mhz", "1e200"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: R_N = 8000.0 ohm: the frequency overflows\n")

    def test_propagate_overflowing_draws_exit_2(self, capsys):
        """Frequencies that overflow to inf make the spread inf - inf:
        exit 2 naming the mean, with no numpy warning."""
        argv = ["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06", "--delta-uev", "1e200",
                "--ec-mhz", "1e200", "--n", "10000"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "",
            "error: mean_rn_ohm = 8000.0 ohm: the mean or spread of the drawn "
            "frequencies overflows\n",
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

    def test_cells_beyond_the_outline_stay_on_the_canvas(self, tmp_path):
        """A 200 mm wafer at 10 mm pitch has cells out to 75 mm. Before,
        the drawing spanned only the 100 mm outline: 82 of the 225 cells
        lay wholly outside the viewBox and 35 more partly. (The default
        map's bytes are pinned by TestGoldenArtifacts.)"""
        cfg = tmp_path / "process.yaml"
        cfg.write_text("wafer: {diameter_mm: 200, working_span_mm: 140, grid_pitch_mm: 10}\n")
        sites, svg = tmp_path / "sites.csv", tmp_path / "map.svg"
        assert main(["simulate", "--config", str(cfg), "--out", str(sites)]) == 0
        assert main(["heatmap", "--in", str(sites), "--field", "area_um2", "--out", str(svg)]) == 0
        text = svg.read_text()
        width, height = map(float, re.search(r'viewBox="0 0 (\S+) (\S+)"', text).groups())
        cells = re.findall(
            r'<rect x="(\S+)" y="(\S+)" width="(\S+)" height="(\S+)" fill="#\w+"><title>', text
        )
        assert len(cells) == 225
        for x, y, w, h in (map(float, cell) for cell in cells):
            assert 0.0 <= x and x + w <= width and 0.0 <= y and y + h <= height

    def test_cells_of_a_map_2e308_mm_wide_have_a_size(self, tmp_path):
        """Sites at x = -1e308 and 1e308 mm. Before, twice the drawing's
        extent overflowed to inf, so every cell was 0.000 px wide."""
        meas, svg = tmp_path / "meas.csv", tmp_path / "map.svg"
        meas.write_text(
            "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
            "w1,c1,-1e308,0,0.04,r,5\nw1,c2,1e308,0,0.04,r,6\n"
        )
        assert main(["heatmap", "--in", str(meas), "--field", "rn_ohm", "--out", str(svg)]) == 0
        text = svg.read_text()
        width, height = map(float, re.search(r'viewBox="0 0 (\S+) (\S+)"', text).groups())
        cells = re.findall(
            r'<rect x="(\S+)" y="(\S+)" width="(\S+)" height="(\S+)" fill="#\w+"><title>', text
        )
        assert len(cells) == 2
        for x, y, w, h in (map(float, cell) for cell in cells):
            assert w > 0.0 and h > 0.0
            assert 0.0 <= x and x + w <= width and 0.0 <= y and y + h <= height

    def test_measurement_field(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEAS_TEXT)
        svg = tmp_path / "map.svg"
        code = main(
            ["heatmap", "--in", str(meas), "--field", "rn_ohm", "--out", str(svg)]
        )
        assert code == 0

    def test_skipped_rows_are_reported_as_by_analyze(self, tmp_path, capsys):
        """Before, `heatmap` dropped invalid measurement rows without a word."""
        meas = tmp_path / "meas.csv"
        meas.write_text(
            "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
            "w1,c1,0,0,0.04,r1,8000\nw1,c2,5,0,0.04,r1,nan\n"
            "w1,c3,0,5,0.04,r1,-3\nw1,c4,5,5,0.04,r1,8100\n"
        )
        skipped = (
            "skipped row: line 3: rn_ohm must be finite, got nan\n"
            "skipped row: line 4: rn_ohm must be > 0\n"
        )
        out = str(tmp_path / "out")
        assert main(["analyze", "--measurements", str(meas), "--out", out]) == 0
        assert capsys.readouterr().err == skipped
        assert main(["heatmap", "--in", str(meas), "--field", "rn_ohm", "--out", out]) == 0
        assert capsys.readouterr() == ("cells: 2\n", skipped)

    def test_overflowing_site_mean_exits_4(self, tmp_path, capsys):
        """Two runs of 1e308 at one site: their sum overflows. Before, the
        map showed `inf` for the site and a NaN colour scale, and exited 0."""
        meas = tmp_path / "meas.csv"
        meas.write_text(
            "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm\n"
            "w1,c1,0,0,0.04,r,1e308\nw1,c1,0,0,0.04,s,1e308\nw1,c2,1,0,0.04,r,5\n"
        )
        svg = tmp_path / "map.svg"
        assert main(["heatmap", "--in", str(meas), "--field", "rn_ohm", "--out", str(svg)]) == 4
        assert capsys.readouterr() == (
            "",
            "computation error: site (0.0, 0.0) mm: the mean of its rn_ohm values overflows\n",
        )
        assert not svg.exists()

    def test_unknown_field_exits_2(self, tmp_path, config_path, capsys):
        sites = tmp_path / "sites.csv"
        main(["simulate", "--config", config_path, "--out", str(sites)])
        code = main(
            ["heatmap", "--in", str(sites), "--field", "bogus", "--out", str(tmp_path / "m.svg")]
        )
        assert code == 2
        assert "area_um2" in capsys.readouterr().err

    def test_unknown_field_is_refused_before_the_measurements_are_read(self, tmp_path, capsys):
        """A measurement file that cannot be read (its header lacks
        columns) with an unknown field: the field error is the one
        given, since the file is not parsed before the field is known."""
        meas = tmp_path / "meas.csv"
        meas.write_text("wafer_id,x_mm\nw1,0\n")
        argv = ["heatmap", "--in", str(meas), "--out", str(tmp_path / "m.svg")]
        assert main([*argv, "--field", "rn_ohm"]) == 2
        assert "unexpected header" in capsys.readouterr().err
        assert main([*argv, "--field", "bogus"]) == 2
        assert capsys.readouterr() == (
            "", "error: unknown field 'bogus'; measurement files provide ['rn_ohm']\n"
        )


#: Run one command in a fresh interpreter, then print the modules it
#: loaded, space-separated, as the last line of stdout.
MODULES_SCRIPT = (
    "import sys\n"
    "from shadowevap.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(sys.modules))\n"
    "sys.exit(code)\n"
)


class TestStartUp:
    """A command loads only what it runs: PyYAML only for a config,
    `logging` for no command and `hashlib` only for numpy's draws."""

    UNUSED = {"yaml", "logging", "hashlib"}

    @staticmethod
    def modules(argv):
        env = {**os.environ, "PYTHONPATH": str(Path(shadowevap.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-c", MODULES_SCRIPT, *map(str, argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        return set(run.stdout.splitlines()[-1].split())

    @pytest.mark.parametrize("command", ["analyze", "heatmap", "propagate", "frequency"])
    def test_no_config_command_loads_yaml(self, tmp_path, command):
        meas = tmp_path / "meas.csv"
        meas.write_text(MEAS_TEXT)
        argv = {
            "analyze": ["analyze", "--measurements", meas, "--out", tmp_path / "a.json"],
            "heatmap": ["heatmap", "--in", meas, "--field", "rn_ohm", "--out", tmp_path / "m.svg"],
            "propagate": ["propagate", "--mean-rn-ohm", "8000", "--cv-rn", "0.06",
                          "--delta-uev", "180", "--ec-mhz", "270", "--n", "10000"],
            "frequency": ["frequency", "--rn-ohm", "8000", "--delta-uev", "180",
                          "--ec-mhz", "270"],
        }[command]
        loaded = self.modules(argv)
        assert "shadowevap.cli" in loaded
        # numpy.random, which makes the draws, loads hashlib (by `secrets`).
        unused = self.UNUSED - {"hashlib"} if command == "propagate" else self.UNUSED
        assert loaded & unused == set()

    def test_simulate_loads_yaml_alone(self, tmp_path, config_path):
        loaded = self.modules(["simulate", "--config", config_path, "--out", tmp_path / "s.csv"])
        assert loaded & self.UNUSED == {"yaml"}

"""The benchmark's workloads: their inputs, command chains and output checks.

A workload is prepared once per run (`prepare`), outside any timing, and
then replayed as a chain of CLI invocations (`commands`). Every command
carries a check that turns its printed output and artifacts into a list
of problems; an empty list means the invocation is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

BENCH_DIR = Path(__file__).resolve().parent
HASHES_FILE = BENCH_DIR / "expected_hashes.json"

Check = Callable[[str, Path], list]


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    check: Check


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("grid-default", "grid-fine", "sites-explicit", "measurements")

GRID_PITCH_MM = {"grid-default": None, "grid-fine": 0.25}
# Smoke-test pitch, where it differs from the full run's.
SMALL_GRID_PITCH_MM = {"grid-fine": 2.5}
DEFAULT_PITCH_MM = 5.0
HASHED_ARTIFACTS = ("sites.csv", "models.csv", "corrections.csv", "verify.json", "map.svg")
PROPAGATE_MEAN_RN_OHM = 8000.0
PROPAGATE_CV_RN = 0.06
EC_MHZ = 270.0


def hash_key(workload: str, small: bool) -> str:
    return workload + ("@small" if small and workload in SMALL_GRID_PITCH_MM else "")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def grid_pitch(workload: str, small: bool):
    """The `--grid-pitch-mm` a grid workload passes, or None for the default."""
    if small and workload in SMALL_GRID_PITCH_MM:
        return SMALL_GRID_PITCH_MM[workload]
    return GRID_PITCH_MM[workload]


def grid_sites(pitch_mm: float) -> int:
    """Sites of the default layout's square grid (35 mm half-span) at this pitch."""
    return (2 * math.floor(35.0 / pitch_mm) + 1) ** 2


def prepare(workload: str, work: Path, seed: int, small: bool, env: dict) -> dict:
    """Write the workload's inputs into `work` and return what the
    checks and the report need: input sizes and expected counts."""
    work.mkdir(parents=True, exist_ok=True)
    info: dict = {"workload": workload, "seed": seed, "small": small}
    if workload in GRID_PITCH_MM:
        info.update(inputs.write_default_config(work / "process.yaml"))
        pitch = grid_pitch(workload, small) or DEFAULT_PITCH_MM
        info["sites"] = grid_sites(pitch)
        info["grid_pitch_mm"] = pitch
        info["config"] = "process.yaml"
        info["hashes"] = json.loads(HASHES_FILE.read_text())[hash_key(workload, small)]
    elif workload == "sites-explicit":
        info.update(inputs.write_sites_config(work / "process.yaml", seed, 200 if small else 5000))
        info["config"] = "process.yaml"
    elif workload == "measurements":
        if small:
            shape = dict(n_wafers=1, pitch_mm=5.0, half_span_mm=35.0, n_runs=3)
        else:
            shape = dict(n_wafers=5, pitch_mm=1.0, half_span_mm=35.0, n_runs=3)
        info.update(inputs.write_measurements(work / "meas.csv", seed, **shape))
        info["grid_pitch_mm"] = shape["pitch_mm"]
        info["config"] = None
        info["propagate_n"] = 100_000 if small else 10_000_000
        # The frequency law's sensitivity at the mean R_N is what the MC
        # ratio must reproduce; ask the CLI for it, outside any timing.
        out = subprocess.run(
            cli_prefix() + ["frequency", "--rn-ohm", inputs.fmt(PROPAGATE_MEAN_RN_OHM),
                            "--delta-uev", inputs.fmt(inputs.GAP_UEV),
                            "--ec-mhz", inputs.fmt(EC_MHZ)],
            cwd=work, env=env, capture_output=True, text=True, check=True,
        ).stdout
        info["sensitivity"] = float(_value(out, "dlnf_dlnrn"))
    else:
        raise KeyError(workload)
    return info


def _value(stdout: str, key: str):
    """The value printed after `key:` on its own line, or None."""
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


def _expect_line(stdout: str, key: str, expected) -> list:
    got = _value(stdout, key)
    return [] if got == str(expected) else [f"{key}: got {got!r}, expected {expected!r}"]


def _hash_problems(info: dict, work: Path, artifact: str) -> list:
    hashes = info.get("hashes")
    if hashes is None:
        return []
    if hashes.get(artifact) != sha256(work / artifact):
        return [f"{artifact}: bytes differ from the recorded artifact"]
    return []


def _svg_problems(work: Path, name: str) -> list:
    text = (work / name).read_bytes()
    if not (text.startswith(b"<svg") and text.endswith(b"</svg>\n")):
        return [f"{name}: not a complete SVG document"]
    return []


def commands(info: dict) -> list:
    """The workload's command chain, in the order a user runs it."""
    workload = info["workload"]
    if workload == "measurements":
        return _measurement_commands(info)
    cfg = ["--config", info["config"]]
    pitch = grid_pitch(workload, info["small"]) if workload in GRID_PITCH_MM else None
    pitch_args = ["--grid-pitch-mm", inputs.fmt(pitch)] if pitch is not None else []
    n = info["sites"]

    def check_simulate(out, work):
        return _expect_line(out, "sites", n) + _hash_problems(info, work, "sites.csv")

    def check_models(out, work):
        problems = [] if _value(out, "center_width_III_nm") else ["no center_width_III_nm line"]
        return problems + _hash_problems(info, work, "models.csv")

    def check_compensate(out, work):
        return (
            _expect_line(out, "corrections", n)
            + _expect_line(out, "rejections", 0)
            + _hash_problems(info, work, "corrections.csv")
        )

    def check_verify(out, work):
        report = json.loads((work / "verify.json").read_text())
        problems = [] if report["n_sites"] == n else [f"verify n_sites {report['n_sites']} != {n}"]
        # Corrections round-trip through 12-significant-digit CSV, which
        # leaves a residual near 2e-10 %; 1e-9 is the documented ceiling.
        for key in ("max_abs_rel_dev_from_predicted", "area_cv_percent"):
            if not report[key] <= 1e-9:
                problems.append(f"verify {key} = {report[key]!r} > 1e-9")
        return problems + _hash_problems(info, work, "verify.json")

    def check_heatmap(out, work):
        return (
            _expect_line(out, "cells", n)
            + _svg_problems(work, "map.svg")
            + _hash_problems(info, work, "map.svg")
        )

    chain = [
        Command("simulate", ("simulate", *cfg, *pitch_args, "--out", "sites.csv"),
                check_simulate),
    ]
    if workload in GRID_PITCH_MM:
        chain.append(
            Command(
                "compare-models",
                ("compare-models", *cfg, "--electrode", "bottom", "--axis", "x",
                 *pitch_args, "--out", "models.csv"),
                check_models,
            )
        )
    chain += [
        Command("compensate", ("compensate", *cfg, *pitch_args, "--out", "corrections.csv"),
                check_compensate),
        Command("verify", ("verify", *cfg, "--corrections", "corrections.csv",
                           "--out", "verify.json"), check_verify),
        Command("heatmap", ("heatmap", "--in", "sites.csv", "--field", "area_um2",
                            "--out", "map.svg"), check_heatmap),
    ]
    return chain


def _measurement_commands(info: dict) -> list:
    def check_analyze(out, work):
        problems = _expect_line(out, "groups", info["groups"])
        report = json.loads((work / "analysis.json").read_text())
        if report["n_records"] != info["rows"]:
            problems.append(f"n_records {report['n_records']} != {info['rows']}")
        if report["n_skipped_rows"] != 0:
            problems.append(f"{report['n_skipped_rows']} rows skipped")
        delta = report["gap_fit"]["delta_uev"]
        if not abs(delta - inputs.GAP_UEV) <= 0.01 * inputs.GAP_UEV:
            problems.append(f"fitted gap {delta!r} ueV is not within 1% of {inputs.GAP_UEV}")
        return problems

    def check_heatmap(out, work):
        return _expect_line(out, "cells", info["positions"]) + _svg_problems(work, "rn_map.svg")

    def check_propagate(out, work):
        problems = _expect_line(out, "n_invalid", 0)
        ratio = float(_value(out, "cv_ratio") or "nan")
        expected = abs(info["sensitivity"])
        if not abs(ratio - expected) <= 0.01 * expected:
            problems.append(f"cv_ratio {ratio!r} is not within 1% of {expected!r}")
        return problems

    return [
        Command(
            "analyze",
            ("analyze", "--measurements", "meas.csv", "--group-by", "wafer,chip,area,run",
             "--fit-gap", "--out", "analysis.json"),
            check_analyze,
        ),
        Command("heatmap", ("heatmap", "--in", "meas.csv", "--field", "rn_ohm",
                            "--out", "rn_map.svg"), check_heatmap),
        Command(
            "propagate",
            ("propagate", "--mean-rn-ohm", inputs.fmt(PROPAGATE_MEAN_RN_OHM),
             "--cv-rn", inputs.fmt(PROPAGATE_CV_RN), "--delta-uev", inputs.fmt(inputs.GAP_UEV),
             "--ec-mhz", inputs.fmt(EC_MHZ),
             "--n", str(info["propagate_n"]), "--seed", str(info["seed"])),
            check_propagate,
        ),
    ]


def invocation_problems(cmd: Command, code: int, stdout: str, stderr: str, work: Path) -> list:
    """Everything wrong with one finished invocation, each prefixed
    with the command name; empty when it exited 0 and passed its check."""
    if code != 0:
        return [f"{cmd.name}: exit {code}: {stderr[-300:]}"]
    try:
        found = cmd.check(stdout, work)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        found = [f"output check could not run: {exc!r}"]
    return [f"{cmd.name}: {p}" for p in found]


def cli_prefix() -> list:
    return [sys.executable, "-m", "shadowevap.cli"]

"""Smoke test of the benchmark harness, so it cannot rot.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload once at smoke-test size, untraced and traced, and
checks that every metric is printed by name with its unit and that no
invocation failed. Not part of the repository's tier-1 suite: the
harness measures wall time and takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_COMMANDS = {
    "grid-default": ("simulate", "compare_models", "compensate", "verify", "heatmap"),
    "grid-fine": ("simulate", "compare_models", "compensate", "verify", "heatmap"),
    "sites-explicit": ("simulate", "compensate", "verify", "heatmap"),
    "measurements": ("analyze", "heatmap", "propagate"),
}


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def _printed(lines: list) -> dict:
    """name -> unit of every human-readable metric line."""
    found = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and line.startswith("  ") and "(" in line:
            found[parts[0]] = parts[2]
    return found


def test_contract_lists_every_workload():
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == sorted(WORKLOAD_COMMANDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOAD_COMMANDS))
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = _printed(lines)
    if trace:
        expected = {m["name"]: m["unit"] for m in declared}
    else:
        expected = {"setup_s": "s", "setup_wall_s": "s", "pipeline_s": "s",
                    "pipeline_rel": "ratio", "peak_rss_mb": "MB", "error_rate": "ratio"}
        for cmd in WORKLOAD_COMMANDS[workload]:
            expected[f"{cmd}_s"] = "s"
            expected[f"{cmd}_rel"] = "ratio"
        assert any(line.split()[:3] == ["error_rate", "0", "ratio"] for line in lines)
    assert {k: printed.get(k) for k in expected} == expected


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_runs", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "grid-default", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Benchmark of the shadowevap CLI: wall time per subcommand, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from its
`src/`. The seed makes the workload's inputs, which are written before
any timing starts. The run then repeats the workload's command chain,
one CLI process at a time, until the next repetition would end more
than half a repetition past S seconds (at least two repetitions with
`--trace 0`, one with `--trace 1`).

With `--trace 0` each repetition times a fresh-interpreter set-up
(`import shadowevap.cli` plus `load_config` of the workload's YAML)
SETUPS_PER_REPETITION times and then every command of the chain as a
subprocess, each between two runs of the reference task (reference.py).
With `--trace 1` each repetition runs the chain as subprocesses and then replays it in one
child interpreter through `cli.main(argv)`, untraced and traced (see
inproc.py), which gives the per-layer metrics.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics,
holding the BENCHMARK.json metrics of the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy  # noqa: E402

import workloads  # noqa: E402

SETUP_CODE = (
    "import sys\n"
    "import shadowevap.cli\n"
    "from shadowevap.config import load_config\n"
    "if len(sys.argv) > 1:\n"
    "    load_config(sys.argv[1])\n"
)
COMMAND_METRICS = {
    "simulate": "simulate_s",
    "compare-models": "compare_models_s",
    "compensate": "compensate_s",
    "verify": "verify_s",
    "heatmap": "heatmap_s",
    "analyze": "analyze_s",
    "propagate": "propagate_s",
}
# Span names whose summed self time is reported as `<name>_s`.
SPAN_NAMES = (
    "cli.main", "config.load", "wafer.generate_sites", "wafer.simulate",
    "wafer.compensate", "wafer.resimulate", "wafer.bias_profile",
    "csvio.export_site_map", "csvio.import_site_map", "csvio.export_corrections",
    "csvio.import_corrections", "csvio.import_measurements", "csvio.write_json",
    "heatmap.render", "stats.cv", "stats.aggregate", "stats.fit_gap", "stats.propagate",
)
# Counts recorded on spans (see inproc.PATCHES) and reported as metrics.
COUNT_METRICS = (
    "config.bytes", "wafer.sites", "csvio.site_map_bytes", "csvio.corrections_bytes",
    "csvio.measurement_rows", "csvio.skipped_rows", "csvio.json_bytes", "heatmap.cells",
    "heatmap.svg_bytes", "stats.groups", "stats.repeat_junctions", "stats.propagate_samples",
    "stats.propagate_n_invalid", "stats.propagate_bytes_computed",
)
PROCESS_TIMEOUT_S = 150.0
# Set-up processes timed per repetition, before the chain. A run of a
# heavy workload has only two or three repetitions, and one set-up
# sample each left `setup_s` too noisy.
SETUPS_PER_REPETITION = 3
# Median wall time of reference.py over 894 runs on the 2-core machine
# the benchmark was defined on. Raw set-up seconds follow the host's
# speed, which moved their run medians by up to 40% within half an hour,
# so `setup_s` is each set-up's wall time over the mean of the reference
# times just before and after it, times REFERENCE_S: the set-up time on
# a host that runs the reference task in 0.21 s. The raw wall time is
# `setup_wall_s`.
REFERENCE_S = 0.21
REFERENCE = [sys.executable, str(BENCH_DIR / "reference.py")]


def child_env() -> dict:
    """The caller's environment with the checkout's src/ as the only
    extra import path and bytecode caching on, as in a default install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv: list, cwd: Path, env: dict) -> tuple:
    """Run one process to completion: (wall_s, exit_code, peak_rss_mb, stdout, stderr)."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    # ru_maxrss is in KiB on Linux.
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr


def tail_percentile(samples: list):
    """Highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond
    it, as (p, nearest-rank value), or None when there are too few."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def summary(samples: list) -> dict:
    entry = {"value": statistics.median(samples), "n": len(samples), "samples": samples}
    tail = tail_percentile(samples)
    if tail is not None:
        entry["percentile"], entry["percentile_value"] = tail
    return entry


def _keep_going(start: float, reps: int, seconds: float) -> bool:
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / reps < seconds


def run_chain_cli(chain: list, work: Path, env: dict, reference_s: float | None = None) -> dict:
    """One CLI process per command, in order; every output is checked.

    `reference_s` is the wall time of a reference task just run. When it
    is given, the reference task also runs after each command, and each
    command's wall time is divided by the mean of the two reference
    times around it.
    """
    walls, rel, rss, problems, failed = {}, {}, [], [], 0
    before = reference_s
    for cmd in chain:
        wall, code, peak, stdout, stderr = run_process(
            workloads.cli_prefix() + list(cmd.argv), work, env
        )
        walls[cmd.name] = wall
        rss.append(peak)
        found = workloads.invocation_problems(cmd, code, stdout, stderr, work)
        failed += bool(found)
        problems += found
        if before is not None:
            after = run_process(REFERENCE, work, env)[0]
            rel[cmd.name] = wall / (0.5 * (before + after))
            before = after
    return {"walls_s": walls, "rel": rel, "peak_rss_mb": max(rss), "problems": problems,
            "failed": failed}


def untraced_run(info: dict, chain: list, work: Path, seconds: float, env: dict) -> dict:
    setup_argv = [sys.executable, "-c", SETUP_CODE]
    if info["config"] is not None:
        setup_argv.append(info["config"])
    run_process(setup_argv, work, env)  # untimed warm-up: bytecode and file cache
    setup_walls, setups, reps, problems, setup_failed = [], [], [], [], 0
    start = time.perf_counter()
    while True:
        before = run_process(REFERENCE, work, env)[0]
        for _ in range(SETUPS_PER_REPETITION):
            wall, code, _, _, stderr = run_process(setup_argv, work, env)
            after = run_process(REFERENCE, work, env)[0]
            if code != 0:
                problems.append(f"setup: exit {code}: {stderr[-300:]}")
                setup_failed += 1
            setup_walls.append(wall)
            setups.append(wall / (0.5 * (before + after)) * REFERENCE_S)
            before = after
        rep = run_chain_cli(chain, work, env, reference_s=before)
        reps.append(rep)
        problems += rep["problems"]
        # Two chains at least, so that one slow chain is not the median.
        if len(reps) >= 2 and not _keep_going(start, len(reps), seconds):
            break
    failed = setup_failed + sum(rep["failed"] for rep in reps)
    attempted = len(reps) * (SETUPS_PER_REPETITION + len(chain))
    metrics = {"setup_s": summary(setups), "setup_wall_s": summary(setup_walls)}
    for cmd in chain:
        metrics[COMMAND_METRICS[cmd.name]] = summary([r["walls_s"][cmd.name] for r in reps])
    metrics["pipeline_s"] = summary([sum(r["walls_s"].values()) for r in reps])
    for cmd in chain:
        name = COMMAND_METRICS[cmd.name][:-2] + "_rel"
        metrics[name] = summary([r["rel"][cmd.name] for r in reps])
    metrics["pipeline_rel"] = summary([sum(r["rel"].values()) for r in reps])
    metrics["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in reps])
    metrics["error_rate"] = {"value": failed / attempted, "n": attempted}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "repetitions": len(reps)}


def self_times(spans: list) -> list:
    """Each span's duration minus the part its child spans cover."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end_s"] - s["start_s"]
    return [s["end_s"] - s["start_s"] - child_time[s["id"]] for s in spans]


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced chain: summed self time per span
    name and, for counts, the largest value any call recorded. A layer
    the chain never calls reads 0."""
    self_s = defaultdict(float)
    counts = dict.fromkeys(
        COUNT_METRICS + ("wafer.compensate_rows", "wafer.compensate_rejections"), 0
    )
    for span, own in zip(spans, self_times(spans)):
        self_s[span["name"]] += own
        for key, value in span.get("counts", {}).items():
            if key in counts:
                counts[key] = max(counts[key], value)
    metrics = {f"{name}_s": self_s[name] for name in SPAN_NAMES}
    metrics["cli.glue_s"] = metrics.pop("cli.main_s")
    rows = counts.pop("wafer.compensate_rows")
    rejected = counts.pop("wafer.compensate_rejections")
    metrics.update(counts)
    sites = counts["wafer.sites"]
    metrics["wafer.simulate_us_per_site"] = self_s["wafer.simulate"] / sites * 1e6 if sites else 0.0
    metrics["wafer.compensate_yield"] = rows / (rows + rejected) if rows + rejected else 0.0
    return metrics


def traced_run(info: dict, chain: list, work: Path, seconds: float, env: dict) -> dict:
    run_process([sys.executable, "-c", SETUP_CODE], work, env)  # untimed warm-up
    spec_path, out_path = work / ".inproc_spec.json", work / ".inproc_out.json"
    reps, problems, all_spans, failed = [], [], [], 0
    start = time.perf_counter()
    while True:
        cli_rep = run_chain_cli(chain, work, env)
        problems += cli_rep["problems"]
        failed += cli_rep["failed"]
        spec = {"info": info, "work": str(work), "traced_first": len(reps) % 2 == 1}
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "inproc.py"), str(spec_path), str(out_path)],
            cwd=work, env=env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"in-process replay exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(out_path.read_text())
        for mode in ("untraced", "traced"):
            problems += result[mode]["problems"]
            failed += result[mode]["failed"]
        spans = result["spans"]
        for span, own in zip(spans, self_times(spans)):
            span["self_s"] = own
            span["repetition"] = len(reps)
        all_spans += spans
        rep = layer_metrics(spans)
        untraced_total = sum(result["untraced"]["walls_s"])
        rep["cli.import_s"] = result["import_s"]
        rep["cli.overhead_s"] = sum(cli_rep["walls_s"].values()) - untraced_total
        rep["trace.overhead_s"] = sum(result["traced"]["walls_s"]) - untraced_total
        rep["geometry.site_eval_us"] = result["site_eval_us"]
        reps.append(rep)
        if not _keep_going(start, len(reps), seconds):
            break
    metrics = {name: summary([r[name] for r in reps]) for name in reps[0]}
    # Each repetition runs the chain three times: CLI, untraced, traced.
    attempted = 3 * len(chain) * len(reps)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "repetitions": len(reps), "spans": all_spans}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def print_report(args, info: dict, result: dict, units: dict) -> None:
    shown = {k: v for k, v in info.items() if k != "hashes"}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {result['repetitions']}  inputs {json.dumps(shown)}")
    for name, entry in result["metrics"].items():
        unit = units.get(name, "")
        if name == "error_rate":
            print(f"  {name:34s} {entry['value']:.6g} {unit}  ({result['failed']} of "
                  f"{result['attempted']} processes failed)")
            continue
        value = entry["value"]
        shown = f"{value:.10g}" if float(value).is_integer() else f"{value:.6g}"
        line = f"  {name:34s} {shown} {unit}  (median of {entry['n']}"
        if "percentile" in entry:
            line += f"; p{entry['percentile']:g} {entry['percentile_value']:.6g}"
        else:
            line += "; no percentile has 10 samples beyond it"
        print(line + ")")
    if result.get("spans"):
        print("  spans of the last traced chain (name: calls, total s, self s):")
        last = result["repetitions"] - 1
        table: dict = {}
        for s in result["spans"]:
            if s["repetition"] == last:
                calls, total, own = table.get(s["name"], (0, 0.0, 0.0))
                table[s["name"]] = (calls + 1, total + s["end_s"] - s["start_s"], own + s["self_s"])
        for name, (calls, total, own) in table.items():
            print(f"    {name:30s} {calls:4d} {total:10.6f} {own:10.6f}")
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test input sizes (not comparable with full runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shadowevap" / "cli.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'shadowevap'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    units.update({name: "s" for name in COMMAND_METRICS.values()})
    units.update({name[:-2] + "_rel": "ratio" for name in COMMAND_METRICS.values()})
    units.update({"setup_s": "s", "setup_wall_s": "s", "pipeline_s": "s",
                  "pipeline_rel": "ratio", "peak_rss_mb": "MB", "error_rate": "ratio"})

    env = child_env()
    work = BENCH_DIR / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        info = workloads.prepare(args.workload, work, args.seed, args.small, env)
        chain = workloads.commands(info)
        run = traced_run if args.trace else untraced_run
        result = run(info, chain, work, args.seconds, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": {k: v for k, v in info.items() if k != "hashes"},
        "python": platform.python_version(), "numpy": numpy.__version__, "git_sha": git_sha(),
        **result,
    }
    runs_dir = BENCH_DIR / "_runs"
    runs_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}" + ("-small" if args.small else "")
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print_report(args, info, result, units)
    print(f"  full record: {(runs_dir / f'{tag}.json').relative_to(ROOT)}")
    final = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

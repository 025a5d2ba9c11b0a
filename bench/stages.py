"""In-process stage timings at 225, 5,041 and 78,961 sites.

    python3 bench/stages.py [--out bench/BENCH_0.json]

Times each layer of the program directly (no CLI) on the default
process stack at 5, 1 and 0.25 mm pitch, plus the MC propagation at
n = 1e7, the grouped aggregation of the `measurements` workload's
records and, as subprocesses, `import shadowevap.cli`, the reference
task and the CLI commands at 78,961 sites. Writes one record per stage:

    {"stage", "n_sites", "median_s", "min_s", "rounds", "python", "numpy", "git_sha"}

`n_sites` is null for stages that do not depend on a site count.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import run  # puts the program's src/ on the children's path

sys.path.insert(0, str(run.ROOT / "src"))

import numpy  # noqa: E402

from shadowevap import csvio, heatmap, stats, wafer  # noqa: E402
from shadowevap.config import default_config  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402

PITCHES_MM = (5.0, 1.0, 0.25)
ROUNDS = 3


def timed(fn):
    times, result = [], None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(run.BENCH_DIR / "BENCH_0.json"))
    args = parser.parse_args(argv)
    common = {"python": platform.python_version(), "numpy": numpy.__version__,
              "git_sha": run.git_sha()}
    records = []

    def add(stage, n_sites, times):
        records.append({"stage": stage, "n_sites": n_sites, "median_s": statistics.median(times),
                        "min_s": min(times), "rounds": len(times), **common})
        print(f"{stage:28s} {str(n_sites):>6s} median {statistics.median(times):.4f} s"
              f"  min {min(times):.4f} s", flush=True)

    work = run.BENCH_DIR / "_work" / "stages"
    work.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    try:
        add("reference_task", None,
            [run.run_process(run.REFERENCE, work, env)[0] for _ in range(ROUNDS)])
        add("import shadowevap.cli", None,
            [run.run_process([sys.executable, "-c", "import shadowevap.cli"], work, env)[0]
             for _ in range(ROUNDS)])
        base = default_config()
        for pitch in PITCHES_MM:
            config = replace(base, layout=replace(base.layout, grid_pitch_mm=pitch))
            n = workloads.grid_sites(pitch)
            site_map = work / "sites.csv"
            times, _ = timed(config.layout.generate_sites)
            add("generate_sites", n, times)
            times, results = timed(lambda: wafer.simulate_wafer(config))
            add("simulate_wafer", n, times)
            add("export_site_map", n,
                timed(lambda: csvio.export_site_map(results, site_map))[0])
            times, rows = timed(lambda: csvio.import_site_map(site_map))
            add("import_site_map", n, times)
            times, table = timed(lambda: wafer.compensate_wafer(config))
            add("compensate_wafer", n, times)
            points = [(r.x_mm, r.y_mm, r.area_um2) for r in rows]
            add("render_heatmap", n,
                timed(lambda: heatmap.render_heatmap(points, "area_um2", work / "map.svg"))[0])
            del results, rows, table, points

        params = stats.QubitParams(gap_delta_uev=inputs.GAP_UEV, ec_mhz=workloads.EC_MHZ)
        add("propagate_cv_monte_carlo n=1e7", None, timed(
            lambda: stats.propagate_cv_monte_carlo(
                workloads.PROPAGATE_MEAN_RN_OHM, workloads.PROPAGATE_CV_RN, params,
                n_samples=10_000_000))[0])
        shape = inputs.write_measurements(work / "meas.csv", 1, 5, 1.0, 35.0, 3)
        records_in, _ = csvio.import_measurements(work / "meas.csv")
        add(f"aggregate {shape['rows']} rows", None, timed(
            lambda: stats.aggregate(records_in, ("wafer", "chip", "area", "run")))[0])
        del records_in

        (work / "process.yaml").write_text("{}\n")
        cfg = ["--config", "process.yaml"]
        fine = ["--grid-pitch-mm", "0.25"]
        for label, n, cmd in (
            ("cli simulate", 225, ["simulate", *cfg, "--out", "s.csv"]),
            ("cli simulate", 78961, ["simulate", *cfg, *fine, "--out", "s.csv"]),
            ("cli compensate", 78961, ["compensate", *cfg, *fine, "--out", "c.csv"]),
            ("cli verify", 78961, ["verify", *cfg, "--corrections", "c.csv", "--out", "v.json"]),
            ("cli heatmap", 78961, ["heatmap", "--in", "s.csv", "--field", "area_um2",
                                    "--out", "m.svg"]),
        ):
            add(label, n, [run.run_process(workloads.cli_prefix() + cmd, work, env)[0]
                           for _ in range(ROUNDS)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

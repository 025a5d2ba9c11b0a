"""Seeded input generators for the benchmark workloads.

Each generator takes the seed as an argument, writes one file in a
format the CLI documents and returns a summary of what it wrote. They
run before any timing starts; the program only ever sees the files.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Physics the measurement generator bakes in; the gap-fit check compares
# the CLI's fit against GAP_UEV.
GAP_UEV = 180.0
RN_AREA_OHM_UM2 = 320.0  # specific resistance, R_N x area
AREA_CLASSES_UM2 = (0.04, 0.09)


def fmt(value: float) -> str:
    """12 significant digits, as the program writes its own CSV."""
    return format(value, ".12g")


def write_default_config(path: Path) -> dict:
    """The fully defaulted process stack: an empty YAML mapping."""
    path.write_text("{}\n", encoding="utf-8")
    return {"config_bytes": path.stat().st_size}


def write_sites_config(path: Path, seed: int, n_sites: int) -> dict:
    """Default process stack with `n_sites` distinct sites scattered
    uniformly over a 45 mm radius disc, given as `wafer.sites`."""
    rng = np.random.default_rng(seed)
    seen: set[tuple[float, float]] = set()
    lines = ["wafer:", "  sites:"]
    while len(seen) < n_sites:
        r = 45.0 * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        x, y = round(r * math.cos(phi), 4), round(r * math.sin(phi), 4)
        if (x, y) in seen:
            continue
        seen.add((x, y))
        chip = f"c{int((x + 50) // 10)}{int((y + 50) // 10)}"
        lines.append(
            f"  - {{x_mm: {x!r}, y_mm: {y!r}, chip_id: {chip}, site_id: s{len(seen):05d}}}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"sites": n_sites, "config_bytes": path.stat().st_size}


def write_measurements(
    path: Path, seed: int, n_wafers: int, pitch_mm: float, half_span_mm: float, n_runs: int
) -> dict:
    """Measurement CSV with the optional jc_ua_um2 column.

    Every wafer carries one junction of each area class at every grid
    position, probed once per run. R_N follows a fixed specific
    resistance over an area with a per-wafer offset, a radial drift and
    site scatter; each probe adds 0.5% noise. The reported J_c is the
    Ambegaokar-Baratoff value at GAP_UEV for the true R_N with 1%
    scatter, so a gap fit recovers GAP_UEV to well under 1%.
    """
    rng = np.random.default_rng(seed)
    steps = int(round(half_span_mm / pitch_mm))
    offsets = [i * pitch_mm for i in range(-steps, steps + 1)]
    header = "wafer_id,chip_id,x_mm,y_mm,area_class_um2,run_id,rn_ohm,jc_ua_um2"
    lines = [header]
    group_sizes: dict[tuple, int] = {}
    for w in range(1, n_wafers + 1):
        wafer_offset = rng.normal(0.0, 0.02)
        for y in offsets:
            for x in offsets:
                chip = f"c{int((x + 50) // 10)}{int((y + 50) // 10)}"
                drift = -2.0e-5 * (x * x + y * y)
                for area in AREA_CLASSES_UM2:
                    real_area = area * (1.0 + wafer_offset + drift + rng.normal(0.0, 0.03))
                    rn_true = RN_AREA_OHM_UM2 / real_area
                    jc = math.pi * GAP_UEV / (2.0 * rn_true * area)
                    jc *= 1.0 + rng.normal(0.0, 0.01)
                    for run in range(1, n_runs + 1):
                        key = (w, chip, area, run)
                        group_sizes[key] = group_sizes.get(key, 0) + 1
                        rn = rn_true * (1.0 + rng.normal(0.0, 0.005))
                        lines.append(
                            f"W{w},{chip},{fmt(x)},{fmt(y)},{fmt(area)},R{run},{fmt(rn)},{fmt(jc)}"
                        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "rows": len(lines) - 1,
        "positions": len(offsets) ** 2,
        "wafers": n_wafers,
        "runs": n_runs,
        # analyze --group-by wafer,chip,area,run reports groups of >= 2 rows
        "groups": sum(1 for size in group_sizes.values() if size >= 2),
        "csv_bytes": path.stat().st_size,
    }

"""Command-line pipeline.

Physics parameters live in the YAML config; flags only select the
subcommand, file paths, grid overrides and the RNG seed. Exit codes:
0 success, 2 validation error, 3 I/O error, 4 computation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import csvio, heatmap, stats, wafer
from .config import load_config
from .errors import (
    ComputationError,
    IoError,
    UnknownField,
    ValidationError,
)
from .table import Table, column, group_codes, group_mean


def _load(config_path: str, grid_pitch_mm: Optional[float]) -> wafer.ProcessConfig:
    config, provenance = load_config(config_path)
    for line in provenance:
        print(f"config default applied: {line}", file=sys.stderr)
    if grid_pitch_mm is not None:
        config = replace(config, layout=replace(config.layout, grid_pitch_mm=grid_pitch_mm))
    return config


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args.config, args.grid_pitch_mm)
    model = wafer.BiasModel(args.model)
    results = wafer.simulate_wafer(config, model)
    summary = wafer.residual_report(results)
    jump_b, jump_t = wafer.branch_discontinuity_nm(config)
    csvio.export_site_map(results, args.out)
    print(f"sites: {len(results)}")
    print(f"area_mean_um2: {csvio.fmt(summary.mean)}")
    print(f"area_cv_percent: {csvio.fmt(summary.cv_percent)}")
    print(
        f"branch_discontinuity_at_{csvio.fmt(config.epsilon_center_mm)}mm: "
        f"bottom {jump_b:+.3f} nm, top {jump_t:+.3f} nm"
    )
    return 0


def _cmd_compare_models(args: argparse.Namespace) -> int:
    config = _load(args.config, args.grid_pitch_mm)
    axis = wafer.Axis(args.axis)
    electrode = wafer.Electrode(args.electrode)
    profiles = {
        m: wafer.bias_profile(config, axis, electrode, m) for m in wafer.BiasModel
    }
    offsets = [p[0] for p in profiles[wafer.BiasModel.CONSTANT].points]
    biases = [[b for _, b in profiles[m].points] for m in wafer.BiasModel]
    csvio.write_columns(
        args.out, ["offset_mm", "bias_I_nm", "bias_II_nm", "bias_III_nm"], [offsets, *biases]
    )
    for m in wafer.BiasModel:
        print(
            f"center_width_{m.value}_nm: {csvio.fmt(profiles[m].center_width_nm)}"
        )
    return 0


def _parse_target(text: str) -> wafer.CompensationTarget:
    if text == "center":
        return wafer.CenterWidthsTarget()
    if text.startswith("area:"):
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValidationError(f"malformed target {text!r}")
        try:
            area = float(parts[1])
            aspect = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ValidationError(f"malformed target {text!r}: {exc}") from exc
        return wafer.ExplicitAreaTarget(area_um2=area, aspect=aspect)
    raise ValidationError(
        f"unknown target {text!r}; expected 'center' or 'area:<um2>[:aspect]'"
    )


def _cmd_compensate(args: argparse.Namespace) -> int:
    config = _load(args.config, args.grid_pitch_mm)
    table = wafer.compensate_wafer(config, _parse_target(args.target))
    for site, reason in table.rejections:
        print(f"rejected: {reason}", file=sys.stderr)
    if not table.rows:
        raise ComputationError("all sites unreachable for this target")
    csvio.export_corrections(table, args.out)
    print(f"corrections: {len(table.rows)}")
    print(f"rejections: {len(table.rejections)}")
    print(f"target_w_bottom_nm: {csvio.fmt(table.target_w_bottom_nm)}")
    print(f"target_w_top_nm: {csvio.fmt(table.target_w_top_nm)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _load(args.config, None)
    corrections = csvio.import_corrections(args.corrections)
    results = wafer.resimulate_with_corrections(config, corrections)
    summary = wafer.residual_report(results)
    # The resimulation is in row-major site order; align predictions to it.
    order = wafer.row_major_order(corrections)
    predicted = column(corrections, "predicted_area_um2")[order]
    with np.errstate(over="ignore"):
        dev = np.abs(column(results, "area_um2") - predicted) / predicted
    overflow = ~np.isfinite(dev)
    if overflow.any():
        i, x, y = np.argmax(overflow), column(results, "x_mm"), column(results, "y_mm")
        raise ComputationError(
            f"site ({x.item(i)}, {y.item(i)}) mm: the deviation from its predicted area overflows"
        )
    max_dev = np.max(dev).item()
    report = {
        "n_sites": len(results),
        "area_mean_um2": summary.mean,
        "area_sd_um2": summary.sd_sample,
        "area_cv_percent": summary.cv_percent,
        "max_abs_rel_dev_from_predicted": max_dev,
    }
    csvio.write_json_report(report, args.out)
    print(f"residual area_cv_percent: {csvio.fmt(summary.cv_percent)}")
    return 0


def _summary_dict(s: stats.StatsSummary) -> dict:
    return {
        "n": s.n,
        "mean_rn_ohm": s.mean,
        "sd_rn_ohm": s.sd_sample,
        "cv_percent": s.cv_percent,
    }


def _json_records(rows: Table, *names: str, **columns: np.ndarray) -> csvio.JsonRecords:
    """One JSON record per row of `rows`, holding the named columns and
    any further columns given by key."""
    return csvio.JsonRecords(**{name: column(rows, name) for name in names}, **columns)


def _import_measurements(path: str, ids: bool = True) -> tuple[Table, list[str]]:
    """`csvio.import_measurements`, each skipped row reported on stderr."""
    records, diagnostics = csvio.import_measurements(path, ids)
    for d in diagnostics:
        print(f"skipped row: {d}", file=sys.stderr)
    return records, diagnostics


def _cmd_analyze(args: argparse.Namespace) -> int:
    records, diagnostics = _import_measurements(args.measurements)
    group_by = tuple(g for g in args.group_by.split(",") if g)
    report_obj = stats.aggregate(records, group_by)
    repeats = report_obj.repeatability
    cv = column(repeats, "cv")
    report = {
        "n_records": len(records),
        "n_skipped_rows": len(diagnostics),
        "group_by": list(group_by),
        "groups": {k: _summary_dict(v) for k, v in report_obj.group_stats.items()},
        "group_warnings": report_obj.warnings,
        "repeatability": {
            "n_junctions_with_repeats": len(repeats),
            "per_junction": _json_records(
                repeats, "wafer_id", "chip_id", "x_mm", "y_mm", "area_class_um2", "n_runs",
                cv_percent=100.0 * cv,
            ),
        },
    }
    if len(cv) >= 2:
        report["repeatability"]["mean_cv_percent"] = 100.0 * float(cv.mean())
        report["repeatability"]["max_cv_percent"] = 100.0 * max(cv.tolist())
    if args.fit_gap:
        jc = np.asarray(column(records, "jc_ua_um2"), dtype=float)  # None is NaN
        given = ~np.isnan(jc)
        if np.count_nonzero(given) < 2:
            raise ValidationError(
                "--fit-gap needs >= 2 rows with the optional jc_ua_um2 column"
            )
        fit = stats.fit_gap(
            np.column_stack(
                (column(records, "rn_ohm"), column(records, "area_class_um2"), jc)
            )[given]
        )
        outliers = fit.records.take(np.abs(column(fit.records, "rel_residual")) > 0.15)
        report["gap_fit"] = {
            "delta_uev": fit.delta_uev,
            "max_abs_rel_residual": fit.max_abs_rel_residual,
            "records": _json_records(
                fit.records, "rn_ohm", "area_um2", "jc_reported", "jc_fitted",
                "implied_delta_uev", "rel_residual",
            ),
            "outliers": _json_records(
                outliers, "rn_ohm", "area_um2", "implied_delta_uev", "rel_residual"
            ),
        }
    csvio.write_json_report(report, args.out)
    print(f"groups: {len(report['groups'])}")
    return 0


def _cmd_frequency(args: argparse.Namespace) -> int:
    params = stats.QubitParams(gap_delta_uev=args.delta_uev, ec_mhz=args.ec_mhz)
    f = stats.transmon_frequency(args.rn_ohm, params)
    sens = stats.resistance_sensitivity(args.rn_ohm, params)
    print(f"f_hz: {csvio.fmt(f)}")
    print(f"f_ghz: {csvio.fmt(f / 1e9)}")
    print(f"dlnf_dlnrn: {csvio.fmt(sens)}")
    return 0


def _cmd_propagate(args: argparse.Namespace) -> int:
    params = stats.QubitParams(gap_delta_uev=args.delta_uev, ec_mhz=args.ec_mhz)
    result = stats.propagate_cv_monte_carlo(
        mean_rn_ohm=args.mean_rn_ohm,
        cv_rn=args.cv_rn,
        params=params,
        n_samples=args.n,
        seed=args.seed,
    )
    print(f"cv_f: {csvio.fmt(result.cv_f)}")
    print(f"cv_ratio: {csvio.fmt(result.cv_ratio)}")
    print(f"mean_f_ghz: {csvio.fmt(result.mean_f_hz / 1e9)}")
    print(f"n_invalid: {result.n_invalid}")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    points = _heatmap_points(args.infile, args.field)
    heatmap.render_heatmap(points, args.field, args.out)
    print(f"cells: {len(points)}")
    return 0


def _heatmap_points(path: str, field: str) -> np.ndarray:
    """(x, y, field) rows, an (n, 3) array, from a site map, in the
    file's own units, or a measurement CSV (told apart by the header)."""
    header = csvio.SITE_MAP_HEADER
    site_fields = [c for c in header if c not in ("x_mm", "y_mm")]
    if csvio.read_header(path) == header:
        if field not in site_fields:
            raise UnknownField(
                f"unknown field {field!r}; site maps provide {site_fields}"
            )
        columns, _ = csvio.read_numbers(path, header)
        return columns[[header.index(name) for name in ("x_mm", "y_mm", field)]].T

    if field != "rn_ohm":
        raise UnknownField(
            f"unknown field {field!r}; measurement files provide ['rn_ohm']"
        )
    records, _ = _import_measurements(path, ids=False)
    x, y = column(records, "x_mm"), column(records, "y_mm")
    site, first = group_codes([x, y])
    mean = group_mean(site, column(records, "rn_ohm"))
    overflow = ~np.isfinite(mean)
    if overflow.any():
        i = first[np.argmax(overflow)]
        raise ComputationError(
            f"site ({x.item(i)}, {y.item(i)}) mm: the mean of its rn_ohm values overflows"
        )
    return np.column_stack((x[first], y[first], mean))


def _finite_float(text: str) -> float:
    """A numeric flag's value. argparse reports a value that is not a
    finite number as an error naming the flag, and exits 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowevap",
        description=(
            "Shadow-evaporation junction geometry simulation, wafer bias "
            "compensation and resistance statistics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="forward-simulate a wafer site map")
    p.add_argument("--config", required=True)
    p.add_argument("--model", choices=["I", "II", "III"], default="III")
    p.add_argument("--grid-pitch-mm", type=_finite_float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "compare-models", help="bias vs offset for models I/II/III along one axis"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--electrode", choices=["bottom", "top"], required=True)
    p.add_argument("--axis", choices=["x", "y"], required=True)
    p.add_argument("--grid-pitch-mm", type=_finite_float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare_models)

    p = sub.add_parser(
        "compensate", help="emit per-site drawn-dimension corrections"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--target", default="center")
    p.add_argument("--grid-pitch-mm", type=_finite_float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compensate)

    p = sub.add_parser(
        "verify", help="re-simulate a correction table and report residual CV"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--corrections", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", help="statistics over measured resistances")
    p.add_argument("--measurements", required=True)
    p.add_argument("--group-by", default="wafer,area")
    p.add_argument("--fit-gap", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("frequency", help="qubit frequency from R_N")
    p.add_argument("--rn-ohm", type=_finite_float, required=True)
    p.add_argument("--delta-uev", type=_finite_float, required=True)
    p.add_argument("--ec-mhz", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_frequency)

    p = sub.add_parser(
        "propagate", help="Monte-Carlo R_N spread to frequency spread"
    )
    p.add_argument("--mean-rn-ohm", type=_finite_float, required=True)
    p.add_argument("--cv-rn", type=_finite_float, required=True)
    p.add_argument("--delta-uev", type=_finite_float, required=True)
    p.add_argument("--ec-mhz", type=_finite_float, required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("heatmap", help="SVG wafer map of one CSV field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_heatmap)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IoError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

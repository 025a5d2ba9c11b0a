"""In-process replay of a workload's chain through `cli.main(argv)`.

Run as `python3 bench/inproc.py SPEC.json OUT.json` with the program's
`src/` on PYTHONPATH. It times a fresh `import shadowevap.cli`, replays
the chain once untraced and once traced (order from the spec), times
the scalar geometry oracle over the workload's sites and writes
everything, spans included, to OUT.json when it ends.

Tracing wraps, from outside the program, the public functions that
`cli` calls in `config`, `wafer`, `csvio`, `heatmap` and `stats`. Each
call becomes a span record:

    {"id", "invocation", "name", "parent", "start_s", "end_s", "counts"}

`invocation` numbers the subcommand invocations of the chain, `parent`
is the id of the enclosing span (null for the `cli.main` root, which
also names its `command`) and times are seconds from the start of the
traced chain. `counts` is present where the layer has a size to
report. Spans stay in memory until the process ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

_T0 = time.perf_counter()
import shadowevap.cli as cli  # noqa: E402  (the import itself is measured)

IMPORT_S = time.perf_counter() - _T0

from shadowevap import csvio, geometry, heatmap, stats, wafer  # noqa: E402
from shadowevap.config import default_config, load_config  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

# Float64 arrays of length n that propagate_cv_monte_carlo holds at its
# peak (the draws, the frequency buffer and two temporaries); a
# computed figure, not a measured one.
PROPAGATE_FLOAT_ARRAYS = 4


def _size(path) -> int:
    return os.path.getsize(path)


# (owner, attribute, span name, counts from (args, result)).
PATCHES = [
    (cli, "load_config", "config.load", lambda a, r: {"config.bytes": _size(a[0])}),
    (wafer.WaferLayout, "generate_sites", "wafer.generate_sites",
     lambda a, r: {"wafer.sites": len(r)}),
    (wafer, "simulate_wafer", "wafer.simulate", None),
    (wafer, "compensate_wafer", "wafer.compensate",
     lambda a, r: {"wafer.compensate_rows": len(r.rows),
                   "wafer.compensate_rejections": len(r.rejections)}),
    (wafer, "resimulate_with_corrections", "wafer.resimulate", None),
    (wafer, "bias_profile", "wafer.bias_profile", None),
    (wafer, "residual_report", "stats.cv", None),
    (csvio, "export_site_map", "csvio.export_site_map",
     lambda a, r: {"csvio.site_map_bytes": _size(a[1])}),
    (csvio, "import_site_map", "csvio.import_site_map", None),
    (csvio, "export_corrections", "csvio.export_corrections",
     lambda a, r: {"csvio.corrections_bytes": _size(a[1])}),
    (csvio, "import_corrections", "csvio.import_corrections", None),
    (csvio, "import_measurements", "csvio.import_measurements",
     lambda a, r: {"csvio.measurement_rows": len(r[0]), "csvio.skipped_rows": len(r[1])}),
    (csvio, "write_json_report", "csvio.write_json",
     lambda a, r: {"csvio.json_bytes": _size(a[1])}),
    (heatmap, "render_heatmap", "heatmap.render",
     lambda a, r: {"heatmap.cells": len(a[0]), "heatmap.svg_bytes": _size(a[2])}),
    (stats, "aggregate", "stats.aggregate",
     lambda a, r: {"stats.groups": len(r.group_stats),
                   "stats.repeat_junctions": len(r.repeatability)}),
    (stats, "fit_gap", "stats.fit_gap", None),
    (stats, "propagate_cv_monte_carlo", "stats.propagate",
     lambda a, r: {"stats.propagate_samples": r.n_samples,
                   "stats.propagate_n_invalid": r.n_invalid,
                   "stats.propagate_bytes_computed":
                       PROPAGATE_FLOAT_ARRAYS * 8 * r.n_samples}),
]


class Tracer:
    """Span recorder that patches the layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.invocation = 0
        self._stack: list[dict] = []
        self._originals: list[tuple] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        now = time.perf_counter() - self._t0
        record = {
            "id": len(self.spans),
            "invocation": self.invocation,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start_s": now,
            "end_s": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter() - self._t0
            self._stack.pop()

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counts is not None:
                record["counts"] = counts(args, result)
            return result

        return traced

    def install(self) -> None:
        self._t0 = time.perf_counter()
        for owner, attr, name, counts in PATCHES:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counts))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()


def run_chain(chain, work: Path, tracer=None) -> dict:
    """Replay the chain; returns per-invocation walls and problems."""
    walls, problems, failed = [], [], 0
    for i, cmd in enumerate(chain):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is None:
                code = _main(cmd.argv)
            else:
                tracer.invocation = i
                with tracer.span("cli.main") as record:
                    code = _main(cmd.argv)
                record["command"] = cmd.name
            walls.append(time.perf_counter() - start)
        found = workloads.invocation_problems(cmd, code, out.getvalue(), err.getvalue(), work)
        failed += bool(found)
        problems += [f"in-process {p}" for p in found]
    return {"walls_s": walls, "problems": problems, "failed": failed}


def _main(argv) -> int:
    try:
        return cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects a malformed argv this way
        return exc.code if isinstance(exc.code, int) else 2


def site_eval_us(info: dict, work: Path) -> tuple[float, int]:
    """Microseconds per site of the scalar geometry oracle chain, called
    directly over the workload's sites."""
    if info["config"] is not None:
        config, _ = load_config(work / info["config"])
    else:
        config = default_config()
    pitch = info.get("grid_pitch_mm")
    if config.layout.sites is None and pitch is not None:
        config = replace(config, layout=replace(config.layout, grid_pitch_mm=pitch))
    sites = config.layout.generate_sites()
    src, eps = config.source, config.epsilon_center_mm
    junction, mask = config.junction, config.mask
    bottom, top = config.bottom_step, config.top_step
    start = time.perf_counter()
    for s in sites:
        tb = geometry.local_incidence_angle(geometry.WaferSite(s.x_mm, 0.0), bottom, src)
        tt = geometry.local_incidence_angle(geometry.WaferSite(0.0, s.y_mm), top, src)
        tp = geometry.sidewall_thickness(tb, bottom.film_t0_nm)
        wb = geometry.bottom_width(junction, mask, tb, s.x_mm, src, epsilon_center_mm=eps)
        wt = geometry.top_width(junction, mask, tt, tp, s.y_mm, src, epsilon_center_mm=eps)
        geometry.overlap_area(wb, wt)
    return (time.perf_counter() - start) / len(sites) * 1e6, len(sites)


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    info = spec["info"]
    work = Path(spec["work"])
    os.chdir(work)
    chain = workloads.commands(info)
    tracer = Tracer()
    result = {"import_s": IMPORT_S}
    for mode in (("traced", "untraced") if spec["traced_first"] else ("untraced", "traced")):
        if mode == "traced":
            tracer.install()
            try:
                result[mode] = run_chain(chain, work, tracer)
            finally:
                tracer.uninstall()
        else:
            result[mode] = run_chain(chain, work)
    result["spans"] = tracer.spans
    result["site_eval_us"], result["site_eval_sites"] = site_eval_us(info, work)
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))

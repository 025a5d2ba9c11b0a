"""Process configuration files.

A single YAML document describes the whole stack (wafer layout, source,
mask, junction, both evaporation steps). Every omitted field falls back
to the documented default and is echoed in a provenance list; unknown
keys are rejected so typos cannot silently revert to defaults.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Union

import yaml

from .errors import IoError, ParseError, ValidationError
from .geometry import (
    DEFAULT_EPSILON_CENTER_MM,
    EvaporationStep,
    JunctionSpec,
    MaskStack,
    ShadowAxis,
    SourceKind,
    SourceModel,
    TiltSign,
    WaferSite,
)
from .wafer import ProcessConfig, WaferLayout

DEFAULTS: dict[str, dict[str, Any]] = {
    "wafer": {"diameter_mm": 100.0, "working_span_mm": 70.0, "grid_pitch_mm": 5.0},
    "source": {"distance_mm": 650.0, "radius_mm": 1.0, "kind": "disk"},
    "mask": {"top_H_nm": 100.0, "bottom_h_nm": 500.0},
    "junction": {"drawn_w_bottom_nm": 200.0, "drawn_w_top_nm": 200.0},
    "bottom_step": {
        "tilt_deg": 40.0,
        "shadow_axis": "x",
        "tilt_sign": "+",
        "film_T0_nm": 25.0,
    },
    "top_step": {
        "tilt_deg": 0.0,
        "shadow_axis": "y",
        "tilt_sign": "+",
        "film_T0_nm": 45.0,
    },
}

_SITE_KEYS = {"x_mm", "y_mm", "chip_id", "site_id"}


def _require_mapping(obj: Any, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _number(section: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{section}.{key} must be a number, got {value!r}")
    return float(value)


def _merge_section(
    name: str, raw: dict, provenance: list[str], extra_keys: set[str] = frozenset()
) -> dict[str, Any]:
    """Apply defaults for one section, recording each applied default."""
    defaults = DEFAULTS[name]
    given = _require_mapping(raw.get(name), name)
    unknown = set(given) - set(defaults) - extra_keys
    if unknown:
        raise ValidationError(
            f"unknown key(s) in section {name!r}: {sorted(unknown)}"
        )
    merged: dict[str, Any] = {}
    for key, default in defaults.items():
        if key in given:
            merged[key] = given[key]
        else:
            merged[key] = default
            provenance.append(f"{name}.{key} = {default} (default)")
    for key in extra_keys:
        if key in given:
            merged[key] = given[key]
    return merged


def _parse_sites(raw: Any) -> tuple[WaferSite, ...]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("wafer.sites must be a non-empty list")
    sites = []
    for i, entry in enumerate(raw):
        entry = _require_mapping(entry, f"wafer.sites[{i}]")
        unknown = set(entry) - _SITE_KEYS
        if unknown:
            raise ValidationError(
                f"unknown key(s) in wafer.sites[{i}]: {sorted(unknown)}"
            )
        if "x_mm" not in entry or "y_mm" not in entry:
            raise ValidationError(f"wafer.sites[{i}] needs x_mm and y_mm")
        sites.append(
            WaferSite(
                x_mm=_number(f"wafer.sites[{i}]", "x_mm", entry["x_mm"]),
                y_mm=_number(f"wafer.sites[{i}]", "y_mm", entry["y_mm"]),
                chip_id=entry.get("chip_id"),
                site_id=entry.get("site_id"),
            )
        )
    return tuple(sites)


def _build_step(name: str, sec: dict[str, Any]) -> EvaporationStep:
    try:
        axis = ShadowAxis(str(sec["shadow_axis"]).lower())
    except ValueError:
        raise ValidationError(
            f"{name}.shadow_axis must be 'x' or 'y', got {sec['shadow_axis']!r}"
        ) from None
    try:
        sign = TiltSign(str(sec["tilt_sign"]))
    except ValueError:
        raise ValidationError(
            f"{name}.tilt_sign must be '+' or '-', got {sec['tilt_sign']!r}"
        ) from None
    return EvaporationStep(
        tilt_deg=_number(name, "tilt_deg", sec["tilt_deg"]),
        shadow_axis=axis,
        tilt_sign=sign,
        film_t0_nm=_number(name, "film_T0_nm", sec["film_T0_nm"]),
    )


def config_from_dict(raw: dict) -> tuple[ProcessConfig, list[str]]:
    """Build a validated ProcessConfig from a parsed document, returning
    it with the provenance list of every default that was applied."""
    raw = _require_mapping(raw, "config")
    known_top = set(DEFAULTS) | {"epsilon_center_mm"}
    unknown = set(raw) - known_top
    if unknown:
        raise ValidationError(f"unknown top-level key(s): {sorted(unknown)}")

    provenance: list[str] = []
    wafer_sec = _merge_section("wafer", raw, provenance, extra_keys={"sites"})
    source_sec = _merge_section("source", raw, provenance)
    mask_sec = _merge_section("mask", raw, provenance)
    junction_sec = _merge_section("junction", raw, provenance)
    bottom_sec = _merge_section("bottom_step", raw, provenance)
    top_sec = _merge_section("top_step", raw, provenance)
    if "epsilon_center_mm" in raw:
        epsilon = _number("config", "epsilon_center_mm", raw["epsilon_center_mm"])
    else:
        epsilon = DEFAULT_EPSILON_CENTER_MM
        provenance.append(f"epsilon_center_mm = {epsilon} (default)")

    try:
        kind = SourceKind(str(source_sec["kind"]).lower())
    except ValueError:
        raise ValidationError(
            f"source.kind must be 'point' or 'disk', got {source_sec['kind']!r}"
        ) from None

    layout = WaferLayout(
        wafer_diameter_mm=_number("wafer", "diameter_mm", wafer_sec["diameter_mm"]),
        working_span_mm=_number(
            "wafer", "working_span_mm", wafer_sec["working_span_mm"]
        ),
        grid_pitch_mm=_number("wafer", "grid_pitch_mm", wafer_sec["grid_pitch_mm"]),
        sites=_parse_sites(wafer_sec["sites"]) if "sites" in wafer_sec else None,
    )
    config = ProcessConfig(
        layout=layout,
        source=SourceModel(
            distance_mm=_number("source", "distance_mm", source_sec["distance_mm"]),
            radius_mm=_number("source", "radius_mm", source_sec["radius_mm"]),
            kind=kind,
        ),
        mask=MaskStack(
            top_nm=_number("mask", "top_H_nm", mask_sec["top_H_nm"]),
            bottom_nm=_number("mask", "bottom_h_nm", mask_sec["bottom_h_nm"]),
        ),
        junction=JunctionSpec(
            drawn_bottom_nm=_number(
                "junction", "drawn_w_bottom_nm", junction_sec["drawn_w_bottom_nm"]
            ),
            drawn_top_nm=_number(
                "junction", "drawn_w_top_nm", junction_sec["drawn_w_top_nm"]
            ),
        ),
        bottom_step=_build_step("bottom_step", bottom_sec),
        top_step=_build_step("top_step", top_sec),
        epsilon_center_mm=epsilon,
    )
    return config, provenance


def load_config(path: Union[str, Path]) -> tuple[ProcessConfig, list[str]]:
    """Load and validate a YAML process configuration.

    Returns the config together with the provenance list (one entry per
    applied default). Raises ParseError for unreadable YAML (with the
    document position), ValidationError for invariant violations and
    IoError when the file cannot be read.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        pos = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"cannot parse {path}{pos}: {exc}") from exc
    return config_from_dict(raw if raw is not None else {})


def default_config() -> ProcessConfig:
    """The fully defaulted process stack."""
    return config_from_dict({})[0]

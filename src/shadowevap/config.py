"""Process configuration files.

A single YAML document describes the whole stack (wafer layout, source,
mask, junction, both evaporation steps). Every omitted field falls back
to the documented default and is echoed in a provenance list; unknown
keys are rejected so typos cannot silently revert to defaults.

`DEFAULTS` is the schema. Its sections build the ProcessConfig fields
in the same order, and each section's keys are the leading fields of
that field's dataclass, in order: a key's dataclass field type (float
or an Enum) says how its value is parsed.
"""

from __future__ import annotations

import re
import reprlib
import sys
from dataclasses import fields
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Any, Iterable, Optional, Union, get_type_hints

import numpy as np

from .errors import IoError, ParseError, ValidationError
from .geometry import DEFAULT_EPSILON_CENTER_MM, WaferSite
from .table import Table
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

#: The one top-level key outside the sections, and the one wafer key
#: without a default.
_EPSILON = "epsilon_center_mm"
_SITES = "sites"

#: Keys of a wafer.sites entry: the WaferSite fields. Those without a
#: default (the coordinates) are required numbers; the ids pass as given.
_SITE_KEYS = list(WaferSite._fields)
_SITE_COORDS = set(_SITE_KEYS).difference(WaferSite._field_defaults)


@cache
def _types(cls: type) -> list[type]:
    """The field types of a dataclass, in field order."""
    hints = get_type_hints(cls)
    return [hints[f.name] for f in fields(cls)]


def _require_mapping(obj: Any, where: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(given: dict, known: Iterable[str], what: str) -> None:
    unknown = set(given) - set(known)
    if unknown:
        raise ValidationError(f"unknown {what}: {sorted(unknown, key=str)}")


class _Quote(reprlib.Repr):
    """The repr of a rejected value, bounded: YAML aliases let a short
    text name an exponentially large value. Two levels of six items
    (four of a mapping) at most, each scalar cut to 500 characters."""

    def __init__(self) -> None:
        super().__init__()
        self.maxlevel = 2
        self.maxstring = self.maxlong = self.maxother = 500

    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than str() converts
            return f"an integer of {x.bit_length()} bits"


_quote = _Quote().repr


def _parse(where: str, key: str, value: Any, kind: type = float) -> Any:
    """The value of `where.key` as a member of an Enum `kind` (matched
    case-insensitively) or else as a finite float."""
    if issubclass(kind, Enum):
        # Only a string can name a member; kind(value) would quote any
        # other value whole in its error.
        if isinstance(value, str) and value.lower() in {m.value for m in kind}:
            return kind(value.lower())
        choices = " or ".join(repr(member.value) for member in kind)
        raise ValidationError(f"{where}.{key} must be {choices}, got {_quote(value)}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}.{key} must be a number, got {_quote(value)}")
    # Rejects inf and nan, and ints too large for a float.
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{where}.{key} must be finite, got {_quote(value)}")
    return float(value)


def _section(name: str, cls: type, raw: Any, provenance: list[str]) -> Any:
    """Build one section's dataclass, recording each applied default."""
    defaults = DEFAULTS[name]
    given = _require_mapping(raw, name)
    known = [*defaults, _SITES] if cls is WaferLayout else defaults
    _check_keys(given, known, f"key(s) in section {name!r}")
    values = []
    for (key, default), kind in zip(defaults.items(), _types(cls)):
        if key not in given:
            provenance.append(f"{name}.{key} = {default} (default)")
        values.append(_parse(name, key, given.get(key, default), kind))
    if _SITES in given:
        values.append(_parse_sites(given[_SITES]))
    return cls(*values)


def _site_columns(raw: list) -> Optional[list]:
    """WaferSite's columns from a list of plain dicts with the site keys
    only, both coordinates in each and every coordinate an int or float
    within the float range, checked as arrays; None for any other list."""
    if not all(type(entry) is dict for entry in raw) or set().union(*raw).difference(_SITE_KEYS):
        return None
    try:
        coords = [[entry[key] for entry in raw] for key in _SITE_KEYS if key in _SITE_COORDS]
        if not set().union(*(map(type, column) for column in coords)) <= {int, float}:
            return None
        values = np.array(coords, dtype=float)
    except (KeyError, OverflowError):  # a missing coordinate, an int past the float range
        return None
    # `_parse`'s bound, strict: an int past it may round to the largest float.
    if not (np.abs(values) < sys.float_info.max).all():
        return None
    # WaferSite's fields without a default, the coordinates, come first.
    ids = ([entry.get(key) for entry in raw] for key in _SITE_KEYS if key not in _SITE_COORDS)
    return [*values, *ids]


def _parse_sites(raw: Any) -> Table:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("wafer.sites must be a non-empty list")
    columns = _site_columns(raw)
    if columns is None:
        # Entry by entry, so the first bad entry names itself.
        rows = []
        for i, entry in enumerate(raw):
            where = f"wafer.sites[{i}]"
            entry = _require_mapping(entry, where)
            _check_keys(entry, _SITE_KEYS, f"key(s) in {where}")
            if not _SITE_COORDS <= entry.keys():
                raise ValidationError(f"{where} needs x_mm and y_mm")
            rows.append([
                _parse(where, key, entry[key]) if key in _SITE_COORDS else entry.get(key)
                for key in _SITE_KEYS
            ])
        columns = zip(*rows)
    # The ids pass as given, into object columns.
    return Table(WaferSite, **{
        key: np.fromiter(values, float if key in _SITE_COORDS else object, len(raw))
        for key, values in zip(_SITE_KEYS, columns)
    })


def config_from_dict(raw: dict) -> tuple[ProcessConfig, list[str]]:
    """Build a validated ProcessConfig from a parsed document, returning
    it with the provenance list of every default that was applied.

    Sections are built in DEFAULTS order, each key in order and then
    the section's own invariants, so of several errors the first in
    section-then-key order is the one reported.
    """
    raw = _require_mapping(raw, "config")
    _check_keys(raw, [*DEFAULTS, _EPSILON], "top-level key(s)")
    provenance: list[str] = []
    sections = [
        _section(name, cls, raw.get(name), provenance)
        for name, cls in zip(DEFAULTS, _types(ProcessConfig))
    ]
    if _EPSILON in raw:
        epsilon = _parse("config", _EPSILON, raw[_EPSILON])
    else:
        epsilon = DEFAULT_EPSILON_CENTER_MM
        provenance.append(f"{_EPSILON} = {epsilon} (default)")
    return ProcessConfig(*sections, epsilon), provenance


#: The characters of a text the row reader may take. It keeps `\`
#: escapes (an escaped item could spell a token), tags and block
#: scalars away from `_splice`.
_ROW_TEXT = re.compile(r"[A-Za-z0-9 \n_.,:#'\"{}\[\]+\-~&*<=/()$;^]*")


#: Deepest nesting of lists and mappings a config may have, well within
#: what PyYAML composes (about 330 levels) before it runs out of
#: recursion.
MAX_NESTING = 100


def _nests_deeper(data: Any, depth: int) -> bool:
    """Whether `data` holds lists, tuples or mappings nested more than
    `depth` deep. It is walked a level at a time, each container once a
    level, since aliases share nodes; a value that contains itself is
    infinitely deep."""
    containers = (dict, list, tuple)
    level = {id(data): data} if isinstance(data, containers) else {}
    for _ in range(depth):
        level = {
            id(child): child
            for node in level.values()
            for child in (node.values() if isinstance(node, dict) else node)
            if isinstance(child, containers)
        }
    return bool(level)


#: A wafer.sites row in flow form on a line of its own: `- {x_mm: N,
#: y_mm: N}`, then optionally `, chip_id: ID` and `, site_id: ID`. Each
#: N is a YAML int or float that int() or float() builds alike; an ID is
#: a string unless an implicit resolver for its first character claims it.
#: `re` compiles it on first use, so a config without rows never does.
_N = r"(-?(?:0|[1-9][0-9]{0,15})(?:\.[0-9]{0,17})?)"
_ID = r"([A-Za-z_][A-Za-z0-9_]*)"
_ROW = rf"^( *)- \{{x_mm: {_N}, y_mm: {_N}(?:, chip_id: {_ID})?(?:, site_id: {_ID})?\}}$"


def _splice(data: Any, rows: dict[str, list]) -> bool:
    """Put each token's rows in its place in `data["wafer"]["sites"]`,
    the one list where rows are valid, if it holds every token as a
    whole item. No other string equals a token; anchors, aliases and
    merges share the list, so one splice gives what YAML gives."""
    wafer = data.get("wafer") if isinstance(data, dict) else None
    sites = wafer.get(_SITES) if isinstance(wafer, dict) else None
    if not isinstance(sites, list):
        return False
    at = [i for i, item in enumerate(sites) if isinstance(item, str) and item in rows]
    if len(at) < len(rows):
        return False
    for i in reversed(at):  # the last item first
        sites[i : i + 1] = rows[sites[i]]
    return True


def _safe_load(text: str) -> Any:
    """The data `yaml.safe_load(text)` gives, or its error.

    In a text `_ROW_TEXT` admits (so without escapes, tags or block
    scalars), each run of consecutive `_ROW` lines at one indent is
    read by the regex and stands as one line `- <token>` in the text
    YAML parses, and `_splice` puts the rows back into `wafer.sites`.
    Where that fails, as it does for rows anywhere else, YAML parses
    the whole text, so errors keep their wording and position.
    """
    import yaml  # here, not at module level: only a config needs it

    if "- {x_mm:" not in text or not _ROW_TEXT.fullmatch(text):
        return yaml.safe_load(text)
    mark = "shadowevap_rows"
    while mark in text:
        mark += "_"
    resolvers = yaml.resolver.Resolver.yaml_implicit_resolvers
    rows: dict[str, list] = {}
    pieces, at, run_indent = [], 0, None
    for match in re.finditer(_ROW, text, re.MULTILINE):
        indent, x, y, *ids = match.groups()
        if any(regexp.match(i) for i in ids if i for _, regexp in resolvers.get(i[0], ())):
            continue
        if not rows or match.start() != at + 1 or indent != run_indent:
            run_indent, token = indent, f"{mark}{len(rows)}"
            pieces += [text[at : match.start()], f"{indent}- {token}"]
            rows[token] = []
        values = (float(x) if "." in x else int(x), float(y) if "." in y else int(y), *ids)
        rows[token].append({k: v for k, v in zip(_SITE_KEYS, values) if v is not None})
        at = match.end()
    if rows:
        try:
            data = yaml.safe_load("".join(pieces) + text[at:])
            if _splice(data, rows):
                return data
        except Exception:  # the whole text gives the error, at its own position
            pass
    return yaml.safe_load(text)


def load_config(path: Union[str, Path]) -> tuple[ProcessConfig, list[str]]:
    """Load and validate a YAML process configuration.

    Returns the config together with the provenance list (one entry per
    applied default). Raises ParseError for unreadable YAML (with the
    document position), a scalar YAML cannot convert or data nested
    more than MAX_NESTING deep, ValidationError for invariant violations and
    IoError when the file cannot be read.
    """
    import yaml

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot parse {path}: not UTF-8 text ({exc.reason})") from exc
    too_deep = ParseError(f"cannot parse {path}: nested too deeply")
    try:
        raw = _safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        pos = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ParseError(f"cannot parse {path}{pos}: {exc}") from exc
    except (ValueError, KeyError, AttributeError) as exc:
        # What the constructor raises for a scalar it cannot convert,
        # such as the timestamp 2001-02-30 or `!!bool maybe`.
        raise ParseError(f"cannot parse {path}: cannot convert a scalar: {exc}") from exc
    except RecursionError:
        # PyYAML composes nested data recursively.
        raise too_deep from None
    if _nests_deeper(raw, MAX_NESTING):
        raise too_deep
    return config_from_dict(raw if raw is not None else {})


def default_config() -> ProcessConfig:
    """The fully defaulted process stack."""
    return config_from_dict({})[0]

"""YAML config loading: defaults, provenance, strict key checking."""

import math
import re
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowevap import config as config_module
from shadowevap.config import config_from_dict, default_config, load_config
from shadowevap.errors import IoError, ParseError, ValidationError
from shadowevap.geometry import ShadowAxis, SourceKind, TiltSign, WaferSite
from shadowevap.wafer import ExplicitAreaTarget, compensate_wafer


def write(tmp_path, text, name="process.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_fully_defaulted_stack(self):
        config = default_config()
        assert config.layout.wafer_diameter_mm == 100.0
        assert config.layout.working_span_mm == 70.0
        assert config.layout.grid_pitch_mm == 5.0
        assert config.source.distance_mm == 650.0
        assert config.source.radius_mm == 1.0
        assert config.source.kind is SourceKind.DISK
        assert config.mask.top_nm == 100.0
        assert config.mask.bottom_nm == 500.0
        assert config.junction.drawn_bottom_nm == 200.0
        assert config.bottom_step.tilt_deg == 40.0
        assert config.bottom_step.shadow_axis is ShadowAxis.ALONG_X
        assert config.bottom_step.film_t0_nm == 25.0
        assert config.top_step.tilt_deg == 0.0
        assert config.top_step.shadow_axis is ShadowAxis.ALONG_Y
        assert config.epsilon_center_mm == 0.5

    def test_minimal_file_gets_defaults_and_provenance(self, tmp_path):
        path = write(tmp_path, "source:\n  distance_mm: 700\n")
        config, provenance = load_config(path)
        assert config.source.distance_mm == 700.0
        assert config.source.radius_mm == 1.0
        assert config.mask.top_nm == 100.0
        assert not any("source.distance_mm" in p for p in provenance)
        assert any(p.startswith("source.radius_mm") for p in provenance)
        assert any(p.startswith("bottom_step.tilt_deg") for p in provenance)
        assert any(p.startswith("epsilon_center_mm") for p in provenance)

    def test_empty_file_is_the_default_stack(self, tmp_path):
        path = write(tmp_path, "")
        config, provenance = load_config(path)
        assert config == default_config()
        # one provenance entry per defaulted leaf
        assert len(provenance) == 3 + 3 + 2 + 2 + 4 + 4 + 1


class TestValidation:
    def test_tilt_over_ninety(self, tmp_path):
        path = write(tmp_path, "bottom_step:\n  tilt_deg: 95\n")
        with pytest.raises(ValidationError, match="tilt"):
            load_config(path)

    def test_radius_exceeding_distance(self, tmp_path):
        path = write(tmp_path, "source:\n  distance_mm: 10\n  radius_mm: 20\n")
        with pytest.raises(ValidationError, match="radius"):
            load_config(path)

    def test_unknown_section_key(self, tmp_path):
        path = write(tmp_path, "source:\n  distanc_mm: 650\n")
        with pytest.raises(ValidationError, match="distanc_mm"):
            load_config(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write(tmp_path, "sorce:\n  distance_mm: 650\n")
        with pytest.raises(ValidationError, match="sorce"):
            load_config(path)

    def test_non_numeric_value(self, tmp_path):
        path = write(tmp_path, "mask:\n  top_H_nm: thick\n")
        with pytest.raises(ValidationError, match="top_H_nm"):
            load_config(path)

    def test_bad_enum_values(self, tmp_path):
        path = write(tmp_path, "source:\n  kind: laser\n")
        with pytest.raises(ValidationError, match="kind"):
            load_config(path)
        path = write(tmp_path, "top_step:\n  shadow_axis: z\n")
        with pytest.raises(ValidationError, match="shadow_axis"):
            load_config(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = write(tmp_path, "source:\n  distance_mm: [unclosed\n")
        with pytest.raises(ParseError, match="line"):
            load_config(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "process.yaml"
        path.write_bytes(b"source:\n  kind: \xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_config(tmp_path / "nope.yaml")


class TestExplicitSites:
    def test_site_list_overrides_grid(self, tmp_path):
        path = write(
            tmp_path,
            "wafer:\n"
            "  sites:\n"
            "    - {x_mm: 0, y_mm: 0, chip_id: c0}\n"
            "    - {x_mm: 10, y_mm: -5, chip_id: c1, site_id: s3}\n",
        )
        config, _ = load_config(path)
        sites = config.layout.generate_sites()
        assert len(sites) == 2
        assert sites[0].chip_id == "c1"  # row-major: y=-5 first

    def test_site_list_rejects_unknown_keys(self, tmp_path):
        path = write(tmp_path, "wafer:\n  sites:\n    - {x_mm: 0, y_mm: 0, chip: a}\n")
        with pytest.raises(ValidationError, match="chip"):
            load_config(path)

    def test_site_list_requires_coordinates(self, tmp_path):
        path = write(tmp_path, "wafer:\n  sites:\n    - {x_mm: 0}\n")
        with pytest.raises(ValidationError):
            load_config(path)


def site_list_outcome(sites):
    """repr of the config `config_from_dict` builds on a wafer.sites
    list and of its sites' rows (the config shows the sites' Table by
    its length), or its error's text."""
    try:
        config = config_from_dict({"wafer": {"sites": sites}})[0]
        return repr((config, list(config.layout.sites)))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


GOOD_SITE = {"x_mm": 1.5, "y_mm": -2, "chip_id": "c0"}

#: wafer.sites lists with what the array check must make of them: the
#: config or the first error text the entry-by-entry loop gives.
SITE_LISTS = {
    "well formed": [GOOD_SITE, {"x_mm": 0, "y_mm": 7.25, "site_id": "s1"}],
    "ints above 2^53": [{"x_mm": 9007199254740993, "y_mm": 9999999999999999},
                        {"x_mm": -9007199254740995, "y_mm": 1234567890123457}],
    "int -0 and float -0.0": [{"x_mm": -0, "y_mm": -0.0}, {"x_mm": -0.0, "y_mm": 0}],
    "largest float": [{"x_mm": 1.7976931348623157e308, "y_mm": 0}],
    "bool": [GOOD_SITE, {"x_mm": 1, "y_mm": True}],
    "string": [GOOD_SITE, {"x_mm": "1.5", "y_mm": 0}],
    "inf": [GOOD_SITE, GOOD_SITE, {"x_mm": 0, "y_mm": math.inf}],
    "nan": [{"x_mm": math.nan, "y_mm": 0}],
    "int past the float range": [GOOD_SITE, {"x_mm": 10**400, "y_mm": 0}],
    "int rounding to the largest float": [{"x_mm": 0, "y_mm": 2**1024 - 2**970 - 1}],
    "unknown key": [GOOD_SITE, {"x_mm": 0, "y_mm": 0, "chip": "a"}],
    "missing y_mm": [GOOD_SITE, {"x_mm": 0}],
    "null entry": [GOOD_SITE, None],
    "non-mapping entry": [GOOD_SITE, [0, 0]],
    "first error in entry order": [GOOD_SITE, {"x_mm": 0, "y_mm": "a"}, {"x_mm": math.nan}],
}


class TestSiteArrayCheck:
    """`_parse_sites` checks a list of plain dicts as arrays, and falls
    back to its entry-by-entry loop (the oracle here) for anything else."""

    @pytest.mark.parametrize("sites", SITE_LISTS.values(), ids=SITE_LISTS)
    def test_equals_the_loop(self, sites, monkeypatch):
        got = site_list_outcome(sites)
        monkeypatch.setattr(config_module, "_site_columns", lambda raw: None)
        assert got == site_list_outcome(sites)

    def test_expected_outcomes(self):
        assert site_list_outcome(SITE_LISTS["int -0 and float -0.0"]).count("x_mm=-0.0") == 1
        assert site_list_outcome(SITE_LISTS["bool"]) == (
            "ValidationError: wafer.sites[1].y_mm must be a number, got True"
        )
        assert site_list_outcome(SITE_LISTS["int rounding to the largest float"]).startswith(
            "ValidationError: wafer.sites[0].y_mm must be finite, got 1797693"
        )
        assert site_list_outcome(SITE_LISTS["first error in entry order"]) == (
            "ValidationError: wafer.sites[1].y_mm must be a number, got 'a'"
        )

    @pytest.mark.parametrize(
        "name, arrays",
        [("well formed", True), ("ints above 2^53", True), ("int -0 and float -0.0", True),
         ("largest float", False), ("bool", False), ("nan", False), ("null entry", False)],
    )
    def test_which_lists_take_the_arrays(self, name, arrays):
        assert (config_module._site_columns(SITE_LISTS[name]) is not None) == arrays

    def test_numpy_coordinates_take_the_loop(self):
        # A library caller's np.float64 is a float, but not a plain one.
        sites = [{"x_mm": np.float64(1.5), "y_mm": np.float64(-0.0)}]
        assert config_module._site_columns(sites) is None
        (site,) = config_from_dict({"wafer": {"sites": sites}})[0].layout.sites
        assert repr((site.x_mm, site.y_mm)) == "(1.5, -0.0)"
        assert type(site.x_mm) is float

    def test_yaml_text(self, tmp_path):
        text = "wafer:\n  sites:\n  - {x_mm: -0, y_mm: 2}\n  - {x_mm: .inf, y_mm: 1}\n"
        with pytest.raises(ValidationError) as caught:
            load_config(write(tmp_path, text))
        assert str(caught.value) == "wafer.sites[1].x_mm must be finite, got inf"


def site_rows(n, block):
    """A config of n wafer.sites rows with chip and site ids, in the
    benchmark's flow form or in block style."""
    row = ("  - x_mm: {}\n    y_mm: {}\n    chip_id: c{}\n    site_id: s{:05d}\n" if block
           else "  - {{x_mm: {}, y_mm: {}, chip_id: c{}, site_id: s{:05d}}}\n")
    return "wafer:\n  sites:\n" + "".join(
        row.format(round(40 * math.cos(i) * i / n, 4), round(40 * math.sin(i) * i / n, 4),
                   i % 97, i)
        for i in range(n)
    )


class TestSiteTable:
    """A wafer.sites list is one Table of WaferSite, built column by
    column, from the config to the sweep."""

    @pytest.mark.parametrize("n, block", [(5000, False), (50, True)], ids=["flow", "block"])
    def test_no_site_object_is_built(self, tmp_path, monkeypatch, n, block):
        """Before, the config built one WaferSite per site and
        `generate_sites` took them apart again: 5,000 for the
        benchmark's list."""
        built, new = [], WaferSite.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(WaferSite, "__new__", counted)
        sites = load_config(write(tmp_path, site_rows(n, block)))[0].layout.generate_sites()
        assert len(sites) == n and built == []
        assert isinstance(sites[0], WaferSite)
        assert len(built) == 1  # the count sees a record built on access

    def test_ids_pass_as_given(self, tmp_path):
        """A YAML list or int id reaches the sites' rows and the
        rejections as it is."""
        text = ("wafer:\n  sites:\n  - {x_mm: 1.0, y_mm: 0.0, chip_id: [c, 1], site_id: 7}\n"
                "  - {x_mm: -0.5, y_mm: 0.0, chip_id: c2}\n")
        config, _ = load_config(write(tmp_path, text))
        sites = config.layout.generate_sites()
        assert [(s.chip_id, s.site_id) for s in sites] == [("c2", None), (["c", 1], 7)]
        table = compensate_wafer(config, ExplicitAreaTarget(area_um2=1e-6))
        assert [site for site, _ in table.rejections] == list(sites)
        assert type(table.rejections[1][0].chip_id) is list


class TestStepOptions:
    def test_tilt_sign_minus(self, tmp_path):
        path = write(tmp_path, 'bottom_step:\n  tilt_sign: "-"\n')
        config, _ = load_config(path)
        assert config.bottom_step.tilt_sign is TiltSign.MINUS

    def test_point_source_kind(self, tmp_path):
        path = write(tmp_path, "source:\n  kind: point\n")
        config, _ = load_config(path)
        assert config.source.kind is SourceKind.POINT
        assert config.source.effective_radius_mm == 0.0


class TestSchemaMapping:
    """DEFAULTS keys build their dataclass fields by position, so the
    mapping from key to field is pinned here."""

    def test_every_key_lands_in_its_field(self, tmp_path):
        path = write(
            tmp_path,
            "wafer: {diameter_mm: 101, working_span_mm: 71, grid_pitch_mm: 6}\n"
            "source: {distance_mm: 651, radius_mm: 2, kind: point}\n"
            "mask: {top_H_nm: 102, bottom_h_nm: 502}\n"
            "junction: {drawn_w_bottom_nm: 203, drawn_w_top_nm: 204}\n"
            "bottom_step: {tilt_deg: 41, shadow_axis: y, tilt_sign: '-', film_T0_nm: 26}\n"
            "top_step: {tilt_deg: 3, shadow_axis: x, tilt_sign: '-', film_T0_nm: 46}\n"
            "epsilon_center_mm: 0.7\n",
        )
        config, provenance = load_config(path)
        assert provenance == []
        assert (
            config.layout.wafer_diameter_mm,
            config.layout.working_span_mm,
            config.layout.grid_pitch_mm,
        ) == (101.0, 71.0, 6.0)
        assert (config.source.distance_mm, config.source.radius_mm) == (651.0, 2.0)
        assert config.source.kind is SourceKind.POINT
        assert (config.mask.top_nm, config.mask.bottom_nm) == (102.0, 502.0)
        assert config.junction.drawn_bottom_nm == 203.0
        assert config.junction.drawn_top_nm == 204.0
        assert (config.bottom_step.tilt_deg, config.bottom_step.film_t0_nm) == (41.0, 26.0)
        assert config.bottom_step.shadow_axis is ShadowAxis.ALONG_Y
        assert config.bottom_step.tilt_sign is TiltSign.MINUS
        assert (config.top_step.tilt_deg, config.top_step.film_t0_nm) == (3.0, 46.0)
        assert config.top_step.shadow_axis is ShadowAxis.ALONG_X
        assert config.top_step.tilt_sign is TiltSign.MINUS
        assert config.epsilon_center_mm == 0.7

    def test_provenance_of_the_empty_config(self):
        _, provenance = config_from_dict({})
        assert provenance == [
            "wafer.diameter_mm = 100.0 (default)",
            "wafer.working_span_mm = 70.0 (default)",
            "wafer.grid_pitch_mm = 5.0 (default)",
            "source.distance_mm = 650.0 (default)",
            "source.radius_mm = 1.0 (default)",
            "source.kind = disk (default)",
            "mask.top_H_nm = 100.0 (default)",
            "mask.bottom_h_nm = 500.0 (default)",
            "junction.drawn_w_bottom_nm = 200.0 (default)",
            "junction.drawn_w_top_nm = 200.0 (default)",
            "bottom_step.tilt_deg = 40.0 (default)",
            "bottom_step.shadow_axis = x (default)",
            "bottom_step.tilt_sign = + (default)",
            "bottom_step.film_T0_nm = 25.0 (default)",
            "top_step.tilt_deg = 0.0 (default)",
            "top_step.shadow_axis = y (default)",
            "top_step.tilt_sign = + (default)",
            "top_step.film_T0_nm = 45.0 (default)",
            "epsilon_center_mm = 0.5 (default)",
        ]

    def test_error_messages(self):
        cases = [
            ({"source": {"kind": "laser"}},
             "source.kind must be 'point' or 'disk', got 'laser'"),
            ({"top_step": {"shadow_axis": "z"}},
             "top_step.shadow_axis must be 'x' or 'y', got 'z'"),
            ({"bottom_step": {"tilt_sign": 1}},
             "bottom_step.tilt_sign must be '+' or '-', got 1"),
            ({"mask": {"top_H_nm": True}}, "mask.top_H_nm must be a number, got True"),
            ({"epsilon_center_mm": "x"}, "config.epsilon_center_mm must be a number, got 'x'"),
            ({"junction": {"drawn_w_top_nm": 10**400}},
             f"junction.drawn_w_top_nm must be finite, got {10**400}"),
            ({"source": {"distanc_mm": 1}}, "unknown key(s) in section 'source': ['distanc_mm']"),
            ({3: 1, "sorce": {}}, "unknown top-level key(s): [3, 'sorce']"),
            ({"wafer": {"sites": [{"x_mm": 0, "y_mm": 0, "chip": "a"}]}},
             "unknown key(s) in wafer.sites[0]: ['chip']"),
            ({"wafer": {"sites": [{"y_mm": 0}]}}, "wafer.sites[0] needs x_mm and y_mm"),
        ]
        for raw, message in cases:
            with pytest.raises(ValidationError) as info:
                config_from_dict(raw)
            assert str(info.value) == message

    def test_quoted_values_are_bounded(self):
        """Aliases let a short text name a huge value; the quote shows two
        levels of six items. An int with more digits than str() converts
        is named by its size (before, its repr raised ValueError)."""
        level = [1] * 10
        for _ in range(6):
            level = [level] * 10
        cases = [
            ({"source": {"distance_mm": level}}, "source.distance_mm must be a number, got ["
             + ", ".join(["[[...], [...], [...], [...], [...], [...], ...]"] * 6) + ", ...]"),
            ({"source": {"kind": level}}, "source.kind must be 'point' or 'disk', got "),
            ({"junction": {"drawn_w_top_nm": 16**4000 - 1}},
             "junction.drawn_w_top_nm must be finite, got an integer of 16000 bits"),
            ({"mask": {"top_H_nm": "ab" * 300}},
             f"mask.top_H_nm must be a number, got '{'ab' * 123}a...{'ab' * 124}'"),
        ]
        for raw, message in cases:
            with pytest.raises(ValidationError) as info:
                config_from_dict(raw)
            assert str(info.value).startswith(message)
            assert len(str(info.value)) < 600

    def test_first_error_in_section_then_key_order(self):
        raw = {"source": {"kind": "laser"}, "wafer": {"grid_pitch_mm": "fine"}}
        with pytest.raises(ValidationError, match=r"^wafer\.grid_pitch_mm"):
            config_from_dict(raw)
        raw = {"top_step": {"bogus": 1}, "source": {"radius_mm": "wide"}}
        with pytest.raises(ValidationError, match=r"^source\.radius_mm"):
            config_from_dict(raw)


# Scalars whose resolution or scanning is easy to get wrong: YAML 1.1
# floats, ints, bools and nulls, timestamps (2001-02-30 fails to
# construct), quoted and escaped strings, tags.
SCALARS = [
    "0", "-0.0", "650", "1.5", "+12.5", "1.0e+308", "-1.0e+308", "1.5e+302", "5.0e-324",
    "1e5", ".inf", "-.inf", ".nan", ".NaN", "1_000", "1_000.5", "0x10", "0o17", "017",
    "0b101", "190:20:30", "yes", "No", "on", "Off", "true", "~", "null", "", "x", "point",
    "disk", "'+'", '"-"', "'quoted ''twice'''", r'"esc \x41 \u00e9 \ud800"', "2001-12-14",
    "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10", "2001-02-30",
    "!!float 1", "!!str 1", "!!int x", "!!bool maybe", "!!binary aGk=",
]
KEYS = [key for keys in config_module.DEFAULTS.values() for key in keys] + ["sites", "bogus"]
SECTIONS = [*config_module.DEFAULTS, "epsilon_center_mm"]
# Text spliced in at random: tabs, NUL, C1 controls, NEL, line and
# byte-order marks, non-ASCII, and YAML indicators, among them those
# that keep a text from the row reader ('?', '!', '|#', '\\').
NOISE = ["\t", "\x00", "\x85", "\x9f", "\u2028", "\ufeff", "\xb5", " ", "#", ":", "-",
         "\n", "'", "?", "!", "|#", ">", "%", "@", "\\"]
# wafer.sites rows one to a line, mostly in the form `config._ROW` reads,
# and near misses: numbers int() or float() would read otherwise than
# YAML, ids an implicit resolver claims or that hold the token's mark.
ROW_COORDS = ["0", "12", "-3.25", "0.5", "-44.9999", "7.0"]
ODD_COORDS = ["-0", "-0.0", "5.", "12345678901234567890", "1e3", "1_0", "+1", "017", ".5"]
ROW_IDS = ["c0", "s00017", "_", "chip_3"]
ODD_IDS = ["yes", "No", "on", "null", "~", "y", "Off", "shadowevap_rows0", "shadowevap_rows"]


@st.composite
def yaml_configs(draw, mangle=True):
    """A config text mixing flow and block style, anchors, aliases,
    merges and duplicate keys, then optionally mangled by CRLF line
    ends, a BOM and spliced-in noise characters. Most wafer sections
    list their sites as runs of rows. Without `mangle`, the text has a
    wafer section and neither CRLF nor a BOM."""
    anchors, map_anchors = [], []

    def pick(common, odd):
        return draw(st.sampled_from(odd if draw(st.integers(0, 3)) == 0 else common))

    def rows(indent):
        """Rows at `indent`, some split by a comment or a block-style
        row, some with keys in another order or missing."""
        lines = []
        for _ in range(draw(st.integers(1, 4))):
            items = [f"{key}: {pick(ROW_COORDS, ODD_COORDS)}" for key in ("x_mm", "y_mm")]
            items += [f"{key}: {pick(ROW_IDS, ODD_IDS)}"
                      for key in ("chip_id", "site_id") if draw(st.booleans())]
            form = draw(st.integers(0, 9))
            if form == 0:
                items = draw(st.permutations(items))
            elif form == 1:
                del items[1]
            elif form == 2:
                lines.append(f"{indent}# a comment")
            if form == 3:
                lines.append(f"{indent}- " + f"\n{indent}  ".join(items))
            else:
                lines.append(f"{indent}- {{{', '.join(items)}}}")
        return "\n".join(lines)

    def value():
        if anchors and draw(st.booleans()):
            return "*" + draw(st.sampled_from(anchors))
        if draw(st.integers(0, 9)) == 0:
            # Rows in a quoted scalar or on a plain scalar's continuation line.
            quote = draw(st.sampled_from(["'", '"', ""]))
            return f"{quote}a\n{rows('    ')}\n    b{quote}"
        text = draw(st.sampled_from(SCALARS))
        if draw(st.integers(0, 4)) == 0:
            anchors.append(f"a{len(anchors)}")
            text = f"&{anchors[-1]} {text}"
        return text

    def mapping(keys, indent=None):
        """A mapping's text after its key or dash: a flow mapping on
        the same line or, given an indent, a block mapping below."""
        items = [f"{key}: {value()}" for key in draw(st.lists(st.sampled_from(keys), max_size=3))]
        if map_anchors and draw(st.booleans()):
            merge = f"<<: *{draw(st.sampled_from(map_anchors))}"
            items.insert(draw(st.integers(0, len(items))), merge)
        head = ""
        if draw(st.booleans()):
            map_anchors.append(f"m{len(map_anchors)}")
            head = f" &{map_anchors[-1]}"
        if indent is not None and items and draw(st.booleans()):
            return head + "".join(f"\n{indent}{item}" for item in items)
        return f"{head} {{{', '.join(items)}}}"

    lines = []
    sections = draw(st.lists(st.sampled_from(SECTIONS), min_size=1, max_size=5))
    for section in sections if mangle else ["wafer", *sections]:
        if section == "epsilon_center_mm":
            lines.append(f"{section}: {value()}")
        elif section == "wafer" and draw(st.integers(0, 3)):
            site_keys = ["x_mm", "y_mm", "chip_id", "site_id"]
            count = draw(st.integers(1, 3))
            form = draw(st.integers(0, 5))
            if form == 0:
                sites = " [" + ",".join(mapping(site_keys) for _ in range(count)) + "]"
            elif form == 1:
                sites = "".join("\n    -" + mapping(site_keys, "      ") for _ in range(count))
            else:
                sites = "\n" + rows(draw(st.sampled_from(["  ", "    "])))
            # An anchored list may be aliased later, and the anchored
            # mapping that holds it merged into another.
            head = sites_head = ""
            if draw(st.integers(0, 3)) == 0:
                map_anchors.append(f"m{len(map_anchors)}")
                head = f" &{map_anchors[-1]}"
            if draw(st.integers(0, 3)) == 0:
                anchors.append(f"a{len(anchors)}")
                sites_head = f" &{anchors[-1]}"
            lines.append(f"wafer:{head}\n  sites:{sites_head}{sites}")
        else:
            lines.append(f"{section}:" + mapping(KEYS, "  "))
    text = "\n".join(lines) + "\n"
    if draw(st.integers(0, 19)) == 0:
        text = rows("") + "\n"  # a top-level sequence
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(NOISE)) + text[at:]
    if mangle and draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    if mangle and draw(st.booleans()):
        text = "\ufeff" + text
    return text


#: Values each key accepts, in YAML's forms: ints, floats, YAML 1.1
#: underscores and signed exponents, names in any case, quoted or not.
VALID_VALUES = {
    "diameter_mm": ["100", "150.0", "1_00"],
    "working_span_mm": ["70", "35.5", "7.0e+1"],
    "grid_pitch_mm": ["5", "2.5", "10"],
    "distance_mm": ["650", "700.5", "1_000"],
    "radius_mm": ["0", "1", "2.5"],
    "kind": ["disk", "point", "Disk", "POINT", "'disk'"],
    "top_H_nm": ["100", "80.5", "1.2e+2"],
    "bottom_h_nm": ["500", "450.0", "5_00"],
    "drawn_w_bottom_nm": ["200", "180.5", "250"],
    "drawn_w_top_nm": ["200", "220.0", "1_50"],
    "tilt_deg": ["0", "40", "12.5", "89.9"],
    "shadow_axis": ["x", "y", "X", '"Y"'],
    "tilt_sign": ["+", "'+'", "'-'", '"-"'],
    "film_T0_nm": ["25", "45.0", "3_0"],
    "epsilon_center_mm": ["0", "0.5", "2.0"],
}
#: Coordinates of a valid row that are not in the row form.
VALID_ODD_COORDS = [c for c in ODD_COORDS if c != "1e3"]  # YAML 1.1 reads 1e3 as a string


@st.composite
def valid_configs(draw):
    """A valid config text with rows: a valid value in every key given,
    sections in any order, flow or block style, and a wafer section
    whose `sites` list holds rows, one at least in the form `config._ROW`
    reads, among rows in other forms (odd numbers or ids, keys in
    another order, block style) and comments."""
    sections = draw(st.lists(st.sampled_from(SECTIONS), unique=True, max_size=len(SECTIONS)))
    if "wafer" not in sections:
        sections.insert(draw(st.integers(0, len(sections))), "wafer")

    def items(keys):
        return [f"{key}: {draw(st.sampled_from(VALID_VALUES[key]))}"
                for key in draw(st.lists(st.sampled_from(keys), unique=True))]

    def rows(indent):
        count = draw(st.integers(1, 5))
        plain = draw(st.integers(0, count - 1))  # a row in the row form
        lines = []
        for i in range(count):
            odd = i != plain and draw(st.integers(0, 3)) == 0
            coords = VALID_ODD_COORDS if odd else ROW_COORDS
            row = [f"{key}: {draw(st.sampled_from(coords))}" for key in ("x_mm", "y_mm")]
            row += [f"{key}: {draw(st.sampled_from(ODD_IDS if odd else ROW_IDS))}"
                    for key in ("chip_id", "site_id") if draw(st.booleans())]
            form = 0 if i == plain else draw(st.integers(0, 5))
            if form == 1:
                lines.append(f"{indent}# a comment")
            if form == 2:
                row = draw(st.permutations(row))
            if form == 3:
                lines.append(f"{indent}- " + f"\n{indent}  ".join(row))
            else:
                lines.append(f"{indent}- {{{', '.join(row)}}}")
        return "\n".join(lines)

    lines = []
    for section in sections:
        if section == "epsilon_center_mm":
            lines += items([section])
            continue
        pairs = items(list(config_module.DEFAULTS[section]))
        if section == "wafer":
            sites = f"sites:\n{rows(draw(st.sampled_from(['  ', '    '])))}"
            pairs.insert(draw(st.integers(0, len(pairs))), sites)
        if section != "wafer" and draw(st.booleans()):
            lines.append(f"{section}: {{{', '.join(pairs)}}}")
        else:
            lines.append(f"{section}:" + "".join(f"\n  {pair}" for pair in pairs))
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", "# a comment"])))
    return "\n".join(lines) + "\n"


def canonical(data):
    """Data in a form that compares floats by repr, so nan equals nan
    and -0.0 differs from 0.0, and keeps mapping order."""
    if isinstance(data, float):
        return ("float", repr(data))
    if isinstance(data, dict):
        return ("dict", [(canonical(k), canonical(v)) for k, v in data.items()])
    if isinstance(data, list):
        return ("list", [canonical(v) for v in data])
    return (type(data).__name__, repr(data))


#: What the YAML constructor raises, besides YAMLError, for a scalar it
#: cannot convert.
CONSTRUCTOR_ERRORS = (ValueError, KeyError, AttributeError)


def outcome(parse, text):
    """The canonical data `parse(text)` gives, or its exception."""
    try:
        return canonical(parse(text))
    except (yaml.YAMLError, *CONSTRUCTOR_ERRORS) as exc:
        return (type(exc).__name__, str(exc))


def check_against_pure_loader(text):
    """`_safe_load` gives `yaml.safe_load`'s data or error, and
    `load_config` gives its error in a ParseError, or else what
    `config_from_dict` makes of its data."""
    assert outcome(config_module._safe_load, text) == outcome(yaml.safe_load, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "process.yaml"
        path.write_bytes(text.encode("utf-8"))
        # load_config reads in text mode, which turns CRLF and CR into LF.
        read = path.read_text(encoding="utf-8")
        try:
            data = yaml.safe_load(read)
        except (yaml.YAMLError, *CONSTRUCTOR_ERRORS) as exc:
            with pytest.raises(ParseError) as info:
                load_config(path)
            assert str(info.value).startswith(f"cannot parse {path}")
            assert str(info.value).endswith(f": {exc}")
            return
        try:
            expected = config_from_dict(data if data is not None else {})
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                load_config(path)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        else:
            assert load_config(path) == expected


#: Near misses of the row form.
ROW_CASES = {
    "resolved ids, odd numbers": "wafer:\n  sites:\n"
    + "".join(f"  - {{x_mm: 1, y_mm: 2, chip_id: {i}}}\n" for i in ["yes", "No", "on", "null"])
    + "  - {x_mm: 1, y_mm: 2, chip_id: ~}\n"
    + "".join(f"  - {{x_mm: {n}, y_mm: 2}}\n" for n in ["-0", "-0.0", "5.", "1" * 20, "1e3"]),
    "keys reordered or missing":
    "wafer:\n  sites:\n    - {y_mm: 1, x_mm: 2}\n    - {x_mm: 1, y_mm: 2}\n    - {x_mm: 3}\n",
    "anchored list aliased":
    "wafer:\n  sites: &s\n  - {x_mm: 1, y_mm: 2}\n  - {x_mm: 3, y_mm: 4}\nsource: {kind: *s}\n",
    "holder merged":
    "x: &b\n  sites:\n    - {x_mm: 1, y_mm: 2}\nwafer:\n  <<: *b\n  grid_pitch_mm: 2\n",
    "wafer merged":
    "wafer: &w\n  sites:\n  - {x_mm: 1.5, y_mm: 2.5, site_id: s0}\nsource: {<<: *w}\n",
    "runs split": "wafer:\n  sites:\n  - {x_mm: 1, y_mm: 2}\n  # split\n  - {x_mm: 3, y_mm: 4}\n"
    "  - x_mm: 5\n    y_mm: 6\n  - {x_mm: 7, y_mm: 8}\n",
    "indent falls": "wafer:\n  sites:\n    - {x_mm: 1, y_mm: 2}\n  - {x_mm: 3, y_mm: 4}\n",
    "indent rises": "wafer:\n  sites:\n  - {x_mm: 1, y_mm: 2}\n    - {x_mm: 3, y_mm: 4}\n",
    "blank line, no final newline":
    "wafer:\n  sites:\n  - {x_mm: 1, y_mm: 2}\n\n  - {x_mm: 3, y_mm: 4}",
    "single-quoted": "source:\n  kind: 'a\n    - {x_mm: 1, y_mm: 2}\n    b'\n",
    "double-quoted": 'source:\n  kind: "a\n    - {x_mm: 1, y_mm: 2}\n    - {x_mm: 3, y_mm: 4}"\n',
    "plain continuation": "source:\n  kind: disk\n    - {x_mm: 1, y_mm: 2}\n",
    "item continuation": "wafer:\n  sites:\n  - a\n    - {x_mm: 1, y_mm: 2}\n",
    "continued row": "wafer:\n  sites:\n  - {x_mm: 1, y_mm: 2}\n    more\n",
    "in a flow list": "wafer:\n  sites: [\n  - {x_mm: 1, y_mm: 2}\n  ]\n",
    "top-level sequence": "- {x_mm: 1, y_mm: 2}\n- {x_mm: 3, y_mm: 4}\n",
    "nested sequence": "- - {x_mm: 1, y_mm: 2}\n  - {x_mm: 3, y_mm: 4}\n- {x_mm: 5, y_mm: 6}\n",
    "mark in an id": "wafer:\n  sites:\n  - {x_mm: 1, y_mm: 2, chip_id: shadowevap_rows0}\n"
    "  # shadowevap_rows\nsource: {kind: shadowevap_rows0}\n",
    "mark as an item": "wafer:\n  sites:\n  - {x_mm: 1, y_mm: 2}\n  - shadowevap_rows0\n",
}


def valid_row_config(text):
    """Whether `text` is a config whose rows the reader must keep from
    YAML: `_ROW_TEXT` admits it, it has `_ROW` lines whose ids no
    implicit resolver claims, `config_from_dict` accepts its data, and
    YAML keeps each of those lines as a row. That is, each starts a flow
    mapping, not a line of a scalar, and no mapping repeats a key, which
    would drop the value that held it."""
    if not config_module._ROW_TEXT.fullmatch(text):
        return False
    resolvers = yaml.resolver.Resolver.yaml_implicit_resolvers
    lines = {
        text.count("\n", 0, m.start())
        for m in re.finditer(config_module._ROW, text, re.M)
        if not any(r.match(i) for i in m.groups()[3:] if i for _, r in resolvers.get(i[0], ()))
    }
    if not lines:
        return False
    try:
        data = yaml.safe_load(text)
        config_from_dict(data if data is not None else {})
    except (yaml.YAMLError, *CONSTRUCTOR_ERRORS, ValidationError):
        return False
    starts, seen, stack = set(), set(), [yaml.compose(text)]
    while stack:  # each node once, since aliases share nodes
        node = stack.pop()
        if not isinstance(node, yaml.CollectionNode) or id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, yaml.MappingNode):
            keys = [k.value for k, _ in node.value if isinstance(k, yaml.ScalarNode)]
            if len(set(keys)) < len(keys):
                return False
            if node.flow_style:
                starts.add(node.start_mark.line)
            stack += [n for pair in node.value for n in pair]
        else:
            stack += node.value
    return lines <= starts


def assert_rows_bypass_yaml(text):
    """`_safe_load(text)` hands `yaml.safe_load` one text, not the whole."""
    seen, load = [], yaml.safe_load

    def recording_load(text):
        seen.append(text)
        return load(text)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yaml, "safe_load", recording_load)
        config_module._safe_load(text)
    assert len(seen) == 1 and seen[0] != text


class Unusable:
    """Stands for `yaml.CSafeLoader`: records each use in `used` and
    raises, so a use is seen even where the error is caught."""

    def __init__(self, used):
        self.used = used

    def __call__(self, *args, **kwargs):
        self.used.append("called")
        raise AssertionError("yaml.CSafeLoader was used")

    def __getattr__(self, name):
        self.used.append(name)
        raise AssertionError(f"yaml.CSafeLoader.{name} was used")


#: The two builds of PyYAML: with libyaml, whose `yaml.CSafeLoader` is
#: here made Unusable, and pure Python, without that name.
BUILDS = ["libyaml", "pure"]


@contextmanager
def pyyaml_build(build):
    """Run the body as on one of BUILDS; no use of libyaml is allowed."""
    used = []
    with pytest.MonkeyPatch.context() as patch:
        if build == "libyaml":
            patch.setattr(yaml, "CSafeLoader", Unusable(used))
        else:
            patch.delattr(yaml, "CSafeLoader")
        yield
    assert used == []


class TestLoaders:
    """The row reader gives what `yaml.safe_load` gives; PyYAML's
    pure-Python loader is the only YAML parser, and its data and errors
    are the reference."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(yaml_configs(), st.sampled_from(BUILDS))
    def test_equals_the_pure_loader(self, text, build):
        with pyyaml_build(build):
            check_against_pure_loader(text)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(yaml_configs(mangle=False))
    def test_site_rows_equal_the_pure_loader(self, text):
        """Texts that keep the row reader in play: no CRLF, no BOM, and
        a wafer section."""
        check_against_pure_loader(text)

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("text", ROW_CASES.values(), ids=ROW_CASES)
    def test_site_row_cases(self, text, build):
        with pyyaml_build(build):
            check_against_pure_loader(text)

    def test_valid_row_cases_bypass_yaml(self):
        """Of the ROW_CASES, each valid config's rows stay out of the
        one text YAML parses."""
        valid = [text for text in ROW_CASES.values() if valid_row_config(text)]
        assert valid
        for text in valid:
            assert_rows_bypass_yaml(text)

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(valid_configs())
    def test_valid_rows_bypass_yaml(self, text):
        """Rows are spliced only into `wafer.sites`, and that loses no
        valid config: YAML parses only the text without them, and the
        data is YAML's."""
        assert valid_row_config(text)
        assert_rows_bypass_yaml(text)
        assert outcome(config_module._safe_load, text) == outcome(yaml.safe_load, text)

    def test_no_path_reaches_libyaml(self, tmp_path):
        """A grid config and configs of flow and block rows load with
        `yaml.CSafeLoader` Unusable."""
        texts = {
            "{}\n": None,
            "wafer:\n  sites:\n" + "  - {x_mm: 1.5, y_mm: -2.0, chip_id: c0}\n" * 3: 3,
            "wafer:\n  sites:\n" + "    - x_mm: 1.5\n      y_mm: -2.0\n" * 4: 4,
        }
        with pyyaml_build("libyaml"):
            for text, count in texts.items():
                sites = load_config(write(tmp_path, text))[0].layout.sites
                assert (sites and len(sites)) == count

    def test_site_rows_bypass_yaml(self, tmp_path, monkeypatch):
        """5,000 rows in the benchmark's form: YAML parses under 1 KB of
        text. The first 500 give what PyYAML makes of them."""
        lines = ["wafer:", "  sites:"]
        for i in range(5000):
            x, y = round(45 * math.cos(i) * (i / 5000), 4), round(45 * math.sin(i) * (i / 5000), 4)
            lines.append(
                f"  - {{x_mm: {x!r}, y_mm: {y!r}, chip_id: c{i % 97}, site_id: s{i:05d}}}"
            )
        text = "\n".join(lines) + "\n"
        seen, load = [], yaml.load

        def recording_load(text, *args, **kwargs):
            seen.append(len(text))
            return load(text, *args, **kwargs)

        monkeypatch.setattr(yaml, "load", recording_load)
        config, _ = load_config(write(tmp_path, text))
        assert len(config.layout.sites) == 5000
        assert seen and sum(seen) < 1000
        head = "\n".join(lines[:500]) + "\n"
        assert canonical(config_module._safe_load(head)) == canonical(
            load(head, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("text, where", [
        ("source:\n  distance_mm:\t650\n", "line 2, column 15"),
        ("source: {distance_mm: 650,\tradius_mm: 1}\n", "line 1, column 27"),
        ("source:\n  kind: disk\t# the crucible\n", "line 2, column 13"),
    ])
    def test_tabs_keep_the_pure_loader_error(self, tmp_path, text, where):
        """PyYAML's rejection of these tab separators, with its
        position, is the one reported."""
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_config(path)
        with pytest.raises(yaml.YAMLError) as pure_info:
            yaml.safe_load(text)
        assert str(info.value) == f"cannot parse {path} at {where}: {pure_info.value}"

    @pytest.mark.parametrize("scalar, message", [
        ("2001-02-30", "day is out of range for month"),
        ("2001-12-14 25:00:00", "hour must be in 0..23"),
        ("!!bool maybe", "'maybe'"),
        ("!!float x", "could not convert string to float: 'x'"),
    ])
    def test_unconvertible_scalar_is_a_parse_error(self, tmp_path, scalar, message):
        path = write(tmp_path, f"source:\n  distance_mm: {scalar}\n")
        with pytest.raises(ParseError) as info:
            load_config(path)
        assert str(info.value) == f"cannot parse {path}: cannot convert a scalar: {message}"


def alias_levels(levels, key="distance_mm"):
    """A config whose `source.key` is a list of `levels` anchored lists,
    each ten aliases of the one before: a few hundred bytes of text for
    a value of 10**levels items."""
    anchors = ["&a0 [1, 1, 1, 1, 1, 1, 1, 1, 1, 1]"] + [
        f"&a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]" for i in range(1, levels)
    ]
    return f"source: {{{key}: [" + ", ".join(anchors) + "]}\n"


def nested_chip_id(depth):
    """A site whose chip_id nests `depth` flow sequences, one per line."""
    return ("wafer:\n  sites:\n  - x_mm: 1.0\n    y_mm: 2.0\n    chip_id:"
            + "\n      [" * depth + "\n      ]" * depth + "\n")


class TestBoundedInput:
    @pytest.mark.parametrize("key", ["distance_mm", "kind"])
    def test_alias_bomb_error_is_short(self, tmp_path, key):
        """Seven levels name 10**7 items in 333 bytes; quoting them in
        full printed 35.8 MB (six levels) before."""
        path = write(tmp_path, alias_levels(7, key))
        with pytest.raises(ValidationError) as info:
            load_config(path)
        assert str(info.value).startswith(f"source.{key} must be ")
        assert len(str(info.value)) < 1000

    @pytest.mark.parametrize("build", BUILDS)
    def test_nesting_outcome_is_the_loaders_own(self, tmp_path, build):
        """500 levels: PyYAML runs out of recursion, which gives the
        one nesting error."""
        path = write(tmp_path, nested_chip_id(500))
        with pyyaml_build(build), pytest.raises(ParseError, match=r": nested too deeply$"):
            load_config(path)

    @pytest.mark.parametrize("build", BUILDS)
    def test_nesting_up_to_the_bound_is_accepted(self, tmp_path, build):
        """The document, wafer, sites and site levels plus the chip_id
        lists make the depth."""
        depth = config_module.MAX_NESTING - 4
        with pyyaml_build(build):
            config, _ = load_config(write(tmp_path, nested_chip_id(depth)))
            with pytest.raises(ParseError, match=r": nested too deeply$"):
                load_config(write(tmp_path, nested_chip_id(depth + 1)))
        chip_id = config.layout.sites[0].chip_id
        for _ in range(depth - 1):
            (chip_id,) = chip_id
        assert chip_id == []

    def test_depth_walk(self):
        nests_deeper = config_module._nests_deeper
        shared = [[1]]
        assert not nests_deeper(1.0, 0)
        assert not nests_deeper({"a": [shared, shared, (shared,)]}, 5)
        assert nests_deeper({"a": [shared, shared, (shared,)]}, 4)
        itself = []
        itself.append(itself)
        assert nests_deeper(itself, config_module.MAX_NESTING)

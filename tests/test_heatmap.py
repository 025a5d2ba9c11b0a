"""SVG heatmap rendering."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowevap import heatmap
from shadowevap.csvio import ROWS_PER_CHUNK
from shadowevap.errors import EmptyInput
from shadowevap.heatmap import render_heatmap


def cell_fills(svg_text):
    """Fill colors of the data cells (rects carrying a title tooltip)."""
    return re.findall(r'fill="(#[0-9a-f]{6})"><title>', svg_text)


GRID = [(x, y, float(x + y)) for x in (-5.0, 0.0, 5.0) for y in (-5.0, 0.0, 5.0)]


class TestRenderHeatmap:
    def test_constant_field_single_color(self, tmp_path):
        points = [(x, y, 7.5) for x, y, _ in GRID]
        path = tmp_path / "map.svg"
        render_heatmap(points, "area_um2", path)
        text = path.read_text()
        fills = cell_fills(text)
        assert len(fills) == 9
        assert len(set(fills)) == 1
        # legend min and max coincide
        assert text.count(">7.5<") == 2

    def test_gradient_field_spans_colors(self, tmp_path):
        path = tmp_path / "map.svg"
        render_heatmap(GRID, "bias_bottom_nm", path)
        fills = cell_fills(path.read_text())
        assert len(set(fills)) > 3

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_heatmap(GRID, "w_top_nm", a)
        render_heatmap(GRID, "w_top_nm", b)
        assert a.read_bytes() == b.read_bytes()

    def test_contains_wafer_outline_and_label(self, tmp_path):
        path = tmp_path / "map.svg"
        render_heatmap(GRID, "t_prime_nm", path)
        text = path.read_text()
        assert "<circle" in text
        assert "t_prime_nm" in text

    def test_empty_points(self, tmp_path):
        with pytest.raises(EmptyInput):
            render_heatmap([], "area_um2", tmp_path / "map.svg")


# The per-cell renderer the vectorised one replaced, kept as the
# reference: same layout constants, one Python pass per cell.
STOPS = [
    (0.267, 0.005, 0.329),
    (0.229, 0.322, 0.546),
    (0.128, 0.567, 0.551),
    (0.369, 0.789, 0.383),
    (0.993, 0.906, 0.144),
]


def reference_color(t):
    t = min(1.0, max(0.0, t))
    scaled = t * (len(STOPS) - 1)
    i = min(int(scaled), len(STOPS) - 2)
    frac = scaled - i
    rgb = [STOPS[i][k] + frac * (STOPS[i + 1][k] - STOPS[i][k]) for k in range(3)]
    return "#" + "".join(f"{round(255 * v):02x}" for v in rgb)


def reference_cells(points):
    values = [p[2] for p in points]
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    coords = sorted({p[0] for p in points} | {p[1] for p in points})
    gaps = [b - a for a, b in zip(coords, coords[1:]) if b - a > 1e-9]
    cell = min(gaps) if gaps else 5.0
    # 600 px span the 100 mm outline, or the farthest cell edge beyond it.
    extent = max([50.0] + [abs(c) + cell / 2.0 for c in coords])
    scale, cx, cy = 600.0 / (2.0 * extent), 20.0 + 300.0, 20.0 + 300.0
    half = cell * scale / 2.0
    out = []
    for x_mm, y_mm, value in sorted(points, key=lambda p: (p[1], p[0])):
        t = 0.5 if span == 0.0 else (value - vmin) / span
        out.append(
            f'<rect x="{cx + x_mm * scale - half:.3f}" y="{cy - y_mm * scale - half:.3f}" '
            f'width="{cell * scale:.3f}" height="{cell * scale:.3f}" fill="{reference_color(t)}">'
            f"<title>({x_mm:g}, {y_mm:g}) mm: {value:.9g}</title></rect>"
        )
    return out


class TestVectorisedRendering:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    def test_colors_equal_reference(self, ts):
        ts += [0.0, -0.0, 1.0, 0.125, 0.375, 0.5, 0.625, 0.875, math.nextafter(0.25, 0.0)]
        got = heatmap._rgb(np.array(ts))
        assert ["#%06x" % c for c in got] == [reference_color(t) for t in ts]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-35.0, -2.5, -0.0, 0.0, 1e-10, 2.5, 5.0, 35.0]),
                st.sampled_from([-35.0, -5.0, -0.0, 0.0, 5.0, 7.5, 35.0]),
                st.floats(-1e6, 1e6) | st.just(7.5),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_cells_equal_reference(self, tmp_path_factory, points):
        path = tmp_path_factory.mktemp("svg") / "map.svg"
        render_heatmap(points, "area_um2", path)
        cells = [line for line in path.read_text().splitlines() if "<title>" in line]
        assert cells == reference_cells(points)


def reference_svg(points, field_name):
    """The whole map as one joined text, as the renderer wrote it before
    it wrote in chunks."""
    values = [p[2] for p in points]
    lx, ly, lh, lw, n_seg = 650.0, 40.0, 560.0, 18.0, 32
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="770.000" height="640.000" '
        'viewBox="0 0 770.000 640.000">',
        '<rect x="0" y="0" width="770.000" height="640.000" fill="#ffffff"/>',
        '<circle cx="320.000" cy="320.000" r="300.000" fill="none" stroke="#333333" '
        'stroke-width="1.5"/>',
        *reference_cells(points),
        *(f'<rect x="{lx:.3f}" y="{ly + i * lh / n_seg:.3f}" width="{lw:.3f}" '
          f'height="{lh / n_seg + 0.5:.3f}" fill="{reference_color(1.0 - (i + 0.5) / n_seg)}"/>'
          for i in range(n_seg)),
        f'<text x="{lx + lw + 6:.3f}" y="{ly + 5:.3f}" font-size="12" '
        f'font-family="monospace">{max(values):.6g}</text>',
        f'<text x="{lx + lw + 6:.3f}" y="{ly + lh:.3f}" font-size="12" '
        f'font-family="monospace">{min(values):.6g}</text>',
        f'<text x="{lx:.3f}" y="{ly - 8:.3f}" font-size="12" '
        f'font-family="monospace">{field_name}</text>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


def grid_points(n, seed):
    """n cells of a 0.25 mm grid, 281 to a row, with -0.0 coordinates."""
    i = np.arange(n)
    points = np.column_stack(
        (i % 281 * 0.25 - 35.0, i // 281 * 0.25 - 35.0, np.random.default_rng(seed).normal(size=n))
    )
    points[0, :2] = points[-1, 0] = -0.0
    return points


class TestChunkedRendering:
    """Cells are formatted and written ROWS_PER_CHUNK at a time."""

    @pytest.mark.parametrize(
        "n", [ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1, 3 * ROWS_PER_CHUNK + 5]
    )
    def test_equals_one_joined_text(self, tmp_path, n):
        points = grid_points(n, n)
        render_heatmap(points, "area_um2", tmp_path / "map.svg")
        expected = reference_svg([tuple(p) for p in points.tolist()], "area_um2")
        assert (tmp_path / "map.svg").read_text() == expected

    def test_memory_is_under_the_text(self, tmp_path):
        """At 78,961 cells the renderer holds less than the file's size
        (before, it held 3.9 times as much)."""
        points = grid_points(78_961, 1)
        path = tmp_path / "map.svg"
        tracemalloc.start()
        try:
            render_heatmap(points, "area_um2", path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

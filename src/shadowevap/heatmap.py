"""Deterministic SVG wafer heatmaps.

Square cells on the wafer outline with a linear color scale; pure text
output so identical input produces an identical file.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .csvio import RowChunks, write_text
from .errors import EmptyInput

#: Diameter (mm) of the drawn wafer outline.
WAFER_DIAMETER_MM = 100.0

# Five-stop blue -> teal -> green -> yellow gradient.
_STOPS = np.array(
    [
        (0.267, 0.005, 0.329),
        (0.229, 0.322, 0.546),
        (0.128, 0.567, 0.551),
        (0.369, 0.789, 0.383),
        (0.993, 0.906, 0.144),
    ]
)


def _rgb(t: np.ndarray) -> list[int]:
    """24-bit colors 0xRRGGBB of scale positions t (clamped to [0, 1],
    NaN to 0), interpolated linearly between the stops."""
    t = np.where(t > 0.0, t, 0.0)
    t = np.where(t < 1.0, t, 1.0)
    scaled = t * (len(_STOPS) - 1)
    i = np.minimum(scaled.astype(np.intp), len(_STOPS) - 2)
    frac = (scaled - i)[:, None]
    rgb = _STOPS[i] + frac * (_STOPS[i + 1] - _STOPS[i])
    # rint, like round(), takes halves to even. Integer arithmetic, no
    # BLAS call: a forked writer runs this.
    r, g, b = np.rint(255 * rgb).astype(np.int64).T
    return (r << 16 | g << 8 | b).tolist()


def _cell_size_mm(x_mm: np.ndarray, y_mm: np.ndarray) -> float:
    """Smallest positive spacing between distinct coordinates, the
    natural cell edge for a regular grid."""
    gaps = np.diff(np.unique(np.concatenate((x_mm, y_mm))))
    gaps = gaps[gaps > 1e-9]
    return gaps.min().item() if gaps.size else 5.0


def render_heatmap(
    points: Union[Sequence[tuple[float, float, float]], np.ndarray],
    field_name: str,
    path: Union[str, object],
) -> None:
    """Render (x_mm, y_mm, value) triples, or an (n, 3) array of them,
    as a wafer map SVG.

    Colors are scaled linearly between the field's min and max (a
    constant field renders mid-scale with legend min = max). +y is up.
    The 600 px drawing spans the WAFER_DIAMETER_MM outline, or out to
    the farthest cell edge when one lies beyond it.
    """
    if len(points) == 0:
        raise EmptyInput("no points to render")

    x_mm, y_mm, values = np.asarray(points, dtype=float).reshape(-1, 3).T
    vmin, vmax = min(values.tolist()), max(values.tolist())
    span = vmax - vmin
    cell = _cell_size_mm(x_mm, y_mm)
    radius = WAFER_DIAMETER_MM / 2.0
    extent = max(radius, np.abs(np.concatenate((x_mm, y_mm))).max().item() + cell / 2.0)

    # Layout: wafer drawing area plus a legend strip on the right.
    pad = 20.0
    wafer_px = 600.0
    scale = (wafer_px / 2.0) / extent  # px per mm; 2 * extent may overflow
    legend_w = 130.0
    width = pad * 2 + wafer_px + legend_w
    height = pad * 2 + wafer_px
    cx = pad + wafer_px / 2.0
    cy = pad + wafer_px / 2.0

    def px(v: float) -> str:
        return f"{v:.3f}"

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{px(width)}" '
        f'height="{px(height)}" viewBox="0 0 {px(width)} {px(height)}">',
        f'<rect x="0" y="0" width="{px(width)}" height="{px(height)}" fill="#ffffff"/>',
        f'<circle cx="{px(cx)}" cy="{px(cy)}" r="{px(radius * scale)}" '
        f'fill="none" stroke="#333333" stroke-width="1.5"/>',
    ]
    half = cell * scale / 2.0
    order = np.lexsort((x_mm, y_mm))
    x_mm, y_mm, values = x_mm[order], y_mm[order], values[order]
    # Float arithmetic as Python does it: inf and nan, no warnings.
    with np.errstate(all="ignore"):
        t = np.full(values.size, 0.5) if span == 0.0 else (values - vmin) / span
        x0 = cx + x_mm * scale - half
        y0 = cy - y_mm * scale - half
    cell_px = px(cell * scale)
    rect = (
        f'<rect x="%.3f" y="%.3f" width="{cell_px}" height="{cell_px}" '
        'fill="#%06x"><title>(%g, %g) mm: %.9g</title></rect>\n'
    )

    def cells(rows: slice) -> str:
        left, top, x, y, v = (c[rows].tolist() for c in (x0, y0, x_mm, y_mm, values))
        return "".join(map(rect.__mod__, zip(left, top, _rgb(t[rows]), x, y, v)))

    # Legend: vertical gradient bar with min/max labels.
    lx = pad + wafer_px + 30.0
    ly, lh, lw = pad + 20.0, wafer_px - 40.0, 18.0
    n_seg = 32
    legend_t = np.array([1.0 - (i + 0.5) / n_seg for i in range(n_seg)])
    legend = []
    for i, rgb in enumerate(_rgb(legend_t)):
        seg_y = ly + i * lh / n_seg
        legend.append(
            f'<rect x="{px(lx)}" y="{px(seg_y)}" width="{px(lw)}" '
            f'height="{px(lh / n_seg + 0.5)}" fill="#{rgb:06x}"/>'
        )
    legend.extend(
        [
            f'<text x="{px(lx + lw + 6)}" y="{px(ly + 5)}" font-size="12" '
            f'font-family="monospace">{vmax:.6g}</text>',
            f'<text x="{px(lx + lw + 6)}" y="{px(ly + lh)}" font-size="12" '
            f'font-family="monospace">{vmin:.6g}</text>',
            f'<text x="{px(lx)}" y="{px(ly - 8)}" font-size="12" '
            f'font-family="monospace">{field_name}</text>',
            "</svg>",
        ]
    )
    # The cells are formatted and written a chunk at a time.
    write_text(
        path, ["\n".join(head) + "\n", RowChunks(values.size, cells), "\n".join(legend) + "\n"]
    )

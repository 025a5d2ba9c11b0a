"""Wafer-scale sweeps of the junction geometry model and their inverse.

`simulate_wafer` evaluates the single-site model over a grid to produce
dimension, area and bias maps; `bias_profile` reproduces the model
comparison (constant bias vs point source vs non-point source) along
one axis; `compensate_wafer` inverts the width formulas analytically
into per-site drawn-dimension corrections that flatten the printed-area
map.

Convention: each electrode's width varies along its own wafer axis
(bottom along x, top along y), and the incidence angle entering an
electrode's width formula is evaluated at the site's projection onto
that axis, i.e. in the plane containing the shadow displacement. This
keeps each electrode's printed width a one-dimensional function of its
own coordinate; the sidewall film links the top width to the bottom
step's angle at the same site.

Because of that convention a sweep needs trigonometry only once per
distinct x and once per distinct y: `_chain`, the one evaluation of the
chain, runs it elementwise over those coordinates, with the scalar
chain's libm functions (`geometry.incidence_angles`, `geometry.libm`),
and the rest per site over numpy columns, the same operations in the
same order, so every value equals the per-site scalar evaluation bit for
bit. Its checks and each site's branches are masks. Results are `Table`s
ordered by (row, column). Every sweep goes through `_forward`, which
raises the first flagged site's error from that site's own array values
(`_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import geometry
from .errors import AxisMismatch, EmptyInput, NonPhysicalWidth, ShadowEvapError, ValidationError
from .geometry import (
    EvaporationStep,
    JunctionSpec,
    MaskStack,
    SourceKind,
    SourceModel,
    WaferSite,
)
from .stats import StatsSummary, coefficient_of_variation
from .table import Table, column


class BiasModel(str, Enum):
    """Forward-model variants for the bias comparison.

    CONSTANT applies the wafer-center printed widths everywhere (no
    spatial dependence); POINT_SOURCE is the geometric model with the
    source radius forced to zero; NON_POINT uses the configured finite
    source radius.
    """

    CONSTANT = "I"
    POINT_SOURCE = "II"
    NON_POINT = "III"


class Axis(str, Enum):
    X = "x"
    Y = "y"


class Electrode(str, Enum):
    BOTTOM = "bottom"
    TOP = "top"


#: Most sites a grid may have. A sweep and its CSV and SVG stages peak
#: at about 530 bytes per site (traced at 78,961 sites), so a grid at the
#: cap needs about 0.5 GB.
MAX_GRID_SITES = 1_000_000


@dataclass(frozen=True)
class WaferLayout:
    """Grid of measurement/junction sites on the wafer.

    The default grid covers a centered working square of
    working_span_mm at grid_pitch_mm spacing, always symmetric about
    and including the center. An explicit site list, a non-empty Table
    of WaferSite with float coordinates, overrides the grid.
    """

    wafer_diameter_mm: float = 100.0
    working_span_mm: float = 70.0
    grid_pitch_mm: float = 5.0
    sites: Optional[Table] = None

    def __post_init__(self) -> None:
        if not self.wafer_diameter_mm > 0:
            raise ValidationError("wafer.diameter_mm must be > 0")
        if not self.working_span_mm > 0:
            raise ValidationError("wafer.working_span_mm must be > 0")
        if not self.grid_pitch_mm > 0:
            raise ValidationError("wafer.grid_pitch_mm must be > 0")
        sites = self.sites
        if sites is not None and not (
            isinstance(sites, Table) and sites.row is WaferSite and len(sites)
            and column(sites, "x_mm").dtype == column(sites, "y_mm").dtype == float
        ):
            raise ValidationError(
                "wafer.sites must be a non-empty Table of WaferSite rows with float coordinates"
            )

    def grid_offsets(self) -> list[float]:
        """Grid offsets (mm) along either axis, ascending: whole pitches
        within half the working span, symmetric about and including 0.
        A grid of more than MAX_GRID_SITES sites is refused before any
        offset is made."""
        steps = self.working_span_mm / 2.0 / self.grid_pitch_mm
        # Counted in floats: a subnormal pitch makes `steps` inf.
        side = 2.0 * math.floor(steps) + 1.0 if math.isfinite(steps) else math.inf
        if side * side > MAX_GRID_SITES:
            raise ValidationError(
                f"wafer.grid_pitch_mm = {self.grid_pitch_mm} gives a grid of "
                f"{side * side:.6g} sites, more than the cap of {MAX_GRID_SITES}"
            )
        half_steps = int(math.floor(steps))
        return [i * self.grid_pitch_mm for i in range(-half_steps, half_steps + 1)]

    def generate_sites(self) -> Table:
        """Sites as a Table of WaferSite rows ordered by (row, column),
        i.e. y then x ascending: a grid built from `grid_offsets`, or
        the explicit site list sorted stably."""
        if self.sites is not None:
            sites = self.sites.take(row_major_order(self.sites))
        else:
            offsets = np.array(self.grid_offsets(), dtype=float)
            x, y = (a.ravel() for a in np.meshgrid(offsets, offsets))
            none = np.full(x.size, None, dtype=object)
            sites = Table(WaferSite, x_mm=x, y_mm=y, chip_id=none, site_id=none)
        _check_on_wafer(self, column(sites, "x_mm"), column(sites, "y_mm"))
        return sites


def _check_on_wafer(layout: WaferLayout, x: np.ndarray, y: np.ndarray) -> None:
    """Raise ValidationError naming the first site, of offsets x and y
    (mm), that does not lie on the layout's wafer (a NaN offset does not)."""
    limit = layout.wafer_diameter_mm / 2.0 + 1e-9
    # np.hypot may differ from math.hypot in the last bit, so it only
    # screens; math.hypot decides.
    near = ~(np.hypot(x, y) <= limit * (1.0 - 1e-12))
    for i in np.flatnonzero(near).tolist():
        x_i, y_i = x.item(i), y.item(i)
        if not math.hypot(x_i, y_i) <= limit:
            raise ValidationError(f"site ({x_i}, {y_i}) mm lies outside the wafer")


def row_major_order(rows: Sequence) -> np.ndarray:
    """Stable order of rows with `x_mm, y_mm` fields (sites, results or
    corrections) by (row, column): y, then x, ascending."""
    return np.lexsort((column(rows, "x_mm"), column(rows, "y_mm")))


@dataclass(frozen=True)
class ProcessConfig:
    """Full process stack for one wafer run."""

    layout: WaferLayout
    source: SourceModel
    mask: MaskStack
    junction: JunctionSpec
    bottom_step: EvaporationStep
    top_step: EvaporationStep
    epsilon_center_mm: float = geometry.DEFAULT_EPSILON_CENTER_MM

    def __post_init__(self) -> None:
        if not self.epsilon_center_mm >= 0:
            raise ValidationError("epsilon_center_mm must be >= 0")
        if self.epsilon_center_mm == math.inf:
            raise ValidationError("epsilon_center_mm must be finite, got inf")


class SiteResult(NamedTuple):
    """Model evaluation at one site. Biases are deviations of the
    printed widths from the same run's wafer-center printed widths."""

    x_mm: float
    y_mm: float
    theta_bottom_rad: float
    theta_top_rad: float
    t_prime_nm: float
    w_bottom_nm: float
    w_top_nm: float
    area_um2: float
    bias_bottom_nm: float
    bias_top_nm: float


def _chain(
    config: ProcessConfig, model: BiasModel, x: np.ndarray, y: np.ndarray,
    band: Optional[float] = None,
) -> tuple:
    """The model's chain at sites with offsets x and y (mm) as arrays
    (theta_bottom, theta_top, t_prime_nm, bottom terms, top terms), a
    mask of the sites where one of its checks fails, and the bottom and
    top center-branch masks.

    Angles are evaluated at the site's projection onto each electrode's
    width axis: (x, 0) for the bottom electrode, (0, y) for the top, so
    the bottom angle, film and terms run elementwise over the distinct x
    and the top angle over the distinct y, with their checks as masks;
    `geometry.top_terms` combines them per site. An offset within `band`
    mm of its axis (default: the config's epsilon_center_mm) takes that
    electrode's center branch. The CONSTANT model evaluates every site
    as the wafer center. `_check` raises a flagged site's error from
    these arrays.
    """
    source = config.source
    if model is BiasModel.POINT_SOURCE:
        source = replace(source, kind=SourceKind.POINT)
    throw = source.distance_mm * geometry.NM_PER_MM
    radius = source.effective_radius_mm * geometry.NM_PER_MM
    mask_top, mask_bottom = config.mask.top_nm, config.mask.bottom_nm
    band = config.epsilon_center_mm if band is None else band
    if model is BiasModel.CONSTANT:
        x = y = np.zeros(x.size)
    ux, ix = np.unique(x, return_inverse=True)
    uy, iy = np.unique(y, return_inverse=True)
    center_b, center_t = (np.abs(u) <= band for u in (ux, uy))
    theta_b = geometry.incidence_angles(ux, 0.0, config.bottom_step, source)
    theta_t = geometry.incidence_angles(0.0, uy, config.top_step, source)
    cos_b = geometry.libm(math.cos, theta_b)
    terms_b = geometry.bottom_terms(
        ux * geometry.NM_PER_MM, radius, throw, mask_top, mask_bottom, cos_b, center_b
    )
    # `_check`'s checks: the grazing angle, the film's angle range, q.
    bad_b = ~((theta_b >= 0.0) & (theta_b < math.pi / 2)) | (terms_b[5] <= 0.0)
    t_prime = geometry.sidewall_film(cos_b, config.bottom_step.film_t0_nm)[ix]
    center_t = center_t[iy]
    terms_t = geometry.top_terms(
        t_prime, radius, throw, mask_top, mask_bottom,
        geometry.libm(math.sin, theta_t)[iy], geometry.libm(math.cos, theta_t)[iy], center_t,
    )
    failed = bad_b[ix] | (theta_t >= math.pi / 2)[iy] | (terms_t[5] <= 0.0)
    return (
        theta_b[ix], theta_t[iy], t_prime, tuple(t[ix] for t in terms_b), terms_t, failed,
        center_b[ix], center_t,
    )


def _at_site(x_mm: float, y_mm: float, text: object) -> str:
    """`text` (an error, say) with the site's coordinates prepended."""
    return f"site ({x_mm}, {y_mm}) mm: {text}"


def _check(chain: tuple, i: int, x_mm: float, y_mm: float, drawn: tuple) -> tuple[float, float]:
    """Printed (w_bottom, w_top) in nm of the (bottom, top) `drawn` widths
    at site i, of offsets x_mm and y_mm, of `_chain`'s `chain`:
    `geometry`'s scalar checks on the site's own values and branches, in
    deposition order, raise its first error without its coordinates."""
    theta_b, theta_t, _, terms_b, terms_t, _, center_b, center_t = chain
    geometry.check_film_angle(geometry.checked_angle(theta_b.item(i), x_mm, 0.0))
    bottom = geometry.checked_terms(tuple(v.item(i) for v in terms_b), False, center_b.item(i))
    geometry.checked_angle(theta_t.item(i), 0.0, y_mm)
    top = geometry.checked_terms(tuple(v.item(i) for v in terms_t), True, center_t.item(i))
    return geometry.printed_width(drawn[0], bottom), geometry.printed_width(drawn[1], top)


def _site_widths(
    config: ProcessConfig, model: BiasModel, x_mm: float, y_mm: float,
    band: Optional[float] = None,
) -> tuple:
    """Printed (w_bottom, w_top) in nm of the junction's drawn widths at
    one site, raising its error without its coordinates."""
    drawn = config.junction.drawn_bottom_nm, config.junction.drawn_top_nm
    with np.errstate(all="ignore"):  # the site may lie far off the wafer
        x, y = np.array([x_mm], dtype=float), np.array([y_mm], dtype=float)
        chain = _chain(config, model, x, y, band)
    return _check(chain, 0, x_mm, y_mm, drawn)


def _forward(
    x: np.ndarray, y: np.ndarray, drawn_b: np.ndarray, drawn_t: np.ndarray,
    chain: tuple, keep: Union[bool, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Printed (w_bottom, w_top) in nm and junction area of drawn widths
    at sites with offsets x and y, under their `_chain`. Of the `keep`
    sites (True: every site), the first whose chain failed or whose
    widths or area are not physical raises its error, from `_check` or
    as an overflow, with the site prepended."""
    terms_b, terms_t, failed = chain[3:6]
    with np.errstate(all="ignore"):
        w_b = geometry.forward_width(drawn_b, terms_b)
        w_t = geometry.forward_width(drawn_t, terms_t)
        area = geometry.junction_area(w_b, w_t)
    flagged = keep & (failed | ~((w_b > 0.0) & (w_t > 0.0) & np.isfinite(area)))
    for i in np.flatnonzero(flagged).tolist():
        x_i, y_i = x.item(i), y.item(i)
        try:
            widths = _check(chain, i, x_i, y_i, (drawn_b.item(i), drawn_t.item(i)))
            if not math.isfinite(geometry.junction_area(*widths)):
                raise NonPhysicalWidth(f"printed widths {widths} nm overflow")
        except ShadowEvapError as exc:
            raise type(exc)(_at_site(x_i, y_i, exc)) from exc
    return w_b, w_t, area


def _sweep(
    config: ProcessConfig,
    model: BiasModel,
    x: np.ndarray,
    y: np.ndarray,
    drawn_b: Union[float, np.ndarray],
    drawn_t: Union[float, np.ndarray],
) -> Table:
    """Forward model at the sites with offsets x and y (mm) and drawn
    (bottom, top) widths in nm (one value for all sites or one per
    site), with biases relative to the model's wafer-center widths."""
    w_b0, w_t0 = center_reference_widths(config, model)
    chain = _chain(config, model, x, y)
    theta_b, theta_t, t_prime = chain[:3]
    drawn_b, drawn_t = np.broadcast_to(drawn_b, x.shape), np.broadcast_to(drawn_t, x.shape)
    w_b, w_t, area = _forward(x, y, drawn_b, drawn_t, chain, True)
    return Table(
        SiteResult,
        x_mm=x,
        y_mm=y,
        theta_bottom_rad=theta_b,
        theta_top_rad=theta_t,
        t_prime_nm=t_prime,
        w_bottom_nm=w_b,
        w_top_nm=w_t,
        area_um2=area,
        bias_bottom_nm=w_b - w_b0,
        bias_top_nm=w_t - w_t0,
    )


def center_reference_widths(
    config: ProcessConfig, model: BiasModel = BiasModel.NON_POINT
) -> tuple[float, float]:
    """Printed (w_bottom, w_top) in nm at the wafer center, the zero
    point of every bias map for that model."""
    return _site_widths(config, model, 0.0, 0.0)


def simulate_wafer(
    config: ProcessConfig, model: BiasModel = BiasModel.NON_POINT
) -> Table:
    """Evaluate the forward model at every layout site.

    Results are a Table of SiteResult ordered by (row, column).
    Geometry errors are re-raised with the offending site coordinates
    prepended.
    """
    sites = config.layout.generate_sites()
    return _sweep(
        config, model, column(sites, "x_mm"), column(sites, "y_mm"),
        config.junction.drawn_bottom_nm, config.junction.drawn_top_nm,
    )


class BiasProfile(NamedTuple):
    """Bias vs offset along one axis for one electrode and model."""

    electrode: Electrode
    axis: Axis
    model: BiasModel
    center_width_nm: float
    points: tuple[tuple[float, float], ...]  # (offset_mm, bias_nm)


def bias_profile(
    config: ProcessConfig,
    axis: Axis,
    electrode: Electrode,
    model: BiasModel = BiasModel.NON_POINT,
) -> BiasProfile:
    """Electrode width bias along the electrode's varying axis.

    The pairing is fixed by the overlap-area convention: the bottom
    electrode varies along x, the top along y; any other combination
    raises AxisMismatch. Bias is relative to the same model's center
    width, so every profile is zero at offset 0 and the CONSTANT model
    is zero everywhere. The models' absolute width offsets (e.g. the
    point vs non-point penumbra term) live in center_width_nm.
    """
    if (electrode is Electrode.BOTTOM) != (axis is Axis.X):
        raise AxisMismatch(
            f"electrode {electrode.value} varies along "
            f"{'x' if electrode is Electrode.BOTTOM else 'y'}, not {axis.value}"
        )
    bottom = electrode is Electrode.BOTTOM
    offsets = np.array(config.layout.grid_offsets(), dtype=float)
    zeros = np.zeros(offsets.size)
    x, y = (offsets, zeros) if bottom else (zeros, offsets)
    _check_on_wafer(config.layout, x, y)
    junction = config.junction
    results = _sweep(config, model, x, y, junction.drawn_bottom_nm, junction.drawn_top_nm)
    biases = column(results, "bias_bottom_nm" if bottom else "bias_top_nm")
    w_b0, w_t0 = center_reference_widths(config, model)
    return BiasProfile(
        electrode=electrode,
        axis=axis,
        model=model,
        center_width_nm=w_b0 if bottom else w_t0,
        points=tuple(zip(offsets.tolist(), biases.tolist())),
    )


#: Largest drawn dimension (nm) a correction may request.
DEFAULT_MAX_DRAWN_NM = 5000.0


#: Rejection texts by the reason code of `_unreachable`, formatted
#: with the electrode's name and its inverse drawn width.
_UNREACHABLE = {
    1: "printed width does not grow with the drawn width",
    2: f"required drawn {{}} width {{:.3f}} nm outside (0, {DEFAULT_MAX_DRAWN_NM}] nm",
}


def _unreachable(drawn: np.ndarray, terms: geometry.BranchTerms) -> np.ndarray:
    """Per site, why no drawn width in (0, DEFAULT_MAX_DRAWN_NM] prints
    as the target whose inverse is `drawn`: 1 where the printed width
    does not grow with the drawn width, else 2 where `drawn` lies outside
    that range, else 0 (reachable)."""
    outside = ~((drawn > 0.0) & (drawn <= DEFAULT_MAX_DRAWN_NM))
    return np.where(geometry.inverse_slope(terms) <= 0.0, 1, 2 * outside)


@dataclass(frozen=True)
class CenterWidthsTarget:
    """Make every site print like the wafer center does."""


@dataclass(frozen=True)
class ExplicitAreaTarget:
    """Print a given overlap area (um^2) everywhere; aspect is
    w_bottom / w_top of the printed junction, 1.0 for square."""

    area_um2: float
    aspect: float = 1.0

    def __post_init__(self) -> None:
        for name, value in (("area", self.area_um2), ("aspect", self.aspect)):
            if not math.isfinite(value):
                raise ValidationError(f"target {name} must be finite, got {value}")
            if not value > 0:
                raise ValidationError(f"target {name} must be > 0")


CompensationTarget = Union[CenterWidthsTarget, ExplicitAreaTarget]


class CorrectionRow(NamedTuple):
    x_mm: float
    y_mm: float
    drawn_w_bottom_nm: float
    drawn_w_top_nm: float
    predicted_area_um2: float
    residual_area_rel: float


class CorrectionTable(NamedTuple):
    target_w_bottom_nm: float
    target_w_top_nm: float
    rows: Sequence[CorrectionRow]
    rejections: tuple[tuple[WaferSite, str], ...]


def resolve_target_widths(
    config: ProcessConfig, target: CompensationTarget
) -> tuple[float, float]:
    """Printed-width pair a compensation target asks for."""
    if isinstance(target, CenterWidthsTarget):
        return center_reference_widths(config)
    area_nm2 = target.area_um2 * 1.0e6
    widths = (math.sqrt(area_nm2 * target.aspect), math.sqrt(area_nm2 / target.aspect))
    if not all(map(math.isfinite, widths)):
        raise ValidationError(
            f"target area:{target.area_um2!r}:{target.aspect!r} gives printed widths "
            f"{widths} nm, which must be finite"
        )
    return widths


def compensate_wafer(
    config: ProcessConfig,
    target: CompensationTarget = CenterWidthsTarget(),
) -> CorrectionTable:
    """Per-site drawn-dimension corrections that flatten the area map.

    Each electrode's drawn width is the closed-form inverse of its
    terms. A site with no drawn width in (0, DEFAULT_MAX_DRAWN_NM] that
    prints as the target is rejected with its reason instead of aborting
    the sweep; the others go through `_forward`, the forward check of
    every sweep, for their predicted areas. Rows are a Table of
    CorrectionRow ordered like `simulate_wafer` output.
    """
    tw_b, tw_t = resolve_target_widths(config, target)
    target_area = tw_b * tw_t / 1.0e6
    if not target_area > 0.0:
        # Each residual is relative to the target area.
        raise NonPhysicalWidth(f"target widths ({tw_b}, {tw_t}) nm give an area of 0")
    sites = config.layout.generate_sites()
    x, y = column(sites, "x_mm"), column(sites, "y_mm")
    chain = _chain(config, BiasModel.NON_POINT, x, y)
    terms_b, terms_t, failed = chain[3:6]
    with np.errstate(all="ignore"):
        drawn_b = geometry.inverse_width(tw_b, terms_b)
        drawn_t = geometry.inverse_width(tw_t, terms_t)
        reason_b = _unreachable(drawn_b, terms_b)
        # A site is rejected for its bottom electrode's reason, if it has one.
        top = reason_b == 0
        reason = np.where(top, _unreachable(drawn_t, terms_t), reason_b)
    # A site whose chain failed is kept: `_forward` raises its error.
    keep = failed | (reason == 0)
    w_b, w_t, area = _forward(x, y, drawn_b, drawn_t, chain, keep)
    rejections = []
    for i in np.flatnonzero(~keep).tolist():
        name, drawn = ("top", drawn_t) if top[i] else ("bottom", drawn_b)
        text = _UNREACHABLE[reason.item(i)].format(name, drawn.item(i))
        rejections.append((sites[i], _at_site(x.item(i), y.item(i), text)))
    area = area[keep]
    return CorrectionTable(
        target_w_bottom_nm=tw_b,
        target_w_top_nm=tw_t,
        rows=Table(
            CorrectionRow,
            x_mm=x[keep],
            y_mm=y[keep],
            drawn_w_bottom_nm=drawn_b[keep],
            drawn_w_top_nm=drawn_t[keep],
            predicted_area_um2=area,
            residual_area_rel=(area - target_area) / target_area,
        ),
        rejections=tuple(rejections),
    )


def resimulate_with_corrections(
    config: ProcessConfig, corrections: Sequence[CorrectionRow]
) -> Table:
    """Forward-simulate a wafer whose drawn dimensions follow a
    correction table (the verification half of the compensation loop).
    Results are ordered by (row, column), ties in the given order. A
    site off the wafer is refused as `generate_sites` refuses it."""
    if not corrections:
        raise EmptyInput("no correction rows")
    order = row_major_order(corrections)
    x, y, drawn_b, drawn_t = (
        column(corrections, name)[order]
        for name in ("x_mm", "y_mm", "drawn_w_bottom_nm", "drawn_w_top_nm")
    )
    _check_on_wafer(config.layout, x, y)
    positive = (drawn_b > 0) & (drawn_t > 0)
    bad = np.flatnonzero(~(positive & (drawn_b < math.inf) & (drawn_t < math.inf)))
    if bad.size:
        i = bad.item(0)
        rule = "finite" if positive[i] else "> 0"
        raise ValidationError(_at_site(x.item(i), y.item(i), f"drawn widths must be {rule}"))
    return _sweep(config, BiasModel.NON_POINT, x, y, drawn_b, drawn_t)


def residual_report(results: Sequence[SiteResult]) -> StatsSummary:
    """Area-field statistics of a simulated map (mean, sd, CV)."""
    if not results:
        raise EmptyInput("no site results")
    return coefficient_of_variation(column(results, "area_um2"))


def branch_discontinuity_nm(config: ProcessConfig) -> tuple[float, float]:
    """Width jump (general minus center branch) for each electrode at
    the epsilon_center boundary, reported for transparency since the
    printed formulas are discontinuous there."""
    eps, model = config.epsilon_center_mm, BiasModel.NON_POINT
    center_b, center_t = _site_widths(config, model, eps, eps)
    # A negative band puts every offset, eps included, in the general branch.
    general_b, general_t = _site_widths(config, model, eps, eps, band=-1.0)
    return general_b - center_b, general_t - center_t

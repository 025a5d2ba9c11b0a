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
distinct x and once per distinct y: `_Model.columns` evaluates the
scalar `geometry` chain at those coordinates and runs the remaining
arithmetic elementwise over numpy columns, the same operations in the
same order, so every value equals the per-site scalar evaluation bit
for bit. Results are `Table`s ordered by (row, column). A site the
array arithmetic flags is replayed through the scalar chain, which
raises the error of the first failing site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from . import geometry
from .errors import (
    AxisMismatch,
    EmptyInput,
    NonPhysicalWidth,
    ShadowEvapError,
    Unreachable,
    ValidationError,
)
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
    and including the center. An explicit site list overrides the grid.
    """

    wafer_diameter_mm: float = 100.0
    working_span_mm: float = 70.0
    grid_pitch_mm: float = 5.0
    sites: Optional[tuple[WaferSite, ...]] = None

    def __post_init__(self) -> None:
        if not self.wafer_diameter_mm > 0:
            raise ValidationError("wafer.diameter_mm must be > 0")
        if not self.working_span_mm > 0:
            raise ValidationError("wafer.working_span_mm must be > 0")
        if not self.grid_pitch_mm > 0:
            raise ValidationError("wafer.grid_pitch_mm must be > 0")

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
            x, y, *ids = zip(*((s.x_mm, s.y_mm, s.chip_id, s.site_id) for s in self.sites))
            ids = [np.fromiter(i, dtype=object, count=len(x)) for i in ids]
        else:
            offsets = self.grid_offsets()
            x, y = np.tile(offsets, len(offsets)), np.repeat(offsets, len(offsets))
            ids = [np.full(x.size, None, dtype=object)] * 2
        sites = Table(
            WaferSite,
            x_mm=np.asarray(x, dtype=float),
            y_mm=np.asarray(y, dtype=float),
            chip_id=ids[0],
            site_id=ids[1],
        )
        if self.sites is not None:
            sites = sites.take(row_major_order(sites))
        limit = self.wafer_diameter_mm / 2.0 + 1e-9
        # np.hypot may differ from math.hypot in the last bit, so it only
        # screens; WaferSite.radius_mm decides.
        near = np.hypot(column(sites, "x_mm"), column(sites, "y_mm")) > limit * (1.0 - 1e-12)
        for i in np.flatnonzero(near).tolist():
            s = sites[i]
            if s.radius_mm() > limit:
                raise ValidationError(
                    f"site ({s.x_mm}, {s.y_mm}) mm lies outside the wafer"
                )
        return sites


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
        if self.epsilon_center_mm < 0:
            raise ValidationError("epsilon_center_mm must be >= 0")


@dataclass(frozen=True)
class SiteResult:
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


class _Model:
    """The per-site model of one sweep.

    Angles are evaluated at the site's projection onto each electrode's
    width axis: (x, 0) for the bottom electrode, (0, y) for the top, so
    the bottom angle, film and terms depend on x alone and the top
    angle on y alone. Offsets within center_band_mm of an axis (default:
    the config's epsilon_center_mm) take that electrode's center
    branch. The CONSTANT model evaluates every site as the wafer center.
    """

    def __init__(
        self,
        config: ProcessConfig,
        model: BiasModel = BiasModel.NON_POINT,
        center_band_mm: Optional[float] = None,
    ) -> None:
        source = config.source
        if model is BiasModel.POINT_SOURCE:
            source = replace(source, kind=SourceKind.POINT)
        self.source = source
        self.bottom_step, self.top_step = config.bottom_step, config.top_step
        self.throw = source.distance_mm * geometry.NM_PER_MM
        self.radius = source.effective_radius_mm * geometry.NM_PER_MM
        self.mask_top, self.mask_bottom = config.mask.top_nm, config.mask.bottom_nm
        self.band = config.epsilon_center_mm if center_band_mm is None else center_band_mm
        self.constant = model is BiasModel.CONSTANT

    def bottom(self, x_mm: float) -> tuple:
        """(theta_bottom, t_prime_nm, *bottom terms) at offset x: the
        bottom electrode's angle, the sidewall film it grows and its
        width terms, raising the first error in that order."""
        theta = geometry.local_incidence_angle(WaferSite(x_mm, 0.0), self.bottom_step, self.source)
        t_prime = geometry.sidewall_thickness(theta, self.bottom_step.film_t0_nm)
        return theta, t_prime, *geometry.bottom_width_terms(
            x_mm * geometry.NM_PER_MM, self.radius, self.throw, self.mask_top,
            self.mask_bottom, theta, abs(x_mm) <= self.band,
        )

    def top(self, y_mm: float) -> tuple:
        """(theta_top, sin, cos) at offset y: the top electrode's angle."""
        theta = geometry.local_incidence_angle(WaferSite(0.0, y_mm), self.top_step, self.source)
        return theta, math.sin(theta), math.cos(theta)

    def site(self, x_mm: float, y_mm: float) -> tuple[geometry.BranchTerms, geometry.BranchTerms]:
        """(bottom terms, top terms) at one site: the scalar chain in
        deposition order, bottom electrode then top, which raises the
        first error in that order."""
        if self.constant:
            x_mm = y_mm = 0.0
        bottom = self.bottom(x_mm)
        return bottom[2:], geometry.top_width_terms(
            bottom[1], self.radius, self.throw, self.mask_top, self.mask_bottom,
            self.top(y_mm)[0], abs(y_mm) <= self.band,
        )

    def columns(self, x: np.ndarray, y: np.ndarray) -> tuple:
        """The chain at sites with offsets x and y as arrays
        (theta_bottom, theta_top, t_prime_nm, bottom terms, top terms),
        plus a mask of the sites where `site` raises.

        `bottom` runs once per distinct x and `top` once per distinct y;
        `geometry.top_terms` combines them per site.
        """
        if self.constant:
            x = y = np.zeros(x.size)
        ux, ix = np.unique(x, return_inverse=True)
        uy, iy = np.unique(y, return_inverse=True)
        bottom, bottom_ok = _tabulate(self.bottom, ux, 8)
        top, top_ok = _tabulate(self.top, uy, 3)
        bottom, top = bottom[ix], top[iy]
        t_prime = bottom[:, 1]
        terms_t = geometry.top_terms(
            t_prime, self.radius, self.throw, self.mask_top, self.mask_bottom,
            top[:, 1], top[:, 2], (np.abs(uy) <= self.band)[iy],
        )
        failed = ~bottom_ok[ix] | ~top_ok[iy] | (terms_t[5] <= 0.0)
        return bottom[:, 0], top[:, 0], t_prime, tuple(bottom[:, 2:].T), terms_t, failed


def _tabulate(evaluate, values: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """evaluate(v) for each value as the rows of a (len, width) array,
    and a mask of the values it accepted. Rows it raised for stay NaN:
    their sites are replayed through `_Model.site`, which reports the
    error of the first one."""
    table = np.full((values.size, width), np.nan)
    ok = np.ones(values.size, dtype=bool)
    for j, value in enumerate(values.tolist()):
        try:
            table[j] = evaluate(value)
        except ShadowEvapError:
            ok[j] = False
    return table, ok


def _at_site(x_mm: float, y_mm: float, exc: ShadowEvapError) -> ShadowEvapError:
    """The same error with the offending site's coordinates prepended."""
    return type(exc)(f"site ({x_mm}, {y_mm}) mm: {exc}")


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
    evaluate = _Model(config, model)
    theta_b, theta_t, t_prime, terms_b, terms_t, failed = evaluate.columns(x, y)
    drawn_b = np.broadcast_to(drawn_b, x.shape)
    drawn_t = np.broadcast_to(drawn_t, x.shape)
    with np.errstate(all="ignore"):
        w_b = geometry.forward_width(drawn_b, terms_b)
        w_t = geometry.forward_width(drawn_t, terms_t)
        area = geometry.junction_area(w_b, w_t)
    for i in np.flatnonzero(failed | ~((w_b > 0.0) & (w_t > 0.0) & np.isfinite(area))).tolist():
        x_i, y_i = x.item(i), y.item(i)
        try:
            site_b, site_t = evaluate.site(x_i, y_i)
            widths = (
                geometry.printed_width(drawn_b.item(i), site_b),
                geometry.printed_width(drawn_t.item(i), site_t),
            )
        except ShadowEvapError as exc:
            raise _at_site(x_i, y_i, exc) from exc
        if not math.isfinite(geometry.overlap_area(*widths)):
            raise _at_site(x_i, y_i, NonPhysicalWidth(f"printed widths {widths} nm overflow"))
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
    terms_b, terms_t = _Model(config, model).site(0.0, 0.0)
    return (
        geometry.printed_width(config.junction.drawn_bottom_nm, terms_b),
        geometry.printed_width(config.junction.drawn_top_nm, terms_t),
    )


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


@dataclass(frozen=True)
class BiasProfile:
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
    offsets = np.array(config.layout.grid_offsets())
    zeros = np.zeros(offsets.size)
    x, y = (offsets, zeros) if bottom else (zeros, offsets)
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


def _drawn(name: str, target_nm: float, terms: geometry.BranchTerms) -> float:
    """Drawn width of one electrode that prints as target_nm; raises
    Unreachable when none lies in (0, DEFAULT_MAX_DRAWN_NM]."""
    drawn = geometry.drawn_width(target_nm, terms)
    if not 0.0 < drawn <= DEFAULT_MAX_DRAWN_NM:
        raise Unreachable(
            f"required drawn {name} width {drawn:.3f} nm outside "
            f"(0, {DEFAULT_MAX_DRAWN_NM}] nm"
        )
    return drawn


def _invert_site(
    evaluate: _Model, site: WaferSite, target_b: float, target_t: float
) -> tuple[float, float, float]:
    """(drawn bottom, drawn top, predicted area) at one site: the scalar
    inverse, then the forward check of the predicted area."""
    terms_b, terms_t = evaluate.site(site.x_mm, site.y_mm)
    drawn_b = _drawn("bottom", target_b, terms_b)
    drawn_t = _drawn("top", target_t, terms_t)
    area = geometry.overlap_area(
        geometry.printed_width(drawn_b, terms_b),
        geometry.printed_width(drawn_t, terms_t),
    )
    return drawn_b, drawn_t, area


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
        if not self.area_um2 > 0:
            raise ValidationError("target area must be > 0")
        if not self.aspect > 0:
            raise ValidationError("target aspect must be > 0")


CompensationTarget = Union[CenterWidthsTarget, ExplicitAreaTarget]


@dataclass(frozen=True)
class CorrectionRow:
    x_mm: float
    y_mm: float
    drawn_w_bottom_nm: float
    drawn_w_top_nm: float
    predicted_area_um2: float
    residual_area_rel: float


@dataclass(frozen=True)
class CorrectionTable:
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
    return (
        math.sqrt(area_nm2 * target.aspect),
        math.sqrt(area_nm2 / target.aspect),
    )


def compensate_wafer(
    config: ProcessConfig,
    target: CompensationTarget = CenterWidthsTarget(),
) -> CorrectionTable:
    """Per-site drawn-dimension corrections that flatten the area map.

    The width terms evaluated for the inverse also serve the forward
    check of the predicted area. Unreachable sites are collected into
    the rejection list instead of aborting the sweep; rows are a Table
    of CorrectionRow ordered like `simulate_wafer` output.
    """
    tw_b, tw_t = resolve_target_widths(config, target)
    target_area = tw_b * tw_t / 1.0e6
    if not target_area > 0.0:
        # Each residual is relative to the target area.
        raise NonPhysicalWidth(f"target widths ({tw_b}, {tw_t}) nm give an area of 0")
    evaluate = _Model(config)
    sites = config.layout.generate_sites()
    x, y = column(sites, "x_mm"), column(sites, "y_mm")
    _, _, _, terms_b, terms_t, failed = evaluate.columns(x, y)
    with np.errstate(all="ignore"):
        drawn_b = geometry.inverse_width(tw_b, terms_b)
        drawn_t = geometry.inverse_width(tw_t, terms_t)
        w_b = geometry.forward_width(drawn_b, terms_b)
        w_t = geometry.forward_width(drawn_t, terms_t)
        suspect = (
            failed
            | ~_admissible(drawn_b, terms_b)
            | ~_admissible(drawn_t, terms_t)
            | ~((w_b > 0.0) & (w_t > 0.0))
        )
    rejected = np.zeros(len(sites), dtype=bool)
    rejections: list[tuple[WaferSite, str]] = []
    for i in np.flatnonzero(suspect).tolist():
        site = sites[i]
        try:
            _invert_site(evaluate, site, tw_b, tw_t)
        except Unreachable as exc:
            rejected[i] = True
            rejections.append((site, str(_at_site(site.x_mm, site.y_mm, exc))))
        except ShadowEvapError as exc:
            raise _at_site(site.x_mm, site.y_mm, exc) from exc
    keep = ~rejected
    area = geometry.junction_area(w_b[keep], w_t[keep])
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


def _admissible(drawn: np.ndarray, terms: geometry.BranchTerms) -> np.ndarray:
    """Where `_drawn` accepts an inverse: the printed width grows with
    the drawn one, which lies in (0, DEFAULT_MAX_DRAWN_NM]."""
    return (geometry.inverse_slope(terms) > 0.0) & (drawn > 0.0) & (drawn <= DEFAULT_MAX_DRAWN_NM)


def resimulate_with_corrections(
    config: ProcessConfig, corrections: Sequence[CorrectionRow]
) -> Table:
    """Forward-simulate a wafer whose drawn dimensions follow a
    correction table (the verification half of the compensation loop).
    Results are ordered by (row, column), ties in the given order."""
    if not corrections:
        raise EmptyInput("no correction rows")
    order = row_major_order(corrections)
    x, y, drawn_b, drawn_t = (
        column(corrections, name)[order]
        for name in ("x_mm", "y_mm", "drawn_w_bottom_nm", "drawn_w_top_nm")
    )
    bad = np.flatnonzero(~((drawn_b > 0) & (drawn_t > 0)))
    if bad.size:
        raise ValidationError(
            f"site ({x.item(bad[0])}, {y.item(bad[0])}) mm: drawn widths must be > 0"
        )
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
    eps = config.epsilon_center_mm
    center_b, center_t = _Model(config).site(eps, eps)
    # A negative band puts every offset, eps included, in the general branch.
    general_b, general_t = _Model(config, center_band_mm=-1.0).site(eps, eps)
    drawn_b, drawn_t = config.junction.drawn_bottom_nm, config.junction.drawn_top_nm
    return (
        geometry.printed_width(drawn_b, general_b)
        - geometry.printed_width(drawn_b, center_b),
        geometry.printed_width(drawn_t, general_t)
        - geometry.printed_width(drawn_t, center_t),
    )

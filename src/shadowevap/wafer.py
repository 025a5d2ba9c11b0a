"""Wafer-scale sweeps of the junction geometry model and their inverse.

`simulate_wafer` evaluates the single-site model over a grid to produce
dimension, area and bias maps; `bias_profile` reproduces the model
comparison (constant bias vs point source vs non-point source) along
one axis; `compensate_site`/`compensate_wafer` invert the width
formulas analytically into per-site drawn-dimension corrections that
flatten the printed-area map.

Convention: each electrode's width varies along its own wafer axis
(bottom along x, top along y), and the incidence angle entering an
electrode's width formula is evaluated at the site's projection onto
that axis, i.e. in the plane containing the shadow displacement. This
keeps each electrode's printed width a one-dimensional function of its
own coordinate; the sidewall film links the top width to the bottom
step's angle at the same site.

Site evaluations are independent pure functions; results are always
ordered by (row, column) so any execution strategy yields identical
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from typing import Callable, Iterable, Optional, Sequence, Union

from . import geometry
from .errors import (
    AxisMismatch,
    EmptyInput,
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
        within half the working span, symmetric about and including 0."""
        half_steps = int(math.floor(self.working_span_mm / 2.0 / self.grid_pitch_mm))
        return [i * self.grid_pitch_mm for i in range(-half_steps, half_steps + 1)]

    def generate_sites(self) -> list[WaferSite]:
        """Sites ordered by (row, column), i.e. y then x ascending."""
        if self.sites is not None:
            ordered = sorted(self.sites, key=lambda s: (s.y_mm, s.x_mm))
        else:
            offsets = self.grid_offsets()
            ordered = [WaferSite(x, y) for y in offsets for x in offsets]
        radius = self.wafer_diameter_mm / 2.0
        for s in ordered:
            if s.radius_mm() > radius + 1e-9:
                raise ValidationError(
                    f"site ({s.x_mm}, {s.y_mm}) mm lies outside the wafer"
                )
        return ordered


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

    site: WaferSite
    theta_bottom_rad: float
    theta_top_rad: float
    t_prime_nm: float
    w_bottom_nm: float
    w_top_nm: float
    area_um2: float
    bias_bottom_nm: float
    bias_top_nm: float


def _site_model(
    config: ProcessConfig,
    model: BiasModel = BiasModel.NON_POINT,
    center_band_mm: Optional[float] = None,
) -> Callable[[float, float], tuple]:
    """Per-site evaluation for one sweep: (x_mm, y_mm) -> (theta_bottom,
    theta_top, t_prime_nm, bottom branch terms, top branch terms).

    Angles are evaluated at the site's projection onto each electrode's
    width axis: (x, 0) for the bottom electrode, (0, y) for the top.
    Offsets within center_band_mm of an axis (default: the config's
    epsilon_center_mm) take that electrode's center branch. The
    CONSTANT model evaluates every site as the wafer center.
    """
    source = config.source
    if model is BiasModel.POINT_SOURCE:
        source = replace(source, kind=SourceKind.POINT)
    bottom, top = config.bottom_step, config.top_step
    throw = source.distance_mm * geometry.NM_PER_MM
    radius = source.effective_radius_mm * geometry.NM_PER_MM
    mask_top, mask_bottom = config.mask.top_nm, config.mask.bottom_nm
    band = config.epsilon_center_mm if center_band_mm is None else center_band_mm

    def evaluate(x_mm: float, y_mm: float) -> tuple:
        theta_b = geometry.local_incidence_angle(WaferSite(x_mm, 0.0), bottom, source)
        theta_t = geometry.local_incidence_angle(WaferSite(0.0, y_mm), top, source)
        t_prime = geometry.sidewall_thickness(theta_b, bottom.film_t0_nm)
        return (
            theta_b,
            theta_t,
            t_prime,
            geometry.bottom_width_terms(
                x_mm * geometry.NM_PER_MM, radius, throw, mask_top, mask_bottom,
                theta_b, abs(x_mm) <= band,
            ),
            geometry.top_width_terms(
                t_prime, radius, throw, mask_top, mask_bottom, theta_t,
                abs(y_mm) <= band,
            ),
        )

    if model is BiasModel.CONSTANT:
        center = evaluate(0.0, 0.0)
        return lambda x_mm, y_mm: center
    return evaluate


def _at_site(site: WaferSite, exc: ShadowEvapError) -> ShadowEvapError:
    """The same error with the offending site's coordinates prepended."""
    return type(exc)(f"site ({site.x_mm}, {site.y_mm}) mm: {exc}")


def _sweep(
    config: ProcessConfig,
    model: BiasModel,
    sites: Iterable[WaferSite],
    drawn: Optional[Iterable[tuple[float, float]]] = None,
) -> list[SiteResult]:
    """Forward model at each site with its drawn (bottom, top) widths in
    nm (default: the config's junction everywhere), with biases relative
    to the model's wafer-center widths."""
    if drawn is None:
        drawn = repeat((config.junction.drawn_bottom_nm, config.junction.drawn_top_nm))
    evaluate = _site_model(config, model)
    w_b0, w_t0 = center_reference_widths(config, model)
    results: list[SiteResult] = []
    for site, (drawn_b, drawn_t) in zip(sites, drawn):
        try:
            th_b, th_t, tp, terms_b, terms_t = evaluate(site.x_mm, site.y_mm)
            w_b = geometry.printed_width(drawn_b, terms_b)
            w_t = geometry.printed_width(drawn_t, terms_t)
        except ShadowEvapError as exc:
            raise _at_site(site, exc) from exc
        results.append(
            SiteResult(
                site=site,
                theta_bottom_rad=th_b,
                theta_top_rad=th_t,
                t_prime_nm=tp,
                w_bottom_nm=w_b,
                w_top_nm=w_t,
                area_um2=geometry.overlap_area(w_b, w_t),
                bias_bottom_nm=w_b - w_b0,
                bias_top_nm=w_t - w_t0,
            )
        )
    return results


def center_reference_widths(
    config: ProcessConfig, model: BiasModel = BiasModel.NON_POINT
) -> tuple[float, float]:
    """Printed (w_bottom, w_top) in nm at the wafer center, the zero
    point of every bias map for that model."""
    _, _, _, terms_b, terms_t = _site_model(config, model)(0.0, 0.0)
    return (
        geometry.printed_width(config.junction.drawn_bottom_nm, terms_b),
        geometry.printed_width(config.junction.drawn_top_nm, terms_t),
    )


def simulate_wafer(
    config: ProcessConfig, model: BiasModel = BiasModel.NON_POINT
) -> list[SiteResult]:
    """Evaluate the forward model at every layout site.

    Results are ordered by (row, column). Geometry errors are re-raised
    with the offending site coordinates prepended.
    """
    return _sweep(config, model, config.layout.generate_sites())


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
    offsets = config.layout.grid_offsets()
    results = _sweep(
        config,
        model,
        [WaferSite(off, 0.0) if bottom else WaferSite(0.0, off) for off in offsets],
    )
    w_b0, w_t0 = center_reference_widths(config, model)
    return BiasProfile(
        electrode=electrode,
        axis=axis,
        model=model,
        center_width_nm=w_b0 if bottom else w_t0,
        points=tuple(
            (off, r.bias_bottom_nm if bottom else r.bias_top_nm)
            for off, r in zip(offsets, results)
        ),
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


def compensate_site(
    config: ProcessConfig,
    site: WaferSite,
    target_w_bottom_nm: float,
    target_w_top_nm: float,
) -> tuple[float, float]:
    """Drawn widths that print as the requested widths at this site.

    Both width formulas are affine in their drawn dimension (the angle
    and sidewall film do not depend on it), so the inverse is closed
    form (`geometry.drawn_width`); forward-evaluating the returned pair
    reproduces the targets to rounding error. Raises Unreachable when a
    required drawn width is non-positive or exceeds DEFAULT_MAX_DRAWN_NM.
    """
    if not (target_w_bottom_nm > 0 and target_w_top_nm > 0):
        raise ValidationError("target widths must be > 0")
    _, _, _, terms_b, terms_t = _site_model(config)(site.x_mm, site.y_mm)
    return (
        _drawn("bottom", target_w_bottom_nm, terms_b),
        _drawn("top", target_w_top_nm, terms_t),
    )


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
    site: WaferSite
    drawn_w_bottom_nm: float
    drawn_w_top_nm: float
    predicted_area_um2: float
    residual_area_rel: float


@dataclass(frozen=True)
class CorrectionTable:
    target_w_bottom_nm: float
    target_w_top_nm: float
    rows: tuple[CorrectionRow, ...]
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

    Each site's width terms are evaluated once and serve both the
    inverse and the forward check of the predicted area. Unreachable
    sites are collected into the rejection list instead of aborting the
    sweep; rows are ordered like `simulate_wafer` output.
    """
    tw_b, tw_t = resolve_target_widths(config, target)
    target_area = tw_b * tw_t / 1.0e6
    evaluate = _site_model(config)
    rows: list[CorrectionRow] = []
    rejections: list[tuple[WaferSite, str]] = []
    for site in config.layout.generate_sites():
        try:
            _, _, _, terms_b, terms_t = evaluate(site.x_mm, site.y_mm)
            drawn_b = _drawn("bottom", tw_b, terms_b)
            drawn_t = _drawn("top", tw_t, terms_t)
        except Unreachable as exc:
            rejections.append((site, str(_at_site(site, exc))))
            continue
        except ShadowEvapError as exc:
            raise _at_site(site, exc) from exc
        area = geometry.overlap_area(
            geometry.printed_width(drawn_b, terms_b),
            geometry.printed_width(drawn_t, terms_t),
        )
        rows.append(
            CorrectionRow(
                site=site,
                drawn_w_bottom_nm=drawn_b,
                drawn_w_top_nm=drawn_t,
                predicted_area_um2=area,
                residual_area_rel=(area - target_area) / target_area,
            )
        )
    return CorrectionTable(
        target_w_bottom_nm=tw_b,
        target_w_top_nm=tw_t,
        rows=tuple(rows),
        rejections=tuple(rejections),
    )


def resimulate_with_corrections(
    config: ProcessConfig, corrections: Sequence[CorrectionRow]
) -> list[SiteResult]:
    """Forward-simulate a wafer whose drawn dimensions follow a
    correction table (the verification half of the compensation loop)."""
    if not corrections:
        raise EmptyInput("no correction rows")
    rows = sorted(corrections, key=lambda r: (r.site.y_mm, r.site.x_mm))
    for row in rows:
        if not (row.drawn_w_bottom_nm > 0 and row.drawn_w_top_nm > 0):
            raise ValidationError(
                f"site ({row.site.x_mm}, {row.site.y_mm}) mm: "
                "drawn widths must be > 0"
            )
    return _sweep(
        config,
        BiasModel.NON_POINT,
        [r.site for r in rows],
        [(r.drawn_w_bottom_nm, r.drawn_w_top_nm) for r in rows],
    )


def residual_report(results: Sequence[SiteResult]) -> StatsSummary:
    """Area-field statistics of a simulated map (mean, sd, CV)."""
    if not results:
        raise EmptyInput("no site results")
    return coefficient_of_variation([r.area_um2 for r in results])


def branch_discontinuity_nm(config: ProcessConfig) -> tuple[float, float]:
    """Width jump (general minus center branch) for each electrode at
    the epsilon_center boundary, reported for transparency since the
    printed formulas are discontinuous there."""
    eps = config.epsilon_center_mm
    _, _, _, center_b, center_t = _site_model(config)(eps, eps)
    # A negative band puts every offset, eps included, in the general branch.
    _, _, _, general_b, general_t = _site_model(config, center_band_mm=-1.0)(eps, eps)
    drawn_b, drawn_t = config.junction.drawn_bottom_nm, config.junction.drawn_top_nm
    return (
        geometry.printed_width(drawn_b, general_b)
        - geometry.printed_width(drawn_b, center_b),
        geometry.printed_width(drawn_t, general_t)
        - geometry.printed_width(drawn_t, center_t),
    )

"""Single-site shadow-evaporation geometry for Dolan-bridge junctions.

A two-layer organic mask (thick copolymer below, thin resist on top) is
metallized twice through the same aperture at different holder tilts.
Because the evaporant flux diverges from a source a finite throw away,
the local incidence angle, the sidewall film grown during the first
pass and the penumbra of the finite source all vary with position on
the wafer, so the printed electrode widths drift away from the drawn
mask dimensions.

Everything here is a pure function of its inputs: lengths in
nanometers, angles in radians (millimeters and degrees only at the
dataclass boundary), safe to call concurrently. The scalar functions are
the oracle for wafer sweeps: `top_terms`, `forward_width`,
`inverse_width`, `inverse_slope` and `junction_area`, the arithmetic
of the checked scalar functions, also accept numpy arrays, so a sweep
runs the same arithmetic elementwise after taking trigonometry once per
distinct coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DenominatorCollapse,
    DomainError,
    GrazingIncidence,
    NonPhysicalWidth,
    Unreachable,
    ValidationError,
)

NM_PER_MM = 1.0e6

#: Half-width (mm) of the band around an axis treated as "at center" when
#: choosing between the center and general branches of the width formulas.
DEFAULT_EPSILON_CENTER_MM = 0.5

#: Guard for the closed-form angle: arguments within this distance outside
#: [-1, 1] are clamped, anything further raises DomainError.
ACOS_ROUNDING_GUARD = 1e-12


class SourceKind(str, Enum):
    """Evaporation source extent: ideal point or finite-radius disk."""

    POINT = "point"
    DISK = "disk"


class ShadowAxis(str, Enum):
    """Wafer axis along which a holder tilt displaces shadows."""

    ALONG_X = "x"
    ALONG_Y = "y"


class TiltSign(str, Enum):
    """Direction of the holder tilt along its shadow axis."""

    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class SourceModel:
    """Evaporation source geometry.

    distance_mm is the crucible-to-holder throw; radius_mm is the
    effective lateral extent of the melt, which sets the penumbra width
    of every mask shadow. A POINT source behaves as radius 0 regardless
    of the stored radius.
    """

    distance_mm: float
    radius_mm: float = 1.0
    kind: SourceKind = SourceKind.DISK

    def __post_init__(self) -> None:
        if not self.distance_mm > 0:
            raise ValidationError("source.distance_mm must be > 0")
        if self.radius_mm < 0:
            raise ValidationError("source.radius_mm must be >= 0")
        if self.radius_mm >= self.distance_mm:
            raise ValidationError("source.radius_mm must be < distance_mm")

    @property
    def effective_radius_mm(self) -> float:
        """Radius entering the formulas: 0 for a point source."""
        return 0.0 if self.kind is SourceKind.POINT else self.radius_mm


@dataclass(frozen=True)
class EvaporationStep:
    """One deposition pass: holder tilt, shadow direction and nominal
    film thickness calibrated at normal incidence."""

    tilt_deg: float
    shadow_axis: ShadowAxis
    tilt_sign: TiltSign = TiltSign.PLUS
    film_t0_nm: float = 25.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tilt_deg < 90.0:
            raise ValidationError(
                f"step.tilt_deg must satisfy 0 <= tilt < 90, got {self.tilt_deg}"
            )
        if not self.film_t0_nm > 0:
            raise ValidationError("step.film_t0_nm must be > 0")

    @property
    def tilt_rad(self) -> float:
        return math.radians(self.tilt_deg)


@dataclass(frozen=True)
class MaskStack:
    """Two-layer organic mask: top resist of thickness H over a bottom
    copolymer (undercut) layer of thickness h, both in nm."""

    top_nm: float = 100.0
    bottom_nm: float = 500.0

    def __post_init__(self) -> None:
        if not self.top_nm > 0:
            raise ValidationError("mask.top_H_nm must be > 0")
        if not self.bottom_nm > 0:
            raise ValidationError("mask.bottom_h_nm must be > 0")


@dataclass(frozen=True)
class JunctionSpec:
    """Drawn aperture widths: the bottom electrode's printed width varies
    along x, the top electrode's along y."""

    drawn_bottom_nm: float = 200.0
    drawn_top_nm: float = 200.0

    def __post_init__(self) -> None:
        if not self.drawn_bottom_nm > 0:
            raise ValidationError("junction.drawn_w_bottom_nm must be > 0")
        if not self.drawn_top_nm > 0:
            raise ValidationError("junction.drawn_w_top_nm must be > 0")


@dataclass(frozen=True)
class WaferSite:
    """Signed offsets (mm) from the wafer center, with optional ids."""

    x_mm: float
    y_mm: float
    chip_id: Optional[str] = None
    site_id: Optional[str] = None

    def radius_mm(self) -> float:
        return math.hypot(self.x_mm, self.y_mm)


def _source_position_mm(
    step: EvaporationStep, source: SourceModel
) -> tuple[float, float, float]:
    """Source center in wafer coordinates for a tilted holder.

    Tilting the holder by a0 about the axis perpendicular to the shadow
    axis is equivalent to placing the source at throw distance D along a
    direction inclined a0 from the wafer normal, displaced along the
    shadow axis in the direction given by tilt_sign.
    """
    d = source.distance_mm
    lateral = d * math.sin(step.tilt_rad)
    if step.tilt_sign is TiltSign.MINUS:
        lateral = -lateral
    if step.shadow_axis is ShadowAxis.ALONG_X:
        return lateral, 0.0, d * math.cos(step.tilt_rad)
    return 0.0, lateral, d * math.cos(step.tilt_rad)


def local_incidence_angle(
    site: WaferSite, step: EvaporationStep, source: SourceModel
) -> float:
    """Incidence angle theta (rad, from the substrate normal) of the ray
    from the source center to the site.

    At the wafer center this is exactly the holder tilt; away from the
    center the diverging flux cone steepens or shallows it. Raises
    GrazingIncidence for theta >= 90 deg (site unreachable by flux).
    """
    sx, sy, sz = _source_position_mm(step, source)
    lateral = math.hypot(sx - site.x_mm, sy - site.y_mm)
    # atan2 keeps the angle exact at the wafer center (lateral/normal is
    # tan(tilt) there) and well conditioned near normal incidence.
    theta = math.atan2(lateral, sz)
    if theta >= math.pi / 2:
        raise GrazingIncidence(
            f"flux incidence >= 90 deg at site ({site.x_mm}, {site.y_mm}) mm"
        )
    return theta


def closed_form_complement_angle(
    y_mm: float, step: EvaporationStep, source: SourceModel, sign: int = +1
) -> float:
    """Closed-form angle along the tilt axis, complement convention.

    Evaluates, for offset y and throw D at tilt a0,

        alpha' = acos((y + D sin a0) / sqrt(y^2 + D^2 +/- 2 y D sin a0))

    which returns the complement of the ray-traced incidence angle: for
    matched sign conventions cos^2(alpha') + cos^2(theta) = 1. Kept as a
    cross-check only; `local_incidence_angle` is the normative angle.
    """
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    d = source.distance_mm
    num = y_mm + d * math.sin(step.tilt_rad)
    radicand = y_mm * y_mm + d * d + sign * 2.0 * y_mm * d * math.sin(step.tilt_rad)
    if radicand <= 0.0:
        raise DomainError(f"degenerate geometry: radicand {radicand} <= 0")
    arg = num / math.sqrt(radicand)
    if abs(arg) > 1.0 + ACOS_ROUNDING_GUARD:
        raise DomainError(f"acos argument {arg} outside [-1, 1]")
    return math.acos(max(-1.0, min(1.0, arg)))


def sidewall_thickness(theta_first_rad: float, t0_nm: float) -> float:
    """Film thickness grown on the mask during the first (bottom) pass.

    T' = T0 cos^2(theta); T0 is the thickness calibrated at normal
    incidence, theta the local incidence angle of the bottom-electrode
    evaporation at this site. This film narrows the aperture seen by
    the second pass.
    """
    if not 0.0 <= theta_first_rad < math.pi / 2:
        raise ValidationError("theta must be in [0, 90 deg)")
    if not t0_nm > 0:
        raise ValidationError("t0_nm must be > 0")
    c = math.cos(theta_first_rad)
    return t0_nm * c * c


#: Affine terms (T', s, p, w, n, q) of one printed-width branch; see
#: `printed_width`.
BranchTerms = tuple[float, float, float, float, float, float]


def _denominator(value: float, throw: str, mask: str) -> float:
    """A width-formula denominator, which must be positive: otherwise
    the (projected) throw does not clear the mask."""
    if value <= 0.0:
        raise DenominatorCollapse(f"throw {throw} does not clear the {mask}")
    return value


def bottom_width_terms(
    offset: float,
    source_radius: float,
    throw: float,
    mask_top: float,
    mask_bottom: float,
    theta_rad: float,
    center_branch: bool,
) -> BranchTerms:
    """Branch terms of the printed bottom-electrode width.

    Center branch:   W + (c + W) h / (D cos t - h)
    General branch:  W + (|x| + c + W/2)(H + h) / (D cos t - H)

    All lengths in one consistent unit: the formulas are homogeneous of
    degree one in the lengths, so any single unit gives the same result
    up to rounding.
    """
    projected = throw * math.cos(theta_rad)
    if center_branch:
        q = _denominator(projected - mask_bottom, "D cos(theta)", "bottom mask layer")
        return 0.0, 1.0, source_radius, 1.0, mask_bottom, q
    q = _denominator(projected - mask_top, "D cos(theta)", "top mask layer")
    return 0.0, 1.0, abs(offset) + source_radius, 0.5, mask_top + mask_bottom, q


def top_width_terms(
    sidewall: float,
    source_radius: float,
    throw: float,
    mask_top: float,
    mask_bottom: float,
    theta_rad: float,
    center_branch: bool,
) -> BranchTerms:
    """Branch terms of the printed top-electrode width.

    Center branch:   W - T' - (2 D sin t + 2c + W) h / (D - h)
    General branch:  W - T' - H (D sin t - c - W/2) / (D cos t - T' - H - h)

    T' is the sidewall film grown during the bottom pass, which narrows
    the aperture before this (second) evaporation. The offset y enters
    only through theta and T'.
    """
    terms = top_terms(
        sidewall, source_radius, throw, mask_top, mask_bottom,
        math.sin(theta_rad), math.cos(theta_rad), center_branch,
    )
    if center_branch:
        _denominator(terms[5], "D", "bottom mask layer")
    else:
        _denominator(terms[5], "D cos(theta)", "film-coated mask")
    return terms


def top_terms(sidewall, source_radius, throw, mask_top, mask_bottom, sin_t, cos_t, center):
    """The arithmetic of `top_width_terms` from the angle's sine and
    cosine, without its denominator check.

    Any argument may be a numpy array, evaluated elementwise; `center`
    is then a bool array choosing each element's branch. The sidewall
    film couples the top electrode to the bottom step's angle at the
    same site, so a sweep evaluates these terms per site.
    """
    return _branch(
        center,
        (sidewall, -1.0, 2.0 * throw * sin_t + 2.0 * source_radius, 1.0, mask_bottom,
         throw - mask_bottom),
        (sidewall, -1.0, throw * sin_t - source_radius, -0.5, mask_top,
         throw * cos_t - sidewall - mask_top - mask_bottom),
    )


def _branch(center, center_terms: tuple, general_terms: tuple) -> BranchTerms:
    """The terms of the branch `center` selects; a bool array selects
    per element."""
    if isinstance(center, np.ndarray):
        return tuple(np.where(center, c, g) for c, g in zip(center_terms, general_terms))
    return center_terms if center else general_terms


def forward_width(drawn, terms: BranchTerms):
    """Printed width of drawn width W under one branch's terms:

        W' = W - T' + s (p + w W) n / q

    without the positivity check of `printed_width`; elementwise over
    numpy arrays. Every branch of both electrodes has this affine form,
    which is what makes `drawn_width` a closed-form inverse.
    """
    t_prime, s, p, w, n, q = terms
    # This grouping reproduces each branch's formula bit for bit, which
    # keeps 12-digit artifacts byte-identical; do not re-associate it.
    return drawn - t_prime + s * ((p + w * drawn) * n / q)


def printed_width(drawn: float, terms: BranchTerms) -> float:
    """Printed width of drawn width W under one branch's terms (see
    `forward_width`); raises NonPhysicalWidth unless it is positive."""
    width = forward_width(drawn, terms)
    if width <= 0.0:
        raise NonPhysicalWidth(
            f"printed width {width} <= 0 "
            "(aperture closed by sidewall film and shadowing)"
        )
    return width


def inverse_slope(terms: BranchTerms):
    """Growth of the printed width per unit drawn width, 1 + s w n / q:
    the divisor of the inverse. Elementwise over numpy arrays."""
    _, s, _, w, n, q = terms
    return 1.0 + s * (w * (n / q))


def inverse_width(printed, terms: BranchTerms):
    """Drawn width that prints as `printed` under one branch's terms,

        W = (W' + T' - s p k) / (1 + s w k),  k = n / q,

    without the slope check of `drawn_width`; elementwise over numpy
    arrays."""
    t_prime, s, p, _, n, q = terms
    return (printed + (t_prime - s * (p * (n / q)))) / inverse_slope(terms)


def drawn_width(printed: float, terms: BranchTerms) -> float:
    """Drawn width that prints as `printed` under one branch's terms,
    the inverse of `printed_width` (see `inverse_width`).

    Raises Unreachable when the printed width does not grow with the
    drawn width (1 + s w k <= 0), so no drawn width is admissible.
    """
    if inverse_slope(terms) <= 0.0:
        raise Unreachable("printed width does not grow with the drawn width")
    return inverse_width(printed, terms)


def bottom_width_formula(
    drawn: float,
    offset: float,
    source_radius: float,
    throw: float,
    mask_top: float,
    mask_bottom: float,
    theta_rad: float,
    center_branch: bool,
) -> float:
    """Printed bottom-electrode width; see `bottom_width_terms`."""
    terms = bottom_width_terms(
        offset, source_radius, throw, mask_top, mask_bottom, theta_rad, center_branch
    )
    return printed_width(drawn, terms)


def bottom_width(
    junction: JunctionSpec,
    mask: MaskStack,
    theta_rad: float,
    x_mm: float,
    source: SourceModel,
    *,
    epsilon_center_mm: float = DEFAULT_EPSILON_CENTER_MM,
) -> float:
    """Printed bottom-electrode width (nm) at offset x along the wafer.

    theta_rad must be the local incidence angle of the bottom-electrode
    evaporation at this site. Sites with |x| <= epsilon_center_mm use
    the center branch of the width formula.
    """
    return bottom_width_formula(
        drawn=junction.drawn_bottom_nm,
        offset=x_mm * NM_PER_MM,
        source_radius=source.effective_radius_mm * NM_PER_MM,
        throw=source.distance_mm * NM_PER_MM,
        mask_top=mask.top_nm,
        mask_bottom=mask.bottom_nm,
        theta_rad=theta_rad,
        center_branch=abs(x_mm) <= epsilon_center_mm,
    )


def top_width(
    junction: JunctionSpec,
    mask: MaskStack,
    theta_rad: float,
    t_prime_nm: float,
    y_mm: float,
    source: SourceModel,
    *,
    epsilon_center_mm: float = DEFAULT_EPSILON_CENTER_MM,
) -> float:
    """Printed top-electrode width (nm) at offset y along the wafer.

    theta_rad is the local incidence angle of the top-electrode
    evaporation; t_prime_nm the sidewall film thickness grown during
    the bottom pass at the same site (see `sidewall_thickness`).
    """
    terms = top_width_terms(
        sidewall=t_prime_nm,
        source_radius=source.effective_radius_mm * NM_PER_MM,
        throw=source.distance_mm * NM_PER_MM,
        mask_top=mask.top_nm,
        mask_bottom=mask.bottom_nm,
        theta_rad=theta_rad,
        center_branch=abs(y_mm) <= epsilon_center_mm,
    )
    return printed_width(junction.drawn_top_nm, terms)


def junction_area(w_bottom_nm, w_top_nm):
    """Junction overlap area in um^2 from the two printed widths (nm),
    without the positivity check of `overlap_area`; elementwise over
    numpy arrays."""
    return w_bottom_nm * w_top_nm / 1.0e6


def overlap_area(w_bottom_nm: float, w_top_nm: float) -> float:
    """Junction overlap area in um^2 from the two printed widths (nm)."""
    if not (w_bottom_nm > 0 and w_top_nm > 0):
        raise ValidationError("widths must be > 0")
    return junction_area(w_bottom_nm, w_top_nm)

"""Single-site geometry: angles, sidewall film, printed widths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowevap.errors import (
    DenominatorCollapse,
    DomainError,
    NonPhysicalWidth,
    ValidationError,
)
from shadowevap.geometry import (
    EvaporationStep,
    JunctionSpec,
    MaskStack,
    ShadowAxis,
    SourceKind,
    SourceModel,
    TiltSign,
    WaferSite,
    bottom_terms,
    bottom_width,
    bottom_width_formula,
    checked_terms,
    inverse_slope,
    inverse_width,
    local_incidence_angle,
    overlap_area,
    closed_form_complement_angle,
    sidewall_thickness,
    printed_width,
    top_terms,
    top_width,
)

SOURCE = SourceModel(distance_mm=650.0, radius_mm=1.0)
MASK = MaskStack(top_nm=100.0, bottom_nm=500.0)


def step(tilt_deg, axis=ShadowAxis.ALONG_Y, sign=TiltSign.PLUS):
    return EvaporationStep(tilt_deg=tilt_deg, shadow_axis=axis, tilt_sign=sign)


def checked_bottom(offset, radius, throw, mask_top, mask_bottom, theta, center):
    terms = bottom_terms(offset, radius, throw, mask_top, mask_bottom, math.cos(theta), center)
    return checked_terms(terms, False, center)


def checked_top(sidewall, radius, throw, mask_top, mask_bottom, theta, center):
    terms = top_terms(
        sidewall, radius, throw, mask_top, mask_bottom, math.sin(theta), math.cos(theta), center
    )
    return checked_terms(terms, True, center)


class TestLocalIncidenceAngle:
    def test_center_sees_nominal_tilt(self):
        theta = local_incidence_angle(WaferSite(0, 0), step(40.0), SOURCE)
        assert theta == pytest.approx(math.radians(40.0), abs=1e-12)

    def test_normal_incidence_at_center(self):
        assert local_incidence_angle(WaferSite(0, 0), step(0.0), SOURCE) == 0.0

    def test_offset_on_shadow_axis_at_zero_tilt(self):
        # Pure divergence: theta = atan(offset / throw).
        theta = local_incidence_angle(WaferSite(0, 35.0), step(0.0), SOURCE)
        assert theta == pytest.approx(math.atan(35.0 / 650.0), rel=1e-12)
        assert math.degrees(theta) == pytest.approx(3.082, abs=5e-4)

    def test_tilt_sign_mirrors_the_profile(self):
        plus = local_incidence_angle(
            WaferSite(0, 20.0), step(40.0, sign=TiltSign.PLUS), SOURCE
        )
        minus = local_incidence_angle(
            WaferSite(0, -20.0), step(40.0, sign=TiltSign.MINUS), SOURCE
        )
        assert plus == minus

    @given(st.floats(min_value=0.0, max_value=80.0))
    @settings(max_examples=50)
    def test_center_identity_over_tilts(self, tilt_deg):
        theta = local_incidence_angle(WaferSite(0, 0), step(tilt_deg), SOURCE)
        assert abs(theta - math.radians(tilt_deg)) < 1e-12


class TestPaperAngleClosedForm:
    def test_center_is_complement_of_tilt(self):
        alpha = closed_form_complement_angle(0.0, step(40.0), SOURCE)
        assert math.degrees(alpha) == pytest.approx(50.0, abs=1e-9)

    def test_center_zero_tilt_is_ninety(self):
        alpha = closed_form_complement_angle(0.0, step(0.0), SOURCE)
        assert alpha == pytest.approx(math.pi / 2, rel=1e-12)

    def test_offset_zero_tilt(self):
        alpha = closed_form_complement_angle(35.0, step(0.0), SOURCE)
        expected = math.acos(35.0 / math.sqrt(35.0**2 + 650.0**2))
        assert alpha == pytest.approx(expected, rel=1e-12)
        assert math.degrees(alpha) == pytest.approx(86.918, abs=5e-4)

    @given(
        st.floats(min_value=-49.0, max_value=49.0),
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=200.0, max_value=2000.0),
    )
    @settings(max_examples=200)
    def test_complement_cross_check(self, y_mm, tilt_deg, distance_mm):
        # The printed '+' branch pairs with a tilt displacing shadows
        # toward -y; together they satisfy cos^2 + cos^2 = 1.
        src = SourceModel(distance_mm=distance_mm, radius_mm=0.0)
        s_plus = step(tilt_deg, sign=TiltSign.MINUS)
        alpha = closed_form_complement_angle(y_mm, s_plus, src, sign=+1)
        theta = local_incidence_angle(WaferSite(0.0, y_mm), s_plus, src)
        assert abs(math.cos(alpha) ** 2 + math.cos(theta) ** 2 - 1.0) < 1e-9

    def test_domain_error_on_mismatched_branch(self):
        src = SourceModel(distance_mm=10.0, radius_mm=0.0)
        with pytest.raises(DomainError):
            closed_form_complement_angle(49.0, step(40.0), src, sign=-1)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValidationError):
            closed_form_complement_angle(0.0, step(40.0), SOURCE, sign=2)

    def test_argument_at_the_guard_is_clamped(self):
        """At this offset the acos argument is exactly 1 + ACOS_ROUNDING_GUARD
        (1.000000000001), which is clamped to 1; a hair further is refused."""
        src = SourceModel(distance_mm=10.0, radius_mm=0.0)
        assert closed_form_complement_angle(2.2823405429405845, step(40.0), src, sign=-1) == 0.0
        with pytest.raises(DomainError, match=r"^acos argument 1\.0000000000010025 outside"):
            closed_form_complement_angle(2.2823405429406, step(40.0), src, sign=-1)


class TestSidewallThickness:
    def test_calibration_point(self):
        assert sidewall_thickness(0.0, 25.0) == 25.0

    def test_forty_degrees(self):
        expected = 25.0 * math.cos(math.radians(40.0)) ** 2
        got = sidewall_thickness(math.radians(40.0), 25.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(14.670, abs=1e-3)

    def test_sixty_degrees_quarter(self):
        got = sidewall_thickness(math.radians(60.0), 25.0)
        assert got == pytest.approx(6.25, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=math.pi / 2 - 1e-6))
    @settings(max_examples=100)
    def test_strictly_decreasing(self, theta):
        t0 = 25.0
        assert sidewall_thickness(theta, t0) < sidewall_thickness(theta * 0.99, t0)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(ValidationError):
            sidewall_thickness(math.pi / 2, 25.0)
        with pytest.raises(ValidationError):
            sidewall_thickness(-0.1, 25.0)
        with pytest.raises(ValidationError):
            sidewall_thickness(math.nan, 25.0)


class TestBottomWidth:
    def test_center_branch(self):
        theta = math.radians(40.0)
        got = bottom_width(JunctionSpec(200.0, 200.0), MASK, theta, 0.0, SOURCE)
        expected = 200.0 + (1e6 + 200.0) * 500.0 / (
            6.5e8 * math.cos(theta) - 500.0
        )
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(201.004, abs=5e-4)

    def test_general_branch(self):
        theta = math.radians(40.0)
        got = bottom_width(JunctionSpec(200.0, 200.0), MASK, theta, 35.0, SOURCE)
        expected = 200.0 + (3.5e7 + 1e6 + 100.0) * 600.0 / (
            6.5e8 * math.cos(theta) - 100.0
        )
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(243.38, abs=5e-3)

    def test_zero_broadening_limit(self):
        # Point source, vanishing bottom layer, center site: drawn width
        # prints unchanged.
        got = bottom_width_formula(
            drawn=200.0,
            offset=0.0,
            source_radius=0.0,
            throw=6.5e8,
            mask_top=100.0,
            mask_bottom=0.0,
            theta_rad=0.3,
            center_branch=True,
        )
        assert got == 200.0

    def test_uses_absolute_offset(self):
        theta = math.radians(40.0)
        j = JunctionSpec(200.0, 200.0)
        assert bottom_width(j, MASK, theta, 20.0, SOURCE) == bottom_width(
            j, MASK, theta, -20.0, SOURCE
        )

    def test_monotone_in_offset_within_general_branch(self):
        j = JunctionSpec(200.0, 200.0)
        theta = math.radians(40.0)
        widths = [bottom_width(j, MASK, theta, x, SOURCE) for x in range(1, 36)]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_denominator_collapse(self):
        shallow = SourceModel(distance_mm=4e-4, radius_mm=0.0, kind=SourceKind.POINT)
        with pytest.raises(DenominatorCollapse):
            bottom_width(JunctionSpec(200.0, 200.0), MASK, 0.0, 0.0, shallow)
        # A 500 nm throw at tilt 0 over the 500 nm layer: D cos t - h is exactly 0.
        with pytest.raises(DenominatorCollapse):
            checked_bottom(0.0, 0.0, 500.0, 100.0, 500.0, 0.0, True)


class TestTopWidth:
    def test_center_branch(self):
        got = top_width(
            JunctionSpec(200.0, 200.0), MASK, 0.0, 14.67, 0.0, SOURCE
        )
        expected = 200.0 - 14.67 - (0.0 + 2e6 + 200.0) * 500.0 / (6.5e8 - 500.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(183.79, abs=5e-3)

    def test_general_branch(self):
        theta = math.radians(3.082)
        got = top_width(
            JunctionSpec(200.0, 200.0), MASK, theta, 13.30, 35.0, SOURCE
        )
        expected = 200.0 - 13.30 - 100.0 * (
            6.5e8 * math.sin(theta) - 1e6 - 100.0
        ) / (6.5e8 * math.cos(theta) - 13.30 - 100.0 - 500.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(181.47, abs=5e-3)

    def test_no_loss_limit(self):
        got = printed_width(
            200.0,
            checked_top(
                sidewall=0.0,
                radius=0.0,
                throw=6.5e8,
                mask_top=0.0,
                mask_bottom=0.0,
                theta=0.0,
                center=True,
            ),
        )
        assert got == 200.0

    def test_monotone_in_offset_within_general_branch(self):
        j = JunctionSpec(200.0, 200.0)
        widths = []
        for y in range(1, 36):
            theta = math.atan(y / 650.0)
            widths.append(top_width(j, MASK, theta, 14.67, float(y), SOURCE))
        assert all(b <= a for a, b in zip(widths, widths[1:]))

    def test_aperture_closed_raises(self):
        with pytest.raises(NonPhysicalWidth):
            top_width(JunctionSpec(200.0, 20.0), MASK, 0.0, 24.0, 0.0, SOURCE)

    def test_denominator_collapse(self):
        shallow = SourceModel(distance_mm=6e-4, radius_mm=0.0, kind=SourceKind.POINT)
        with pytest.raises(DenominatorCollapse):
            top_width(JunctionSpec(200.0, 200.0), MASK, 0.0, 10.0, 5.0, shallow)


class TestWidthTerms:
    @pytest.mark.parametrize(
        "terms",
        [
            checked_bottom(0.0, 1e6, 6.5e8, 100.0, 500.0, 0.7, True),
            checked_bottom(3.5e7, 1e6, 6.5e8, 100.0, 500.0, 0.7, False),
            checked_top(14.67, 1e6, 6.5e8, 100.0, 500.0, 0.0, True),
            checked_top(13.3, 1e6, 6.5e8, 100.0, 500.0, 0.054, False),
        ],
    )
    def test_drawn_width_inverts_printed_width(self, terms):
        assert inverse_slope(terms) > 0.0
        for drawn in (50.0, 200.0, 900.0):
            assert inverse_width(printed_width(drawn, terms), terms) == pytest.approx(
                drawn, rel=1e-12
            )

    def test_nan_drawn_width_is_not_physical(self):
        # A NaN compares false with 0; its text names a NaN as the cause,
        # not a closed aperture.
        nan_text = r"^printed width nan \(the drawn width or a term is NaN\)$"
        with pytest.raises(NonPhysicalWidth, match=nan_text):
            printed_width(math.nan, checked_top(14.67, 1e6, 6.5e8, 100.0, 500.0, 0.0, True))
        with pytest.raises(NonPhysicalWidth, match=nan_text):
            bottom_width_formula(math.nan, 0.0, 1e6, 6.5e8, 100.0, 500.0, 0.7, True)
        terms = checked_top(14.67, 1e6, 6.5e8, 100.0, 500.0, 0.0, True)
        with pytest.raises(NonPhysicalWidth, match=nan_text):
            printed_width(200.0, (math.nan, *terms[1:]))
        with pytest.raises(NonPhysicalWidth, match=r"^printed width -\S+ <= 0 \(aperture closed"):
            printed_width(-1.0e3, terms)

    def test_builders_are_elementwise(self):
        # Arrays with a bool `center` give each element its scalar terms.
        offset = np.array([0.0, 3.5e7, -2e7])
        sin_t, cos_t = np.sin([0.7, 0.054, 0.3]), np.cos([0.7, 0.054, 0.3])
        center = np.array([True, False, False])
        sidewall = np.array([14.67, 13.3, 20.0])
        arrays = (
            bottom_terms(offset, 1e6, 6.5e8, 100.0, 500.0, cos_t, center),
            top_terms(sidewall, 1e6, 6.5e8, 100.0, 500.0, sin_t, cos_t, center),
        )
        for i in range(3):
            scalars = (
                bottom_terms(offset[i], 1e6, 6.5e8, 100.0, 500.0, cos_t[i], center[i]),
                top_terms(sidewall[i], 1e6, 6.5e8, 100.0, 500.0, sin_t[i], cos_t[i], center[i]),
            )
            for array, scalar in zip(arrays, scalars):
                assert [t[i] for t in array] == list(scalar)

    @pytest.mark.parametrize(
        "top, offset_mm, text",
        [
            (False, 0.0, "throw D cos(theta) does not clear the bottom mask layer"),
            (False, 5.0, "throw D cos(theta) does not clear the top mask layer"),
            (True, 0.0, "throw D does not clear the bottom mask layer"),
            (True, 5.0, "throw D cos(theta) does not clear the film-coated mask"),
        ],
    )
    def test_denominator_collapse_texts(self, top, offset_mm, text):
        # A 50 nm throw clears neither mask layer: each electrode's center
        # (offset 0) and general branch names the mask it fails to clear.
        shallow = SourceModel(distance_mm=5e-5, radius_mm=0.0, kind=SourceKind.POINT)
        j = JunctionSpec(200.0, 200.0)
        with pytest.raises(DenominatorCollapse) as caught:
            if top:
                top_width(j, MASK, 0.0, 10.0, offset_mm, shallow)
            else:
                bottom_width(j, MASK, 0.0, offset_mm, shallow)
        assert str(caught.value) == text


class TestOverlapArea:
    def test_nominal_square_pairing(self):
        w = math.sqrt(0.025e6)
        assert overlap_area(w, w) == pytest.approx(0.025, rel=1e-12)

    def test_larger_area_class_square(self):
        assert overlap_area(300.0, 300.0) == pytest.approx(0.090, rel=1e-12)

    def test_width_example_product(self):
        assert overlap_area(201.0, 183.8) == pytest.approx(0.03694, abs=5e-6)

    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1.0, max_value=1e4),
    )
    @settings(max_examples=50)
    def test_symmetric(self, a, b):
        assert overlap_area(a, b) == overlap_area(b, a)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            overlap_area(0.0, 100.0)
        with pytest.raises(ValidationError):
            overlap_area(math.nan, 100.0)


class TestPointSourceLimit:
    def test_point_kind_equals_zero_radius_bit_for_bit(self):
        point = SourceModel(distance_mm=650.0, radius_mm=5.0, kind=SourceKind.POINT)
        zero = SourceModel(distance_mm=650.0, radius_mm=0.0, kind=SourceKind.DISK)
        j = JunctionSpec(200.0, 200.0)
        theta = math.radians(40.0)
        for x in (0.0, 7.0, 35.0):
            assert bottom_width(j, MASK, theta, x, point) == bottom_width(
                j, MASK, theta, x, zero
            )
        for y in (0.0, 7.0, 35.0):
            assert top_width(j, MASK, 0.05, 14.0, y, point) == top_width(
                j, MASK, 0.05, 14.0, y, zero
            )


class TestUnitSafety:
    @given(
        st.floats(min_value=50.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=3.5e7),
        st.floats(min_value=0.0, max_value=2e6),
        st.floats(min_value=0.0, max_value=1.3),
    )
    @settings(max_examples=100)
    def test_bottom_formula_scale_invariant(self, drawn, offset, radius, theta):
        # Same lengths in nm vs mm: results agree to 1e-9 relative.
        nm = bottom_width_formula(
            drawn, offset, radius, 6.5e8, 100.0, 500.0, theta, offset == 0.0
        )
        s = 1e-6
        mm = bottom_width_formula(
            drawn * s, offset * s, radius * s, 650.0, 100.0 * s, 500.0 * s,
            theta, offset == 0.0,
        )
        assert mm / s == pytest.approx(nm, rel=1e-9)

    @given(
        st.floats(min_value=100.0, max_value=1000.0),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=2e6),
        st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=100)
    def test_top_formula_scale_invariant(self, drawn, sidewall, radius, theta):
        nm = printed_width(
            drawn, checked_top(sidewall, radius, 6.5e8, 100.0, 500.0, theta, False)
        )
        s = 1e-6
        mm = printed_width(
            drawn * s,
            checked_top(sidewall * s, radius * s, 650.0, 100.0 * s, 500.0 * s, theta, False),
        )
        assert mm / s == pytest.approx(nm, rel=1e-9)


class TestDomainTypes:
    def test_source_invariants(self):
        with pytest.raises(ValidationError):
            SourceModel(distance_mm=0.0)
        with pytest.raises(ValidationError):
            SourceModel(distance_mm=650.0, radius_mm=-1.0)
        with pytest.raises(ValidationError):
            SourceModel(distance_mm=10.0, radius_mm=10.0)

    def test_step_invariants(self):
        with pytest.raises(ValidationError):
            EvaporationStep(tilt_deg=90.0, shadow_axis=ShadowAxis.ALONG_X)
        with pytest.raises(ValidationError):
            EvaporationStep(tilt_deg=-1.0, shadow_axis=ShadowAxis.ALONG_X)
        with pytest.raises(ValidationError):
            EvaporationStep(
                tilt_deg=40.0, shadow_axis=ShadowAxis.ALONG_X, film_t0_nm=0.0
            )

    def test_mask_and_junction_invariants(self):
        with pytest.raises(ValidationError):
            MaskStack(top_nm=0.0)
        with pytest.raises(ValidationError):
            MaskStack(bottom_nm=-5.0)
        with pytest.raises(ValidationError):
            JunctionSpec(drawn_bottom_nm=0.0)

    def test_point_source_effective_radius(self):
        src = SourceModel(distance_mm=650.0, radius_mm=3.0, kind=SourceKind.POINT)
        assert src.effective_radius_mm == 0.0

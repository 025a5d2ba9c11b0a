"""Wafer sweeps, bias profiles and the compensation inverse."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import site_table
from shadowevap.errors import (
    AxisMismatch,
    DenominatorCollapse,
    EmptyInput,
    NonPhysicalWidth,
    ShadowEvapError,
    ValidationError,
)
from shadowevap import geometry, wafer
from shadowevap.config import default_config, load_config
from shadowevap.geometry import (
    JunctionSpec,
    WaferSite,
)
from shadowevap.table import Table, column
from shadowevap.wafer import (
    MAX_GRID_SITES,
    Axis,
    BiasModel,
    CenterWidthsTarget,
    CorrectionRow,
    Electrode,
    ExplicitAreaTarget,
    SiteResult,
    WaferLayout,
    bias_profile,
    branch_discontinuity_nm,
    center_reference_widths,
    compensate_wafer,
    residual_report,
    resimulate_with_corrections,
    simulate_wafer,
)


#: SiteResult's fields: x_mm first.
SITE_FIELDS = list(SiteResult._fields)


def single_site_config(config):
    return replace(config, layout=replace(config.layout, working_span_mm=1.0))


class TestWaferLayout:
    def test_default_grid_is_15_by_15(self, config):
        sites = config.layout.generate_sites()
        assert len(sites) == 225
        xs = sorted({s.x_mm for s in sites})
        assert xs[0] == -35.0 and xs[-1] == 35.0 and len(xs) == 15
        assert WaferSite(0.0, 0.0) in sites

    def test_ordering_row_major(self, config):
        sites = config.layout.generate_sites()
        keys = [(s.y_mm, s.x_mm) for s in sites]
        assert keys == sorted(keys)

    def test_pitch_not_dividing_span_stays_inside(self):
        layout = WaferLayout(working_span_mm=70.0, grid_pitch_mm=4.0)
        sites = layout.generate_sites()
        assert max(abs(s.x_mm) for s in sites) == 32.0
        assert any(s.x_mm == 0.0 and s.y_mm == 0.0 for s in sites)

    def test_explicit_site_list(self):
        layout = WaferLayout(sites=site_table([(5.0, -5.0), (-5.0, -5.0)], ["c2", "c1"]))
        sites = layout.generate_sites()
        assert [s.chip_id for s in sites] == ["c1", "c2"]

    def test_site_outside_wafer_rejected(self):
        layout = WaferLayout(sites=site_table([(49.0, 49.0)]))
        with pytest.raises(ValidationError):
            layout.generate_sites()

    def test_grid_site_cap(self):
        # 999 x 999 offsets lie within the cap, 1001 x 1001 do not.
        assert MAX_GRID_SITES == 1_000_000
        assert len(WaferLayout(working_span_mm=999.0, grid_pitch_mm=1.0).grid_offsets()) == 999
        with pytest.raises(ValidationError, match=r"grid of 1\.002e\+06 sites, more than"):
            WaferLayout(working_span_mm=1000.0, grid_pitch_mm=1.0).grid_offsets()

    @pytest.mark.parametrize("x, on", [(50 + 5e-10, True), (50 + 2e-9, False)])
    def test_rim_tolerance(self, x, on):
        """A site up to 1e-9 mm beyond the rim of the 100 mm wafer is on it."""
        layout = WaferLayout(sites=site_table([(x, 0.0)]))
        if on:
            assert [(s.x_mm, s.y_mm) for s in layout.generate_sites()] == [(x, 0.0)]
        else:
            with pytest.raises(ValidationError, match=r"lies outside the wafer$"):
                layout.generate_sites()

    def test_explicit_sites_ignore_the_grid_cap(self):
        layout = WaferLayout(grid_pitch_mm=1e-4, sites=site_table([(1.0, 2.0)]))
        assert [(s.x_mm, s.y_mm) for s in layout.generate_sites()] == [(1.0, 2.0)]

    @pytest.mark.parametrize(
        "sites",
        [
            (WaferSite(1.0, 2.0),),
            [WaferSite(1.0, 2.0)],
            (),
            site_table([]),
            Table(WaferSite, x_mm=np.array([1]), y_mm=np.array([2.0]),
                  chip_id=np.array([None]), site_id=np.array([None])),
        ],
        ids=["tuple", "list", "empty tuple", "empty table", "int coordinates"],
    )
    def test_sites_are_a_non_empty_table_of_float_sites(self, config, sites):
        """A site list has one form. Before, a tuple of WaferSite was
        the form, and an empty one reached the sweep, which raised a bare
        ValueError."""
        with pytest.raises(ValidationError, match="non-empty Table of WaferSite"):
            replace(config, layout=replace(config.layout, sites=sites))


class TestProcessConfig:
    @pytest.mark.parametrize("eps", [-0.5, math.nan])
    def test_center_band_must_be_non_negative(self, config, eps):
        """A NaN band is refused too. Before, it put every site, the
        center included, in the general branch (center widths 201.205
        and 185.483 nm, not 201.004 and 183.791), and
        branch_discontinuity_nm raised `theta must be in [0, 90 deg)`."""
        with pytest.raises(ValidationError, match=r"^epsilon_center_mm must be >= 0$"):
            replace(config, epsilon_center_mm=eps)

    def test_infinite_center_band_is_refused(self, config):
        """Before, it was taken, and branch_discontinuity_nm raised
        GrazingIncidence at site (inf, 0.0) mm, naming neither the key
        nor a real site."""
        with pytest.raises(ValidationError, match=r"^epsilon_center_mm must be finite, got inf$"):
            replace(config, epsilon_center_mm=math.inf)


class TestSimulateWafer:
    def test_center_site_has_zero_bias(self, config):
        for model in BiasModel:
            results = simulate_wafer(single_site_config(config), model)
            assert len(results) == 1
            r = results[0]
            assert r.bias_bottom_nm == 0.0 and r.bias_top_nm == 0.0
            assert r.theta_bottom_rad == pytest.approx(
                math.radians(40.0), abs=1e-12
            )
            assert r.theta_top_rad == 0.0

    def test_center_widths_match_hand_values(self, config):
        w_b, w_t = center_reference_widths(config)
        cos40 = math.cos(math.radians(40.0))
        assert w_b == pytest.approx(
            200.0 + (1e6 + 200.0) * 500.0 / (6.5e8 * cos40 - 500.0), rel=1e-12
        )
        t_prime = 25.0 * cos40**2
        assert w_t == pytest.approx(
            200.0 - t_prime - (2e6 + 200.0) * 500.0 / (6.5e8 - 500.0), rel=1e-12
        )

    def test_area_field_consistency(self, config):
        for r in simulate_wafer(config):
            assert r.area_um2 == r.w_bottom_nm * r.w_top_nm / 1e6

    def test_bias_reference_consistency(self, config):
        results = simulate_wafer(config)
        w_b0, w_t0 = center_reference_widths(config)
        for r in results:
            assert r.bias_bottom_nm == r.w_bottom_nm - w_b0
            assert r.bias_top_nm == r.w_top_nm - w_t0

    def test_default_map_span_and_cv(self, config):
        results = simulate_wafer(config)
        areas = [r.area_um2 for r in results]
        assert min(areas) == pytest.approx(0.0362, abs=3e-4)
        assert max(areas) == pytest.approx(0.0450, abs=8e-4)
        # Largest areas sit at the working-area edge along x, where the
        # bottom electrode broadens the most.
        amax = max(results, key=lambda r: r.area_um2)
        assert abs(amax.x_mm) == 35.0
        summary = residual_report(results)
        assert 0.05 <= summary.cv <= 0.10

    def test_model_constant_is_flat(self, config):
        results = simulate_wafer(config, BiasModel.CONSTANT)
        w_b0, w_t0 = center_reference_widths(config)
        assert all(r.w_bottom_nm == w_b0 and r.w_top_nm == w_t0 for r in results)
        assert all(r.bias_bottom_nm == 0.0 and r.bias_top_nm == 0.0 for r in results)

    def test_point_source_model_nests_in_non_point(self, config):
        zero_radius = replace(config, source=replace(config.source, radius_mm=0.0))
        got_ii = simulate_wafer(config, BiasModel.POINT_SOURCE)
        got_iii = simulate_wafer(zero_radius, BiasModel.NON_POINT)
        assert len(got_ii) == len(got_iii)
        for a, b in zip(got_ii, got_iii):
            assert (a.w_bottom_nm, a.w_top_nm, a.area_um2) == (
                b.w_bottom_nm,
                b.w_top_nm,
                b.area_um2,
            )

    def test_determinism(self, config):
        assert simulate_wafer(config) == simulate_wafer(config)

    def test_geometry_errors_carry_the_offending_site(self, config):
        # Throw short enough that edge sites collapse the denominator
        # while the center still evaluates.
        shallow = replace(
            config,
            source=replace(config.source, distance_mm=1.2e-3, radius_mm=1e-5),
        )
        with pytest.raises(DenominatorCollapse, match=r"site \(-35"):
            simulate_wafer(shallow)

    def test_grid_refinement_pointwise(self, config):
        coarse = {
            (r.x_mm, r.y_mm): r.area_um2 for r in simulate_wafer(config)
        }
        fine_cfg = replace(config, layout=replace(config.layout, grid_pitch_mm=2.5))
        fine = {
            (r.x_mm, r.y_mm): r.area_um2
            for r in simulate_wafer(fine_cfg)
        }
        for key, area in coarse.items():
            assert fine[key] == area


@st.composite
def stacks(draw):
    """A default stack with the throw, source radius, both mask layers,
    both steps' tilts, tilt signs and films and the grid pitch drawn.
    The top tilt stays below 10 deg, where most draws leave the top
    aperture open."""
    config = default_config()
    angle = dict(allow_nan=False, exclude_max=True)
    return replace(
        config,
        layout=replace(config.layout, grid_pitch_mm=draw(st.sampled_from([5.0, 7.0, 10.0]))),
        source=replace(
            config.source,
            distance_mm=draw(st.floats(200.0, 2000.0)),
            radius_mm=draw(st.floats(0.0, 5.0)),
        ),
        mask=geometry.MaskStack(
            top_nm=draw(st.floats(50.0, 300.0)), bottom_nm=draw(st.floats(200.0, 1000.0))
        ),
        bottom_step=replace(
            config.bottom_step,
            tilt_deg=draw(st.floats(0.0, 85.0, **angle)),
            film_t0_nm=draw(st.floats(1.0, 100.0)),
            tilt_sign=draw(st.sampled_from(geometry.TiltSign)),
        ),
        top_step=replace(
            config.top_step,
            tilt_deg=draw(st.floats(0.0, 10.0, **angle)),
            film_t0_nm=draw(st.floats(1.0, 100.0)),
            tilt_sign=draw(st.sampled_from(geometry.TiltSign)),
        ),
    )


def bits(table, name):
    return column(table, name).tobytes()


def on_valid_stacks(check):
    """check(config, its simulated map) on 80 drawn stacks. A stack whose
    sweep raises (a closed aperture, say) is skipped; at least 50 must
    be valid."""
    counts = {"accepted": 0, "skipped": 0}

    @settings(max_examples=80, deadline=None)
    @given(stacks())
    def run(config):
        try:
            results = simulate_wafer(config)
        except ShadowEvapError:
            counts["skipped"] += 1
            return
        counts["accepted"] += 1
        check(config, results)

    run()
    assert counts["accepted"] >= 50, counts


def outcome(config, model):
    """Every field's bits of the model's map, or the error it raises."""
    try:
        results = simulate_wafer(config, model)
    except ShadowEvapError as exc:
        return repr(exc)
    return [bits(results, name) for name in SITE_FIELDS]


class TestPaperInvariants:
    """The paper's invariants, over drawn stacks."""

    def test_tilt_sign_mirrors_and_model_i_is_flat(self):
        def check(config, results):
            plus, minus = geometry.TiltSign
            flip = plus if config.bottom_step.tilt_sign is minus else minus
            mirrored = simulate_wafer(
                replace(config, bottom_step=replace(config.bottom_step, tilt_sign=flip))
            )
            # Row-major order with x descending in each row is the mirror.
            x, y = column(results, "x_mm"), column(results, "y_mm")
            order = np.lexsort((-x, y))
            assert np.array_equal(-x[order], column(mirrored, "x_mm"))
            for name in SITE_FIELDS[1:]:
                assert column(results, name)[order].tobytes() == bits(mirrored, name), name
            flat = simulate_wafer(config, BiasModel.CONSTANT)
            zeros = np.zeros(len(flat)).tobytes()
            assert bits(flat, "bias_bottom_nm") == bits(flat, "bias_top_nm") == zeros

        on_valid_stacks(check)

    def test_round_trip_residual_cv(self):
        """Compensate, then resimulate: the residual area CV is rounding
        error, below 1e-12 % where no drawn width exceeds its printed
        target. Where shadowing nearly closes an aperture, the forward
        width cancels terms the size of the drawn width, so the rounding
        grows with drawn / printed: a 0.016 nm target printed from up to
        200 nm drawn gave 4.9e-11 %. The bound scales with that ratio."""

        def check(config, results):
            table = compensate_wafer(config)
            resim = resimulate_with_corrections(config, table.rows)
            ratio = max(
                1.0,
                column(table.rows, "drawn_w_bottom_nm").max() / table.target_w_bottom_nm,
                column(table.rows, "drawn_w_top_nm").max() / table.target_w_top_nm,
            )
            assert residual_report(resim).cv_percent < 1e-12 * ratio

        on_valid_stacks(check)

    def test_model_ii_is_model_iii_without_radius(self):
        # README: "II is exactly III with the radius forced to zero".
        def check(config, results):
            point = replace(config, source=replace(config.source, radius_mm=0.0))
            assert outcome(config, BiasModel.POINT_SOURCE) == outcome(point, BiasModel.NON_POINT)

        on_valid_stacks(check)


def assert_center_width_is_the_reference(config, model):
    """Both electrodes' profiles under `model` give, by repr, the center
    widths of `center_reference_widths`."""
    w_b, w_t = center_reference_widths(config, model)
    for electrode, axis, width in ((Electrode.BOTTOM, Axis.X, w_b), (Electrode.TOP, Axis.Y, w_t)):
        assert repr(bias_profile(config, axis, electrode, model).center_width_nm) == repr(width)


class TestBiasProfile:
    def test_constant_model_all_zero(self, config):
        prof = bias_profile(config, Axis.X, Electrode.BOTTOM, BiasModel.CONSTANT)
        assert all(b == 0.0 for _, b in prof.points)

    def test_zero_at_center_for_every_model(self, config):
        for model in BiasModel:
            for electrode, axis in (
                (Electrode.BOTTOM, Axis.X),
                (Electrode.TOP, Axis.Y),
            ):
                prof = bias_profile(config, axis, electrode, model)
                center = dict(prof.points)[0.0]
                assert center == 0.0

    def test_non_point_center_width_exceeds_point_by_penumbra(self, config):
        # The finite source widens the center bottom electrode by
        # c * h / (D cos(tilt) - h) relative to the point model.
        p3 = bias_profile(config, Axis.X, Electrode.BOTTOM, BiasModel.NON_POINT)
        p2 = bias_profile(config, Axis.X, Electrode.BOTTOM, BiasModel.POINT_SOURCE)
        expected = 1e6 * 500.0 / (6.5e8 * math.cos(math.radians(40.0)) - 500.0)
        assert p3.center_width_nm - p2.center_width_nm == pytest.approx(
            expected, rel=1e-12
        )
        assert p3.center_width_nm - p2.center_width_nm == pytest.approx(
            1.004, abs=2e-3
        )

    def test_edge_bias_magnitude(self, config):
        prof = bias_profile(config, Axis.X, Electrode.BOTTOM, BiasModel.NON_POINT)
        by_offset = dict(prof.points)
        assert 39.0 <= max(by_offset[35.0], by_offset[-35.0]) <= 46.0

    def test_profile_grows_away_from_center(self, config):
        for model in (BiasModel.POINT_SOURCE, BiasModel.NON_POINT):
            prof = bias_profile(config, Axis.X, Electrode.BOTTOM, model)
            by_offset = dict(prof.points)
            offs = sorted(o for o in by_offset if o > 0)
            biases = [by_offset[o] for o in offs]
            assert all(b >= a for a, b in zip(biases, biases[1:]))
            assert biases[-1] > 10.0

    def test_point_and_non_point_profiles_separate(self, config):
        p3 = dict(
            bias_profile(config, Axis.X, Electrode.BOTTOM, BiasModel.NON_POINT).points
        )
        p2 = dict(
            bias_profile(
                config, Axis.X, Electrode.BOTTOM, BiasModel.POINT_SOURCE
            ).points
        )
        assert p3[35.0] != p2[35.0]

    def test_int_pitch_gives_float_offsets(self, config):
        """A library caller's int pitch gives the float pitch's points."""
        for electrode, axis in ((Electrode.BOTTOM, Axis.X), (Electrode.TOP, Axis.Y)):
            profiles = [
                bias_profile(replace(config, layout=replace(config.layout, grid_pitch_mm=pitch)),
                             axis, electrode).points
                for pitch in (5, 5.0)
            ]
            assert profiles[0] == profiles[1]
            assert {type(v) for point in profiles[0] for v in point} == {float}

    @pytest.mark.parametrize("layout", ["default", "odd-pitch", "sites"])
    def test_center_width_is_the_center_reference(self, config, layout):
        """center_width_nm, read from the profile's own middle row, is by
        repr the model's `center_reference_widths`."""
        if layout == "odd-pitch":
            config = replace(config, layout=replace(config.layout, grid_pitch_mm=3.7))
        elif layout == "sites":
            sites = site_table([(-20.5, 3.0), (7.25, -11.0), (0.0, 30.0)])
            config = replace(config, layout=replace(config.layout, sites=sites))
        for model in BiasModel:
            assert_center_width_is_the_reference(config, model)

    def test_center_width_is_the_center_reference_on_drawn_stacks(self):
        counts = {"accepted": 0, "skipped": 0}

        @settings(max_examples=60, deadline=None)
        @given(stacks(), st.sampled_from(BiasModel))
        def run(config, model):
            try:
                assert_center_width_is_the_reference(config, model)
            except ShadowEvapError:
                counts["skipped"] += 1
                return
            counts["accepted"] += 1

        run()
        assert counts["accepted"] >= 30, counts

    def test_axis_mismatch(self, config):
        with pytest.raises(AxisMismatch):
            bias_profile(config, Axis.Y, Electrode.BOTTOM)
        with pytest.raises(AxisMismatch):
            bias_profile(config, Axis.X, Electrode.TOP)

    @pytest.mark.parametrize("electrode, axis, site", [
        (Electrode.BOTTOM, Axis.X, "(-100.0, 0.0)"),
        (Electrode.TOP, Axis.Y, "(0.0, -100.0)"),
    ])
    def test_points_off_the_wafer_are_refused(self, config, electrode, axis, site):
        """Refused as every other sweep refuses them; before, a 200 mm
        span gave biases out to 100 mm on a 100 mm wafer."""
        wide = replace(config, layout=replace(config.layout, working_span_mm=200.0))
        with pytest.raises(ValidationError) as caught:
            bias_profile(wide, axis, electrode)
        assert str(caught.value) == f"site {site} mm lies outside the wafer"


def one_site(config, x, y):
    """The config with its layout cut to the one explicit site (x, y)."""
    return replace(config, layout=replace(config.layout, sites=site_table([(x, y)])))


def printed(target_b, target_t):
    """The target whose printed widths are (target_b, target_t) nm."""
    return ExplicitAreaTarget(target_b * target_t / 1e6, target_b / target_t)


class TestCompensateSite:
    """`compensate_wafer` on a layout of one explicit site."""

    def test_center_fixed_point(self, config):
        row = compensate_wafer(one_site(config, 0, 0)).rows[0]
        assert row.drawn_w_bottom_nm == pytest.approx(200.0, rel=1e-12)
        assert row.drawn_w_top_nm == pytest.approx(200.0, rel=1e-12)

    def test_edge_site_round_trip(self, config):
        w_b0, w_t0 = center_reference_widths(config)
        site_config = one_site(config, 35.0, 0.0)
        row = compensate_wafer(site_config, CenterWidthsTarget()).rows[0]
        assert 150.0 <= row.drawn_w_bottom_nm <= 165.0
        corrected = replace(
            site_config,
            junction=JunctionSpec(
                drawn_bottom_nm=row.drawn_w_bottom_nm, drawn_top_nm=row.drawn_w_top_nm
            ),
        )
        r = simulate_wafer(corrected)[0]
        assert r.w_bottom_nm == pytest.approx(w_b0, rel=1e-9)
        assert r.w_top_nm == pytest.approx(w_t0, rel=1e-9)

    def unreachable(self, config, x, target_b, target_t):
        table = compensate_wafer(one_site(config, x, 0.0), printed(target_b, target_t))
        assert len(table.rows) == 0
        [(site, reason)] = table.rejections
        assert site == WaferSite(x, 0.0)
        assert "outside (0, 5000.0] nm" in reason

    def test_unreachable_small_target(self, config):
        self.unreachable(config, 35.0, 1.0, 180.0)

    def test_unreachable_large_target(self, config):
        self.unreachable(config, 0.0, 200.0, 6000.0)

    def test_bottom_reason_comes_first(self, config):
        # Neither electrode is reachable; the bottom one is reported.
        table = compensate_wafer(one_site(config, 0.0, 0.0), printed(1.0, 6000.0))
        [(_, reason)] = table.rejections
        assert reason == (
            "site (0.0, 0.0) mm: required drawn bottom width -0.004 nm outside (0, 5000.0] nm"
        )

    def test_drawn_width_at_the_cap_is_reachable(self, config):
        """Drawn widths of exactly DEFAULT_MAX_DRAWN_NM print the center
        widths at the center, so the center target asks for them there."""
        site_config = replace(one_site(config, 0.0, 0.0), junction=JunctionSpec(5000.0, 5000.0))
        table = compensate_wafer(site_config, CenterWidthsTarget())
        assert table.rejections == ()
        [row] = table.rows
        assert (row.drawn_w_bottom_nm, row.drawn_w_top_nm) == (5000.0, 5000.0)

    def test_rejects_non_positive_targets(self, config):
        with pytest.raises(ValidationError):
            compensate_wafer(one_site(config, 0, 0), printed(-5.0, 100.0))

    def test_degenerate_slope_is_unreachable(self, config):
        # Throw below twice the bottom layer: the top center branch
        # narrows faster than the drawn width grows. At exactly twice
        # (0.001 mm over 500 nm) its slope is exactly 0, still refused.
        for throw_mm in (0.0009, 0.001):
            site_config = replace(
                one_site(config, 0.0, 0.0),
                source=geometry.SourceModel(throw_mm, 0.0, geometry.SourceKind.POINT),
                bottom_step=replace(config.bottom_step, tilt_deg=0.0),
            )
            table = compensate_wafer(site_config, ExplicitAreaTarget(0.04))
            assert len(table.rows) == 0
            [(site, reason)] = table.rejections
            assert site == WaferSite(0.0, 0.0)
            assert reason == (
                "site (0.0, 0.0) mm: printed width does not grow with the drawn width"
            )

    def test_top_denominator_of_exactly_zero_collapses(self, config):
        # A 500 nm throw over the 500 nm bottom layer: the top center
        # branch's denominator D - h is exactly 0. The site sits just off
        # the bottom's center band, whose denominator is also 0.
        site_config = replace(
            one_site(config, 1.0e-7, 0.0),
            source=geometry.SourceModel(0.0005, 0.0, geometry.SourceKind.POINT),
            epsilon_center_mm=0.0,
            bottom_step=replace(config.bottom_step, tilt_deg=0.0),
        )
        with pytest.raises(DenominatorCollapse) as caught:
            compensate_wafer(site_config, ExplicitAreaTarget(0.04))
        assert str(caught.value) == (
            "site (1e-07, 0.0) mm: throw D does not clear the bottom mask layer"
        )

    @given(
        st.floats(min_value=-35.0, max_value=35.0),
        st.floats(min_value=-35.0, max_value=35.0),
        st.floats(min_value=120.0, max_value=600.0),
        st.floats(min_value=120.0, max_value=600.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, x, y, target_b, target_t):
        site_config = one_site(default_config(), x, y)
        table = compensate_wafer(site_config, printed(target_b, target_t))
        if table.rejections:
            return
        row = table.rows[0]
        corrected = replace(
            site_config,
            junction=JunctionSpec(
                drawn_bottom_nm=row.drawn_w_bottom_nm, drawn_top_nm=row.drawn_w_top_nm
            ),
        )
        r = simulate_wafer(corrected)[0]
        assert r.w_bottom_nm == pytest.approx(target_b, rel=1e-9)
        assert r.w_top_nm == pytest.approx(target_t, rel=1e-9)


class TestCompensateWafer:
    def test_single_site_table(self, config):
        table = compensate_wafer(single_site_config(config))
        assert len(table.rows) == 1 and not table.rejections
        row = table.rows[0]
        assert row.drawn_w_bottom_nm == pytest.approx(200.0, rel=1e-12)
        assert abs(row.residual_area_rel) < 1e-12

    def test_round_trip_flattens_the_map(self, config):
        table = compensate_wafer(config, CenterWidthsTarget())
        assert len(table.rows) == 225 and not table.rejections
        assert all(abs(r.residual_area_rel) <= 1e-9 for r in table.rows)
        resim = resimulate_with_corrections(config, table.rows)
        assert residual_report(resim).cv < 0.0005

    @pytest.mark.parametrize("pitch_mm", [5.0, 1.0])
    def test_round_trip_residual_cv_below_1e_12_percent(self, config, pitch_mm):
        """Compensate, then resimulate: the inverse is closed form, so the
        area CV left is rounding error (1.5e-14 % and 2.6e-14 % measured)."""
        config = replace(config, layout=replace(config.layout, grid_pitch_mm=pitch_mm))
        table = compensate_wafer(config, CenterWidthsTarget())
        assert not table.rejections
        resim = resimulate_with_corrections(config, table.rows)
        assert residual_report(resim).cv_percent < 1e-12

    def test_round_trip_residual_of_explicit_sites(self, tmp_path):
        """The same bound for 200 scattered sites read from a config."""
        rows = "".join(
            f"    - {{x_mm: {round(44 * math.cos(i) * i / 200, 4)!r}, "
            f"y_mm: {round(44 * math.sin(i) * i / 200, 4)!r}, site_id: s{i}}}\n"
            for i in range(200)
        )
        path = tmp_path / "process.yaml"
        path.write_text("wafer:\n  sites:\n" + rows)
        config, _ = load_config(path)
        table = compensate_wafer(config, CenterWidthsTarget())
        assert len(table.rows) == 200 and not table.rejections
        resim = resimulate_with_corrections(config, table.rows)
        assert residual_report(resim).cv_percent < 1e-12

    def test_explicit_area_target(self, config):
        table = compensate_wafer(config, ExplicitAreaTarget(area_um2=0.025))
        assert table.target_w_bottom_nm == pytest.approx(
            math.sqrt(0.025e6), rel=1e-12
        )
        resim = resimulate_with_corrections(config, table.rows)
        for r in resim:
            assert r.area_um2 == pytest.approx(0.025, rel=1e-9)

    def test_aspect_ratio_target(self, config):
        table = compensate_wafer(
            config, ExplicitAreaTarget(area_um2=0.025, aspect=4.0)
        )
        assert table.target_w_bottom_nm == pytest.approx(
            4.0 * table.target_w_top_nm, rel=1e-12
        )
        assert table.target_w_bottom_nm * table.target_w_top_nm == pytest.approx(
            0.025e6, rel=1e-12
        )

    def test_unreachable_sites_collected_not_fatal(self, config):
        table = compensate_wafer(config, ExplicitAreaTarget(area_um2=0.0016))
        assert table.rows and table.rejections
        assert all(abs(site.x_mm) == 35.0 for site, _ in table.rejections)

    def test_all_rejected_leaves_empty_rows(self, config):
        table = compensate_wafer(config, ExplicitAreaTarget(area_um2=1e-6))
        assert not table.rows
        assert len(table.rejections) == 225

    def test_one_angle_per_distinct_coordinate(self, config, monkeypatch):
        # The bottom angle depends on x alone and the top angle on y
        # alone: 15 + 15 evaluations serve the inverse and the
        # predicted-area forward at all 15 x 15 sites.
        angles = counted_angles(monkeypatch)
        table = compensate_wafer(config, ExplicitAreaTarget(area_um2=0.04))
        assert len(table.rows) == 225
        assert sum(angles) == 15 + 15

    def test_one_angle_per_distinct_explicit_coordinate(self, config, monkeypatch):
        # Scattered sites with repeated coordinates, -0.0 among them
        # (the same coordinate as 0.0): distinct x plus distinct y.
        xs = [-20.0, -0.0, 0.0, 3.5, 12.25, 3.5]
        ys = [9.5, -7.0, 0.0, 9.5, -0.0]
        points = [(x, y) for x in xs for y in ys]
        config = replace(config, layout=replace(config.layout, sites=site_table(points)))
        angles = counted_angles(monkeypatch)
        table = compensate_wafer(config, ExplicitAreaTarget(area_um2=0.04))
        assert len(table.rows) == len(points) == 30
        assert sum(angles) == len(set(xs)) + len(set(ys)) == 4 + 3


def counted_angles(monkeypatch):
    """The number of sites of each incidence-angle evaluation from now
    on: each call of `geometry.incidence_angles` (the sweeps' elementwise
    step) counts its sites, each scalar `local_incidence_angle` call one."""
    sites = []
    angles, angle = geometry.incidence_angles, geometry.local_incidence_angle

    def counted_elementwise(x_mm, y_mm, *args):
        sites.append(np.broadcast(x_mm, y_mm).size)
        return angles(x_mm, y_mm, *args)

    def counted_scalar(*args):
        sites.append(1)
        return angle(*args)

    monkeypatch.setattr(geometry, "incidence_angles", counted_elementwise)
    monkeypatch.setattr(geometry, "local_incidence_angle", counted_scalar)
    return sites


class TestResimulate:
    def test_rejects_non_positive_drawn_widths(self, config):
        rows = list(compensate_wafer(single_site_config(config)).rows)
        rows[0] = rows[0]._replace(drawn_w_top_nm=0.0)
        with pytest.raises(ValidationError, match="drawn"):
            resimulate_with_corrections(config, rows)

    @pytest.mark.parametrize(
        "drawn_t, rule", [(math.inf, "finite"), (-math.inf, "> 0"), (math.nan, "> 0")]
    )
    def test_rejects_non_finite_drawn_widths(self, config, drawn_t, rule):
        # An infinite top width would print as inf - inf at the center.
        row = CorrectionRow(0.0, 0.0, 200.0, drawn_t, 0.04, 0.0)
        with pytest.raises(ValidationError) as caught:
            resimulate_with_corrections(config, [row])
        assert str(caught.value) == f"site (0.0, 0.0) mm: drawn widths must be {rule}"


    def test_overflowing_area_names_the_site(self, config):
        row = CorrectionRow(0.0, 0.0, 1e200, 1e200, 0.04, 0.0)
        with pytest.raises(NonPhysicalWidth) as caught:
            resimulate_with_corrections(config, [row])
        assert str(caught.value) == (
            "site (0.0, 0.0) mm: printed widths "
            "(1.0000010041604617e+200, 9.99999230768639e+199) nm overflow"
        )


class TestChainBranches:
    """`wafer._chain`'s center-branch masks, from which `_check` reads a
    flagged site's branch: an offset within epsilon_center_mm of an
    electrode's axis takes its center branch."""

    EPS = 5.0
    #: Offsets at, just inside and just outside the band, and far off it.
    OFFSETS = [0.0, -0.0, 5.0, -5.0, math.nextafter(5.0, 6.0), math.nextafter(-5.0, 0.0),
               2.5, -30.0, 35.0]

    def masks(self, config, model, x, y, band=None):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        chain = wafer._chain(config, model, x, y, band)
        return chain[6], chain[7]

    def sites(self, config):
        """(x, y) of the default grid and of explicit sites whose offsets
        pair every value of OFFSETS with every other."""
        points = [(a, b) for a in self.OFFSETS for b in self.OFFSETS]
        explicit = replace(config.layout, sites=site_table(points))
        return [
            (column(sites, "x_mm"), column(sites, "y_mm"))
            for sites in (config.layout.generate_sites(), explicit.generate_sites())
        ]

    @pytest.mark.parametrize("model", [BiasModel.POINT_SOURCE, BiasModel.NON_POINT])
    def test_masks_are_the_band_about_each_axis(self, config, model):
        config = replace(config, epsilon_center_mm=self.EPS)
        for x, y in self.sites(config):
            center_b, center_t = self.masks(config, model, x, y)
            assert center_b.tolist() == [abs(v) <= self.EPS for v in x]
            assert center_t.tolist() == [abs(v) <= self.EPS for v in y]
            assert 0 < center_b.sum() < len(center_b) and 0 < center_t.sum() < len(center_t)

    def test_constant_model_takes_the_center_branches(self, config):
        for x, y in self.sites(config):
            center_b, center_t = self.masks(config, BiasModel.CONSTANT, x, y)
            assert center_b.all() and center_t.all()

    def test_negative_band_takes_the_general_branches(self, config):
        for x, y in self.sites(config):
            center_b, center_t = self.masks(config, BiasModel.NON_POINT, x, y, band=-1.0)
            assert not center_b.any() and not center_t.any()


class TestBranchDiscontinuity:
    def test_default_jumps(self, config):
        assert branch_discontinuity_nm(config) == (
            0.8028495573548753,
            2.384786281348738,
        )


class TestResidualReport:
    def test_flat_map_has_zero_cv(self, config):
        results = simulate_wafer(config, BiasModel.CONSTANT)
        assert residual_report(results).cv == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            residual_report([])

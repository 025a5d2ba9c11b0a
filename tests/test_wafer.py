"""Wafer sweeps, bias profiles and the compensation inverse."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowevap.errors import (
    AxisMismatch,
    DenominatorCollapse,
    EmptyInput,
    ValidationError,
)
from shadowevap import geometry
from shadowevap.config import default_config
from shadowevap.geometry import (
    JunctionSpec,
    WaferSite,
)
from shadowevap.wafer import (
    MAX_GRID_SITES,
    Axis,
    BiasModel,
    CenterWidthsTarget,
    Electrode,
    ExplicitAreaTarget,
    WaferLayout,
    bias_profile,
    branch_discontinuity_nm,
    center_reference_widths,
    compensate_wafer,
    residual_report,
    resimulate_with_corrections,
    simulate_wafer,
)


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
        layout = WaferLayout(
            sites=(
                WaferSite(5.0, -5.0, chip_id="c2"),
                WaferSite(-5.0, -5.0, chip_id="c1"),
            )
        )
        sites = layout.generate_sites()
        assert [s.chip_id for s in sites] == ["c1", "c2"]

    def test_site_outside_wafer_rejected(self):
        layout = WaferLayout(sites=(WaferSite(49.0, 49.0),))
        with pytest.raises(ValidationError):
            layout.generate_sites()

    def test_grid_site_cap(self):
        # 999 x 999 offsets lie within the cap, 1001 x 1001 do not.
        assert MAX_GRID_SITES == 1_000_000
        assert len(WaferLayout(working_span_mm=999.0, grid_pitch_mm=1.0).grid_offsets()) == 999
        with pytest.raises(ValidationError, match=r"grid of 1\.002e\+06 sites, more than"):
            WaferLayout(working_span_mm=1000.0, grid_pitch_mm=1.0).grid_offsets()

    def test_explicit_sites_ignore_the_grid_cap(self):
        layout = WaferLayout(grid_pitch_mm=1e-4, sites=(WaferSite(1.0, 2.0),))
        assert [(s.x_mm, s.y_mm) for s in layout.generate_sites()] == [(1.0, 2.0)]


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

    def test_axis_mismatch(self, config):
        with pytest.raises(AxisMismatch):
            bias_profile(config, Axis.Y, Electrode.BOTTOM)
        with pytest.raises(AxisMismatch):
            bias_profile(config, Axis.X, Electrode.TOP)


def one_site(config, x, y):
    """The config with its layout cut to the one explicit site (x, y)."""
    return replace(config, layout=replace(config.layout, sites=(WaferSite(x, y),)))


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

    def test_rejects_non_positive_targets(self, config):
        with pytest.raises(ValidationError):
            compensate_wafer(one_site(config, 0, 0), printed(-5.0, 100.0))

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
        calls = []
        angle = geometry.local_incidence_angle

        def counted(*args):
            calls.append(args)
            return angle(*args)

        monkeypatch.setattr(geometry, "local_incidence_angle", counted)
        table = compensate_wafer(config, ExplicitAreaTarget(area_um2=0.04))
        assert len(table.rows) == 225
        assert len(calls) == 15 + 15


class TestResimulate:
    def test_rejects_non_positive_drawn_widths(self, config):
        rows = list(compensate_wafer(single_site_config(config)).rows)
        rows[0] = replace(rows[0], drawn_w_top_nm=0.0)
        with pytest.raises(ValidationError, match="drawn"):
            resimulate_with_corrections(config, rows)


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

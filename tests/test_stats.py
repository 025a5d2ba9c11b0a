"""Statistics kernel, electrical conversions and Monte-Carlo propagation."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONSISTENT_WAFERS, WAFER_TABLE
from shadowevap import stats
from shadowevap.errors import (
    EmptyOrSingleton,
    NonPositiveFrequency,
    NonPositiveMean,
    ValidationError,
)
from shadowevap.stats import (
    ELEMENTARY_CHARGE_C,
    FLUX_QUANTUM_WB,
    MAX_MC_SAMPLES,
    MC_DRAWS_PER_CHUNK,
    PLANCK_J_S,
    MeasurementRecord,
    QubitParams,
    aggregate,
    coefficient_of_variation,
    critical_current_density,
    fit_gap,
    implied_gap_uev,
    propagate_cv_monte_carlo,
    resistance_sensitivity,
    transmon_frequency,
)
from shadowevap.table import Table, column

PARAMS = QubitParams(gap_delta_uev=180.0, ec_mhz=270.0)


def oracle_frequency_hz(rn_ohm, delta_uev, ec_mhz):
    """Independent scalar evaluation with its own constant literals."""
    e = 1.602176634e-19
    h = 6.62607015e-34
    phi0 = h / (2 * e)
    delta_j = delta_uev * 1e-6 * e
    ec_j = h * ec_mhz * 1e6
    return (math.sqrt(2 * delta_j * phi0 * ec_j / (e * rn_ohm)) - ec_j) / h


class TestCoefficientOfVariation:
    def test_constant_samples(self):
        assert coefficient_of_variation([10.0, 10.0, 10.0]).cv == 0.0

    def test_nine_ten_eleven(self):
        s = coefficient_of_variation([9.0, 10.0, 11.0])
        assert s.n == 3
        assert s.mean == 10.0
        assert s.sd_sample == 1.0
        assert s.cv == 0.1
        assert s.cv_percent == 10.0

    def test_scale_invariance(self):
        base = coefficient_of_variation([9.0, 10.0, 11.0]).cv
        scaled = coefficient_of_variation([63.0, 70.0, 77.0]).cv
        assert scaled == pytest.approx(base, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=2, max_size=30),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_scale_invariance_property(self, samples, k):
        base = coefficient_of_variation(samples).cv
        scaled = coefficient_of_variation([k * s for s in samples]).cv
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(EmptyOrSingleton):
            coefficient_of_variation([])
        with pytest.raises(EmptyOrSingleton):
            coefficient_of_variation([5.0])

    def test_non_positive_mean(self):
        with pytest.raises(NonPositiveMean):
            coefficient_of_variation([-1.0, 1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            coefficient_of_variation([1.0, float("nan")])


class TestTransmonFrequency:
    def test_against_independent_oracle(self):
        got = transmon_frequency(8000.0, PARAMS)
        assert got == pytest.approx(oracle_frequency_hz(8000.0, 180.0, 270.0), rel=1e-9)
        assert got == pytest.approx(5.89e9, rel=2e-3)

    def test_quadrupling_resistance_halves_the_radical(self):
        ec_j = PARAMS.ec_j
        hf1 = PLANCK_J_S * transmon_frequency(8000.0, PARAMS) + ec_j
        hf4 = PLANCK_J_S * transmon_frequency(32000.0, PARAMS) + ec_j
        assert hf4 == hf1 / 2.0

    def test_non_positive_frequency(self):
        with pytest.raises(NonPositiveFrequency):
            transmon_frequency(1e9, PARAMS)

    @given(st.floats(min_value=500.0, max_value=5e4))
    @settings(max_examples=50)
    def test_strictly_decreasing(self, rn):
        assert transmon_frequency(rn, PARAMS) > transmon_frequency(
            rn * 1.01, PARAMS
        )

    def test_flux_quantum_consistency(self):
        assert FLUX_QUANTUM_WB * 2 * ELEMENTARY_CHARGE_C == PLANCK_J_S


class TestResistanceSensitivity:
    def test_square_root_law_limit(self):
        # Vanishing charging energy: pure -1/2 power law.
        small_ec = QubitParams(gap_delta_uev=180.0, ec_mhz=1e-8)
        assert resistance_sensitivity(8000.0, small_ec) == pytest.approx(
            -0.5, abs=1e-6
        )

    def test_reference_value(self):
        f = oracle_frequency_hz(8000.0, 180.0, 270.0)
        expected = -0.5 * (1.0 + PARAMS.ec_j / (PLANCK_J_S * f))
        got = resistance_sensitivity(8000.0, PARAMS)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(-0.523, abs=1e-3)

    def test_matches_finite_difference(self):
        s = 1e-6
        fd = (
            math.log(transmon_frequency(8000.0 * math.exp(s), PARAMS))
            - math.log(transmon_frequency(8000.0 * math.exp(-s), PARAMS))
        ) / (2 * s)
        assert resistance_sensitivity(8000.0, PARAMS) == pytest.approx(
            fd, abs=1e-6
        )


class TestMonteCarloPropagation:
    def test_zero_spread_maps_to_zero(self):
        result = propagate_cv_monte_carlo(8000.0, 0.0, PARAMS, 10_000, seed=1)
        assert result.cv_f == 0.0
        assert result.cv_ratio == 0.0

    def test_peak_memory(self):
        """h f is computed in the draws' buffer: the peak stays under
        three float arrays of n (it was over four)."""
        n = 1_000_000
        propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 10_000)  # warm up
        tracemalloc.start()
        try:
            propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n

    def test_ratio_tracks_sensitivity(self):
        result = propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 100_000, seed=12345)
        assert 0.50 <= result.cv_ratio <= 0.55
        assert result.n_invalid == 0

    def test_converges_to_sensitivity_at_large_n(self):
        result = propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 1_000_000, seed=7)
        sens = abs(resistance_sensitivity(8000.0, PARAMS))
        assert result.cv_ratio == pytest.approx(sens, rel=0.02)

    def test_doubling_cv_doubles_spread(self):
        r6 = propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 400_000, seed=9)
        r12 = propagate_cv_monte_carlo(8000.0, 0.12, PARAMS, 400_000, seed=9)
        assert r12.cv_f / r6.cv_f == pytest.approx(2.0, rel=0.05)

    def test_seed_reproducibility(self):
        a = propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 50_000, seed=4)
        b = propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 50_000, seed=4)
        c = propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 50_000, seed=5)
        assert a.cv_f == b.cv_f
        assert a.cv_f != c.cv_f

    def test_too_many_invalid_draws(self):
        # Beyond ~4.16 Mohm the radical drops below E_C for these params.
        with pytest.raises(NonPositiveFrequency):
            propagate_cv_monte_carlo(5e6, 0.01, PARAMS, 10_000, seed=0)

    def test_cap_is_a_tenth_of_a_percent(self):
        """At seed 5 and a CV of 6%, a mean of 3.445 Mohm gives exactly 10
        invalid draws of 10,000, which are taken, and 3.45 Mohm gives 11."""
        assert propagate_cv_monte_carlo(3.445e6, 0.06, PARAMS, 10_000, seed=5).n_invalid == 10
        with pytest.raises(NonPositiveFrequency, match="^11 of 10000 draws"):
            propagate_cv_monte_carlo(3.45e6, 0.06, PARAMS, 10_000, seed=5)

    def test_preconditions(self):
        with pytest.raises(ValidationError):
            propagate_cv_monte_carlo(8000.0, 0.5, PARAMS, 10_000)
        with pytest.raises(ValidationError):
            propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 100)
        with pytest.raises(ValidationError, match=f"^n_samples must be <= {MAX_MC_SAMPLES}, got"):
            propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, MAX_MC_SAMPLES + 1)


def one_shot_propagation(mean_rn_ohm, cv_rn, params, n_samples, seed):
    """(mean, sd, n_invalid) of the frequencies of all n draws held in
    one array: the propagation as it was before the draws were chunked."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma2 = math.log1p(cv_rn * cv_rn)
    rn = rng.lognormal(math.log(mean_rn_ohm) - 0.5 * sigma2, math.sqrt(sigma2), n_samples)
    hf = np.sqrt(stats._hf_radicand_j2(params) / rn) - params.ec_j
    f = hf[hf > 0.0] / PLANCK_J_S
    return float(f.mean()), float(f.std(ddof=1)), n_samples - f.size


class TestChunkedMonteCarlo:
    """Draws are made and reduced MC_DRAWS_PER_CHUNK at a time and the
    moments merged; the one-shot propagation is the oracle."""

    @pytest.mark.parametrize("mean_rn_ohm", [8000.0, 3.4e6], ids=["all-valid", "some-invalid"])
    @pytest.mark.parametrize("extra", [-1, 0, 1, MC_DRAWS_PER_CHUNK + 7])
    def test_equals_one_shot_draws(self, mean_rn_ohm, extra):
        """At 3.4 Mohm about 0.03% of the draws, in every chunk, give a
        non-positive frequency."""
        n = MC_DRAWS_PER_CHUNK + extra
        mean, sd, n_invalid = one_shot_propagation(mean_rn_ohm, 0.06, PARAMS, n, seed=5)
        result = propagate_cv_monte_carlo(mean_rn_ohm, 0.06, PARAMS, n, seed=5)
        assert result.n_invalid == n_invalid
        assert (n_invalid > 0) == (mean_rn_ohm > 8000.0)
        if n <= MC_DRAWS_PER_CHUNK:
            assert (result.mean_f_hz, result.cv_f) == (mean, sd / mean)
        else:
            assert result.mean_f_hz == pytest.approx(mean, rel=1e-12, abs=0)
            assert result.cv_f * result.mean_f_hz == pytest.approx(sd, rel=1e-12, abs=0)

    def test_invalid_draws_in_every_chunk_are_counted(self):
        """About 0.17% of the draws are invalid, spread over three chunks:
        the cap is applied to their total, with the one-shot count."""
        n = 2 * MC_DRAWS_PER_CHUNK + 7
        _, _, n_invalid = one_shot_propagation(3.5e6, 0.06, PARAMS, n, seed=5)
        message = f"^{n_invalid} of {n} draws gave a non-positive frequency$"
        with pytest.raises(NonPositiveFrequency, match=message):
            propagate_cv_monte_carlo(3.5e6, 0.06, PARAMS, n, seed=5)

    def test_peak_memory_is_a_few_chunks(self):
        """At n = 4,000,000 the peak stays under four chunk arrays (the
        one-shot draws held about two arrays of n)."""
        propagate_cv_monte_carlo(8000.0, 0.06, PARAMS, 10_000)  # warm up
        tracemalloc.start()
        try:
            propagate_cv_monte_carlo(3.4e6, 0.06, PARAMS, 4_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * MC_DRAWS_PER_CHUNK


class TestCriticalCurrentDensity:
    def test_large_area_reference(self):
        got = critical_current_density(3300.0, 0.090, 230.0)
        assert got == pytest.approx(math.pi * 230.0 / (2 * 3300.0 * 0.090), rel=1e-12)
        assert got == pytest.approx(1.216, abs=1e-3)
        assert abs(got - 1.15) / 1.15 < 0.06

    def test_small_area_reference(self):
        got = critical_current_density(2600.0, 0.025, 232.0)
        assert got == pytest.approx(5.61, abs=5e-3)

    def test_inverse_proportionality(self):
        a = critical_current_density(2600.0, 0.025, 232.0)
        b = critical_current_density(5200.0, 0.025, 232.0)
        assert b == a / 2.0

    @given(
        st.floats(min_value=100.0, max_value=1e5),
        st.floats(min_value=0.001, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_product_is_constant(self, rn, area):
        delta = 210.0
        jc = critical_current_density(rn, area, delta)
        assert jc * rn * area == pytest.approx(math.pi * delta / 2.0, rel=1e-12)


    def test_arrays_are_taken_elementwise(self):
        rn, area = np.array([2600.0, 5200.0, 700.0]), np.array([0.025, 0.025, 0.09])
        jc = critical_current_density(rn, area, 232.0)
        assert jc.tolist() == [critical_current_density(*a, 232.0) for a in zip(rn, area)]
        gap = implied_gap_uev(rn, area, jc)
        assert gap.tolist() == [implied_gap_uev(*a) for a in zip(rn, area, jc)]
        area[1] = 0.0
        for convert in (lambda a: critical_current_density(rn, a, 232.0),
                        lambda a: implied_gap_uev(rn, a, jc)):
            with pytest.raises(ValidationError, match="must be > 0"):
                convert(area)


class TestGapFit:
    def test_implied_gap_inverts_forward_formula(self):
        jc = critical_current_density(4000.0, 0.05, 200.0)
        assert implied_gap_uev(4000.0, 0.05, jc) == pytest.approx(200.0, rel=1e-9)

    def test_exact_recovery_from_synthetic_data(self):
        delta = 200.0
        records = [
            (rn, area, critical_current_density(rn, area, delta))
            for rn, area in [(2600.0, 0.025), (700.0, 0.090), (13000.0, 0.025)]
        ]
        fit = fit_gap(records)
        assert fit.delta_uev == pytest.approx(delta, rel=1e-9)
        for rec in fit.records:
            assert rec.implied_delta_uev == pytest.approx(delta, rel=1e-9)
            assert abs(rec.rel_residual) < 1e-9

    def test_consistent_wafers_imply_a_common_gap(self):
        rows = [r for r in WAFER_TABLE if r[0] in CONSISTENT_WAFERS]
        implied = {
            (w, a): 2.0 * rn * jc * a / math.pi for w, a, rn, jc in rows
        }
        assert all(215.0 <= v <= 245.0 for v in implied.values())
        for wafer in CONSISTENT_WAFERS:
            vals = [v for (w, _), v in implied.items() if w == wafer]
            spread = (max(vals) - min(vals)) / (sum(vals) / len(vals))
            assert spread < 0.12
        fit = fit_gap([(rn, a, jc) for _, a, rn, jc in rows])
        assert 215.0 <= fit.delta_uev <= 245.0
        assert fit.max_abs_rel_residual < 0.10

    def test_rounded_wafers_flagged_by_residual(self):
        fit = fit_gap([(rn, a, jc) for _, a, rn, jc in WAFER_TABLE])
        flagged = [
            (r.rn_ohm, r.area_um2)
            for r in fit.records
            if abs(r.rel_residual) > 0.15
        ]
        # The two-significant-figure wafers disagree with the common gap.
        assert (20000.0, 0.025) in flagged
        assert (18000.0, 0.025) in flagged
        assert (5300.0, 0.090) in flagged
        assert (2600.0, 0.025) not in flagged

    def test_low_gap_entries_match_hand_arithmetic(self):
        implied = implied_gap_uev(18000.0, 0.025, 0.46)
        assert implied == pytest.approx(2 * 18000 * 0.46 * 0.025 / math.pi, rel=1e-12)
        assert 130.0 <= implied <= 160.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(1e-50, 1e50)] * 3), min_size=2, max_size=20))
    def test_figures_are_the_inline_formulas(self, rows):
        """jc_fitted and implied_delta_uev, by repr, as k Delta and
        2 R_N J_c A / pi written out over the columns."""
        fit = fit_gap(rows)
        rn, area, jc = np.array(rows).T
        k = math.pi / (2.0 * rn * area)
        assert repr(column(fit.records, "jc_fitted").tolist()) == repr(
            (k * fit.delta_uev).tolist()
        )
        assert repr(column(fit.records, "implied_delta_uev").tolist()) == repr(
            (2.0 * rn * jc * area / math.pi).tolist()
        )

    @pytest.mark.parametrize("record", [(8000.0, 0.04, 1e-320), (1e150, 1e150, 1e150)])
    def test_non_finite_figures_are_refused(self, record):
        """(J_fit - J) / J overflows for J = 1e-320, and the implied gap
        for the second record; the fit's sums stay finite."""
        with pytest.raises(ValidationError) as info:
            fit_gap([(8000.0, 0.04, 1.0), record])
        assert str(info.value) == (
            "non-finite implied gap, fitted J_c or relative residual for record "
            f"({record[0]}, {record[1]}, {record[2]})"
        )

    def test_needs_two_records(self):
        with pytest.raises(ValidationError):
            fit_gap([(2600.0, 0.025, 5.61)])

    @pytest.mark.parametrize(
        "rows",
        [
            [(2600.0, 0.025), (2500.0, 0.026), (2700.0, 0.024)],
            [(2600.0, 0.025, 5.61, 1.0)] * 3,
            np.array([(2600.0, 0.025), (2500.0, 0.026), (2700.0, 0.024)]),
            np.full((4, 3, 1), 1.0),
        ],
        ids=["pairs", "4-tuples", "pair-array", "3-d-array"],
    )
    def test_rows_must_be_triples(self, rows):
        with pytest.raises(ValidationError, match="triples"):
            fit_gap(rows)


def record(wafer="w1", chip="c1", x=0.0, y=0.0, area=0.025, run="r1", rn=10.0):
    return MeasurementRecord(
        wafer_id=wafer,
        chip_id=chip,
        x_mm=x,
        y_mm=y,
        area_class_um2=area,
        run_id=run,
        rn_ohm=rn,
    )


def table(records):
    """`records` as the Table of MeasurementRecord that
    `csvio.import_measurements` reads: ids, and a jc_ua_um2 left out,
    as object columns, the other numbers as float columns."""
    objects = ("wafer_id", "chip_id", "run_id", "jc_ua_um2")
    return Table(MeasurementRecord, **{
        f.name: np.array(
            [getattr(r, f.name) for r in records], dtype=object if f.name in objects else float
        )
        for f in fields(MeasurementRecord)
    })


class TestAggregate:
    def test_single_group_cv(self):
        records = [record(x=float(i), rn=v) for i, v in enumerate([9.0, 10.0, 11.0])]
        report = aggregate(table(records), group_by=("wafer",))
        assert list(report.group_stats) == ["wafer=w1"]
        assert report.group_stats["wafer=w1"].cv_percent == 10.0

    def test_grouping_by_area_partitions(self):
        records = [
            record(x=1.0, area=0.025, rn=9.0),
            record(x=2.0, area=0.025, rn=11.0),
            record(x=3.0, area=0.090, rn=100.0),
            record(x=4.0, area=0.090, rn=100.0),
        ]
        report = aggregate(table(records), group_by=("area",))
        assert report.group_stats["area=0.09"].cv == 0.0
        assert report.group_stats["area=0.025"].cv > 0.0

    def test_identical_runs_have_zero_repeatability(self):
        records = []
        for x in (0.0, 5.0, 10.0):
            for run in ("r1", "r2"):
                records.append(record(x=x, run=run, rn=10.0 + x))
        report = aggregate(table(records), group_by=("wafer",))
        assert len(report.repeatability) == 3
        assert all(j.cv == 0.0 for j in report.repeatability)
        cv = column(report.repeatability, "cv")
        assert len(cv) == 3 and cv.mean() == 0.0

    def test_repeat_cv_detects_run_disagreement(self):
        records = [
            record(run="r1", rn=10.0),
            record(run="r2", rn=11.0),
            record(x=5.0, run="r1", rn=10.0),
        ]
        report = aggregate(table(records), group_by=("wafer",))
        assert len(report.repeatability) == 1
        j = report.repeatability[0]
        assert j.n_runs == 2
        sd = math.sqrt(((10.0 - 10.5) ** 2 + (11.0 - 10.5) ** 2) / 1)
        assert j.cv == pytest.approx(sd / 10.5, rel=1e-12)

    def test_small_groups_skipped_with_warning(self):
        records = [record(rn=10.0), record(wafer="w2", x=1.0, rn=12.0),
                   record(wafer="w2", x=2.0, rn=13.0)]
        report = aggregate(table(records), group_by=("wafer",))
        assert "wafer=w2" in report.group_stats
        assert "wafer=w1" not in report.group_stats
        assert any("wafer=w1" in w for w in report.warnings)

    def test_unknown_group_field(self):
        with pytest.raises(ValidationError):
            aggregate(table([record()]), group_by=("lot",))

    def test_empty_records(self):
        with pytest.raises(ValidationError):
            aggregate(table([]), group_by=("wafer",))

    def test_record_invariants(self):
        with pytest.raises(ValidationError):
            record(rn=-5.0)
        with pytest.raises(ValidationError):
            record(area=0.0)

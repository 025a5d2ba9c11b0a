"""Uniformity statistics and junction electrical conversions.

Covers the coefficient-of-variation kernel used for all wafer maps, the
room-temperature-resistance to qubit-frequency conversion with its
analytic sensitivity, Monte-Carlo propagation of resistance spread to
frequency spread, critical-current-density arithmetic and a one-
parameter superconducting-gap fit, plus grouped aggregation of measured
resistance records with a parallel-measurement repeatability report.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    ComputationError,
    DegenerateFit,
    EmptyOrSingleton,
    NonPositiveFrequency,
    NonPositiveMean,
    ValidationError,
)
from .table import Table, column, group_codes, group_mean

# Exact SI defining constants (2019 redefinition).
ELEMENTARY_CHARGE_C = 1.602176634e-19
PLANCK_J_S = 6.62607015e-34
FLUX_QUANTUM_WB = PLANCK_J_S / (2.0 * ELEMENTARY_CHARGE_C)


class StatsSummary(NamedTuple):
    """Sample statistics of one group: n, mean, sample sd (n-1) and
    cv = sd/mean as a fraction."""

    n: int
    mean: float
    sd_sample: float
    cv: float

    @property
    def cv_percent(self) -> float:
        return 100.0 * self.cv


def coefficient_of_variation(samples: Sequence[float]) -> StatsSummary:
    """CV = sample standard deviation / mean.

    Needs at least two finite samples and a positive mean; scale
    invariant by construction.
    """
    n = len(samples)
    if n < 2:
        raise EmptyOrSingleton(f"need >= 2 samples for a CV, got {n}")
    arr = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("samples must be finite")
    with np.errstate(over="ignore"):
        mean = float(arr.mean())
        sd = float(arr.std(ddof=1))
    if mean <= 0.0:
        raise NonPositiveMean(f"mean {mean} <= 0")
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ComputationError("the mean or spread of the samples overflows")
    return StatsSummary(n=n, mean=mean, sd_sample=sd, cv=sd / mean)


@dataclass(frozen=True)
class QubitParams:
    """Superconducting gap (ueV) and charging energy expressed as the
    frequency E_C/h (MHz)."""

    gap_delta_uev: float
    ec_mhz: float

    def __post_init__(self) -> None:
        if not self.gap_delta_uev > 0:
            raise ValidationError("gap_delta_uev must be > 0")
        if not self.ec_mhz > 0:
            raise ValidationError("ec_mhz must be > 0")

    @property
    def gap_j(self) -> float:
        return self.gap_delta_uev * 1.0e-6 * ELEMENTARY_CHARGE_C

    @property
    def ec_j(self) -> float:
        return PLANCK_J_S * self.ec_mhz * 1.0e6


def _hf_radicand_j2(params: QubitParams) -> float:
    """Numerator of the squared Josephson term: 2 Delta Phi0 E_C / e."""
    return (
        2.0 * params.gap_j * FLUX_QUANTUM_WB * params.ec_j / ELEMENTARY_CHARGE_C
    )


def transmon_frequency(rn_ohm: float, params: QubitParams) -> float:
    """Qubit frequency (Hz) from room-temperature junction resistance.

    h f = sqrt(2 Delta Phi0 E_C / (e R_N)) - E_C

    This is the plasma-frequency relation sqrt(8 E_J E_C) - E_C with the
    Josephson energy taken from the tunnel resistance, so frequency
    falls as 1/sqrt(R_N). Raises NonPositiveFrequency once the radical
    drops to E_C, and ValidationError when the frequency overflows.
    """
    if not rn_ohm > 0:
        raise ValidationError("rn_ohm must be > 0")
    hf = math.sqrt(_hf_radicand_j2(params) / rn_ohm) - params.ec_j
    if hf <= 0.0:
        raise NonPositiveFrequency(
            f"R_N = {rn_ohm} ohm is too resistive for a positive frequency"
        )
    f = hf / PLANCK_J_S
    if not math.isfinite(f):
        raise ValidationError(f"R_N = {rn_ohm} ohm: the frequency overflows")
    return f


def resistance_sensitivity(rn_ohm: float, params: QubitParams) -> float:
    """Logarithmic sensitivity d ln f / d ln R_N, analytically
    -(1/2) (1 + E_C / (h f)); approaches -1/2 for E_C << h f, which is
    the usual statement that the frequency CV is half the R_N CV."""
    f = transmon_frequency(rn_ohm, params)
    return -0.5 * (1.0 + params.ec_j / (PLANCK_J_S * f))


class PropagationResult(NamedTuple):
    """Monte-Carlo propagation of a resistance spread to frequency."""

    cv_rn: float
    cv_f: float
    mean_f_hz: float
    n_samples: int
    n_invalid: int

    @property
    def cv_ratio(self) -> float:
        """cv_f / cv_rn; compare against |resistance_sensitivity|."""
        if self.cv_rn == 0.0:
            return 0.0
        return self.cv_f / self.cv_rn


#: Largest n_samples propagate_cv_monte_carlo takes: about 30 s of draws.
MAX_MC_SAMPLES = 10**9

#: Draws made and reduced at a time, so the memory of a propagation is
#: a few chunks whatever n_samples is.
MC_DRAWS_PER_CHUNK = 1 << 20


def propagate_cv_monte_carlo(
    mean_rn_ohm: float,
    cv_rn: float,
    params: QubitParams,
    n_samples: int = 100_000,
    seed: int = 0,
) -> PropagationResult:
    """Sample R_N around mean_rn_ohm with the given CV, push every draw
    through the frequency relation and return the CV of the result.

    R_N is drawn from a lognormal distribution, which preserves
    positivity. Draws producing a non-positive frequency are dropped
    and counted; more than 0.1% invalid draws aborts. The mean must be
    a normal float: draws around a subnormal one cannot carry the
    spread, and around a normal one none underflows to 0 (that needs
    z < -120; numpy's normal draws stay within about 14).
    Reproducible for a fixed seed; the generator is seeded through a
    SeedSequence so shards spawned from the same seed stay disjoint.
    """
    if not mean_rn_ohm > 0:
        raise ValidationError("mean_rn_ohm must be > 0")
    if mean_rn_ohm < sys.float_info.min:
        raise ValidationError(
            f"mean_rn_ohm = {mean_rn_ohm} ohm is subnormal: the draws cannot "
            "carry the requested spread"
        )
    if not 0.0 <= cv_rn < 0.3:
        raise ValidationError(f"cv_rn must be in [0, 0.3), got {cv_rn}")
    if n_samples < 10_000:
        raise ValidationError("n_samples must be >= 10000")
    if n_samples > MAX_MC_SAMPLES:
        raise ValidationError(f"n_samples must be <= {MAX_MC_SAMPLES}, got {n_samples}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    if cv_rn == 0.0:
        f = transmon_frequency(mean_rn_ohm, params)
        return PropagationResult(
            cv_rn=0.0, cv_f=0.0, mean_f_hz=f, n_samples=n_samples, n_invalid=0
        )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma2 = math.log1p(cv_rn * cv_rn)
    mu, sigma = math.log(mean_rn_ohm) - 0.5 * sigma2, math.sqrt(sigma2)
    radicand = _hf_radicand_j2(params)
    # (count, mean, sum of squared deviations) of the valid frequencies,
    # merged chunk by chunk (Chan, Golub & LeVeque 1979). Chunked draws
    # equal one-shot draws, and one chunk gives np.mean and np.std's
    # arithmetic exactly.
    n_valid, mean_f, m2 = 0, 0.0, 0.0
    for start in range(0, n_samples, MC_DRAWS_PER_CHUNK):
        # h f is computed in the draws' own buffer.
        hf = rng.lognormal(mu, sigma, min(MC_DRAWS_PER_CHUNK, n_samples - start))
        with np.errstate(over="ignore"):
            np.divide(radicand, hf, out=hf)
        np.sqrt(hf, out=hf)
        np.subtract(hf, params.ec_j, out=hf)
        valid = hf > 0.0
        f = hf if valid.all() else hf[valid]
        if not f.size:
            continue
        # An overflow makes inf, and inf - inf in the spread nan: both
        # are reported below.
        with np.errstate(over="ignore", invalid="ignore"):
            f /= PLANCK_J_S
            chunk_mean = float(f.mean())
            f -= chunk_mean
            f *= f
            chunk_m2 = float(f.sum())
        if n_valid:
            delta, total = chunk_mean - mean_f, n_valid + f.size
            mean_f += delta * f.size / total
            m2 += chunk_m2 + delta * delta * n_valid * f.size / total
        else:
            mean_f, m2 = chunk_mean, chunk_m2
        n_valid += f.size
    n_invalid = n_samples - n_valid
    if n_invalid > 0.001 * n_samples:
        raise NonPositiveFrequency(
            f"{n_invalid} of {n_samples} draws gave a non-positive frequency"
        )
    sd_f = math.sqrt(m2 / (n_valid - 1)) if n_valid >= 2 else 0.0
    if not (math.isfinite(mean_f) and math.isfinite(sd_f)):
        raise ValidationError(
            f"mean_rn_ohm = {mean_rn_ohm} ohm: the mean or spread of the drawn "
            "frequencies overflows"
        )
    cv_f = sd_f / mean_f
    return PropagationResult(
        cv_rn=cv_rn,
        cv_f=cv_f,
        mean_f_hz=mean_f,
        n_samples=n_samples,
        n_invalid=n_invalid,
    )


def critical_current_density(rn_ohm, area_um2, gap_delta_uev):
    """Critical-current density J_c (uA/um^2) from the tunnel resistance,
    elementwise over numpy arrays.

    Ambegaokar-Baratoff at zero temperature: I_c = pi Delta / (2 e R_N),
    divided by the junction area. With Delta in ueV, R_N in ohm and the
    area in um^2 the units collapse to J_c = pi Delta / (2 R_N A).
    """
    if not np.all((rn_ohm > 0) & (area_um2 > 0) & (gap_delta_uev > 0)):
        raise ValidationError("rn_ohm, area_um2 and gap_delta_uev must be > 0")
    return math.pi * gap_delta_uev / (2.0 * rn_ohm * area_um2)


def implied_gap_uev(rn_ohm, area_um2, jc_ua_um2):
    """Gap (ueV) implied by (R_N, area, J_c), elementwise over numpy
    arrays: the inverse of `critical_current_density`,
    Delta = 2 e R_N J_c A / pi."""
    if not np.all((rn_ohm > 0) & (area_um2 > 0) & (jc_ua_um2 > 0)):
        raise ValidationError("rn_ohm, area_um2 and jc_ua_um2 must be > 0")
    return 2.0 * rn_ohm * jc_ua_um2 * area_um2 / math.pi


class GapFitRecord(NamedTuple):
    """One fitted observation with its per-record diagnostics."""

    rn_ohm: float
    area_um2: float
    jc_reported: float
    implied_delta_uev: float
    jc_fitted: float
    residual: float
    rel_residual: float


class GapFitResult(NamedTuple):
    delta_uev: float
    records: Sequence[GapFitRecord]

    @property
    def max_abs_rel_residual(self) -> float:
        return max(map(abs, column(self.records, "rel_residual").tolist()))


def fit_gap(
    records: Union[Iterable[tuple[float, float, float]], np.ndarray]
) -> GapFitResult:
    """Least-squares single gap from (R_N ohm, area um^2, J_c uA/um^2)
    triples, or an (n, 3) array of them.

    J_c is linear in Delta (J_c = k Delta with k = pi / (2 R_N A)), so
    the minimizer of sum (k_i Delta - J_i)^2 is closed form:
    Delta = sum(k_i J_i) / sum(k_i^2). Per-record implied gaps and
    residuals are reported alongside, as a Table of GapFitRecord.
    """
    rows = np.array(
        records if isinstance(records, np.ndarray) else list(records), dtype=float
    )
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValidationError("records must be (R_N, area, J_c) triples")
    if len(rows) < 2:
        raise ValidationError("need >= 2 records to fit a gap")
    rn, area, jc = rows.T
    _refuse_first(rows, ~((rn > 0) & (area > 0) & (jc > 0)), "non-positive record")
    # Float arithmetic as Python does it, with no warnings; the sums are
    # sequential left-to-right sums (cumsum), as Python <= 3.11's `sum`
    # adds floats.
    with np.errstate(all="ignore"):
        k = critical_current_density(rn, area, 1.0)
        _refuse_first(rows, ~np.isfinite(k), "non-finite k = pi/(2 R_N A) for record")
        denom = np.cumsum(k * k)[-1].item()
        if denom <= 0.0:
            raise DegenerateFit("no sensitivity to the gap parameter")
        delta = np.cumsum(k * jc)[-1].item() / denom
        if not (math.isfinite(denom) and math.isfinite(delta)):
            raise ComputationError("the least-squares sums of the gap fit overflow")
        jc_fit = k * delta
        implied, residual = implied_gap_uev(rn, area, jc), jc_fit - jc
        rel_residual = residual / jc
    finite = np.isfinite(implied) & np.isfinite(jc_fit) & np.isfinite(rel_residual)
    _refuse_first(
        rows, ~finite, "non-finite implied gap, fitted J_c or relative residual for record"
    )
    records = Table(
        GapFitRecord,
        rn_ohm=rn,
        area_um2=area,
        jc_reported=jc,
        implied_delta_uev=implied,
        jc_fitted=jc_fit,
        residual=residual,
        rel_residual=rel_residual,
    )
    return GapFitResult(delta_uev=delta, records=records)


def _refuse_first(rows: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise ValidationError, `what` and its values, for the first of the
    (R_N, area, J_c) `rows` that `bad` flags."""
    if bad.any():
        rec = rows[np.argmax(bad)].tolist()
        raise ValidationError(f"{what} ({rec[0]}, {rec[1]}, {rec[2]})")


@dataclass(frozen=True)
class MeasurementRecord:
    """One probed junction resistance with its location and run label."""

    wafer_id: str
    chip_id: str
    x_mm: float
    y_mm: float
    area_class_um2: float
    run_id: str
    rn_ohm: float
    jc_ua_um2: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("x_mm", "y_mm", "area_class_um2", "rn_ohm", "jc_ua_um2"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not self.rn_ohm > 0:
            raise ValidationError("rn_ohm must be > 0")
        if not self.area_class_um2 > 0:
            raise ValidationError("area_class_um2 must be > 0")


#: The record attribute and the label format of each group field; a
#: group key joins the labels of the requested fields with "|".
_GROUP_LABELS = {
    "wafer": ("wafer_id", "wafer=%s"),
    "chip": ("chip_id", "chip=%s"),
    "area": ("area_class_um2", "area=%g"),
    "run": ("run_id", "run=%s"),
}
GROUP_FIELDS = tuple(_GROUP_LABELS)
#: The record fields that name one physical junction.
_JUNCTION_KEY = ("wafer_id", "chip_id", "x_mm", "y_mm", "area_class_um2")


class JunctionRepeatability(NamedTuple):
    """Spread of one physical junction's R_N across measurement runs."""

    wafer_id: str
    chip_id: str
    x_mm: float
    y_mm: float
    area_class_um2: float
    n_runs: int
    cv: float


@dataclass
class AggregateReport:
    group_stats: dict[str, StatsSummary]
    repeatability: Sequence[JunctionRepeatability]
    warnings: list[str] = field(default_factory=list)


def aggregate(
    records: Table,
    group_by: Sequence[str] = ("wafer", "area"),
) -> AggregateReport:
    """Grouped resistance statistics plus a repeatability report.

    Records are grouped by any subset of wafer / chip / area / run and
    each group's R_N CV computed; groups too small for a sample sd are
    skipped with a warning. Junctions probed under more than one run_id
    additionally get a per-junction CV across their run means, the
    repeatability of parallel measurements (a Table of
    JunctionRepeatability). `records` is a Table of MeasurementRecord,
    as `csvio.import_measurements` reads it.
    """
    if not records:
        raise ValidationError("no measurement records")
    for g in group_by:
        if g not in _GROUP_LABELS:
            raise ValidationError(
                f"unknown group field {g!r}; expected subset of {GROUP_FIELDS}"
            )
    columns = records.columns
    rn = columns["rn_ohm"]

    attributes = [columns[_GROUP_LABELS[g][0]] for g in group_by]
    group_key = "|".join(_GROUP_LABELS[g][1] for g in group_by) or "all"
    combo, first = group_codes(attributes or [np.zeros(len(rn))])
    combo_keys = [
        group_key % tuple(a[i] for a in attributes) for i in first.tolist()
    ]
    keys = sorted(set(combo_keys))
    index = {key: i for i, key in enumerate(keys)}
    group = np.array([index[key] for key in combo_keys])[combo]
    order = np.argsort(group, kind="stable")
    bounds = np.cumsum(np.bincount(group, minlength=len(keys)))[:-1]

    warnings: list[str] = []
    group_stats: dict[str, StatsSummary] = {}
    for key, vals in zip(keys, np.split(rn[order], bounds)):
        if len(vals) < 2:
            warnings.append(f"group {key!r} skipped: {len(vals)} sample(s)")
            continue
        try:
            group_stats[key] = coefficient_of_variation(vals)
        except ComputationError as exc:
            raise type(exc)(f"group {key!r}: {exc}") from None

    # Repeatability: same physical junction probed under several run ids.
    junction, first = group_codes([columns[name] for name in _JUNCTION_KEY])
    # One row per (junction, run), junctions in key order, runs sorted.
    pair, pair_first = group_codes([junction, columns["run_id"]])
    of_pair = junction[pair_first]
    n_runs = np.bincount(of_pair)
    with np.errstate(all="ignore"):
        run_means = group_mean(pair, rn)
        mean = group_mean(of_pair, run_means)
        deviations = (run_means - mean[of_pair]).tolist()
        try:
            # Python's float power: pow(d, 2) and d * d can round differently.
            squares = list(map(pow, deviations, repeat(2)))
        except OverflowError:  # a square is inf: its junction is named below
            squares = np.square(deviations)
        keep = n_runs >= 2
        sd = np.sqrt(np.bincount(of_pair, weights=squares)[keep] / (n_runs[keep] - 1))
        cv = sd / mean[keep]
    at = first[keep]
    overflow = ~(np.isfinite(sd) & np.isfinite(mean[keep]))
    if overflow.any():
        i = at[np.argmax(overflow)]
        junction_key = ", ".join(str(columns[name][i]) for name in _JUNCTION_KEY)
        raise ComputationError(
            f"junction ({junction_key}): the mean or spread of its run means overflows"
        )
    repeatability = Table(
        JunctionRepeatability,
        **{name: columns[name][at] for name in _JUNCTION_KEY},
        n_runs=n_runs[keep],
        cv=cv,
    )
    return AggregateReport(
        group_stats=group_stats, repeatability=repeatability, warnings=warnings
    )

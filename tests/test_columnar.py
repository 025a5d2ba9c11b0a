"""The columnar wafer sweeps against the scalar geometry oracle.

`wafer` evaluates trigonometry once per distinct coordinate and the
rest of the model elementwise over numpy columns. These properties run
the per-site `geometry` chain (local_incidence_angle -> sidewall_thickness
-> bottom_terms / top_terms -> checked_terms -> printed_width /
inverse_width -> overlap_area) site by site in (row, column) order and
require equal results, compared by repr, and equal errors: the same type
and text, naming the same site.
"""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import site_table
from shadowevap import geometry
from shadowevap.config import default_config
from shadowevap.errors import DenominatorCollapse, ShadowEvapError, ValidationError
from shadowevap.geometry import (
    EvaporationStep,
    JunctionSpec,
    MaskStack,
    ShadowAxis,
    SourceKind,
    SourceModel,
    TiltSign,
    WaferSite,
)
from shadowevap.wafer import (
    DEFAULT_MAX_DRAWN_NM,
    BiasModel,
    CenterWidthsTarget,
    CorrectionRow,
    ExplicitAreaTarget,
    ProcessConfig,
    SiteResult,
    WaferLayout,
    center_reference_widths,
    compensate_wafer,
    resimulate_with_corrections,
    simulate_wafer,
)

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --- the scalar oracle ------------------------------------------------------


def oracle_site(config, model, x_mm, y_mm):
    source = config.source
    if model is BiasModel.POINT_SOURCE:
        source = replace(source, kind=SourceKind.POINT)
    if model is BiasModel.CONSTANT:
        x_mm = y_mm = 0.0
    throw = source.distance_mm * geometry.NM_PER_MM
    radius = source.effective_radius_mm * geometry.NM_PER_MM
    mask, eps = config.mask, config.epsilon_center_mm
    # Deposition order: the bottom electrode (angle, film, terms), then the top.
    theta_b = geometry.local_incidence_angle(WaferSite(x_mm, 0.0), config.bottom_step, source)
    t_prime = geometry.sidewall_thickness(theta_b, config.bottom_step.film_t0_nm)
    center_b = abs(x_mm) <= eps
    terms_b = geometry.checked_terms(
        geometry.bottom_terms(
            x_mm * geometry.NM_PER_MM, radius, throw, mask.top_nm, mask.bottom_nm,
            math.cos(theta_b), center_b,
        ),
        False,
        center_b,
    )
    theta_t = geometry.local_incidence_angle(WaferSite(0.0, y_mm), config.top_step, source)
    center_t = abs(y_mm) <= eps
    terms_t = geometry.checked_terms(
        geometry.top_terms(
            t_prime, radius, throw, mask.top_nm, mask.bottom_nm,
            math.sin(theta_t), math.cos(theta_t), center_t,
        ),
        True,
        center_t,
    )
    return theta_b, theta_t, t_prime, terms_b, terms_t


def at_site(site, exc):
    return type(exc)(f"site ({site.x_mm}, {site.y_mm}) mm: {exc}")


def row_major(items):
    return sorted(items, key=lambda item: (item.y_mm, item.x_mm))


def oracle_on_wafer(config, sites):
    """Refuse the first site not on the wafer, as every sweep does before
    it evaluates any site (a NaN offset is not on it)."""
    limit = config.layout.wafer_diameter_mm / 2.0 + 1e-9
    for site in sites:
        if not math.hypot(site.x_mm, site.y_mm) <= limit:
            raise ValidationError(f"site ({site.x_mm}, {site.y_mm}) mm lies outside the wafer")


def oracle_sweep(config, model, rows):
    """rows: (site, drawn bottom, drawn top) in (row, column) order."""
    oracle_on_wafer(config, [site for site, _, _ in rows])
    _, _, _, center_b, center_t = oracle_site(config, model, 0.0, 0.0)
    w_b0 = geometry.printed_width(config.junction.drawn_bottom_nm, center_b)
    w_t0 = geometry.printed_width(config.junction.drawn_top_nm, center_t)
    out = []
    for site, drawn_b, drawn_t in rows:
        try:
            th_b, th_t, t_prime, terms_b, terms_t = oracle_site(
                config, model, site.x_mm, site.y_mm
            )
            w_b = geometry.printed_width(drawn_b, terms_b)
            w_t = geometry.printed_width(drawn_t, terms_t)
        except ShadowEvapError as exc:
            raise at_site(site, exc) from exc
        area = geometry.overlap_area(w_b, w_t)
        out.append(
            SiteResult(
                site.x_mm, site.y_mm, th_b, th_t, t_prime, w_b, w_t, area, w_b - w_b0, w_t - w_t0
            )
        )
    return out


class Unreachable(Exception):
    """The oracle's reason a site cannot print the target; compensate
    lists such sites as rejections."""


def oracle_drawn(name, target, terms):
    if geometry.inverse_slope(terms) <= 0.0:
        raise Unreachable("printed width does not grow with the drawn width")
    drawn = geometry.inverse_width(target, terms)
    if not 0.0 < drawn <= DEFAULT_MAX_DRAWN_NM:
        raise Unreachable(
            f"required drawn {name} width {drawn:.3f} nm outside "
            f"(0, {DEFAULT_MAX_DRAWN_NM}] nm"
        )
    return drawn


def oracle_compensate(config, target, sites):
    if isinstance(target, CenterWidthsTarget):
        _, _, _, center_b, center_t = oracle_site(config, BiasModel.NON_POINT, 0.0, 0.0)
        tw_b = geometry.printed_width(config.junction.drawn_bottom_nm, center_b)
        tw_t = geometry.printed_width(config.junction.drawn_top_nm, center_t)
    else:
        area_nm2 = target.area_um2 * 1.0e6
        tw_b = math.sqrt(area_nm2 * target.aspect)
        tw_t = math.sqrt(area_nm2 / target.aspect)
    target_area = tw_b * tw_t / 1.0e6
    oracle_on_wafer(config, sites)
    rows, rejections = [], []
    for site in sites:
        try:
            _, _, _, terms_b, terms_t = oracle_site(
                config, BiasModel.NON_POINT, site.x_mm, site.y_mm
            )
            drawn_b = oracle_drawn("bottom", tw_b, terms_b)
            drawn_t = oracle_drawn("top", tw_t, terms_t)
            area = geometry.overlap_area(
                geometry.printed_width(drawn_b, terms_b),
                geometry.printed_width(drawn_t, terms_t),
            )
        except Unreachable as exc:
            rejections.append((site, str(at_site(site, exc))))
            continue
        except ShadowEvapError as exc:
            raise at_site(site, exc) from exc
        rows.append(
            CorrectionRow(
                site.x_mm, site.y_mm, drawn_b, drawn_t, area, (area - target_area) / target_area
            )
        )
    return tw_b, tw_t, rows, rejections


def outcome(fn):
    """repr of each result row, or the error's type and text."""
    try:
        return [repr(r) for r in fn()]
    except (ShadowEvapError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


# --- strategies ---------------------------------------------------------------


@st.composite
def configs(draw):
    # Throws of a few hundred nm to a few um put the mask denominators,
    # and with them DenominatorCollapse, within reach; long throws give
    # valid maps, and thick films or narrow drawn widths NonPhysicalWidth.
    distance = draw(st.one_of(st.floats(0.0006, 0.004), st.floats(50.0, 2000.0)))

    def step():
        return EvaporationStep(
            tilt_deg=draw(st.floats(0.0, 85.0)),
            shadow_axis=draw(st.sampled_from(ShadowAxis)),
            tilt_sign=draw(st.sampled_from(TiltSign)),
            film_t0_nm=draw(st.floats(1.0, 150.0)),
        )

    return ProcessConfig(
        layout=WaferLayout(grid_pitch_mm=draw(st.sampled_from([5.0, 7.0, 35.0]))),
        source=SourceModel(
            distance_mm=distance,
            radius_mm=draw(st.floats(0.0, 0.9)) * distance,
            kind=draw(st.sampled_from(SourceKind)),
        ),
        mask=MaskStack(top_nm=draw(st.floats(10.0, 600.0)), bottom_nm=draw(st.floats(10.0, 600.0))),
        junction=JunctionSpec(
            drawn_bottom_nm=draw(st.floats(30.0, 600.0)),
            drawn_top_nm=draw(st.floats(30.0, 600.0)),
        ),
        bottom_step=step(),
        top_step=step(),
        epsilon_center_mm=draw(st.one_of(st.sampled_from([0.0, 0.5, 2.5]), st.floats(0.0, 10.0))),
    )


@st.composite
def site_lists(draw, eps):
    """Scattered sites inside the wafer, with repeats, signed zeros and
    offsets at the center band's edge and one ulp either side."""
    edges = [eps, math.nextafter(eps, math.inf), math.nextafter(eps, -math.inf)]
    special = [0.0, -0.0, 35.0, -35.0] + edges + [-e for e in edges]
    coordinate = st.one_of(st.floats(-35.0, 35.0), st.sampled_from(special))
    pool = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return [WaferSite(x, y, chip_id=f"c{i}") for i, (x, y) in enumerate(picks)]


def with_sites(config, sites):
    """The config with its layout cut to the sites (WaferSite records),
    as the Table of their coordinates and chip ids."""
    table = site_table([(s.x_mm, s.y_mm) for s in sites], [s.chip_id for s in sites])
    return replace(config, layout=replace(config.layout, sites=table))


@st.composite
def scenarios(draw):
    config = draw(configs())
    sites = draw(site_lists(config.epsilon_center_mm))
    return with_sites(config, sites), sites


# --- edge cases ---------------------------------------------------------------


EPS = geometry.DEFAULT_EPSILON_CENTER_MM


def stack(eps=EPS, **changes):
    """The default stack with `changes` under a point source; see EDGE_CASES."""
    source = SourceModel(changes.pop("distance_mm"), 0.0, SourceKind.POINT)
    return replace(default_config(), source=source, epsilon_center_mm=eps, **changes)


#: A throw of 2 um over a 500 nm bottom layer at a 70 deg bottom tilt: the
#: bottom electrode's general-branch denominator q is negative at x =
#: -0.02 mm and positive at the other sites; the top's is positive.
STEEP = dict(
    distance_mm=0.002,
    bottom_step=EvaporationStep(70.0, ShadowAxis.ALONG_X, TiltSign.PLUS, 5.0),
    top_step=EvaporationStep(0.0, ShadowAxis.ALONG_Y, TiltSign.PLUS, 5.0),
    eps=0.0001,
)
STEEP_SITES = [(0.0, -0.001), (0.001, -0.001), (-0.005, 0.0), (0.0, 0.0), (0.00188, 0.0)]
#: A point source 0.5 um away at tilt 0 over the 500 nm bottom layer: q
#: is exactly 0 in the bottom center branch at x = 0 (and negative at the
#: rest of the band), and the top's q is at most 0 everywhere.
ZERO_Q = dict(distance_mm=0.0005, bottom_step=EvaporationStep(0.0, ShadowAxis.ALONG_X))
#: A 1 um throw at a 30 deg bottom tilt over a 1 um top layer: right below
#: the source, at x = D sin 30 deg, the bottom angle is exactly 0 and the
#: general branch's q = D - H exactly 0 (negative at any other x outside
#: the band); the top's q is positive.
BELOW_SOURCE = dict(
    distance_mm=0.001,
    bottom_step=EvaporationStep(30.0, ShadowAxis.ALONG_X),
    top_step=EvaporationStep(0.0, ShadowAxis.ALONG_Y),
    mask=MaskStack(top_nm=1000.0, bottom_nm=100.0),
    eps=0.0001,
)
BELOW_X = 0.001 * math.sin(math.radians(30.0))
#: A throw of 1e100 mm on a wafer 1e130 mm across: at an offset of 1e125
#: mm an angle rounds to exactly 90 deg, yet the denominators stay
#: positive and the bottom width finite.
FAR = dict(distance_mm=1e100, layout=WaferLayout(wafer_diameter_mm=1e130))

NAN_X = "ValidationError: site (nan, 0.0) mm lies outside the wafer"
NAN_Y = "ValidationError: site (0.0, nan) mm lies outside the wafer"

#: (config, sites) the drawn scenarios may miss, and the first error that
#: compensating to a 0.04 um^2 area raises on them (None: no error).
EDGE_CASES = {
    "signed zeros and band edges": (
        default_config(),
        [(-0.0, 3.0), (0.0, -0.0), (EPS, -EPS), (-EPS, EPS), (-0.0, EPS), (EPS, -0.0),
         (math.nextafter(EPS, math.inf), 0.0), (-EPS, -0.0)],
        None,
    ),
    "duplicates": (
        default_config(),
        [(1.5, 2.5), (1.5, 2.5), (-4.0, 2.5), (1.5, -4.0), (-4.0, 2.5), (0.0, 0.0), (0.0, 0.0)],
        None,
    ),
    "q > 0 at every x": (stack(**STEEP), STEEP_SITES, None),
    "q < 0 at one x": (
        stack(**STEEP),
        [*STEEP_SITES, (-0.02, 0.0)],
        "DenominatorCollapse: site (-0.02, 0.0) mm: "
        "throw D cos(theta) does not clear the top mask layer",
    ),
    "q = 0 at one x": (
        stack(**BELOW_SOURCE),
        [(0.0, -0.00005), (BELOW_X, 0.0), (0.0, 0.0)],
        f"DenominatorCollapse: site ({BELOW_X}, 0.0) mm: "
        "throw D cos(theta) does not clear the top mask layer",
    ),
    "grazing bottom angle": (
        stack(**FAR),
        [(0.0, 0.0), (1e125, 0.0)],
        "GrazingIncidence: site (1e+125, 0.0) mm: "
        "flux incidence >= 90 deg at site (1e+125, 0.0) mm",
    ),
    "grazing top angle": (
        stack(**FAR),
        [(0.0, 0.0), (0.0, 1e125)],
        "GrazingIncidence: site (0.0, 1e+125) mm: "
        "flux incidence >= 90 deg at site (0.0, 1e+125) mm",
    ),
    # A library caller's NaN is not on the wafer (see TestOffWafer).
    "NaN x": (default_config(), [(math.nan, 0.0)], NAN_X),
    "NaN y": (default_config(), [(0.0, math.nan)], NAN_Y),
    "q = 0 at x = 0": (
        stack(**ZERO_Q),
        [(0.0003, 0.0), (0.0, 0.0)],
        "DenominatorCollapse: site (0.0, 0.0) mm: "
        "throw D cos(theta) does not clear the bottom mask layer",
    ),
    "q = 0 at x = 0, after a top collapse": (
        stack(eps=0.0001, **ZERO_Q),
        [(0.0, 0.0), (-0.0002, 0.0)],
        "DenominatorCollapse: site (-0.0002, 0.0) mm: "
        "throw D does not clear the bottom mask layer",
    ),
}


def edge_case(name):
    config, points, error = EDGE_CASES[name]
    sites = [WaferSite(x, y) for x, y in points]
    return with_sites(config, sites), sites, error


def quiet(fn):
    """`fn`, with any warning (a numpy RuntimeWarning, say) raised."""

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fn()

    return run


# --- properties ---------------------------------------------------------------


class TestForwardParity:
    @SETTINGS
    @given(scenarios(), st.sampled_from(BiasModel))
    def test_explicit_sites(self, scenario, model):
        config, sites = scenario
        junction = config.junction
        rows = [(s, junction.drawn_bottom_nm, junction.drawn_top_nm) for s in row_major(sites)]
        assert outcome(lambda: simulate_wafer(config, model)) == outcome(
            lambda: oracle_sweep(config, model, rows)
        )

    @SETTINGS
    @given(configs(), st.sampled_from(BiasModel))
    def test_grid(self, config, model):
        offsets = config.layout.grid_offsets()
        junction = config.junction
        rows = [
            (WaferSite(x, y), junction.drawn_bottom_nm, junction.drawn_top_nm)
            for y in offsets
            for x in offsets
        ]
        assert outcome(lambda: simulate_wafer(config, model)) == outcome(
            lambda: oracle_sweep(config, model, rows)
        )

    @SETTINGS
    @given(scenarios(), st.data())
    def test_resimulate(self, scenario, data):
        config, sites = scenario
        drawn = st.one_of(st.floats(1.0, 800.0), st.sampled_from([0.0, -1.0]))
        given_rows = [
            CorrectionRow(s.x_mm, s.y_mm, data.draw(drawn), data.draw(drawn), 0.04, 0.0)
            for s in sites
        ]

        def oracle():
            rows = row_major(given_rows)
            oracle_on_wafer(config, rows)
            for r in rows:
                if not (r.drawn_w_bottom_nm > 0 and r.drawn_w_top_nm > 0):
                    raise ValidationError(
                        f"site ({r.x_mm}, {r.y_mm}) mm: drawn widths must be > 0"
                    )
            return oracle_sweep(
                config,
                BiasModel.NON_POINT,
                [(r, r.drawn_w_bottom_nm, r.drawn_w_top_nm) for r in rows],
            )

        assert outcome(lambda: resimulate_with_corrections(config, given_rows)) == outcome(
            oracle
        )

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_edge_sites(self, name):
        config, sites, _ = edge_case(name)
        junction = config.junction
        rows = [(s, junction.drawn_bottom_nm, junction.drawn_top_nm) for s in row_major(sites)]
        for model in BiasModel:
            assert outcome(quiet(lambda: simulate_wafer(config, model))) == outcome(
                lambda: oracle_sweep(config, model, rows)
            )
        corrections = [CorrectionRow(s.x_mm, s.y_mm, *drawn, 0.04, 0.0) for s, *drawn in rows]
        assert outcome(quiet(lambda: resimulate_with_corrections(config, corrections))) == (
            outcome(lambda: oracle_sweep(config, BiasModel.NON_POINT, rows))
        )


def test_center_error_has_no_site_prefix():
    """The center widths every bias map is relative to raise the center's
    own error, without the site prefix a sweep gives it."""
    with pytest.raises(DenominatorCollapse) as caught:
        center_reference_widths(stack(**ZERO_Q))
    assert str(caught.value) == "throw D cos(theta) does not clear the bottom mask layer"


class TestInverseParity:
    @SETTINGS
    @given(
        scenarios(),
        st.one_of(
            st.just(CenterWidthsTarget()),
            # Extreme areas and aspects make one electrode unreachable
            # (drawn width <= 0 or above DEFAULT_MAX_DRAWN_NM) on its own.
            st.builds(
                ExplicitAreaTarget,
                area_um2=st.floats(1e-5, 50.0),
                aspect=st.floats(0.05, 20.0),
            ),
        ),
    )
    def test_compensate(self, scenario, target):
        config, sites = scenario
        assert outcome(lambda: compensated(config, target)) == outcome(
            lambda: oracle_compensated(config, target, sites)
        )

    @pytest.mark.parametrize("name", EDGE_CASES)
    @pytest.mark.parametrize("target", [CenterWidthsTarget(), ExplicitAreaTarget(0.04)])
    def test_edge_sites(self, name, target):
        config, sites, error = edge_case(name)
        got = outcome(quiet(lambda: compensated(config, target)))
        assert got == outcome(lambda: oracle_compensated(config, target, sites))
        if isinstance(target, ExplicitAreaTarget):
            assert (got if isinstance(got, str) else None) == error


def compensated(config, target):
    table = compensate_wafer(config, target)
    return [
        repr((table.target_w_bottom_nm, table.target_w_top_nm)),
        *map(repr, table.rows),
        *map(repr, table.rejections),
    ]


def oracle_compensated(config, target, sites):
    tw_b, tw_t, rows, rejections = oracle_compensate(config, target, row_major(sites))
    return [repr((tw_b, tw_t)), *map(repr, rows), *map(repr, rejections)]


class TestOffWafer:
    @pytest.mark.parametrize("name, error", [("NaN x", NAN_X), ("NaN y", NAN_Y)])
    def test_nan_offset(self, name, error):
        """Every sweep refuses a NaN offset by the site's coordinates.
        Before, the rim check let it through: `simulate_wafer` then
        raised a NaN x as an angle out of range and a NaN y as a printed
        width of nan, and `compensate_wafer` rejected it as unreachable."""
        config, [site], _ = edge_case(name)
        row = CorrectionRow(site.x_mm, site.y_mm, 200.0, 200.0, 0.04, 0.0)
        for sweep in (
            lambda: simulate_wafer(config),
            lambda: compensate_wafer(config, ExplicitAreaTarget(0.04)),
            lambda: compensate_wafer(config),
            lambda: resimulate_with_corrections(default_config(), [row]),
        ):
            assert outcome(quiet(sweep)) == error


class TestPublicScalarChain:
    def test_default_grid_bit_for_bit(self):
        """The public per-site chain that the benchmark's `site_eval_us`
        times, called with the same arguments at every site of the
        default grid, gives the sweep's angles, film, widths and areas
        exactly."""
        config = default_config()
        src, eps = config.source, config.epsilon_center_mm
        junction, mask = config.junction, config.mask
        bottom, top = config.bottom_step, config.top_step
        sites = config.layout.generate_sites()
        results = simulate_wafer(config)
        assert len(sites) == len(results) == 225
        for s, r in zip(sites, results):
            tb = geometry.local_incidence_angle(WaferSite(s.x_mm, 0.0), bottom, src)
            tt = geometry.local_incidence_angle(WaferSite(0.0, s.y_mm), top, src)
            tp = geometry.sidewall_thickness(tb, bottom.film_t0_nm)
            wb = geometry.bottom_width(junction, mask, tb, s.x_mm, src, epsilon_center_mm=eps)
            wt = geometry.top_width(junction, mask, tt, tp, s.y_mm, src, epsilon_center_mm=eps)
            area = geometry.overlap_area(wb, wt)
            assert (s.x_mm, s.y_mm, tb, tt, tp, wb, wt, area) == (
                r.x_mm, r.y_mm, r.theta_bottom_rad, r.theta_top_rad, r.t_prime_nm,
                r.w_bottom_nm, r.w_top_nm, r.area_um2,
            )

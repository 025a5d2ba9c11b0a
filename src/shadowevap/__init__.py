"""Shadow-evaporation geometry simulation, wafer-scale mask-bias
compensation and junction electrical statistics for Dolan-bridge
Josephson junction fabrication."""

from .config import default_config, load_config
from .errors import (
    AxisMismatch,
    ComputationError,
    DegenerateFit,
    DenominatorCollapse,
    DomainError,
    EmptyInput,
    EmptyOrSingleton,
    GrazingIncidence,
    IoError,
    NonPhysicalWidth,
    NonPositiveFrequency,
    NonPositiveMean,
    ParseError,
    ShadowEvapError,
    UnknownField,
    Unreachable,
    ValidationError,
    ZeroValidRows,
)
from .geometry import (
    EvaporationStep,
    JunctionSpec,
    MaskStack,
    ShadowAxis,
    SourceKind,
    SourceModel,
    TiltSign,
    WaferSite,
    bottom_width,
    local_incidence_angle,
    overlap_area,
    closed_form_complement_angle,
    sidewall_thickness,
    top_width,
)
from .stats import (
    MeasurementRecord,
    PropagationResult,
    QubitParams,
    StatsSummary,
    aggregate,
    coefficient_of_variation,
    critical_current_density,
    fit_gap,
    implied_gap_uev,
    propagate_cv_monte_carlo,
    resistance_sensitivity,
    transmon_frequency,
)
from .wafer import (
    Axis,
    BiasModel,
    CenterWidthsTarget,
    CorrectionRow,
    CorrectionTable,
    Electrode,
    ExplicitAreaTarget,
    ProcessConfig,
    SiteResult,
    WaferLayout,
    bias_profile,
    center_reference_widths,
    compensate_wafer,
    residual_report,
    resimulate_with_corrections,
    simulate_wafer,
)

__version__ = "0.1.0"

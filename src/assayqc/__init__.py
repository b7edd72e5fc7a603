"""assayqc: assay quality metrics, simulation studies and hit selection.

Parametric metrics (S/N, S/B, Z'-factor, SSMD, CNR) and their
overlap-based non-parametric counterparts (OVL, GCNR, signed GSSMD) over
control samples, deterministic seeded simulation runners, null lower-bound
calibration, and plate-format hit selection with four threshold rules.
"""

from .errors import (
    AssayQCError,
    ConfigError,
    DataValidationError,
    DegenerateMeanDifference,
    DegenerateVariance,
    DivisionByZeroMean,
    DuplicateWell,
    EmptySampleSet,
    InsufficientControls,
    InvalidRuleParameter,
    InvalidSubsampleSize,
    MalformedRow,
    NonFiniteValue,
    NonPositiveValue,
    NumericError,
    SingleClassInput,
    UnknownRole,
    UnknownScenario,
    ZeroPowerSignal,
    ZeroSign,
)
from .hits import (
    Direction,
    GssmdThreshold,
    HitReport,
    LogisticModel,
    RuleKind,
    ThresholdRule,
    assay_quality,
    compute_threshold,
    evaluate_threshold,
    fit_logistic_1d,
    gssmd_threshold,
    select_hits,
    sigma_rule_threshold,
    ssmd_rule_threshold,
)
from .metrics import cnr, sbr, snr_assay, ssmd, z_factor
from .overlap import (
    HistogramPair,
    OverlapResult,
    bin_count,
    build_histogram_pair,
    gssmd,
    ovl,
)
from .plates import Plate, Well, WellRole, load_plate_csv
from .report import (
    ACCEPTANCE_THRESHOLDS,
    MetricReport,
    RunManifest,
    __version__,
    compute_metric_report,
    json_dumps,
)
from .samples import SampleSet, SummaryStats, summarize
from .scenarios import SCENARIO_NAMES, default_config, run_scenario
from .simulation import (
    DEFAULT_CALIBRATION_SIZES,
    DistributionSpec,
    GridPoint,
    NullCalibrationRow,
    NullCalibrationTable,
    ScenarioConfig,
    ScenarioResult,
    SubsampleEstimate,
    TrialAggregate,
    add_awgn,
    calibrate_null,
    derive_seed,
    draw,
    inject_outliers,
    run_mean_difference_sweep,
    run_noise_sweep,
    run_outlier_sweep,
    run_subsampled_estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Multi-level energy detection for OFDMA spectrum sensing under I/Q imbalance.

The receiver decides, per subcarrier pair (k, -k), between four states:
noise only, mirror leakage only, own signal only, or both.  This package
provides the closed-form statistics of that test, the decision rule and
its two-level baselines, a deterministic Monte Carlo harness that
cross-checks the closed forms, and a CLI (``iqsense``) over all of it.
"""

from .detection import (
    CONVENTIONS,
    DecisionRule,
    DetectorMode,
    Hypothesis,
    HypothesisVariances,
    VarianceOrderError,
    analytic_detection,
    analytic_false_alarm,
    classify_batch,
    conditional_probabilities,
    decision_rule,
    detection_paper_literal,
    false_alarm_paper_literal,
    hypothesis_variances,
    pairwise_threshold,
    pairwise_threshold_paper,
    thresholds_paper_literal,
    two_level_rule,
)
from .frame import FrameResult, OccupancyMap, simulate_frame
from .montecarlo import (
    ModeComparison,
    SeedSpec,
    SensingScenario,
    SweepPoint,
    TallyMatrix,
    compare_modes,
    empirical_metrics,
    estimate_component_variances,
    run_trials,
    scenario_rule,
    scenario_variances,
    substream,
    sweep,
)
from .numerics import gamma_pdf, gamma_sf, inverse_gamma_sf, regularized_upper_gamma
from .outage import OutageScenario, analytic_outage, mc_outage, outage_paper_literal
from .signal_model import (
    IqMismatch,
    MismatchCoefficients,
    SubcarrierPairConfig,
    image_rejection_ratio,
    image_rejection_ratio_db,
    irr_to_mismatch,
    mismatch_coefficients,
)
from .stats import Estimate, wilson_interval

__version__ = "0.1.0"

__all__ = [
    "CONVENTIONS",
    "DecisionRule",
    "DetectorMode",
    "Estimate",
    "FrameResult",
    "Hypothesis",
    "HypothesisVariances",
    "IqMismatch",
    "MismatchCoefficients",
    "ModeComparison",
    "OccupancyMap",
    "OutageScenario",
    "SeedSpec",
    "SensingScenario",
    "SubcarrierPairConfig",
    "SweepPoint",
    "TallyMatrix",
    "VarianceOrderError",
    "analytic_detection",
    "analytic_false_alarm",
    "analytic_outage",
    "classify_batch",
    "compare_modes",
    "conditional_probabilities",
    "decision_rule",
    "detection_paper_literal",
    "empirical_metrics",
    "estimate_component_variances",
    "false_alarm_paper_literal",
    "gamma_pdf",
    "gamma_sf",
    "hypothesis_variances",
    "image_rejection_ratio",
    "image_rejection_ratio_db",
    "inverse_gamma_sf",
    "irr_to_mismatch",
    "mc_outage",
    "mismatch_coefficients",
    "outage_paper_literal",
    "pairwise_threshold",
    "pairwise_threshold_paper",
    "regularized_upper_gamma",
    "run_trials",
    "scenario_rule",
    "scenario_variances",
    "simulate_frame",
    "substream",
    "sweep",
    "thresholds_paper_literal",
    "two_level_rule",
    "wilson_interval",
]

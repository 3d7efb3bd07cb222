"""Multi-level energy detection for OFDMA spectrum sensing under I/Q imbalance.

The receiver decides, per subcarrier pair (k, -k), between four states:
noise only, mirror leakage only, own signal only, or both.  This package
provides the closed-form statistics of that test, the decision rule and
its two-level baselines, a deterministic Monte Carlo harness that
cross-checks the closed forms, and a CLI (``iqsense``) over all of it.
"""

from types import ModuleType as _ModuleType

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
    SeedSpec,
    SensingScenario,
    SweepPoint,
    TallyMatrix,
    empirical_metrics,
    estimate_component_variances,
    p_fa_gap,
    run_trials,
    scenario_rule,
    scenario_variances,
    substream,
    sweep,
)
from .numerics import gamma_sf, inverse_gamma_sf, regularized_upper_gamma
from .outage import OutageScenario, analytic_outage, mc_outage, outage_paper_literal
from .signal_model import (
    IqMismatch,
    MismatchCoefficients,
    SubcarrierPairConfig,
    irr_to_mismatch,
    mismatch_coefficients,
)
from .stats import Estimate, wilson_interval

__version__ = "0.1.0"

# The package API is what the imports above bring in: every public name but the submodules.
__all__ = sorted(n for n, v in globals().items()
                 if not n.startswith("_") and not isinstance(v, _ModuleType))

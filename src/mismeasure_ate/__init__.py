"""Misclassification- and selection-bias-corrected IPW estimation of the
average treatment effect, with stacked-estimating-equation sandwich
inference and a Monte Carlo simulation lab."""

__version__ = "0.1.0"

from .frames import (  # noqa: E402
    ESTIMATOR_IDS,
    AteEstimate,
    MisclassRates,
    ObservationFrame,
)
from .estimators import (  # noqa: E402
    compute_b_opt,
    corrected_contrast,
)
from .inference import (  # noqa: E402
    FrameAnalysis,
    StackedParams,
    analyze_frame,
    build_system,
    combine_delta,
    confidence_interval,
    sandwich,
    solve_plugin,
)
from .simulation import (  # noqa: E402
    DgpConfig,
    ScenarioConfig,
    ScenarioResult,
    SelectionConfig,
    calibrate_intercept,
    generate_population,
    run_scenario,
    scenario_catalog,
    select_validation,
    true_ate_oracle,
)

__all__ = [
    "ESTIMATOR_IDS",
    "AteEstimate",
    "MisclassRates",
    "ObservationFrame",
    "compute_b_opt",
    "corrected_contrast",
    "FrameAnalysis",
    "StackedParams",
    "analyze_frame",
    "build_system",
    "combine_delta",
    "confidence_interval",
    "sandwich",
    "solve_plugin",
    "DgpConfig",
    "ScenarioConfig",
    "ScenarioResult",
    "SelectionConfig",
    "calibrate_intercept",
    "generate_population",
    "run_scenario",
    "scenario_catalog",
    "select_validation",
    "true_ate_oracle",
]

"""Optimal multistep prediction for autoregressions with a unit root.

The package covers the full workflow: exact model algebra
(model_core), asymptotic loss functions of the plug-in and direct
predictors (theory_losses), least-squares fitting (estimation),
forecasting (prediction), data-driven order-and-method selection by
sequential prediction errors or penalized criteria (selection), and a
Monte Carlo harness (simulation).  ``arstep`` on the command line
exposes the same functionality.
"""

from .errors import (ArstepError, InsufficientHistory, NonFiniteCriterion,
                     NonFiniteSeries, NotUnitRoot, SeriesTooShort,
                     SingularDesign, SingularGamma, UnstableStationaryPart,
                     WindowTooShort)
from .estimation import (FittedCoefficients, fit_direct, fit_one_step,
                         fitted_ma_weights, lag_matrix, plug_in_multi,
                         residual_mse)
from .model_core import (DIRECT, PLUG_IN, DirectCoefficients, MaWeights,
                         StationaryArModel, UnitRootArModel, companion_apply,
                         companion_matrix, deflate_unit_root, difference,
                         direct_coefficients, impulse_response,
                         level_ma_weights, ma_weights, sigma_h_squared)
from .prediction import Forecast, PredictorSpec, predict
from .selection import (DEFAULT_PENALTY, PENALTY_PRESETS, PenaltyWeight,
                        SelectionOutcome, accumulated_prediction_error,
                        direct_criterion, min_start_index, plugin_criterion,
                        select_by_ape, select_by_criterion)
from .simulation import (DGPS, DgpSpec, FrequencyTable, MspeEstimate,
                         estimate_mspe, generate, model_for,
                         replication_seed, run_frequency_experiment)
from .theory_losses import (AutocovarianceTable, TheoreticalLoss,
                            autocovariances, best_combinations,
                            closed_form_h2, direct_cost, loss, loss_table,
                            minimal_order_cost_gap, plugin_cost,
                            quartic_family)

__version__ = "0.1.0"

__all__ = [
    "ArstepError", "NotUnitRoot", "UnstableStationaryPart", "SingularGamma",
    "SingularDesign", "WindowTooShort", "SeriesTooShort",
    "InsufficientHistory", "NonFiniteSeries", "NonFiniteCriterion",
    "PLUG_IN", "DIRECT", "UnitRootArModel", "StationaryArModel",
    "DirectCoefficients", "MaWeights", "deflate_unit_root",
    "companion_matrix", "companion_apply", "direct_coefficients",
    "impulse_response", "ma_weights", "level_ma_weights", "sigma_h_squared",
    "difference",
    "AutocovarianceTable", "TheoreticalLoss", "autocovariances",
    "plugin_cost", "direct_cost", "closed_form_h2", "loss", "loss_table",
    "best_combinations", "quartic_family", "minimal_order_cost_gap",
    "FittedCoefficients", "lag_matrix", "fit_one_step",
    "plug_in_multi", "fit_direct", "residual_mse", "fitted_ma_weights",
    "PredictorSpec", "Forecast", "predict",
    "PenaltyWeight", "PENALTY_PRESETS", "DEFAULT_PENALTY",
    "SelectionOutcome", "min_start_index", "accumulated_prediction_error",
    "select_by_ape", "plugin_criterion", "direct_criterion",
    "select_by_criterion",
    "DgpSpec", "DGPS", "model_for", "replication_seed", "generate",
    "FrequencyTable", "run_frequency_experiment", "MspeEstimate",
    "estimate_mspe",
    "__version__",
]

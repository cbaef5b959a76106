"""cascadyn: per-user Weibull behavioral dynamics and cascade prediction.

Fit each user's response-time law from cascade logs (optionally regularized
toward a regression on network covariates), then predict a cascade's final
size, its size at any later time, and its outbreak time from an observed
early stage.
"""

from .errors import CascadynError, DataError, NumericsError
from .evaluate import (
    ExperimentReport,
    PredictionRecord,
    dominance_report,
    process_precision,
    rmsle,
    run_experiment,
    sigma_precision,
)
from .features import (
    Cascade,
    CascadeEvent,
    Network,
    extract_features,
    extract_subcascades,
    filter_cascades,
)
from .fitting import (
    DEFAULT_HYPERPARAMS,
    FeatureMatrix,
    FitOptions,
    FitReport,
    FittedUsers,
    Hyperparams,
    NewerModel,
    SubcascadeSample,
    SubcascadeTable,
    fit_model,
    fit_newer,
    newer_objective,
    regress_out_of_sample,
    user_log_likelihood,
)
from .predict import (
    BasicPredictor,
    ModelDynamics,
    PartialCascade,
    ProcessCurve,
    SamplingPredictor,
)
from .simulate import SimConfig, gen_cascades, gen_network, gen_user_dynamics
from .survival import (
    EmpiricalSurvival,
    WeibullParams,
    empirical_survival_at,
    ks_statistic,
    weibull_hazard,
    weibull_pdf,
    weibull_survival,
    weibull_survival_inverse,
)

__version__ = "0.1.0"

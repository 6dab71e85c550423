"""Localized kernel learning with influence-function robustness audits.

Trains regularized kernel predictors per region of the input space,
combines them with partition-of-unity weights, and certifies the composed
predictor's robustness against closed-form influence-function and maxbias
bounds.
"""

from .composer import (ComposedModel, ModelConfig, empirical_risk, fit_composed,
                       predict_composed)
from .data import Dataset, WeightedSample
from .errors import ConvergenceError, InputError, LocalSvmError
from .experiments import (LambdaSchedule, PartitionConfig, SyntheticTask,
                          consistency_trend, generate, tradeoff_sweep)
from .kernels import (GaussianRBF, Kernel, Linear, Polynomial, kernel_from_dict,
                      sup_norm_on_region)
from .losses import (LogisticClassification, LogisticRegression, SmoothLoss,
                     loss_from_name)
from .regions import (RegionPartition, RegionPredicate, WeightScheme,
                      regionalize, restrict, weight_sup_norm)
from .robustness import (AuditContext, AuditReport, InfluenceEstimate,
                         LadderConvergenceWarning, adversarial_q_specs,
                         contaminate_region, decomposition_check,
                         default_probes, finite_diff_if, if_bound,
                         maxbias_probe, run_audit, tv_refined_if_bound)
from .solver import (IdentityReport, LocalModel, TrainConfig, audit_model_bounds,
                     objective, shifted_unshifted_identity_check, train)

__version__ = "0.1.0"

__all__ = [
    "AuditContext", "AuditReport", "ComposedModel", "ConvergenceError", "Dataset",
    "GaussianRBF", "IdentityReport", "InfluenceEstimate", "InputError", "Kernel",
    "LadderConvergenceWarning", "LambdaSchedule", "Linear", "LocalModel",
    "LocalSvmError", "LogisticClassification", "LogisticRegression",
    "ModelConfig", "PartitionConfig", "Polynomial", "RegionPartition",
    "RegionPredicate", "SmoothLoss",
    "SyntheticTask", "TrainConfig", "WeightScheme", "WeightedSample",
    "adversarial_q_specs", "audit_model_bounds", "consistency_trend",
    "contaminate_region", "decomposition_check", "default_probes",
    "empirical_risk", "finite_diff_if", "fit_composed", "generate",
    "if_bound", "kernel_from_dict", "loss_from_name",
    "maxbias_probe", "objective", "predict_composed", "regionalize",
    "restrict", "run_audit", "shifted_unshifted_identity_check",
    "sup_norm_on_region", "tradeoff_sweep", "train", "tv_refined_if_bound",
    "weight_sup_norm",
]

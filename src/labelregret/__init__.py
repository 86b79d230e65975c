"""Quantify how much a probabilistic classifier's per-point predictions would
change had the training labels been drawn differently.

The core object is the per-point resampling variance ("regret"): redraw every
label from its (fitted or true) conditional probability, refit, and measure
the variance of each point's predicted probability across refits. For
logistic regression a closed form approximates this variance without any
refitting; the theory module computes it together with its applicability
bound, and the harness module reproduces the selective-prediction and
active-learning use cases on semi-synthetic data.
"""

from .config import ExperimentConfig
from .dataset import (Dataset, LabelDrawSeed, SemiSyntheticDataset, draw_labels,
                      gaussian_features, load_csv, load_semisynthetic,
                      save_semisynthetic, semisynthetic_from_model,
                      standardize_features, two_cluster_population)
from .errors import LabelRegretError
from .glm import (EchoTrainer, FitOptions, LogisticModel, LogisticTrainer,
                  TrainerHandle, auc, bernoulli_kl, design_matrix, fit_logistic,
                  load_model, log_loss, mean_kl, predict_proba, sigmoid)
from .harness import (ActiveLearningTrace, SelectiveCurve, TrialsResult,
                      TrialSummary, active_learning_run, oracle_error_scores,
                      run_trials, selective_prediction_curve, summarize_trials)
from .regret import (RegretReport, estimate_regret, exact_regret_enumeration,
                     true_regret, variance_standard_error)
from .theory import (TheoryReport, compute_hessian, epsilon_bound, q_values,
                     theory_report)

__version__ = "0.1.0"

__all__ = [
    "ActiveLearningTrace", "Dataset",
    "EchoTrainer", "ExperimentConfig", "FitOptions", "LabelDrawSeed",
    "LabelRegretError", "LogisticModel", "LogisticTrainer", "RegretReport",
    "SelectiveCurve", "SemiSyntheticDataset", "TheoryReport", "TrainerHandle",
    "TrialsResult", "TrialSummary", "active_learning_run",
    "auc", "bernoulli_kl", "compute_hessian",
    "design_matrix", "draw_labels", "epsilon_bound", "estimate_regret",
    "exact_regret_enumeration", "fit_logistic", "gaussian_features",
    "load_csv", "load_model", "load_semisynthetic",
    "log_loss", "mean_kl", "oracle_error_scores",
    "predict_proba", "q_values", "run_trials",
    "save_semisynthetic", "selective_prediction_curve",
    "semisynthetic_from_model", "sigmoid", "standardize_features",
    "summarize_trials", "theory_report", "true_regret",
    "two_cluster_population", "variance_standard_error",
]

"""Distribution-free confidence intervals for locally weighted quantiles.

The target of inference is the p-th quantile of the response under a
kernel-reweighted covariate distribution centered at a point of interest.
Two interval constructions are provided: the Weighted Quantile method
(asymptotically exact and efficient) and the Quantile Rejection method
(valid at every finite sample size), plus synthetic models, a ground-truth
oracle, and a Monte Carlo harness for coverage and width studies.
"""

from .base import Dataset, IntervalResult, QuantileSpec, Replicates
from .errors import (
    AllWeightsZero,
    BracketFailure,
    ConstantColumn,
    DimensionMismatch,
    DomainError,
    LocalQuantError,
    LowEffectiveSampleSizeWarning,
    MissingColumn,
    ParseError,
    QuadratureFailure,
)
from .experiments import (
    CellSummary,
    ExperimentConfig,
    PRESETS,
    full_grid_configs,
    parse_config,
    run_experiment,
    summaries_csv,
    write_summaries,
)
from .kernels import Kernel, LocalizationSpec, localization_weights, localize
from .orderstat import TieIndices, binom_cdf, df_quantile_ci, quantile_ci_indices
from .qr import qr_cells, qr_interval, rejection_sample
from .rng import RngStream
from .synthetic import (
    NoiseSetting,
    Signal,
    SyntheticModel,
    indistinguishable_pair,
    mixture_weight,
    sample_dataset,
    sample_replicates,
    signal_eval,
    true_q_cdf,
    true_theta,
)
from .weighted import WeightedSample, effective_sample_size, weighted_cdf, weighted_quantile
from .wq import sigma_hat_p, wq_cells, wq_interval

__version__ = "0.1.0"

__all__ = [
    "AllWeightsZero",
    "BracketFailure",
    "CellSummary",
    "ConstantColumn",
    "Dataset",
    "DimensionMismatch",
    "DomainError",
    "ExperimentConfig",
    "IntervalResult",
    "Kernel",
    "LocalQuantError",
    "LocalizationSpec",
    "LowEffectiveSampleSizeWarning",
    "MissingColumn",
    "NoiseSetting",
    "PRESETS",
    "ParseError",
    "QuadratureFailure",
    "QuantileSpec",
    "Replicates",
    "RngStream",
    "Signal",
    "SyntheticModel",
    "TieIndices",
    "WeightedSample",
    "binom_cdf",
    "df_quantile_ci",
    "effective_sample_size",
    "full_grid_configs",
    "indistinguishable_pair",
    "localization_weights",
    "localize",
    "mixture_weight",
    "parse_config",
    "qr_cells",
    "qr_interval",
    "quantile_ci_indices",
    "rejection_sample",
    "run_experiment",
    "sample_dataset",
    "sample_replicates",
    "sigma_hat_p",
    "signal_eval",
    "summaries_csv",
    "true_q_cdf",
    "true_theta",
    "weighted_cdf",
    "weighted_quantile",
    "wq_cells",
    "wq_interval",
    "write_summaries",
]

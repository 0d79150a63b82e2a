"""Mediation analysis with binary exposure, mediator and outcome.

Probit models for each equation, natural direct/indirect effect
estimation with delta-method intervals, and sensitivity analysis to
unmeasured confounding via fixed correlations between the latent error
terms of the exposure, mediator and outcome equations.
"""

from .biprobit import (ConfoundingKind, ConstrainedFit, constrained_grad,
                       fit_constrained)
from .datamodel import (ColumnRoles, CovariateProfile, Dataset, LoadResult,
                        ModelSpec, build_exposure_design,
                        build_mediator_design, build_outcome_design,
                        covariate_stats, exposure_design, exposure_terms,
                        load_csv, mediator_design, mediator_terms,
                        outcome_design, outcome_terms, validate_for_fit,
                        write_csv)
from .effects import (EffectEstimate, EffectType, FitContext, GradientVector,
                      delta_se, effect_rows, effect_with_ci)
from .errors import (ConfigError, DataError, MedsensError, NotConvergedError,
                     NumericalError, RankError, ScanError, SeparationError)
from .numkernel import bvn_cdf, clamp_rho, log_bvn_cdf, norm_quantile
from .probit import (ProbitFit, UnconstrainedFits, fit_probit,
                     fit_unconstrained)
from .sensitivity import (IntervalResult, RhoGrid, ScanPoint, SensitivityScan,
                          SignClass, SignRanges, constrained_context,
                          identification_set, refine_boundary, run_scan,
                          sign_ranges, uncertainty_interval,
                          unconstrained_context)
from .simgen import (CovariateSpec, LatentDraws, TrueParams, demo_params,
                     replicate_seeds, simulate, simulate_latent, true_effects)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "MedsensError", "ConfigError", "DataError", "RankError",
    "SeparationError", "NotConvergedError", "NumericalError", "ScanError",
    # numerics
    "bvn_cdf", "log_bvn_cdf", "norm_quantile", "clamp_rho",
    # data
    "ColumnRoles", "Dataset", "LoadResult", "load_csv", "write_csv",
    "ModelSpec", "CovariateProfile", "covariate_stats", "validate_for_fit",
    "exposure_design", "mediator_design", "outcome_design",
    "build_exposure_design", "build_mediator_design", "build_outcome_design",
    "exposure_terms", "mediator_terms", "outcome_terms",
    # probit fits
    "ProbitFit", "fit_probit", "UnconstrainedFits", "fit_unconstrained",
    # constrained likelihoods
    "ConfoundingKind", "constrained_grad", "ConstrainedFit",
    "fit_constrained",
    # effects
    "EffectType", "effect_rows", "GradientVector", "delta_se", "EffectEstimate",
    "FitContext", "effect_with_ci",
    # simulation
    "CovariateSpec", "TrueParams", "LatentDraws", "simulate",
    "simulate_latent", "true_effects", "replicate_seeds", "demo_params",
    # sensitivity
    "RhoGrid", "ScanPoint", "SensitivityScan", "run_scan",
    "unconstrained_context", "constrained_context", "IntervalResult",
    "identification_set", "uncertainty_interval", "SignClass", "SignRanges",
    "sign_ranges", "refine_boundary",
]

"""Synthetic data generation with known true effects.

Randomness protocol (fixed, so a given seed reproduces bit-identical
datasets across platforms):

 1. the bit stream is numpy's counter-based Philox generator keyed
    directly with the integer seed, 0 <= seed < 2**128:
    Generator(Philox(key=seed));
 2. covariate columns are drawn in declaration order, one uniform block
    of length n per random column (constant columns consume no draws);
 3. three uniform blocks of length n follow for the exposure, mediator
    and outcome errors, in that order;
 4. every normal variate is the inverse-CDF transform of its uniform;
 5. with confounding (kind, rho), the second error of the pair
    PAIR_MODELS[kind] becomes rho * first + sqrt(1 - rho^2) * second.

z, m, y are then the indicators of positive latent indexes built from
the design layouts in datamodel. Replication studies derive seeds as
base + replicate index.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .biprobit import PAIR_MODELS, ConfoundingKind
from .datamodel import (CovariateProfile, Dataset, ModelSpec, exposure_design,
                        exposure_terms, mediator_design, mediator_terms,
                        outcome_design, outcome_terms)
from .effects import EffectType, _effect_rows
from .errors import ConfigError
from .numkernel import _as_real, _as_real_array

_DISTS = ("constant", "uniform", "normal", "bernoulli")


@dataclass(frozen=True)
class CovariateSpec:
    """Marginal generator for one covariate column."""

    name: str
    dist: str
    value: float = 0.0      # constant
    low: float = 0.0        # uniform
    high: float = 1.0       # uniform
    mean: float = 0.5       # bernoulli

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"covariate name must be a string, got {self.name!r}")
        if self.dist not in _DISTS:
            raise ConfigError(
                f"covariate {self.name!r}: dist must be one of {_DISTS}, "
                f"got {self.dist!r}")
        for key in ("value", "low", "high", "mean"):
            _as_real(getattr(self, key), f"covariate {self.name!r}: {key}",
                     ConfigError)
        if self.dist == "uniform" and not self.high > self.low:
            raise ConfigError(
                f"covariate {self.name!r}: uniform needs high > low")
        if self.dist == "bernoulli" and not 0.0 < self.mean < 1.0:
            raise ConfigError(
                f"covariate {self.name!r}: bernoulli mean must lie in (0, 1)")


@dataclass(frozen=True)
class TrueParams:
    """Data-generating coefficients (packed layouts) plus covariate
    generators and an optional confounded error pair."""

    spec: ModelSpec
    covariates: tuple[CovariateSpec, ...]
    alpha: np.ndarray
    beta: np.ndarray
    theta: np.ndarray
    confounding: tuple[ConfoundingKind, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        p = len(self.covariates)
        names = self.covariate_names
        for name, terms in (("alpha", exposure_terms), ("beta", mediator_terms),
                            ("theta", outcome_terms)):
            expected = len(terms(self.spec, names))
            # a copy to freeze
            vec = np.array(_as_real_array(getattr(self, name), name, ConfigError))
            if vec.shape != (expected,):
                raise ConfigError(
                    f"{name} has length {vec.shape}, layout expects "
                    f"{expected} for p = {p}")
            if not np.isfinite(vec).all():
                raise ConfigError(f"{name} must be finite, got {vec.tolist()}")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        if self.confounding is not None:
            kind, rho = self.confounding
            if not isinstance(kind, ConfoundingKind):
                raise ConfigError(f"confounding kind must be a ConfoundingKind, got {kind!r}")
            rho = _as_real(rho, "confounding correlation", ConfigError)
            if not abs(rho) <= 1.0:
                raise ConfigError(f"confounding correlation must satisfy |rho| <= 1, got {rho!r}")
            object.__setattr__(self, "confounding", (kind, rho))

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)


@dataclass(frozen=True)
class LatentDraws:
    """The error terms actually used (after the confounding mix)."""

    eps: np.ndarray
    eta: np.ndarray
    xi: np.ndarray


def _normals(rng, n):
    u = np.maximum(rng.random(n), 1e-300)
    return ndtri(u)


def _draw_covariates(rng, params: TrueParams, n: int) -> np.ndarray:
    cols = []
    for cov in params.covariates:
        if cov.dist == "constant":
            cols.append(np.full(n, cov.value))
            continue
        u = rng.random(n)
        if cov.dist == "uniform":
            cols.append(cov.low + (cov.high - cov.low) * u)
        elif cov.dist == "normal":
            cols.append(ndtri(np.maximum(u, 1e-300)))
        else:  # bernoulli
            cols.append((u < cov.mean).astype(float))
    return np.column_stack(cols) if cols else np.empty((n, 0))


def _integer(value, name: str) -> int:
    """value as an int; a bool or a fractional number is a ConfigError,
    never truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def simulate_latent(params: TrueParams, n: int, seed: int) -> tuple[Dataset, LatentDraws]:
    """simulate plus the error draws, for diagnostics and tests."""
    n = _integer(n, "n")
    if n < 1:
        raise ConfigError(f"n must be a positive integer, got {n!r}")
    key = _integer(seed, "seed")
    if not 0 <= key < 2**128:  # Philox keys are 128-bit
        raise ConfigError(f"seed must lie in [0, 2**128), got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=key))
    x = _draw_covariates(rng, params, n)
    errors = {model: _normals(rng, n)
              for model in ("exposure", "mediator", "outcome")}
    if params.confounding is not None:
        kind, rho = params.confounding
        first, second = PAIR_MODELS[kind]
        errors[second] = (rho * errors[first]
                          + np.sqrt(1.0 - rho * rho) * errors[second])
    eps, eta, xi = errors["exposure"], errors["mediator"], errors["outcome"]
    z = (exposure_design(x, params.spec) @ params.alpha + eps > 0).astype(int)
    m = (mediator_design(z, x, params.spec) @ params.beta + eta > 0).astype(int)
    y = (outcome_design(z, m, x, params.spec) @ params.theta + xi > 0).astype(int)
    ds = Dataset(z=z, m=m, y=y, x=x, covariate_names=params.covariate_names)
    return ds, LatentDraws(eps=eps, eta=eta, xi=xi)


def simulate(params: TrueParams, n: int, seed: int) -> Dataset:
    """Deterministic synthetic Dataset for a seed (protocol in the
    module docstring)."""
    ds, _ = simulate_latent(params, n, seed)
    return ds


def true_effects(params: TrueParams, at) -> dict[EffectType, float]:
    """All five true effects at a profile (conditional) or averaged over
    rows of a Dataset / covariate matrix (marginal).

    One pass evaluates the four counterfactual means, and each effect is
    the mean of its per-row differences, so each value equals
    effect_rows(et, ...)[0].mean() bit for bit.
    """
    if isinstance(at, Dataset):
        rows = at.x
    elif isinstance(at, CovariateProfile):
        rows = at.values
    else:
        rows = at
    per_row = _effect_rows(list(EffectType), params.theta, params.beta, rows,
                           params.spec)
    return {et: float(values.mean()) for et, (values, _) in per_row.items()}


def replicate_seeds(base_seed: int, count: int) -> list[int]:
    """Seed-sequence rule for replication studies: base + index."""
    base = _integer(base_seed, "base_seed")
    return [base + r for r in range(_integer(count, "count"))]


def demo_params() -> TrueParams:
    """Bundled demo scenario: two covariates (standardized continuous
    plus a 20% binary), exposure ~32%, mediator ~12%, outcome ~25%,
    no unmeasured confounding."""
    spec = ModelSpec(mediator_zx=False, outcome_zx=False, outcome_mx=False,
                     outcome_zmx=False)
    return TrueParams(
        spec=spec,
        covariates=(CovariateSpec(name="xcont", dist="normal"),
                    CovariateSpec(name="xbin", dist="bernoulli", mean=0.2)),
        alpha=np.array([-0.50, 0.08, 0.15]),
        beta=np.array([-1.36, 0.35, 0.18, 0.12]),
        theta=np.array([-0.80, 0.25, 0.60, -0.10, 0.20, -0.15]),
    )

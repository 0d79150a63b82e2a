"""Natural direct and indirect effects on the probability scale.

Every estimand is a contrast of two counterfactual means. With the
probit means pm_z' = P(M = 1 | z', x) and q_zm = P(Y = 1 | z, m, x) at a
covariate row x,

    mu(z, z') = E[Y(z, M(z')) | x] = q_z0 + (q_z1 - q_z0) pm_z'

and the table _CONTRASTS holds the two (z, z') arguments of each effect:

    NDE  = mu(1, 0) - mu(0, 0)        NIE  = mu(1, 1) - mu(1, 0)
    NDE* = mu(1, 1) - mu(0, 1)        NIE* = mu(0, 1) - mu(0, 0)
    TE   = mu(1, 1) - mu(0, 0)

so NDE + NIE = NDE* + NIE* = TE holds to rounding by construction.
Marginal versions average the conditional value over the sample rows.

The coefficient layouts belong to datamodel's design builders alone. At a
fixed (z, m) cell a design row is linear in (1, x), so the builders
evaluated at the basis rows x = 0, e_1..e_p give a (p + 1) x k map M with
design(x) = [1, x] @ M. A cell's linear predictor is then c0 + X c with
(c0, c) = M coef, and the gradient of a row mean with per-row weights w
is [sum w, X'w] @ M / n; no n x k design is built. The maps of one
(spec, p) are built once (_layouts) and kept read-only.

Every effect reads three probit cells per counterfactual mean: the
outcome cells (z, 0) and (z, 1) and the mediator arm z'. _mu_rows is the
one per-row formula of mu(z, z') and of its derivatives with respect to
those three linear predictors. effect_rows, the one public evaluator, is
_cells, then _contrast, which contrasts two _mu_rows; simgen.true_effects
contrasts all five effects from one _cells call.

A marginal effect is mu_a - mu_b of two row-averaged means, with gradient
grad mu_a - grad mu_b. A FitContext keeps, for its current (beta, theta),
each mean it has needed with its gradient: k-vectors only, no per-row
array. A missing mean is computed on first need by _mu_means, one pass
over the dataset rows in blocks of _BLOCK rows that evaluates only the
cells of the missing means, so the five effects of one context compute
each of the four means once. A FitContext holds no convergence flags: the
sensitivity context builders refuse a block from an unconverged fit.
_check_request is the one check of an effect request's scope, profile and
alpha, which run_scan also makes before it fits anything.

Standard errors use the delta method with a block-diagonal covariance:
the gradient is split into its mediator-coefficient and
outcome-coefficient parts and each block is contracted with its own
fitted covariance matrix.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy.special import ndtr

from .datamodel import (CovariateProfile, Dataset, ModelSpec, mediator_design,
                        outcome_design)
from .errors import NumericalError
from .numkernel import SQRT_2PI, _as_real, _as_real_array, norm_quantile


def _npdf(v):
    return np.exp(-0.5 * v * v) / SQRT_2PI


class EffectType(enum.Enum):
    NDE = "nde"
    NIE = "nie"
    TE = "te"
    NDE_TOTAL = "nde_total"
    NIE_PURE = "nie_pure"


# (z, z') arguments of the two counterfactual means each effect contrasts
_CONTRASTS = {
    EffectType.NDE: ((1, 0), (0, 0)),
    EffectType.NIE: ((1, 1), (1, 0)),
    EffectType.NDE_TOTAL: ((1, 1), (0, 1)),
    EffectType.NIE_PURE: ((0, 1), (0, 0)),
    EffectType.TE: ((1, 1), (0, 0)),
}


@dataclass(frozen=True)
class GradientVector:
    """Effect gradient split by coefficient block, in packed layout."""

    wrt_beta: np.ndarray
    wrt_theta: np.ndarray


def _layout(rows: np.ndarray) -> np.ndarray:
    """Design rows at x = 0, e_1..e_p -> the map M with design(x) = [1, x] @ M."""
    return np.vstack([rows[:1], rows[1:] - rows[:1]])


def _check_len(name: str, coef, layout: np.ndarray) -> np.ndarray:
    coef = _as_real_array(coef, name)
    k = layout.shape[1]
    if coef.shape != (k,):
        raise ValueError(
            f"{name} has length {coef.shape}, expected {k} for "
            f"p = {layout.shape[0] - 1} under this model spec")
    return coef


def _probit_cell(c: np.ndarray, x: np.ndarray) -> tuple:
    """Probit mean and density per row of x at one cell, whose linear
    predictor is c[0] + x @ c[1:] for c = layout @ coef."""
    lp = c[0] + x @ c[1:]
    return ndtr(lp), _npdf(lp)


def _probit_cells(layouts: dict, coef: np.ndarray, x: np.ndarray) -> dict:
    """Probit mean and density per row at every cell of one model."""
    return {key: _probit_cell(layout @ coef, x) for key, layout in layouts.items()}


def _mu_rows(outcome0: tuple, outcome1: tuple, arm: tuple) -> tuple:
    """mu(z, z') = q_z0 + (q_z1 - q_z0) pm_z' per row, from the (mean,
    density) pairs of the outcome cells (z, 0), (z, 1) and the mediator arm
    z', and the derivatives of mu with respect to those three cells' linear
    predictors, in that order."""
    (q0, f0), (q1, f1), (pm, fm) = outcome0, outcome1, arm
    return q0 + (q1 - q0) * pm, ((1.0 - pm) * f0, pm * f1, (q1 - q0) * fm)


def _mean_grad(layouts: dict, weights: dict, x: np.ndarray) -> np.ndarray:
    """Gradient of the row mean of an effect whose derivative with respect
    to the linear predictor of each cell is weights[cell]."""
    return sum(np.concatenate([[w.sum()], x.T @ w]) @ layouts[key]
               for key, w in weights.items()) / x.shape[0]


@functools.lru_cache(maxsize=32)
def _layouts(spec: ModelSpec, p: int) -> tuple:
    """The mediator-arm and outcome-cell layouts of (spec, p), built once
    through the design builders, as read-only maps of read-only arrays."""
    basis = np.vstack([np.zeros((1, p)), np.eye(p)])

    def at(v):
        return np.full(p + 1, float(v))

    med = {zp: _layout(mediator_design(at(zp), basis, spec)) for zp in (0, 1)}
    out = {(z, m): _layout(outcome_design(at(z), at(m), basis, spec))
           for z in (0, 1) for m in (0, 1)}
    for layout in (*med.values(), *out.values()):
        layout.flags.writeable = False
    return MappingProxyType(med), MappingProxyType(out)


def _cells(theta, beta, x, spec: ModelSpec) -> tuple:
    """What every effect contrasts: the rows x, the mediator-arm and
    outcome-cell layouts, and each cell's probit mean and density per row."""
    x = np.atleast_2d(_as_real_array(x, "x"))
    if not np.isfinite(x).all():
        raise ValueError("x has non-finite values")
    med, out = _layouts(spec, x.shape[1])
    pm = _probit_cells(med, _check_len("beta", beta, med[0]), x)
    q = _probit_cells(out, _check_len("theta", theta, out[0, 0]), x)
    return x, med, out, pm, q


def _contrast(effect_type: EffectType, cells: tuple):
    """effect_rows from _cells' output."""
    x, med, out, pm, q = cells
    # w_* accumulate the effect's derivative with respect to each cell's
    # linear predictor
    means, w_pm, w_q = [], {}, {}
    for sign, (z, zp) in zip((1.0, -1.0), _CONTRASTS[effect_type]):
        mu, (w0, w1, wm) = _mu_rows(q[z, 0], q[z, 1], pm[zp])
        means.append(mu)
        w_q[z, 0] = w_q.get((z, 0), 0.0) + sign * w0
        w_q[z, 1] = w_q.get((z, 1), 0.0) + sign * w1
        w_pm[zp] = w_pm.get(zp, 0.0) + sign * wm
    grad = GradientVector(wrt_beta=_mean_grad(med, w_pm, x),
                          wrt_theta=_mean_grad(out, w_q, x))
    return means[0] - means[1], grad


def effect_rows(effect_type: EffectType, theta, beta, x,
                spec: ModelSpec) -> tuple[np.ndarray, GradientVector]:
    """One effect at every covariate row of x (one row when x is 1-d),
    plus the gradient of its row mean with respect to the packed
    (beta, theta)."""
    return _contrast(effect_type, _cells(theta, beta, x, spec))


# rows per step of the marginal pass: its per-row arrays stay a few
# hundred KiB however many rows the dataset has
_BLOCK = 8192


def _mu_means(pairs, theta: np.ndarray, beta: np.ndarray, x: np.ndarray,
              spec: ModelSpec) -> dict:
    """{(z, z'): (mean, gradient)} of mu(z, z') averaged over the rows of x,
    for each (z, z') in pairs, with its gradient in the packed (beta,
    theta). One pass over x in blocks of _BLOCK rows evaluates only the
    cells these means read."""
    n, p = x.shape
    med, out = _layouts(spec, p)
    c_pm = {zp: med[zp] @ beta for zp in {zp for _, zp in pairs}}
    c_q = {(z, m): out[z, m] @ theta
           for z in {z for z, _ in pairs} for m in (0, 1)}
    # per mean: the sum of mu, and [sum w, x'w] of its three cell weights
    sums = {pair: [0.0, np.zeros((3, p + 1))] for pair in pairs}
    for start in range(0, n, _BLOCK):
        xb = x[start:start + _BLOCK]
        pm = {zp: _probit_cell(c, xb) for zp, c in c_pm.items()}
        q = {key: _probit_cell(c, xb) for key, c in c_q.items()}
        for (z, zp), acc in sums.items():
            mu, w = _mu_rows(q[z, 0], q[z, 1], pm[zp])
            w = np.array(w)
            acc[0] += mu.sum()
            acc[1] += np.column_stack([w.sum(axis=1), w @ xb])
    return {(z, zp): (total / n, GradientVector(
                wrt_beta=w_sums[2] @ med[zp] / n,
                wrt_theta=(w_sums[0] @ out[z, 0] + w_sums[1] @ out[z, 1]) / n))
            for (z, zp), (total, w_sums) in sums.items()}


def _check_alpha(alpha: float) -> None:
    """ValueError unless the Wald level alpha lies in (0, 1) and 1 - alpha/2
    stays below 1, so that the Wald quantile is finite."""
    alpha = _as_real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds "
                         "to 1, so the Wald quantile is infinite")


def _check_request(scope: str, alpha, profile, ds: Dataset) -> np.ndarray | None:
    """The covariate row of a conditional request on ds (None for a
    marginal one), once the scope, the profile and alpha pass their checks:
    a conditional request needs a profile with one value per covariate of
    ds, and a marginal one takes none. Raw profile values are read through
    CovariateProfile."""
    if scope == "conditional" and profile is None:
        raise ValueError("conditional scope requires a covariate profile")
    if scope not in ("conditional", "marginal"):
        raise ValueError(f"scope must be 'conditional' or 'marginal', got {scope!r}")
    named = isinstance(profile, CovariateProfile)
    if scope == "marginal" and profile is not None:
        name = f"profile {profile.name!r}" if named else "a profile"
        raise ValueError(f"marginal scope averages over the dataset rows and "
                         f"takes no covariate profile, got {name}")
    row = None
    if scope == "conditional":
        row = (profile if named else CovariateProfile(profile)).values.reshape(1, -1)
        if row.shape[1] != ds.p:
            name = f"profile {profile.name!r}" if named else "profile"
            raise ValueError(f"{name} has {row.shape[1]} values, expected {ds.p} "
                             "(one per covariate of the dataset)")
    _check_alpha(alpha)
    return row


def delta_se(grad: GradientVector, sigma_beta: np.ndarray,
             sigma_theta: np.ndarray) -> float:
    """Delta-method standard error with block-diagonal covariance; the
    gradient blocks and covariances must hold integers or floats."""
    gb = _as_real_array(grad.wrt_beta, "grad.wrt_beta")
    gt = _as_real_array(grad.wrt_theta, "grad.wrt_theta")
    sigma_beta = _as_real_array(sigma_beta, "sigma_beta")
    sigma_theta = _as_real_array(sigma_theta, "sigma_theta")
    if sigma_beta.shape != (gb.size, gb.size):
        raise ValueError(
            f"sigma_beta shape {sigma_beta.shape} does not match gradient "
            f"length {gb.size}")
    if sigma_theta.shape != (gt.size, gt.size):
        raise ValueError(
            f"sigma_theta shape {sigma_theta.shape} does not match gradient "
            f"length {gt.size}")
    var = float(gb @ sigma_beta @ gb + gt @ sigma_theta @ gt)
    if var < -1e-12:
        raise NumericalError(
            f"delta-method variance is negative ({var!r}); a covariance "
            "matrix is not positive semidefinite")
    return float(np.sqrt(max(var, 0.0)))


@dataclass(frozen=True)
class EffectEstimate:
    """Point estimate with delta-method Wald interval."""

    effect_type: EffectType
    scope: str
    estimate: float
    std_error: float
    ci_lower: float
    ci_upper: float
    alpha: float
    profile: CovariateProfile | None = None
    rho_context: tuple[str, float] | None = None


@dataclass(frozen=True)
class FitContext:
    """Everything needed to turn fitted coefficients into an effect.

    beta/theta are packed coefficient vectors with their covariance
    matrices, fitted on dataset; rho_context records which constrained
    fit (if any) produced them.
    """

    beta: np.ndarray
    theta: np.ndarray
    sigma_beta: np.ndarray
    sigma_theta: np.ndarray
    spec: ModelSpec
    dataset: Dataset
    rho_context: tuple[str, float] | None = None
    _mu_memo: dict = field(default_factory=dict, init=False,
                           compare=False, repr=False)


def _marginal(effect_type: EffectType, ctx: FitContext) -> tuple:
    """The effect averaged over ctx's dataset rows, mu_a - mu_b, and its
    gradient, from the means ctx keeps for its current coefficients."""
    med, out = _layouts(ctx.spec, ctx.dataset.p)
    beta = _check_len("beta", ctx.beta, med[0])
    theta = _check_len("theta", ctx.theta, out[0, 0])
    # keyed by the coefficients' bytes, so an in-place edit misses
    key = (beta.tobytes(), theta.tobytes())
    if key not in ctx._mu_memo:
        ctx._mu_memo.clear()
        ctx._mu_memo[key] = {}
    means = ctx._mu_memo[key]
    pairs = _CONTRASTS[effect_type]
    missing = [pair for pair in pairs if pair not in means]
    if missing:
        means.update(_mu_means(missing, theta, beta, ctx.dataset.x, ctx.spec))
    (mu_a, grad_a), (mu_b, grad_b) = (means[pair] for pair in pairs)
    grad = GradientVector(wrt_beta=grad_a.wrt_beta - grad_b.wrt_beta,
                          wrt_theta=grad_a.wrt_theta - grad_b.wrt_theta)
    return float(mu_a - mu_b), grad


def effect_with_ci(effect_type: EffectType, scope: str, ctx: FitContext,
                   alpha: float = 0.05, profile=None) -> EffectEstimate:
    """Point estimate, delta SE and Wald (1 - alpha) interval.

    scope is "conditional" (at a profile of the context's covariates) or
    "marginal" (averaged over the context's dataset rows).
    """
    row = _check_request(scope, alpha, profile, ctx.dataset)
    if row is None:
        est, grad = _marginal(effect_type, ctx)
    else:
        values, grad = _contrast(effect_type,
                                 _cells(ctx.theta, ctx.beta, row, ctx.spec))
        est = float(values.mean())
    se = delta_se(grad, ctx.sigma_beta, ctx.sigma_theta)
    zq = norm_quantile(1.0 - alpha / 2.0)
    prof = profile if isinstance(profile, CovariateProfile) else None
    return EffectEstimate(effect_type=effect_type, scope=scope, estimate=est,
                          std_error=se, ci_lower=est - zq * se,
                          ci_upper=est + zq * se, alpha=alpha, profile=prof,
                          rho_context=ctx.rho_context)

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
outcome cells (z, 0) and (z, 1) and the mediator arm z'. _mu_pass is the
one evaluator of the means: one pass over the rows in blocks of _BLOCK
rows evaluates only the cells of the means it is asked for, and gives
each mean per row and the gradient of its row mean. The [sum w, x'w]
totals are summed over the blocks and contracted with the layouts once,
at the end. Every effect value is then mu_a - mu_b with gradient
grad mu_a - grad mu_b. effect_rows keeps the means per row, so its
values are per-row differences; simgen.true_effects takes all five
effects from one pass over the four means, each the mean of its per-row
differences. A conditional request is a one-row pass.

A marginal request keeps only each block's sum of a mean. A FitContext
keeps, for its current (beta, theta), each row-averaged mean it has
needed with its gradient: k-vectors only, no per-row array. The memo is
filled by _marginal_means for a list of effect types: one _mu_pass
evaluates every mean those effects contrast that the memo lacks. A
marginal request fills it for its own type, so the effects of one
context compute each mean once; medsens effects fills it once for all
its requested types, so their means share one pass. For all five types
that pass evaluates six cells per row; filled one type at a time, the
four means take three passes and eleven cells. A FitContext holds no
convergence flags: the sensitivity context builders refuse a block from
an unconverged fit.
_check_request is the one check of an effect request's type, scope,
profile and alpha, which run_scan also makes before it fits anything.

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
from .numkernel import (SQRT_2PI, _as_real, _as_real_array, _check_len,
                        norm_quantile)


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


def _probit_cell(c: np.ndarray, x: np.ndarray) -> tuple:
    """Probit mean and density per row of x at one cell, whose linear
    predictor is c[0] + x @ c[1:] for c = layout @ coef."""
    lp = c[0] + x @ c[1:]
    return ndtr(lp), _npdf(lp)


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


def _coefficients(beta, theta, spec: ModelSpec, p: int) -> tuple:
    """beta and theta as float vectors, once each has one entry per column
    of its design under spec with p covariates."""
    med, out = _layouts(spec, p)
    return (_check_len("beta", beta, med[0].shape[1]),
            _check_len("theta", theta, out[0, 0].shape[1]))


def _check_effect(effect_type) -> tuple:
    """The (z, z') arguments of the two means effect_type contrasts, once
    it is an EffectType."""
    if not isinstance(effect_type, EffectType):
        raise ValueError(f"effect type must be an EffectType, got {effect_type!r}")
    return _CONTRASTS[effect_type]


def _pairs(effect_types) -> list:
    """The (z, z') arguments of every mean effect_types contrast, each
    once, in order of first need."""
    return list(dict.fromkeys(pair for et in effect_types for pair in _check_effect(et)))


# rows per step of the pass: its per-row arrays stay a few hundred KiB
# however many rows x has
_BLOCK = 8192


def _mu_pass(pairs, theta: np.ndarray, beta: np.ndarray, x: np.ndarray,
             spec: ModelSpec, fold) -> dict:
    """{(z, z'): (folds, gradient)} for each (z, z') in pairs: fold(mu) of
    each block's mu(z, z') per row, in row order, and the gradient of the
    row mean of mu(z, z') in the packed (beta, theta).

    One pass over x in blocks of _BLOCK rows evaluates only the cells
    these means read. The [sum w, x'w] totals of each mean's three cell
    weights are summed over the blocks and contracted with the layouts
    once, at the end."""
    n, p = x.shape
    med, out = _layouts(spec, p)
    c_pm = {zp: med[zp] @ beta for zp in {zp for _, zp in pairs}}
    c_q = {(z, m): out[z, m] @ theta
           for z in {z for z, _ in pairs} for m in (0, 1)}
    acc = {pair: ([], np.zeros((3, p + 1))) for pair in pairs}
    for start in range(0, n, _BLOCK):
        xb = x[start:start + _BLOCK]
        pm = {zp: _probit_cell(c, xb) for zp, c in c_pm.items()}
        q = {key: _probit_cell(c, xb) for key, c in c_q.items()}
        for (z, zp), (folds, w_sums) in acc.items():
            (q0, f0), (q1, f1), (m1, fm) = q[z, 0], q[z, 1], pm[zp]
            folds.append(fold(q0 + (q1 - q0) * m1))
            # the derivatives of mu with respect to the linear predictors
            # of the cells (z, 0), (z, 1) and the mediator arm z'
            w = np.array(((1.0 - m1) * f0, m1 * f1, (q1 - q0) * fm))
            w_sums += np.column_stack([w.sum(axis=1), w @ xb])
    return {(z, zp): (folds, GradientVector(
                wrt_beta=w_sums[2] @ med[zp] / n,
                wrt_theta=(w_sums[0] @ out[z, 0] + w_sums[1] @ out[z, 1]) / n))
            for (z, zp), (folds, w_sums) in acc.items()}


def _difference(mean_a: tuple, mean_b: tuple) -> tuple:
    """(a - b, grad a - grad b) of two (value, gradient) means."""
    (a, grad_a), (b, grad_b) = mean_a, mean_b
    return a - b, GradientVector(wrt_beta=grad_a.wrt_beta - grad_b.wrt_beta,
                                 wrt_theta=grad_a.wrt_theta - grad_b.wrt_theta)


def _effect_rows(effect_types, theta, beta, x, spec: ModelSpec) -> dict:
    """{effect type: effect_rows' output} for each of effect_types, from
    one pass over the means they contrast."""
    pairs = _pairs(effect_types)
    x = np.atleast_2d(_as_real_array(x, "x"))
    if not np.isfinite(x).all():
        raise ValueError("x has non-finite values")
    if not len(x):
        raise ValueError("x has no rows")
    beta, theta = _coefficients(beta, theta, spec, x.shape[1])
    means = {pair: (np.concatenate(rows), grad) for pair, (rows, grad)
             in _mu_pass(pairs, theta, beta, x, spec, lambda mu: mu).items()}
    return {et: _difference(*(means[pair] for pair in _CONTRASTS[et]))
            for et in effect_types}


def effect_rows(effect_type: EffectType, theta, beta, x,
                spec: ModelSpec) -> tuple[np.ndarray, GradientVector]:
    """One effect at every covariate row of x (one row when x is 1-d),
    plus the gradient of its row mean with respect to the packed
    (beta, theta)."""
    return _effect_rows([effect_type], theta, beta, x, spec)[effect_type]


def _check_alpha(alpha: float) -> None:
    """ValueError unless the Wald level alpha lies in (0, 1) and 1 - alpha/2
    stays below 1, so that the Wald quantile is finite."""
    alpha = _as_real(alpha, "alpha")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds "
                         "to 1, so the Wald quantile is infinite")


def _check_request(effect_type, scope: str, alpha, profile,
                   ds: Dataset) -> np.ndarray | None:
    """The covariate row of a conditional request on ds (None for a
    marginal one), once the effect type, the scope, the profile and alpha
    pass their checks: a conditional request needs a profile with one value
    per covariate of ds, and a marginal one takes none. Raw profile values
    are read through CovariateProfile."""
    _check_effect(effect_type)
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


def _marginal_means(ctx: FitContext, effect_types) -> dict:
    """ctx's memo of row-averaged means for its current coefficients,
    {(z, z'): (mean, gradient)}, once it holds every mean effect_types
    contrast; those it lacks come from one _mu_pass."""
    beta, theta = _coefficients(ctx.beta, ctx.theta, ctx.spec, ctx.dataset.p)
    # keyed by the coefficients' bytes, so an in-place edit misses
    key = (beta.tobytes(), theta.tobytes())
    if key not in ctx._mu_memo:
        ctx._mu_memo.clear()
        ctx._mu_memo[key] = {}
    means = ctx._mu_memo[key]
    missing = [pair for pair in _pairs(effect_types) if pair not in means]
    if missing:
        passed = _mu_pass(missing, theta, beta, ctx.dataset.x, ctx.spec, np.sum)
        means.update({pair: (sum(sums) / ctx.dataset.n, grad)
                      for pair, (sums, grad) in passed.items()})
    return means


def _marginal(effect_type: EffectType, ctx: FitContext) -> tuple:
    """The effect averaged over ctx's dataset rows, mu_a - mu_b, and its
    gradient, from the means ctx keeps for its current coefficients."""
    means = _marginal_means(ctx, [effect_type])
    est, grad = _difference(*(means[pair] for pair in _CONTRASTS[effect_type]))
    return float(est), grad


def effect_with_ci(effect_type: EffectType, scope: str, ctx: FitContext,
                   alpha: float = 0.05, profile=None) -> EffectEstimate:
    """Point estimate, delta SE and Wald (1 - alpha) interval.

    scope is "conditional" (at a profile of the context's covariates) or
    "marginal" (averaged over the context's dataset rows).
    """
    row = _check_request(effect_type, scope, alpha, profile, ctx.dataset)
    if row is None:
        est, grad = _marginal(effect_type, ctx)
    else:
        values, grad = effect_rows(effect_type, ctx.theta, ctx.beta, row, ctx.spec)
        est = float(values.mean())
    se = delta_se(grad, ctx.sigma_beta, ctx.sigma_theta)
    zq = norm_quantile(1.0 - alpha / 2.0)
    prof = profile if isinstance(profile, CovariateProfile) else None
    return EffectEstimate(effect_type=effect_type, scope=scope, estimate=est,
                          std_error=se, ci_lower=est - zq * se,
                          ci_upper=est + zq * se, alpha=alpha, profile=prof,
                          rho_context=ctx.rho_context)

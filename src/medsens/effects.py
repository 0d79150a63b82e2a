"""Natural direct and indirect effects on the probability scale.

All five estimands are built from six probit means evaluated at a
covariate row x:

    pm0 = Phi(b0 + b2'x)                 P(M = 1 | z = 0, x)
    pm1 = Phi(b0 + b1 + (b2 + b3)'x)     P(M = 1 | z = 1, x)
    q_zm = Phi(outcome lp at (z, m, x))  P(Y = 1 | z, m, x)

    NDE  = (q10 - q00)(1 - pm0) + (q11 - q01) pm0
    NIE  = (q11 - q10)(pm1 - pm0)
    NDE* = (q10 - q00)(1 - pm1) + (q11 - q01) pm1
    NIE* = (q01 - q00)(pm1 - pm0)
    TE   = q11 pm1 + q10 (1 - pm1) - q01 pm0 - q00 (1 - pm0)

so NDE + NIE = NDE* + NIE* = TE holds to rounding by construction.
Marginal versions average the conditional value over the sample rows.

Standard errors use the delta method with a block-diagonal covariance:
the gradient is split into its mediator-coefficient and
outcome-coefficient parts and each block is contracted with its own
fitted covariance matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .datamodel import CovariateProfile, Dataset, ModelSpec
from .errors import NotConvergedError, NumericalError
from .numkernel import SQRT_2PI, norm_quantile

def _npdf(v):
    return np.exp(-0.5 * v * v) / SQRT_2PI


class EffectType(enum.Enum):
    NDE = "nde"
    NIE = "nie"
    TE = "te"
    NDE_TOTAL = "nde_total"
    NIE_PURE = "nie_pure"


def _unpack_beta(beta, spec: ModelSpec, p: int):
    """Packed mediator coefficients -> (b0, b1, b2, b3) with zeros for
    disabled blocks."""
    beta = np.asarray(beta, dtype=float)
    k = 2 + p * spec.mediator_x + p * spec.mediator_zx
    if beta.shape != (k,):
        raise ValueError(
            f"beta has length {beta.shape}, expected {k} for p = {p} "
            "under this model spec")
    b0, b1 = beta[0], beta[1]
    i = 2
    if spec.mediator_x:
        b2 = beta[i:i + p]
        i += p
    else:
        b2 = np.zeros(p)
    b3 = beta[i:i + p] if spec.mediator_zx else np.zeros(p)
    return b0, b1, b2, b3


def _unpack_theta(theta, spec: ModelSpec, p: int):
    """Packed outcome coefficients -> (t0..t3, t4..t7) with zeros for
    disabled blocks."""
    theta = np.asarray(theta, dtype=float)
    k = 3 + spec.outcome_zm + p * (spec.outcome_x + spec.outcome_zx
                                   + spec.outcome_mx + spec.outcome_zmx)
    if theta.shape != (k,):
        raise ValueError(
            f"theta has length {theta.shape}, expected {k} for p = {p} "
            "under this model spec")
    t0, t1, t2 = theta[0], theta[1], theta[2]
    i = 3
    if spec.outcome_zm:
        t3 = theta[i]
        i += 1
    else:
        t3 = 0.0
    blocks = []
    for flag in (spec.outcome_x, spec.outcome_zx, spec.outcome_mx, spec.outcome_zmx):
        if flag:
            blocks.append(theta[i:i + p])
            i += p
        else:
            blocks.append(np.zeros(p))
    t4, t5, t6, t7 = blocks
    return t0, t1, t2, t3, t4, t5, t6, t7


@dataclass(frozen=True)
class _Pieces:
    """The six probit means and their linear predictors, per row."""

    lp_m0: np.ndarray
    lp_m1: np.ndarray
    pm0: np.ndarray
    pm1: np.ndarray
    a00: np.ndarray
    a10: np.ndarray
    a01: np.ndarray
    a11: np.ndarray
    q00: np.ndarray
    q10: np.ndarray
    q01: np.ndarray
    q11: np.ndarray


def _pieces(theta, beta, rows: np.ndarray, spec: ModelSpec) -> _Pieces:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    p = rows.shape[1]
    b0, b1, b2, b3 = _unpack_beta(beta, spec, p)
    t0, t1, t2, t3, t4, t5, t6, t7 = _unpack_theta(theta, spec, p)
    lp_m0 = b0 + rows @ b2
    lp_m1 = b0 + b1 + rows @ (b2 + b3)
    a00 = t0 + rows @ t4
    a10 = t0 + t1 + rows @ (t4 + t5)
    a01 = t0 + t2 + rows @ (t4 + t6)
    a11 = t0 + t1 + t2 + t3 + rows @ (t4 + t5 + t6 + t7)
    return _Pieces(lp_m0=lp_m0, lp_m1=lp_m1,
                   pm0=ndtr(lp_m0), pm1=ndtr(lp_m1),
                   a00=a00, a10=a10, a01=a01, a11=a11,
                   q00=ndtr(a00), q10=ndtr(a10), q01=ndtr(a01), q11=ndtr(a11))


def _effect_rows(effect_type: EffectType, pc: _Pieces) -> np.ndarray:
    if effect_type is EffectType.NDE:
        return (pc.q10 - pc.q00) * (1.0 - pc.pm0) + (pc.q11 - pc.q01) * pc.pm0
    if effect_type is EffectType.NIE:
        return (pc.q11 - pc.q10) * (pc.pm1 - pc.pm0)
    if effect_type is EffectType.NDE_TOTAL:
        return (pc.q10 - pc.q00) * (1.0 - pc.pm1) + (pc.q11 - pc.q01) * pc.pm1
    if effect_type is EffectType.NIE_PURE:
        return (pc.q01 - pc.q00) * (pc.pm1 - pc.pm0)
    if effect_type is EffectType.TE:
        return (pc.q11 * pc.pm1 + pc.q10 * (1.0 - pc.pm1)
                - pc.q01 * pc.pm0 - pc.q00 * (1.0 - pc.pm0))
    raise ValueError(f"unknown effect type {effect_type!r}")


def conditional_effect(effect_type: EffectType, theta, beta, profile,
                       spec: ModelSpec) -> float:
    """One effect evaluated at a single covariate row."""
    values = profile.values if isinstance(profile, CovariateProfile) else np.atleast_1d(profile)
    x = np.asarray(values, dtype=float).reshape(1, -1)
    return float(_effect_rows(effect_type, _pieces(theta, beta, x, spec))[0])


def nde_conditional(theta, beta, profile, spec: ModelSpec) -> float:
    """Natural direct effect at a covariate row (mediator held at its
    untreated distribution)."""
    return conditional_effect(EffectType.NDE, theta, beta, profile, spec)


def nie_conditional(theta, beta, profile, spec: ModelSpec) -> float:
    """Natural indirect effect at a covariate row (exposure held at 1)."""
    return conditional_effect(EffectType.NIE, theta, beta, profile, spec)


def nde_total_conditional(theta, beta, profile, spec: ModelSpec) -> float:
    """Direct effect with the mediator held at its treated distribution."""
    return conditional_effect(EffectType.NDE_TOTAL, theta, beta, profile, spec)


def nie_pure_conditional(theta, beta, profile, spec: ModelSpec) -> float:
    """Indirect effect with the exposure held at 0."""
    return conditional_effect(EffectType.NIE_PURE, theta, beta, profile, spec)


def total_effect_conditional(theta, beta, profile, spec: ModelSpec) -> float:
    """Total exposure effect on the outcome probability at a covariate row."""
    return conditional_effect(EffectType.TE, theta, beta, profile, spec)


def effect_marginal(effect_type: EffectType, theta, beta, ds: Dataset,
                    spec: ModelSpec) -> float:
    """Sample-average of the conditional effect over the dataset rows."""
    return float(_effect_rows(effect_type, _pieces(theta, beta, ds.x, spec)).mean())


@dataclass(frozen=True)
class GradientVector:
    """Effect gradient split by coefficient block, in packed layout."""

    wrt_beta: np.ndarray
    wrt_theta: np.ndarray


def _grad_rows(effect_type: EffectType, theta, beta, rows, spec: ModelSpec):
    """Per-row structural gradient components.

    Returns ((db0, db1, db2, db3), (dt0..dt7)) where scalar components
    have shape (r,) and x-block components shape (r, p).
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    pc = _pieces(theta, beta, rows, spec)
    f_m0, f_m1 = _npdf(pc.lp_m0), _npdf(pc.lp_m1)
    f00, f10, f01, f11 = _npdf(pc.a00), _npdf(pc.a10), _npdf(pc.a01), _npdf(pc.a11)
    zero = np.zeros_like(pc.pm0)

    if effect_type is EffectType.TE:
        nde = _grad_rows(EffectType.NDE, theta, beta, rows, spec)
        nie = _grad_rows(EffectType.NIE, theta, beta, rows, spec)
        return tuple(tuple(a + b for a, b in zip(ga, gb))
                     for ga, gb in zip(nde, nie))

    if effect_type in (EffectType.NDE, EffectType.NDE_TOTAL):
        bracket_a = pc.q10 - pc.q00
        bracket_b = pc.q11 - pc.q01
        if effect_type is EffectType.NDE:
            weight, f_w = pc.pm0, f_m0
        else:
            weight, f_w = pc.pm1, f_m1
        db0 = (bracket_b - bracket_a) * f_w
        db1 = zero if effect_type is EffectType.NDE else db0
        dt0 = (f10 - f00) * (1.0 - weight) + (f11 - f01) * weight
        dt1 = f10 * (1.0 - weight) + f11 * weight
        dt2 = (f11 - f01) * weight
        dt3 = f11 * weight
    elif effect_type is EffectType.NIE:
        gap = pc.pm1 - pc.pm0
        factor = pc.q11 - pc.q10
        db0 = factor * (f_m1 - f_m0)
        db1 = factor * f_m1
        dt0 = (f11 - f10) * gap
        dt1 = dt0
        dt2 = f11 * gap
        dt3 = dt2
    elif effect_type is EffectType.NIE_PURE:
        gap = pc.pm1 - pc.pm0
        factor = pc.q01 - pc.q00
        db0 = factor * (f_m1 - f_m0)
        db1 = factor * f_m1
        dt0 = (f01 - f00) * gap
        dt1 = zero
        dt2 = f01 * gap
        dt3 = zero
    else:
        raise ValueError(f"unknown effect type {effect_type!r}")

    # x blocks: the mediator lp multiplies x for both b2 and b3 when the
    # corresponding z indicator is on, so each block is a scalar row
    # weight times x
    if effect_type is EffectType.NDE:
        db2, db3 = db0[:, None] * rows, zero[:, None] * rows
    elif effect_type is EffectType.NDE_TOTAL:
        db2, db3 = db0[:, None] * rows, db0[:, None] * rows
    else:  # NIE and NIE_PURE share the mediator-gap structure
        db2 = db0[:, None] * rows
        db3 = db1[:, None] * rows
    dt4 = dt0[:, None] * rows
    dt5 = dt1[:, None] * rows
    dt6 = dt2[:, None] * rows
    dt7 = dt3[:, None] * rows
    return (db0, db1, db2, db3), (dt0, dt1, dt2, dt3, dt4, dt5, dt6, dt7)


def _pack_grad(bparts, tparts, spec: ModelSpec) -> GradientVector:
    db0, db1, db2, db3 = bparts
    dt0, dt1, dt2, dt3, dt4, dt5, dt6, dt7 = tparts
    bvec = [np.atleast_1d(db0), np.atleast_1d(db1)]
    if spec.mediator_x:
        bvec.append(np.atleast_1d(db2))
    if spec.mediator_zx:
        bvec.append(np.atleast_1d(db3))
    tvec = [np.atleast_1d(dt0), np.atleast_1d(dt1), np.atleast_1d(dt2)]
    if spec.outcome_zm:
        tvec.append(np.atleast_1d(dt3))
    for flag, blk in ((spec.outcome_x, dt4), (spec.outcome_zx, dt5),
                      (spec.outcome_mx, dt6), (spec.outcome_zmx, dt7)):
        if flag:
            tvec.append(np.atleast_1d(blk))
    return GradientVector(wrt_beta=np.concatenate(bvec),
                          wrt_theta=np.concatenate(tvec))


def grad_conditional(effect_type: EffectType, theta, beta, profile,
                     spec: ModelSpec) -> GradientVector:
    """Analytic gradient of a conditional effect in packed layout."""
    values = profile.values if isinstance(profile, CovariateProfile) else np.atleast_1d(profile)
    x = np.asarray(values, dtype=float).reshape(1, -1)
    bparts, tparts = _grad_rows(effect_type, theta, beta, x, spec)
    bparts = tuple(c[0] for c in bparts)
    tparts = tuple(c[0] for c in tparts)
    return _pack_grad(bparts, tparts, spec)


def grad_nde_conditional(theta, beta, profile, spec: ModelSpec) -> GradientVector:
    return grad_conditional(EffectType.NDE, theta, beta, profile, spec)


def grad_nie_conditional(theta, beta, profile, spec: ModelSpec) -> GradientVector:
    return grad_conditional(EffectType.NIE, theta, beta, profile, spec)


def grad_effect_marginal(effect_type: EffectType, theta, beta, ds: Dataset,
                         spec: ModelSpec) -> GradientVector:
    """Gradient of the marginal effect: the row-average of the
    conditional gradients."""
    bparts, tparts = _grad_rows(effect_type, theta, beta, ds.x, spec)
    bparts = tuple(c.mean(axis=0) for c in bparts)
    tparts = tuple(c.mean(axis=0) for c in tparts)
    return _pack_grad(bparts, tparts, spec)


def delta_se(grad: GradientVector, sigma_beta: np.ndarray,
             sigma_theta: np.ndarray) -> float:
    """Delta-method standard error with block-diagonal covariance."""
    gb = np.asarray(grad.wrt_beta, dtype=float)
    gt = np.asarray(grad.wrt_theta, dtype=float)
    sigma_beta = np.asarray(sigma_beta, dtype=float)
    sigma_theta = np.asarray(sigma_theta, dtype=float)
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
    matrices; sources name the fits for error messages; rho_context
    records which constrained fit (if any) produced them.
    """

    beta: np.ndarray
    theta: np.ndarray
    sigma_beta: np.ndarray
    sigma_theta: np.ndarray
    spec: ModelSpec
    dataset: Dataset | None = None
    beta_converged: bool = True
    theta_converged: bool = True
    beta_source: str = "mediator model"
    theta_source: str = "outcome model"
    rho_context: tuple[str, float] | None = None


def effect_with_ci(effect_type: EffectType, scope: str, ctx: FitContext,
                   alpha: float = 0.05, profile=None) -> EffectEstimate:
    """Point estimate, delta SE and Wald (1 - alpha) interval.

    scope is "conditional" (needs a profile) or "marginal" (needs the
    dataset on the context). Refuses to report from a non-converged fit.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not ctx.beta_converged:
        raise NotConvergedError(
            f"{ctx.beta_source} did not converge; refusing to report an effect")
    if not ctx.theta_converged:
        raise NotConvergedError(
            f"{ctx.theta_source} did not converge; refusing to report an effect")
    if scope == "conditional":
        if profile is None:
            raise ValueError("conditional scope requires a covariate profile")
        est = conditional_effect(effect_type, ctx.theta, ctx.beta, profile, ctx.spec)
        grad = grad_conditional(effect_type, ctx.theta, ctx.beta, profile, ctx.spec)
    elif scope == "marginal":
        if ctx.dataset is None:
            raise ValueError("marginal scope requires a dataset on the fit context")
        est = effect_marginal(effect_type, ctx.theta, ctx.beta, ctx.dataset, ctx.spec)
        grad = grad_effect_marginal(effect_type, ctx.theta, ctx.beta, ctx.dataset, ctx.spec)
    else:
        raise ValueError(f"scope must be 'conditional' or 'marginal', got {scope!r}")
    se = delta_se(grad, ctx.sigma_beta, ctx.sigma_theta)
    zq = norm_quantile(1.0 - alpha / 2.0)
    prof = profile if isinstance(profile, CovariateProfile) else None
    return EffectEstimate(effect_type=effect_type, scope=scope, estimate=est,
                          std_error=se, ci_lower=est - zq * se,
                          ci_upper=est + zq * se, alpha=alpha, profile=prof,
                          rho_context=ctx.rho_context)

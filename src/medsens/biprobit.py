"""Constrained bivariate-probit likelihoods for a fixed error correlation.

Each of the three unmeasured-confounding directions pairs two of the
probit models and ties their latent errors with a fixed correlation rho:

    exposure-mediator:  sum_i ln Phi2(w1_i, (2z_i-1) a'x_i; (2m_i-1)(2z_i-1) rho)
    mediator-outcome:   sum_i ln Phi2(w2_i, (2m_i-1) b'c_i; (2y_i-1)(2m_i-1) rho)
    exposure-outcome:   sum_i ln Phi2(w2_i, (2z_i-1) a'x_i; (2y_i-1)(2z_i-1) rho)

with w1_i = (2m_i-1) times the mediator linear predictor and w2_i =
(2y_i-1) times the outcome linear predictor. Every term is the exact
bivariate-probit cell probability of the observed pair, so at rho = 0
each likelihood splits into the two univariate probit likelihoods.

With u_a, u_b the signed linear predictors and r the signed row
correlation, ln Phi2(u_a, u_b; r) has g_a = phi(u_a) Phi((u_b - r u_a)/
sqrt(1-r^2)) / Phi2, d2/du_a2 = -u_a g_a - r phi2/Phi2 - g_a^2 and
d2/du_a du_b = phi2/Phi2 - g_a g_b (Greene, Econometric Analysis), every
ratio taken in log space from numkernel.log_bvn_cdf, which owns the
probability floor of ln Phi2. ln Phi2 is concave,
so at fixed rho the probit module's Newton ascent maximizes the likelihood
and ends the fit, as it ends a probit fit: separation, convergence, the
covariance and the score norm are its own. It returns the ProbitFit that
records every Newton optimum, and fit_constrained extends that record
into a ConstrainedFit, a ProbitFit with the pair's two models as views of
its read-only arrays.
The pass reads the designs probit.fit_designs holds as they are, with
the response signs s = 2r - 1 on n-vectors: u = s (X b), X'(s v) and the
Hessian blocks X_a'(X_b (s_a s_b h)) equal the sums over the sign-flipped
designs s X bit for bit, since s = +-1 and s^2 = 1. Each block is one
general product of a design and its weighted copy, not the probit pass's
gather from (h L)'X_b (datamodel._GatherMap): on the few-column designs
of a typical scan the gather's extra calls cost more than its narrower
product saves (demo model, n = 5000: 21-25 against 16-24 us a pass),
though on the full model it would take a pass's three blocks for a pair
with the outcome from about 150 to 60 us.
The rows of one pass share |r| = rho, so 1 - rho^2, its root and its log
are scalars. With z_a = (u_b - r u_a)/sqrt(1 - rho^2), the identity
u_a^2 + z_a^2 = (u_a^2 - 2 r u_a u_b + u_b^2)/(1 - rho^2) gives
ln(phi2/Phi2) = ln phi(u_a) - ln Phi2 - z_a^2/2 - ln sqrt(1 - rho^2)
- ln sqrt(2 pi) from the terms ln g_a already needs, and ln Phi(z) is
numkernel._log_ndtr.
At rho = 0 the path's tangent and curvature come from the probit fits
that probit._probit_fits keeps, their Mills ratios recomputed at the
fitted coefficients, and the tetrachoric series, with no Phi2 call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, ModelSpec, model_designs
from .numkernel import (RHO_INTERIOR, _as_real, _as_real_array, _check_len,
                        _log_ndtr, clamp_rho, log_bvn_cdf)
from .probit import (_LOG_SQRT_2PI, ProbitFit, _mills, _newton_ascent,
                     _probit_fits, fit_designs)

# exponent cap keeping pathological floored-probability corners finite;
# it never binds at plausible parameter values
_LOG_RATIO_CAP = 600.0


class ConfoundingKind(enum.Enum):
    """Which pair of latent error terms is allowed to be correlated."""

    EXPOSURE_MEDIATOR = "zm"
    MEDIATOR_OUTCOME = "my"
    EXPOSURE_OUTCOME = "zy"


# the (first, second) models each kind pairs, by their UnconstrainedFits
# field names, which are also the fit_designs and _probit_fits keys;
# coefficient arguments, starts and results follow this order
PAIR_MODELS = {
    ConfoundingKind.EXPOSURE_MEDIATOR: ("exposure", "mediator"),
    ConfoundingKind.MEDIATOR_OUTCOME: ("mediator", "outcome"),
    ConfoundingKind.EXPOSURE_OUTCOME: ("exposure", "outcome"),
}


def _pair_models(kind) -> tuple:
    """PAIR_MODELS[kind], once kind is a ConfoundingKind."""
    if not isinstance(kind, ConfoundingKind):
        raise ValueError(f"unknown confounding kind {kind!r}")
    return PAIR_MODELS[kind]


def _check_rho_interior(rho: float) -> float:
    rho = _as_real(rho, "rho")
    if not np.isfinite(rho) or abs(rho) > RHO_INTERIOR:
        raise ValueError(
            f"likelihood evaluation needs |rho| <= {RHO_INTERIOR}, got {rho!r}")
    return rho


def _pair_rows(kind: ConfoundingKind, designs):
    """(d_a, s_a, d_b, s_b): the designs of the kind's two models in a
    model_designs or validate_for_fit table, as they are, and their
    response signs s = 2r - 1; a row's entries past (design, response)
    are not read.

    The second model carries the w-style signed predictor in the
    likelihood; the two Phi2 arguments commute, so only the sign
    bookkeeping matters. As s = +-1, a product with a sign is an exact
    sign flip and s^2 = 1, so every signed sum equals the one over the
    sign-flipped design s X bit for bit.
    """
    (d_a, r_a), (d_b, r_b) = (designs[model][:2] for model in _pair_models(kind))
    return d_a, 2.0 * r_a - 1.0, d_b, 2.0 * r_b - 1.0


def _pair_pass(coef_a, coef_b, rho, d_a, s_a, d_b, s_b):
    """Log-likelihood, score, Hessian, largest |u| and row terms u_a, u_b,
    w_a, w_b, d of sum_i ln Phi2(u_a, u_b; r_i), u = s X coef and r_i =
    s_a s_b rho, from one Phi2 evaluation."""
    u_a = s_a * (d_a @ coef_a)
    u_b = s_b * (d_b @ coef_b)
    signs = s_a * s_b
    r = signs * rho
    logp = log_bvn_cdf(u_b, u_a, r)
    loglik = float(logp.sum())
    logp += _LOG_SQRT_2PI   # so -u^2/2 - logp = ln phi(u) - ln Phi2
    one_minus_rho2 = 1.0 - rho * rho
    inv_root = 1.0 / math.sqrt(one_minus_rho2)
    z_a = r * u_a
    np.subtract(u_b, z_a, out=z_a)
    z_a *= inv_root
    z_b = r * u_b
    np.subtract(u_a, z_b, out=z_b)
    z_b *= inv_root
    # ln w = ln phi(u) - ln Phi2 + ln Phi(z)
    base_a = u_a * u_a
    base_a *= -0.5
    base_a -= logp
    log_w_a = _log_ndtr(z_a)
    log_w_a += base_a
    log_w_b = u_b * u_b
    log_w_b *= -0.5
    log_w_b -= logp
    log_w_b += _log_ndtr(z_b)
    # ln d = ln phi(u_a) - ln Phi2 - z_a^2/2 - ln sqrt(2 pi (1 - rho^2)),
    # as u_a^2 + z_a^2 = (u_a^2 - 2 r u_a u_b + u_b^2)/(1 - rho^2)
    log_d = z_a
    log_d *= z_a
    log_d *= -0.5
    log_d += base_a
    log_d -= _LOG_SQRT_2PI + 0.5 * math.log(one_minus_rho2)
    for t in (log_w_a, log_w_b, log_d):
        np.minimum(t, _LOG_RATIO_CAP, out=t)
        np.exp(t, out=t)
    w_a, w_b, d = log_w_a, log_w_b, log_d      # d = phi2 / Phi2
    rd = r * d
    # minus the diagonal weights, -h = u w + r d + w^2
    neg_h_aa = u_a * w_a
    neg_h_aa += rd
    neg_h_aa += w_a * w_a
    neg_h_bb = u_b * w_b
    neg_h_bb += rd
    neg_h_bb += w_b * w_b
    h_ab = d - w_a * w_b
    h_ab *= signs
    ka = d_a.shape[1]
    hessian = np.empty((ka + d_b.shape[1],) * 2)
    hessian[:ka, :ka] = -(d_a.T @ (d_a * neg_h_aa[:, None]))
    hessian[ka:, ka:] = -(d_b.T @ (d_b * neg_h_bb[:, None]))
    hessian[:ka, ka:] = d_a.T @ (d_b * h_ab[:, None])
    hessian[ka:, :ka] = hessian[:ka, ka:].T
    score = np.concatenate([d_a.T @ (s_a * w_a), d_b.T @ (s_b * w_b)])
    reach = max(np.abs(u_a).max(), np.abs(u_b).max())
    return loglik, score, hessian, reach, u_a, u_b, w_a, w_b, d


def _score_rho(rho, rows, d_a, s_a, d_b, s_b):
    """dg/drho, so that the path tangent at an optimum is -H^-1 dg/drho:
    dw_a/dr = dd/du_a = d [(r u_b - u_a)/(1 - r^2) - w_a] (Plackett 1954)
    and dr_i/drho = s_a s_b, whose product with a design's own sign is the
    other design's sign."""
    u_a, u_b, w_a, w_b, d = rows
    r, one_minus_r2 = s_a * s_b * rho, 1.0 - rho * rho
    return np.concatenate([
        d_a.T @ (s_b * d * ((r * u_b - u_a) / one_minus_r2 - w_a)),
        d_b.T @ (s_a * d * ((r * u_a - u_b) / one_minus_r2 - w_b))])


def _probit_pair_path(kind, ds, spec):
    """The path's rho = 0 node (0.0, x, tangent, curvature), where the
    kind's probit pair is the optimum x and H is block diagonal: with lam =
    phi/Phi at each fit's signed predictors u, the tetrachoric series
    (Pearson 1900)
    ln Phi2(u_a, u_b; r) = ln Phi(u_a) + ln Phi(u_b) + r lam_a lam_b + r^2/2
    lam_a lam_b (u_a u_b - lam_a lam_b) + O(r^3) gives each block of x' and
    x'' as cov X~' rows."""
    fits = tuple(_probit_fits(ds, spec, _pair_models(kind)).values())
    d_a, s_a, d_b, s_b = _pair_rows(kind, fit_designs(ds, spec))
    designs, signs = (d_a, d_b), np.array([s_a, s_b])
    u = signs * np.array([d @ f.coefficients for d, f in zip(designs, fits)])
    lam = np.array([_mills(q)[1] for q in u])
    d1 = -lam * (u + lam)                       # lam'
    d2 = -d1 * (u + lam) - lam * (1.0 + d1)     # lam''
    s, lam_o, u_o, d1_o = signs[0] * signs[1], lam[::-1], u[::-1], d1[::-1]

    def blocks(rows):  # [cov_a X~_a' rows[0], cov_b X~_b' rows[1]]
        return [f.covariance @ (d.T @ (sign * r))
                for f, d, sign, r in zip(fits, designs, signs, rows)]

    tangent = blocks(s * d1 * lam_o)
    delta = signs * np.array([d @ t for d, t in zip(designs, tangent)])
    curvature = blocks(
        d2 * delta * delta + 2.0 * s * (d2 * lam_o * delta + d1 * d1_o * delta[::-1])
        + lam_o * (d1 * (u * u_o - lam * lam_o) + lam * (u_o - d1 * lam_o)))
    return (0.0, np.concatenate([f.coefficients for f in fits]),
            np.concatenate(tangent), np.concatenate(curvature))


def _predict(known, rho) -> np.ndarray:
    """The start at rho from (rho, x, tangent, curvature) nodes: a step off
    one node, quadratic if it has a curvature, else the confluent Hermite
    polynomial matching every node's x and tangent, and its curvature
    where it has one. The polynomial is solved for in s = (rho -
    rho_last) / span, span = rho_last - rho_first, so nodes lie in
    [-1, 0]."""
    rho1, x1, t1, c1 = known[-1]
    if len(known) == 1:
        step = rho - rho1
        return x1 + t1 * step + (0.0 if c1 is None else 0.5 * c1 * step * step)
    span = rho1 - known[0][0]
    rows, rhs = [], []
    for node_rho, *derivatives in known:
        for order, value in enumerate(derivatives):
            if value is not None:
                rows.append((order, (node_rho - rho1) / span))
                rhs.append(value * span ** order)
    powers = np.arange(len(rows))

    def basis(order, s):  # d^order/ds^order of s ** powers
        falling = np.prod([powers - m for m in range(order)], axis=0)
        return falling * s ** np.maximum(powers - order, 0)

    coef = np.linalg.solve(np.array([basis(*row) for row in rows]), np.array(rhs))
    return basis(0, (rho - rho1) / span) @ coef


def constrained_grad(kind: ConfoundingKind, coef_a, coef_b, rho,
                     ds: Dataset, spec: ModelSpec):
    """Analytic gradient of the kind's joint log-likelihood wrt the
    (first, second) coefficients: (alpha, beta) for zm, (beta, theta) for
    my, (alpha, theta) for zy, at |rho| <= 0.999."""
    # not fit_designs: the gradient is evaluated on data validate_for_fit
    # refuses, such as n <= p + 10 rows
    rho = _check_rho_interior(rho)
    d_a, s_a, d_b, s_b = _pair_rows(kind, model_designs(ds, spec))
    coef_a = _check_len("coef_a", coef_a, d_a.shape[1])
    coef_b = _check_len("coef_b", coef_b, d_b.shape[1])
    score = _pair_pass(coef_a, coef_b, rho, d_a, s_a, d_b, s_b)[1]
    return score[:len(coef_a)], score[len(coef_a):]


@dataclass(frozen=True, kw_only=True)
class ConstrainedFit(ProbitFit):
    """Joint ML fit of a model pair at fixed rho, with dx/drho and dl/drho:
    the ascent's ProbitFit, whose coefficients are the packed (first,
    second) vector and whose covariance is the joint one, with the pair's
    coefficient vectors and diagonal covariance blocks as read-only views
    of them."""

    kind: ConfoundingKind
    rho: float
    coefficients_a: np.ndarray
    coefficients_b: np.ndarray
    covariance_a: np.ndarray
    covariance_b: np.ndarray
    tangent: np.ndarray | None = None
    loglik_slope: float | None = None


def fit_constrained(kind: ConfoundingKind, rho: float, ds: Dataset,
                    spec: ModelSpec,
                    start: np.ndarray | None = None) -> ConstrainedFit:
    """Maximize the kind's constrained likelihood at a fixed rho.

    rho outside the +-0.999 interior band is clamped with a recorded
    warning. The start defaults to _predict's second-order step to rho off
    the rho = 0 node of _probit_pair_path, x + t rho + c rho^2 / 2, from the
    kind's probit pair that probit._probit_fits keeps: the start a
    one-point scan's anchor gets. Scans pass the Hermite polynomial
    through up to four converged optima and their tangents, a step off
    one, or the cubic through a bracket's two ends. A start that is not an array of
    integers or floats, or not finite, raises ValueError. The designs
    come from probit.fit_designs and are read as they are, with the
    response signs on n-vectors (_pair_rows).
    probit._newton_ascent ends the fit: it raises SeparationError, and it
    returns the optimum's ProbitFit, with the convergence verdict, the
    covariance (the inverse observed information of the joint fit), the
    score norm and the pass count. The ConstrainedFit returned is that
    record, its warnings after the clamp notice, extended with views of
    the pair's coefficients and diagonal covariance blocks; the ascent
    copies a start it takes no step from, so the fit never aliases start.
    The tangent and slope reuse the row terms of the last pass, which the
    ascent returns beside the record, with no further Phi2 call or design
    product.
    """
    d_a, s_a, d_b, s_b = pair = _pair_rows(kind, fit_designs(ds, spec))
    rho_used, clamped = clamp_rho(rho)
    warnings = (f"rho = {rho!r} clamped to {rho_used!r} for likelihood "
                "evaluation",) if clamped else ()

    ka, kb = d_a.shape[1], d_b.shape[1]
    if start is None:
        start = _predict([_probit_pair_path(kind, ds, spec)], rho_used)
    x0 = _as_real_array(start, "start")
    if x0.shape != (ka + kb,):
        raise ValueError(
            f"start has length {x0.shape}, expected {ka + kb} "
            f"({ka} + {kb} coefficients)")
    if not np.isfinite(x0).all():
        raise ValueError(
            f"start must be finite, got non-finite entries at "
            f"{np.flatnonzero(~np.isfinite(x0)).tolist()}")

    opt, rows = _newton_ascent(
        lambda x: _pair_pass(x[:ka], x[ka:], rho_used, *pair), x0)
    x, cov = opt.coefficients, opt.covariance
    return ConstrainedFit(
        **{**vars(opt), "warnings": warnings + opt.warnings},
        kind=kind, rho=rho_used,
        coefficients_a=x[:ka], coefficients_b=x[ka:],
        covariance_a=cov[:ka, :ka], covariance_b=cov[ka:, ka:],
        tangent=cov @ _score_rho(rho_used, rows, *pair),
        loglik_slope=float((s_a * s_b) @ rows[-1]))  # sum_i s_i d_i

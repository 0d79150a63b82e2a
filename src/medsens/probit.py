"""Maximum-likelihood probit fitting by Newton-Raphson.

The log-likelihood sum_i ln Phi(s_i * x_i'b) with s_i = 2r_i - 1 is
globally concave, so undamped Newton from a zero start converges in a
handful of iterations; a step-halving guard keeps early steps honest.
The same Newton ascent, _newton_ascent, maximizes the constrained
bivariate fits, and it ends every fit: the separation rule, the
convergence verdict, the covariance and the score norm are its own.
ProbitFit is the record of every Newton optimum: the ascent builds it,
fit_probit returns it as it is, and biprobit.fit_constrained splits it
into the two models of its pair.
The inverse-Mills ratio is evaluated as exp(log pdf - log cdf), which
stays accurate far into the tail where pdf/cdf would be 0/0. ln Phi is
numkernel._log_ndtr: log(ndtr(q)) above q = -20, cheaper per row than
scipy's log_ndtr, and log_ndtr at and below. Its absolute error, at most
1.2e-16 above q = 6, enters only the ratio's exponent and the
log-likelihood sum.
fit_probit checks every design it is given: its shape, a 0/1 response,
and its rank by datamodel.require_full_rank (a Gram eigenvalue check, and
matrix_rank's SVD only near the bound). That Gram G = X'X also gives the
zero start's Hessian (Amemiya 1981): at q = +-0 every row has the weight
2/pi, so the Hessian is -(2/pi) G, and the loglik and score are
n ln Phi(0) and lam(0) X's, from one _mills call on one row. Every design is fitted in
Fortran order. The probit weights w are nonnegative, so the Hessian -X'WX
at any other point is accumulated as -B'B over row blocks B = sqrt(w) X,
one symmetric rank-k update per block. Each pass hands the ascent its
largest |q|, the separation rule's input, and a fit keeps no per-row
vector.
_probit_fits is the only caller of fit_probit in the package. It fits
each model once per (dataset, spec), from the designs fit_designs holds,
and keeps the fit, with read-only arrays, in that same one entry, so
fit_unconstrained, the effect contexts, every constrained fit and every
scan on that pair read the same fits. The entry is the one (dataset,
spec) held at a time; it is dropped before the next pair is set up and
when its Dataset is collected.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, ModelSpec, require_full_rank, validate_for_fit
from .errors import RankError, SeparationError
from .numkernel import _as_real_array, _log_ndtr

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# a signed linear predictor beyond this after a step that improved the
# likelihood, or at the returned point, is (quasi-)separation: the MLE is
# drifting to infinity
_SEPARATION_BOUND = 30.0

# rows per block of the Hessian's rank-k updates: a block of a 20-column
# design stays in cache between its scaling and its update
_HESSIAN_ROWS = 8192

MAX_ITER = 100
SCORE_TOL = 1e-6
LOGLIK_RTOL = 1e-10
# a step losing at most this much loglik (relative to 1 + |loglik|) is
# still taken if it halves the score: at the loglik's float-noise floor
# strict ascent can reject a contracting Newton step
_NOISE_RTOL = 1e-9


@dataclass(frozen=True)
class ProbitFit:
    """The record of a Newton optimum: the maximum-likelihood fit of a
    probit, or of a constrained pair, which biprobit.fit_constrained splits
    into its ConstrainedFit. Converged, or explicitly flagged."""

    coefficients: np.ndarray
    covariance: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    score_norm: float
    warnings: tuple[str, ...] = ()


def _newton_ascent(loglik_score_hessian, x0) -> tuple[ProbitFit, list]:
    """Maximize a concave log-likelihood by step-halving Newton; return
    the optimum's ProbitFit, the one record both fits read, and the row
    terms of the last pass.

    loglik_score_hessian maps x to (loglik, score, Hessian, reach, *rows),
    reach the largest |signed linear predictor| of the pass; the rows of
    the pass at the returned x are returned beside the record. A step that
    strictly increases the log-likelihood to a reach beyond
    _SEPARATION_BOUND, or a returned point beyond it, raises
    SeparationError: the maximum is drifting to infinity. The fit
    converged when the log-likelihood is finite, the score is below
    SCORE_TOL in the infinity norm, the relative log-likelihood change is
    below LOGLIK_RTOL and the information is positive definite; the
    covariance is its symmetrized inverse, or the pseudo-inverse, with a
    warning and converged False, where it is not.
    """
    x = np.asarray(x0, dtype=float)
    f, g, h, reach, *rows = loglik_score_hessian(x)
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        try:
            step = np.linalg.solve(-h, g)
        except np.linalg.LinAlgError:
            raise RankError("observed information became singular") from None
        g_norm = np.abs(g).max()
        floor = f - _NOISE_RTOL * (1.0 + abs(f))
        scale = 1.0
        accepted = False
        for _ in range(40):
            cand = x + scale * step
            f_new, g_new, h_new, reach_new, *rows_new = loglik_score_hessian(cand)
            if np.isfinite(f_new) and (
                    f_new >= f or (f_new >= floor
                                   and np.abs(g_new).max() <= 0.5 * g_norm)):
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # the log-likelihood cannot be improved along the Newton
            # direction at double precision; stop where we are
            converged = bool(g_norm < SCORE_TOL)
            break
        improved = f_new > f
        rel_change = abs(f_new - f) / (abs(f) + 1.0)
        x, f, g, h, reach, rows = cand, f_new, g_new, h_new, reach_new, rows_new
        if improved and reach > _SEPARATION_BOUND:
            break
        if np.abs(g).max() < SCORE_TOL and rel_change < LOGLIK_RTOL:
            converged = True
            break
    if reach > _SEPARATION_BOUND:
        raise SeparationError(
            "a fitted linear predictor exceeded +-30; the data are "
            "(quasi-)separated and the likelihood has no finite maximum")
    warnings = ()
    try:
        covariance = np.linalg.inv(-h)
        covariance = 0.5 * (covariance + covariance.T)
        np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        covariance = np.linalg.pinv(-h)
        covariance = 0.5 * (covariance + covariance.T)
        warnings = ("observed information not positive definite at optimum",)
        converged = False
    return ProbitFit(coefficients=x, covariance=covariance, loglik=float(f),
                     iterations=iterations, score_norm=float(np.abs(g).max()),
                     converged=converged and bool(np.isfinite(f)),
                     warnings=warnings), rows


def _check_design(design: np.ndarray, response: np.ndarray):
    design = _as_real_array(design, "design")
    response = np.asarray(response)
    if design.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    if response.ndim != 1 or response.shape[0] != design.shape[0]:
        raise ValueError(
            f"response length {response.shape} does not match design rows {design.shape}")
    if not ((response == 0) | (response == 1)).all():  # O(n); unique sorts
        raise ValueError("response must be binary 0/1")
    return design, response.astype(float)


def _mills(q):
    """ln Phi(q), ratio = phi/Phi and the weight ratio (ratio + q); below
    -30 that sum is 1/(x + 2/(x + 3/...)), x = -q (Laplace's fraction)."""
    log_cdf = _log_ndtr(q)
    ratio = -0.5 * q * q
    ratio -= _LOG_SQRT_2PI
    ratio -= log_cdf
    np.exp(ratio, out=ratio)  # pdf/cdf, tail-stable
    weight = ratio + q
    weight *= ratio
    tail = q < -_SEPARATION_BOUND
    if tail.any():
        x = t = -q[tail]
        for k in range(8, 1, -1):  # 8 terms: double precision at x = 30
            t = x + k / t
        weight[tail] = (x + 1.0 / t) / t
    return log_cdf, ratio, weight


def fit_probit(design: np.ndarray, response: np.ndarray) -> ProbitFit:
    """Fit a probit model by Newton from zero; raises on a misshapen
    design or response, a response that is not 0/1, rank deficiency and
    separation. Every design goes through datamodel.require_full_rank,
    whose Gram is the zero start's Hessian up to the factor -2/pi. The fit
    reads a Fortran-order copy of a design in any other memory order, so
    it does not depend on the caller's layout."""
    design, response = _check_design(design, response)
    design = np.asfortranarray(design)
    n, k = design.shape
    if n <= k:
        raise RankError(f"cannot fit {k} coefficients on {n} rows")
    gram = require_full_rank(design, "design matrix")
    if response.min() == response.max():
        raise SeparationError(
            f"response is constant (all {int(response[0])}); "
            "the probit likelihood has no interior maximum")

    s = 2.0 * response - 1.0
    block = np.empty((min(n, _HESSIAN_ROWS), k), order="F")
    zero = np.zeros(k)

    def hessian(weight):
        root = np.sqrt(weight)
        h = np.zeros((k, k))
        for start in range(0, n, block.shape[0]):
            stop = min(start + block.shape[0], n)
            scaled = block[:stop - start]
            np.multiply(design[start:stop], root[start:stop, None], out=scaled)
            h -= scaled.T @ scaled  # numpy's syrk path: one buffer, transposed
        return h

    def loglik_score_hessian(coef):
        if coef is zero:  # q = +-0: every row's terms are _mills' at 0
            log_cdf, ratio, weight = (v[0] for v in _mills(zero[:1]))
            return n * log_cdf, ratio * (design.T @ s), -weight * gram, 0.0
        q = s * (design @ coef)
        log_cdf, ratio, weight = _mills(q)
        return (float(log_cdf.sum()), design.T @ (s * ratio), hessian(weight),
                np.abs(q).max())

    return _newton_ascent(loglik_score_hessian, zero)[0]


@dataclass(frozen=True)
class UnconstrainedFits:
    """The three separate probit fits under no unmeasured confounding."""

    exposure: ProbitFit
    mediator: ProbitFit
    outcome: ProbitFit


_FIT_ENTRY: dict = {}  # the one entry: {(id(ds), spec): (designs, fits)}


def _fit_entry(ds: Dataset, spec: ModelSpec) -> tuple[dict, dict]:
    key = (id(ds), spec)
    if key not in _FIT_ENTRY:
        _FIT_ENTRY.clear()
        designs = validate_for_fit(ds, spec)
        for design, _ in designs.values():
            design.setflags(write=False)
        _FIT_ENTRY[key] = designs, {}
        weakref.finalize(ds, _FIT_ENTRY.pop, key, None)
    return _FIT_ENTRY[key]


def fit_designs(ds: Dataset, spec: ModelSpec) -> dict:
    """The validated model_designs table every fit on (ds, spec) reads.

    One entry, dropped before the next (ds, spec) is set up and when its
    Dataset is collected, so it never keeps a dataset's designs alive on
    its own. Dataset compares by identity and is immutable, ModelSpec is
    frozen, so the entry is a function of its key; a failed validation
    caches nothing. The designs are read-only because callers share them.
    """
    return _fit_entry(ds, spec)[0]


def _probit_fits(ds, spec, models) -> dict[str, ProbitFit]:
    """The named models' probit fits, each fitted once per fit_designs
    entry and kept in that entry, with read-only arrays, for every reader
    on one (ds, spec)."""
    designs, fits = _fit_entry(ds, spec)
    for model in models:
        if model not in fits:
            fit = fits[model] = fit_probit(*designs[model])
            for array in (fit.coefficients, fit.covariance):
                array.setflags(write=False)
    return {model: fits[model] for model in models}


def fit_unconstrained(ds: Dataset, spec: ModelSpec) -> UnconstrainedFits:
    """The exposure, mediator and outcome probits on one dataset, fitted
    from the validated designs fit_designs holds for (ds, spec): the
    shared, read-only fits _probit_fits keeps for that pair."""
    return UnconstrainedFits(**_probit_fits(ds, spec, fit_designs(ds, spec)))

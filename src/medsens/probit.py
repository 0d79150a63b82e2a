"""Maximum-likelihood probit fitting by Newton-Raphson.

The log-likelihood sum_i ln Phi(s_i * x_i'b) with s_i = 2r_i - 1 is
globally concave, so undamped Newton from a zero start converges in a
handful of iterations; a step-halving guard keeps early steps honest.
The same Newton ascent, _newton_ascent, maximizes the constrained
bivariate fits, and it ends every fit: the separation rule, the
convergence verdict, the covariance and the score norm are its own.
ProbitFit is the record of every Newton optimum: the ascent builds it,
with its coefficients and covariance read-only and the counts of its
passes and rejected step halvings, and fit_probit returns it as it is.
biprobit.ConstrainedFit is a ProbitFit: fit_constrained extends the
record with the pair's blocks, views of the same read-only arrays.
The inverse-Mills ratio is evaluated as exp(log pdf - log cdf), which
stays accurate far into the tail where pdf/cdf would be 0/0. ln Phi is
numkernel._log_ndtr: log(ndtr(q)) above q = -20, cheaper per row than
scipy's log_ndtr, and log_ndtr at and below. Its absolute error, at most
1.2e-16 above q = 6, enters only the ratio's exponent and the
log-likelihood sum.
fit_probit checks every design it is given: its shape, a 0/1 response,
and its rank by datamodel.require_full_rank (a Gram eigenvalue check, and
matrix_rank's SVD only near the bound). A design fit_designs holds went
through that check in validate_for_fit, and is read-only; fit_probit
fits it from the Gram G = X'X that check formed, so no design's X'X is
formed twice. G also gives the zero start's Hessian (Amemiya 1981): at
q = +-0 every row has the weight 2/pi, so the Hessian is -(2/pi) G, and
the loglik and score are n ln Phi(0) and lam(0) X's, from one _mills
call on one row. Every design is fitted in Fortran order. Each pass
after the start's walks the design once in blocks of _PASS_ROWS rows: a
block X_b forms its signed predictors q = s X_b b and their _mills
terms, adds its loglik, its score X_b'(s ratio) and its largest |q| (the
separation rule's input), and subtracts (w L_b)'X_b, L_b the columns of
the block its design's datamodel._GatherMap names, written weighted into
one preallocated buffer. The pass then gathers its Hessian X'diag(w)X
from that |L| x k sum. As z and m are 0/1, L is the base block [1, x] of
a held design wherever the design holds every product of two of its
columns: a quarter of the 20-column outcome design's Hessian flops. A
design fit_designs does not hold is gathered whole, L every column. No
pass forms a per-row vector longer than a block, and a fit keeps none.
_probit_fits is the only caller of fit_probit in the package. It fits
each model once per (dataset, spec), from the (design, response, gram)
rows fit_designs holds, and keeps the fit in that same one entry, so
fit_unconstrained, the effect contexts, every constrained fit and every
scan on that pair read the same fits. The entry is the one (dataset,
spec) held at a time, in a WeakKeyDictionary keyed by the Dataset: it is
dropped before the next pair is set up and when its Dataset is
collected. A dataset that is not a Dataset, or a spec that is not a
ModelSpec, is refused by name (DataError, ConfigError) before it is read.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .datamodel import (Dataset, ModelSpec, _full_map, _hessian_map,
                        require_full_rank, validate_for_fit)
from .errors import ConfigError, DataError, RankError, SeparationError
from .numkernel import _as_real_array, _log_ndtr

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# a signed linear predictor beyond this after a step that improved the
# likelihood, or at the returned point, is (quasi-)separation: the MLE is
# drifting to infinity
_SEPARATION_BOUND = 30.0

# rows per block of fit_probit's pass, whose row terms and weighted L
# stay in cache from the block's linear predictor to its Hessian product:
# of 2048 to 16384, 8192 fitted the 5-, 10- and 20-column designs of a
# 500,000-row cohort fastest, each and in sum
_PASS_ROWS = 8192

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
    probit, or of a constrained pair, which biprobit.ConstrainedFit
    extends. Converged, or explicitly flagged. The coefficients and
    covariance are read-only; passes counts the calls of the pass
    function, rejected step halvings included, and halvings the rejected
    steps: 1 + iterations + halvings passes when the last step was
    taken."""

    coefficients: np.ndarray
    covariance: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    score_norm: float
    warnings: tuple[str, ...] = ()
    passes: int = 0
    halvings: int = 0


def _newton_ascent(loglik_score_hessian, x0) -> tuple[ProbitFit, list]:
    """Maximize a concave log-likelihood by step-halving Newton; return
    the optimum's ProbitFit, the one record both fits read, and the row
    terms of the last pass. The record's coefficients and covariance are
    arrays the ascent owns, made read-only: where no step is taken, a copy
    of x0.

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
    passes, iterations, halvings = 1, 0, 0
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
            passes += 1
            if np.isfinite(f_new) and (
                    f_new >= f or (f_new >= floor
                                   and np.abs(g_new).max() <= 0.5 * g_norm)):
                accepted = True
                break
            halvings += 1
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
    if x is x0:
        x = x.copy()
    for array in (x, covariance):
        array.setflags(write=False)
    return ProbitFit(coefficients=x, covariance=covariance, loglik=float(f),
                     iterations=iterations, score_norm=float(np.abs(g).max()),
                     converged=converged and bool(np.isfinite(f)),
                     warnings=warnings, passes=passes,
                     halvings=halvings), rows


def _check_design(design: np.ndarray, response: np.ndarray):
    design = _as_real_array(design, "design")
    response = np.asarray(response)
    if design.ndim != 2:
        raise ValueError("design must be a 2-d matrix")
    if design.shape[1] == 0:
        raise ValueError("design must have at least one column")
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
    design or response, a response that is not 0/1, a design without
    columns, a non-finite Gram, rank deficiency and separation. Every
    design goes through datamodel.require_full_rank, whose Gram is the
    zero start's Hessian up to the factor -2/pi; a design that
    fit_designs holds went through it in validate_for_fit and is fitted
    from that Gram and its model's _GatherMap, any other design from its
    own Gram and the map of every column. The fit reads a Fortran-order
    copy of a design in any other memory order, so it does not depend on
    the caller's layout."""
    design, response = _check_design(design, response)
    design = np.asfortranarray(design)
    n, k = design.shape
    if n <= k:
        raise RankError(f"cannot fit {k} coefficients on {n} rows")
    held = _validated_gram(design)
    if held is None:
        held = require_full_rank(design, "design matrix"), _full_map(k)
    gram, gather = held
    if response.min() == response.max():
        raise SeparationError(
            f"response is constant (all {int(response[0])}); "
            "the probit likelihood has no interior maximum")

    s = 2.0 * response - 1.0
    rows, (runs, index, width) = min(n, _PASS_ROWS), gather
    block = np.empty((rows, width), order="F")
    zero = np.zeros(k)

    def loglik_score_hessian(coef):
        if coef is zero:  # q = +-0: every row's terms are _mills' at 0
            log_cdf, ratio, weight = (v[0] for v in _mills(zero[:1]))
            return n * log_cdf, ratio * (design.T @ s), -weight * gram, 0.0
        f, g, h, reach = 0.0, np.zeros(k), np.zeros((width, k)), 0.0
        for start in range(0, n, rows):
            x, s_b = design[start:start + rows], s[start:start + rows]
            q = s_b * (x @ coef)
            log_cdf, ratio, weight = _mills(q)
            f += log_cdf.sum()
            ratio *= s_b
            g += x.T @ ratio
            reach = max(reach, np.abs(q).max())
            weighted, weight = block[:len(q)], weight[:, None]
            for source, dest in runs:  # weighted = w L_b
                np.multiply(x[:, source], weight, out=weighted[:, dest])
            h -= weighted.T @ x
        return float(f), g, h.take(index), reach

    return _newton_ascent(loglik_score_hessian, zero)[0]


@dataclass(frozen=True)
class UnconstrainedFits:
    """The three separate probit fits under no unmeasured confounding."""

    exposure: ProbitFit
    mediator: ProbitFit
    outcome: ProbitFit


# the one entry, {ds: (spec, designs, fits, maps)}, maps each model's
# _GatherMap; Dataset hashes by identity
_FIT_ENTRY = weakref.WeakKeyDictionary()


def _check_fit_args(ds, spec) -> None:
    """Refuse a ds that is not a Dataset or a spec that is not a
    ModelSpec, by name, before either is read."""
    if not isinstance(ds, Dataset):
        raise DataError(f"ds must be a Dataset, got {type(ds).__name__} {ds!r:.60}")
    if not isinstance(spec, ModelSpec):
        raise ConfigError(
            f"spec must be a ModelSpec, got {type(spec).__name__} {spec!r:.60}")


def _fit_entry(ds: Dataset, spec: ModelSpec) -> tuple[dict, dict]:
    _check_fit_args(ds, spec)
    entry = _FIT_ENTRY.get(ds)
    if entry is None or entry[0] != spec:
        _FIT_ENTRY.clear()
        designs = validate_for_fit(ds, spec)
        for design, _, gram in designs.values():
            design.setflags(write=False)
            gram.setflags(write=False)
        maps = {model: _hessian_map(model, model, spec, ds.p) for model in designs}
        entry = _FIT_ENTRY[ds] = spec, designs, {}, maps
    return entry[1:3]


def _validated_gram(design: np.ndarray):
    """(gram, map): the Gram validate_for_fit formed for design and its
    model's _GatherMap, when design is itself a read-only design of the fit
    entry, else None. Found by identity, so fit_probit takes no Gram or
    map from a caller."""
    for _, designs, _, maps in _FIT_ENTRY.values():
        for model, (held, _, gram) in designs.items():
            if held is design and not design.flags.writeable:
                return gram, maps[model]
    return None


def fit_designs(ds: Dataset, spec: ModelSpec) -> dict:
    """The validate_for_fit table every fit on (ds, spec) reads: a
    (design, response, gram) row per model.

    One entry, weakly keyed by the Dataset and holding its spec: it is
    dropped before the next (ds, spec) is validated and when its Dataset
    is collected, so it never keeps a dataset's designs alive on its own.
    Dataset compares by identity and is immutable, ModelSpec is frozen,
    so the entry is a function of (ds, spec); a failed validation caches
    nothing. The designs and Grams are read-only because callers share
    them, as are the fits kept beside them.
    """
    return _fit_entry(ds, spec)[0]


def _probit_fits(ds, spec, models) -> dict[str, ProbitFit]:
    """The named models' probit fits, each fitted once per fit_designs
    entry and kept in that entry for every reader on one (ds, spec)."""
    designs, fits = _fit_entry(ds, spec)
    for model in models:
        if model not in fits:
            fits[model] = fit_probit(*designs[model][:2])
    return {model: fits[model] for model in models}


def fit_unconstrained(ds: Dataset, spec: ModelSpec) -> UnconstrainedFits:
    """The exposure, mediator and outcome probits on one dataset, fitted
    from the validated designs fit_designs holds for (ds, spec): the
    shared, read-only fits _probit_fits keeps for that pair."""
    return UnconstrainedFits(**_probit_fits(ds, spec, fit_designs(ds, spec)))

"""Newton-Raphson probit fitting."""

import contextlib
import dataclasses
import io
import math
import re

import numpy as np
import pytest
import yaml

from medsens import (ConfoundingKind, EffectType, RankError, RhoGrid,
                     SeparationError, build_mediator_design, demo_params,
                     fit_probit, fit_unconstrained, norm_quantile, run_scan,
                     simulate, write_csv)
from medsens import datamodel, probit
from medsens.cli import main
from medsens.datamodel import require_full_rank
from medsens.probit import fit_designs
from conftest import probit_loglik


def intercept_only(y):
    return np.ones((len(y), 1)), np.asarray(y)


def test_intercept_only_closed_form():
    # MLE of an intercept-only probit is the normal quantile of the mean
    y = np.array([1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0])
    design, resp = intercept_only(y)
    fit = fit_probit(design, resp)
    assert fit.converged
    assert fit.coefficients[0] == pytest.approx(norm_quantile(y.mean()), abs=1e-8)


def test_intercept_only_loglik_closed_form():
    # at the intercept-only MLE each row's probability is the sample share
    y = np.array([1, 0, 1, 1, 0])
    fit = fit_probit(*intercept_only(y))
    assert fit.loglik == pytest.approx(3.0 * math.log(0.6) + 2.0 * math.log(0.4),
                                       abs=1e-12)


def test_score_is_small_at_reported_optimum(demo_clean, spec):
    design = build_mediator_design(demo_clean, spec)
    fit = fit_probit(design, demo_clean.m)
    assert fit.converged
    assert fit.score_norm < 1e-6


def test_recovers_true_coefficients(spec):
    params = demo_params()
    ds = simulate(params, 20000, 314)
    fit = fit_probit(build_mediator_design(ds, spec), ds.m)
    se = np.sqrt(np.diag(fit.covariance))
    assert fit.converged
    # 4 marginal checks at 3.5 sigma on one fixed seed
    assert np.all(np.abs(fit.coefficients - params.beta) < 3.5 * se)


def test_loglik_beats_nearby_points(demo_clean, spec):
    design = build_mediator_design(demo_clean, spec)
    fit = fit_probit(design, demo_clean.m)
    rng = np.random.default_rng(0)
    for _ in range(20):
        perturbed = fit.coefficients + rng.normal(scale=1e-3, size=fit.coefficients.size)
        assert probit_loglik(perturbed, design, demo_clean.m) <= fit.loglik + 1e-12


@pytest.mark.parametrize("seed", [2, 3])
def test_loglik_at_the_fit_is_the_fits_own(spec, seed):
    # the fit's loglik is the ln Phi row sum at its returned coefficients
    ds = simulate(demo_params(), 5000, seed)
    for model in ("mediator", "outcome"):
        design, response = fit_designs(ds, spec)[model]
        fit = fit_probit(design, response)
        assert probit_loglik(fit.coefficients, design, response) == fit.loglik


def test_covariance_symmetric_positive_definite(demo_clean, spec):
    fit = fit_probit(build_mediator_design(demo_clean, spec), demo_clean.m)
    cov = fit.covariance
    assert np.array_equal(cov, cov.T)
    assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_row_permutation_invariance(demo_clean, spec):
    design = build_mediator_design(demo_clean, spec)
    fit = fit_probit(design, demo_clean.m)
    perm = np.random.default_rng(1).permutation(demo_clean.n)
    fit_perm = fit_probit(design[perm], demo_clean.m[perm])
    assert np.allclose(fit.coefficients, fit_perm.coefficients, atol=1e-9)


def test_constant_response_raises():
    design = np.column_stack([np.ones(30), np.linspace(-1, 1, 30)])
    with pytest.raises(SeparationError, match="constant"):
        fit_probit(design, np.ones(30))


def test_separated_data_raises():
    x = np.linspace(-2, 2, 60)
    y = (x > 0).astype(int)
    design = np.column_stack([np.ones(60), x])
    with pytest.raises(SeparationError, match="separat"):
        fit_probit(design, y)


def toy_pass(curve, reach):
    """A one-coefficient pass for _newton_ascent: loglik -curve(x - 1),
    its derivatives, and reach(x) as the largest |signed predictor|."""
    def loglik_score_hessian(x):
        f, g, h = curve(x[0] - 1.0)
        return -f, np.array([-g]), np.array([[-h]]), reach(x[0])
    return loglik_score_hessian


def quartic(t):
    return t ** 4 + t * t, 4.0 * t ** 3 + 2.0 * t, 12.0 * t * t + 2.0


def test_an_improving_step_beyond_the_bound_raises():
    # Newton from 0 climbs to the optimum at 1 through (0, 1); a predictor
    # beyond +-30 on the way raises although the optimum's is 0
    beyond_on_the_way = toy_pass(quartic, lambda x: 40.0 if 0.0 < x < 0.99 else 0.0)
    with pytest.raises(SeparationError, match="separat"):
        probit._newton_ascent(beyond_on_the_way, np.zeros(1))
    fit, _ = probit._newton_ascent(toy_pass(quartic, lambda x: 0.0), np.zeros(1))
    assert fit.converged


def test_a_singular_information_raises():
    # a linear objective has a zero Hessian: no Newton step exists
    def linear(t):
        return -t, -1.0, 0.0
    with pytest.raises(RankError, match="^observed information became singular$"):
        probit._newton_ascent(toy_pass(linear, lambda x: 0.0), np.zeros(1))


def test_a_returned_point_beyond_the_bound_raises():
    # the start is the optimum: no step improves, the returned point is
    # beyond the bound
    with pytest.raises(SeparationError, match="separat"):
        probit._newton_ascent(toy_pass(quartic, lambda x: 31.0), np.ones(1))


def pseudo_huber(t):
    root = math.sqrt(1.0 + t * t)
    return root, t / root, 1.0 / root ** 3


def test_an_overshooting_newton_step_is_halved():
    # from t = 2 the Newton step on -sqrt(1 + t^2) lands at t = -8, below
    # the start, and so does its half at -3; the quarter step to -0.5
    # improves, and the ascent goes on to the optimum at t = 0
    toy, seen = toy_pass(pseudo_huber, lambda x: 0.0), []

    def recording(x):
        seen.append(x[0] - 1.0)
        return toy(x)
    opt, _ = probit._newton_ascent(recording, np.array([3.0]))
    assert seen[:4] == pytest.approx([2.0, -8.0, -3.0, -0.5], abs=1e-12)
    assert opt.converged and opt.coefficients[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("score,converged", [(1.0, False), (1e-8, True)])
def test_the_ascent_stops_where_no_step_improves(score, converged):
    # every point but the start is lower, so each of the 40 halvings of the
    # one Newton step is refused: the ascent stops at the start, converged
    # only if the score there is below SCORE_TOL
    calls = []

    def cliff(x):
        calls.append(x[0])
        return (0.0 if x[0] == 0.0 else -1.0), np.array([score]), -np.eye(1), 0.0
    opt, _ = probit._newton_ascent(cliff, np.zeros(1))
    assert opt.coefficients.tolist() == [0.0] and opt.loglik == 0.0
    assert opt.iterations == 1 and len(calls) == 41
    assert opt.converged is converged


def test_information_not_positive_definite_is_flagged():
    # at the start, the optimum of -(x - 1)^2, the pass reports a convex
    # Hessian: the covariance is the pseudo-inverse, with a warning
    def convex_at_the_optimum(t):
        return t * t, 2.0 * t, -2.0
    opt, _ = probit._newton_ascent(toy_pass(convex_at_the_optimum, lambda x: 0.0),
                                   np.ones(1))
    assert opt.iterations == 1 and opt.score_norm == 0.0
    assert not opt.converged
    assert opt.warnings == ("observed information not positive definite at optimum",)
    assert opt.covariance.tolist() == [[-0.5]]


def test_fit_keeps_the_ascents_warnings(monkeypatch, demo_clean, spec):
    # a fit reports its ascent's warnings, as a constrained fit does
    design = build_mediator_design(demo_clean, spec)
    assert fit_probit(design, demo_clean.m).warnings == ()
    flagged = ("observed information not positive definite at optimum",)
    real_ascent = probit._newton_ascent

    def flagging(f, x0):
        fit, rows = real_ascent(f, x0)
        return dataclasses.replace(fit, converged=False, warnings=flagged), rows

    monkeypatch.setattr(probit, "_newton_ascent", flagging)
    fit = fit_probit(design, demo_clean.m)
    assert fit.warnings == flagged and not fit.converged


def test_covariance_is_the_symmetrized_inverse_information(monkeypatch, spec):
    # the covariance is inv(-H), symmetrized, at the last pass: Cholesky
    # checks it and leaves it as it is
    design, response = fit_designs(fresh_dataset(77), spec)["outcome"]
    passes, real_ascent = [], probit._newton_ascent

    def ascent(f, x0):
        passes.append(f)
        return real_ascent(f, x0)

    monkeypatch.setattr(probit, "_newton_ascent", ascent)
    fit = fit_probit(design, response)
    inverse = np.linalg.inv(-passes[0](fit.coefficients)[2])
    assert fit.covariance.tobytes() == (0.5 * (inverse + inverse.T)).tobytes()


def test_rank_deficient_design_raises():
    rng = np.random.default_rng(2)
    col = rng.normal(size=50)
    design = np.column_stack([np.ones(50), col, col])
    y = rng.integers(0, 2, 50)
    with pytest.raises(RankError):
        fit_probit(design, y)


def test_more_coefficients_than_rows_raises():
    design = np.eye(3)
    with pytest.raises(RankError):
        fit_probit(design, np.array([0, 1, 0]))


def test_non_binary_response_rejected():
    design = np.ones((10, 1))
    with pytest.raises(ValueError):
        fit_probit(design, np.arange(10))


_Y10 = np.array([0, 1] * 5)
MISSHAPEN = {
    "scalar design": (np.float64(1.0), _Y10, "^design must be a 2-d matrix$"),
    "1-d design": (np.ones(10), _Y10, "^design must be a 2-d matrix$"),
    "3-d design": (np.ones((10, 1, 1)), _Y10, "^design must be a 2-d matrix$"),
    "short response": (np.ones((10, 1)), _Y10[:9], re.escape(
        "response length (9,) does not match design rows (10, 1)")),
    "2-d response": (np.ones((10, 1)), _Y10[:, None], re.escape(
        "response length (10, 1) does not match design rows (10, 1)")),
}


@pytest.mark.parametrize("design, response, message", MISSHAPEN.values(),
                         ids=list(MISSHAPEN))
def test_misshapen_inputs_rejected(design, response, message):
    with pytest.raises(ValueError, match=message):
        fit_probit(design, response)


def test_fit_unconstrained_matches_componentwise(demo_clean, spec):
    fits = fit_unconstrained(demo_clean, spec)
    direct = fit_probit(build_mediator_design(demo_clean, spec), demo_clean.m)
    assert np.array_equal(fits.mediator.coefficients, direct.coefficients)
    assert fits.mediator.loglik == direct.loglik
    assert fits.exposure.converged and fits.outcome.converged


def count_rank_svds(monkeypatch) -> list:
    rank = np.linalg.matrix_rank
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return rank(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    return calls


def count_rank_checks(monkeypatch) -> list:
    """Shapes of the designs put through the rank rule, one Gram each."""
    rule = require_full_rank
    calls = []

    def counted(design, what):
        calls.append(design.shape)
        return rule(design, what)
    for module in (datamodel, probit):
        monkeypatch.setattr(module, "require_full_rank", counted)
    return calls


def fresh_dataset(seed):
    return simulate(demo_params(), 600, seed)


def run_effects_cli(ds, spec, tmp_path):
    write_csv(ds, tmp_path / "d.csv")
    flags = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "data": "d.csv", "model": flags, "out": str(tmp_path / "out"),
        "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                    "covariates": list(ds.covariate_names)},
        "effects": {"types": ["nde", "nie", "te", "nde*", "nie*"]}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["effects", str(cfg)]) == 0


def count_fitted_designs(monkeypatch) -> list:
    """Shapes of the designs handed to fit_probit."""
    real, calls = probit.fit_probit, []

    def counted(design, response):
        calls.append(design.shape)
        return real(design, response)
    monkeypatch.setattr(probit, "fit_probit", counted)
    return calls


@pytest.mark.parametrize("entry,fitted", [
    ("fit_unconstrained", ["exposure", "mediator", "outcome"]),
    ("run_scan", ["mediator", "outcome"]),
    ("cmd_effects", ["exposure", "mediator", "outcome"])],
    ids=["fit_unconstrained", "run_scan", "cmd_effects"])
def test_fresh_dataset_runs_one_gram_per_design_and_per_fit(
        monkeypatch, tmp_path, spec, entry, fitted):
    # validate_for_fit checks each design once; each probit fit checks its
    # design again, and that Gram is its zero start's Hessian
    ds = fresh_dataset(71)
    checks = count_rank_checks(monkeypatch)
    svds = count_rank_svds(monkeypatch)
    fits = count_fitted_designs(monkeypatch)
    if entry == "fit_unconstrained":
        fit_unconstrained(ds, spec)
    elif entry == "run_scan":
        run_scan(ConfoundingKind.MEDIATOR_OUTCOME, EffectType.NIE, "marginal",
                 RhoGrid.regular(0.3, 0.3, 0.1), ds, spec)
    else:
        run_effects_cli(ds, spec, tmp_path)
    designs = datamodel.model_designs(ds, spec)
    shapes = [designs[model][0].shape for model in fitted]
    assert fits == shapes
    assert checks == [design.shape for design, _ in designs.values()] + shapes
    assert svds == []  # every design here is far above the Gram bound


def test_every_design_fit_probit_is_given_is_checked(monkeypatch, spec):
    # fit_designs' own read-only arrays are checked as any copy of them is
    ds = fresh_dataset(72)
    design, response = fit_designs(ds, spec)["outcome"]
    calls = count_rank_checks(monkeypatch)
    held = fit_probit(design, response)
    assert calls == [design.shape]
    for args in ((design.copy(), response), (design, response.copy())):
        fit = fit_probit(*args)
        assert np.array_equal(fit.coefficients, held.coefficients)
    assert calls == [design.shape] * 3
    with pytest.raises(ValueError, match="binary"):
        fit_probit(design, 2 * response)
    assert calls == [design.shape] * 3  # the 0/1 check comes first


def test_rank_deficient_copy_of_validated_design_raises(spec):
    ds = fresh_dataset(73)
    design, response = fit_designs(ds, spec)["mediator"]
    collinear = design.copy()
    collinear[:, -1] = collinear[:, 1]
    with pytest.raises(RankError, match="rank deficient"):
        fit_probit(collinear, response)


def test_fit_does_not_depend_on_memory_order(spec):
    design, response = fit_designs(fresh_dataset(74), spec)["outcome"]
    n, k = design.shape
    wide = np.zeros((2 * n, 3 * k))
    wide[::2, ::3] = design
    held = fit_probit(design, response)
    copies = [np.array(design, order="C"), np.array(design, order="F"),
              wide[::2, ::3]]
    assert [(c.flags.c_contiguous, c.flags.f_contiguous) for c in copies] == [
        (True, False), (False, True), (False, False)]
    for copy in copies:
        fit = fit_probit(copy, response)
        for field in ("coefficients", "covariance"):
            assert getattr(fit, field).tobytes() == getattr(held, field).tobytes()
        assert (fit.loglik, fit.iterations) == (held.loglik, held.iterations)


def scaled_design(n, singular_values, seed):
    """An (n, k) design with exactly these singular values, up to rounding."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.normal(size=(n, len(singular_values))))
    right, _ = np.linalg.qr(rng.normal(size=(len(singular_values),) * 2))
    return (left * singular_values) @ right


@pytest.mark.parametrize("ratio,svd_calls", [(0.25, 1), (4.0, 0)])
def test_designs_at_the_gram_bound(monkeypatch, ratio, svd_calls):
    """lam_min / lam_max just below the bound (k + 2) n eps reaches the SVD,
    which accepts the design; just above it the Gram alone accepts it."""
    n, k = 400, 3
    bound = (k + 2) * n * np.finfo(float).eps
    design = scaled_design(n, [1.0, 1.0, math.sqrt(ratio * bound)], 5)
    lam = np.linalg.eigvalsh(design.T @ design)
    assert (lam[0] < bound * lam[-1]) == (ratio < 1)
    svds = count_rank_svds(monkeypatch)
    require_full_rank(design, "design")
    assert svds == [design.shape] * svd_calls
    response = np.random.default_rng(6).integers(0, 2, n)
    assert fit_probit(design, response).converged
    assert svds == [design.shape] * (2 * svd_calls)


def test_collinear_design_is_decided_by_the_svd(monkeypatch):
    design = scaled_design(400, [1.0, 1.0, 1.0], 7)
    design[:, 2] = design[:, 0] - design[:, 1]
    svds = count_rank_svds(monkeypatch)
    with pytest.raises(RankError, match="design matrix is rank deficient"):
        fit_probit(design, np.random.default_rng(8).integers(0, 2, 400))
    assert svds == [design.shape]


def test_weight_matches_oracle_into_the_lower_tail():
    # the Hessian weight ratio * (ratio + q), ratio = phi(q)/Phi(q), has
    # relative error 1e-5 at q = -1e3 and is wrong below -1e4 when formed
    # as written
    mpmath = pytest.importorskip("mpmath")
    q = -np.logspace(-3, 9, 1201)
    weight = probit._mills(q)[2]
    with mpmath.workdps(60):
        oracle = []
        for value in q:
            value = mpmath.mpf(float(value))
            ratio = mpmath.npdf(value) / mpmath.ncdf(value)
            oracle.append(float(ratio * (ratio + value)))
    oracle = np.array(oracle)
    assert np.all(weight > 0.0)
    np.testing.assert_allclose(weight, oracle, rtol=1e-9, atol=0.0)


class CountingNumpy:
    """numpy for one module, recording the rows of every np.multiply
    written into an out= buffer: the Hessian's row blocks."""

    def __init__(self):
        self.blocks = []

    def __getattr__(self, name):
        return getattr(np, name)

    def multiply(self, *args, **kwargs):
        if "out" in kwargs:
            self.blocks.append(kwargs["out"].shape[0])
        return np.multiply(*args, **kwargs)


def test_zero_start_matches_a_computed_first_pass(monkeypatch, spec):
    # the start's pass is one 1-row _mills call and the rank check's Gram:
    # loglik n ln Phi(0), score lam(0) X's and Hessian -w(0) X'X, with no
    # n-row _mills call or Hessian block; a first pass that evaluates the
    # rows at q = +-0 instead reaches the same optimum up to rounding
    design, response = fit_designs(fresh_dataset(76), spec)["outcome"]
    n = design.shape[0]
    real_ascent, real_mills = probit._newton_ascent, probit._mills
    mills_rows, counting = [], CountingNumpy()
    start = {}

    def counted(q):
        mills_rows.append(q.size)
        return real_mills(q)

    def ascent(f, x0):
        start["pass"] = f(x0)
        start["rows"] = (list(mills_rows), list(counting.blocks))
        mills_rows.clear()
        return real_ascent(f, x0)

    monkeypatch.setattr(probit, "_mills", counted)
    monkeypatch.setattr(probit, "np", counting)
    monkeypatch.setattr(probit, "_newton_ascent", ascent)
    held = fit_probit(design, response)
    assert start["rows"] == ([1], [])
    log_cdf, ratio, weight = (v[0] for v in real_mills(np.zeros(1)))
    loglik, score, hessian, reach = start["pass"]
    s = 2.0 * response - 1.0
    assert (loglik, reach) == (n * log_cdf, 0.0)
    assert score.tobytes() == (ratio * (design.T @ s)).tobytes()
    assert hessian.tobytes() == (-weight * (design.T @ design)).tobytes()
    assert weight == pytest.approx(2.0 / math.pi, rel=1e-15)
    # every later pass reads n rows once and forms the Hessian in one block
    passes = len(mills_rows) - 1
    assert passes >= held.iterations
    assert mills_rows == [1] + [n] * passes
    assert counting.blocks == [n] * passes

    # a copy of the zero start is not the start the closure knows: its
    # first pass evaluates n rows at q = +-0
    monkeypatch.setattr(probit, "_newton_ascent",
                        lambda f, x0: real_ascent(f, x0.copy()))
    computed = fit_probit(design, response)
    for field in ("coefficients", "covariance"):
        np.testing.assert_allclose(getattr(computed, field), getattr(held, field),
                                   rtol=1e-10, atol=1e-12)
    assert computed.loglik == pytest.approx(held.loglik, rel=1e-12, abs=0.0)
    assert (computed.iterations, computed.converged) == (held.iterations,
                                                         held.converged)
    assert max(computed.score_norm, held.score_norm) < probit.SCORE_TOL

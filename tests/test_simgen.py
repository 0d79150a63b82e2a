"""Synthetic data generation and true-effect calculation."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from medsens import (ConfigError, ConfoundingKind, CovariateProfile,
                     CovariateSpec, EffectType, ModelSpec, TrueParams,
                     demo_params, effect_rows, replicate_seeds, simulate,
                     simulate_latent, true_effects)
from medsens import effects
from medsens.datamodel import mediator_design, outcome_design
from conftest import confounded_params

MY = ConfoundingKind.MEDIATOR_OUTCOME


def test_same_seed_bitwise_identical():
    params = demo_params()
    a = simulate(params, 500, 42)
    b = simulate(params, 500, 42)
    assert a.equals(b)


def test_different_seeds_differ():
    params = demo_params()
    a = simulate(params, 500, 42)
    b = simulate(params, 500, 43)
    assert not a.equals(b)


def test_demo_prevalences():
    ds = simulate(demo_params(), 20000, 7)
    assert ds.z.mean() == pytest.approx(0.32, abs=0.02)
    assert ds.m.mean() == pytest.approx(0.12, abs=0.015)
    assert ds.y.mean() == pytest.approx(0.26, abs=0.02)


def test_covariate_marginals():
    ds = simulate(demo_params(), 20000, 8)
    xcont = ds.x[:, 0]
    xbin = ds.x[:, 1]
    assert xcont.mean() == pytest.approx(0.0, abs=0.03)
    assert xcont.std() == pytest.approx(1.0, abs=0.03)
    assert set(np.unique(xbin)) == {0.0, 1.0}
    assert xbin.mean() == pytest.approx(0.2, abs=0.012)


def test_uniform_and_constant_covariates():
    spec = ModelSpec(mediator_zx=False, outcome_zx=False, outcome_mx=False,
                     outcome_zmx=False)
    params = TrueParams(
        spec=spec,
        covariates=(CovariateSpec(name="c", dist="constant", value=2.5),
                    CovariateSpec(name="u", dist="uniform", low=-1.0, high=3.0)),
        alpha=np.zeros(3), beta=np.zeros(4), theta=np.zeros(6))
    ds = simulate(params, 5000, 11)
    assert np.all(ds.x[:, 0] == 2.5)
    u = ds.x[:, 1]
    assert u.min() >= -1.0 and u.max() <= 3.0
    assert u.mean() == pytest.approx(1.0, abs=0.06)


def test_constant_covariates_consume_no_draws():
    # inserting a constant column (with zero coefficients) must not shift
    # the uniform stream feeding the error draws
    spec_a = ModelSpec(exposure_x=False, mediator_x=False, mediator_zx=False,
                       outcome_x=False, outcome_zx=False, outcome_mx=False,
                       outcome_zmx=False)
    base = TrueParams(spec=spec_a, covariates=(),
                      alpha=np.array([-0.2]), beta=np.array([-0.5, 0.4]),
                      theta=np.array([-0.6, 0.3, 0.5, 0.0]))
    spec_b = ModelSpec(mediator_zx=False, outcome_zx=False, outcome_mx=False,
                       outcome_zmx=False)
    with_const = TrueParams(
        spec=spec_b,
        covariates=(CovariateSpec(name="c", dist="constant", value=9.0),),
        alpha=np.array([-0.2, 0.0]), beta=np.array([-0.5, 0.4, 0.0]),
        theta=np.array([-0.6, 0.3, 0.5, 0.0, 0.0]))
    a = simulate(base, 400, 21)
    b = simulate(with_const, 400, 21)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.m, b.m)
    assert np.array_equal(a.y, b.y)


@pytest.mark.parametrize("kind,digest", [
    (ConfoundingKind.EXPOSURE_MEDIATOR,
     "fcf9f427ce87fd86d87e196b042340e76cea2a4ed96e7c712e84694a124b888d"),
    (ConfoundingKind.MEDIATOR_OUTCOME,
     "7ae3bd3d493314f10ef55b5d473087deb5f4b9cf22275a5e467d9027e15d4e95"),
    (ConfoundingKind.EXPOSURE_OUTCOME,
     "76584371806031212f8dd96f14a10b0f606d4b2a25bda7e07b55d3abfc6792a0"),
])
def test_confounded_draws_pinned(kind, digest):
    # the randomness protocol promises bit-identical datasets for a seed,
    # so any change to the draws or to the confounding mix breaks these
    ds = simulate(confounded_params(kind, 0.5), 500, 7)
    h = hashlib.sha256()
    for a in (ds.z, ds.m, ds.y, ds.x):
        h.update(np.asarray(a, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("kind,pair", [
    (ConfoundingKind.EXPOSURE_MEDIATOR, ("eps", "eta")),
    (ConfoundingKind.MEDIATOR_OUTCOME, ("eta", "xi")),
    (ConfoundingKind.EXPOSURE_OUTCOME, ("eps", "xi")),
])
def test_latent_correlation_hits_target(kind, pair):
    params = confounded_params(kind, 0.5)
    _, draws = simulate_latent(params, 20000, 33)
    first, second = (getattr(draws, name) for name in pair)
    corr = np.corrcoef(first, second)[0, 1]
    assert corr == pytest.approx(0.5, abs=0.03)
    # the remaining pairs stay uncorrelated
    others = [n for n in ("eps", "eta", "xi") if n not in pair]
    other = getattr(draws, others[0])
    assert abs(np.corrcoef(first, other)[0, 1]) < 0.03 or \
        abs(np.corrcoef(second, other)[0, 1]) < 0.03


def test_unconfounded_errors_are_standard_and_independent():
    _, draws = simulate_latent(demo_params(), 20000, 34)
    for arr in (draws.eps, draws.eta, draws.xi):
        assert arr.mean() == pytest.approx(0.0, abs=0.03)
        assert arr.std() == pytest.approx(1.0, abs=0.03)
    assert abs(np.corrcoef(draws.eps, draws.eta)[0, 1]) < 0.03
    assert abs(np.corrcoef(draws.eta, draws.xi)[0, 1]) < 0.03


def test_true_effects_match_counterfactual_monte_carlo():
    # simulate the potential-outcome definitions directly: M(z) from the
    # mediator error, Y(z, m) from the outcome error, then average the
    # counterfactual contrasts; independent errors, so natural effects
    params = demo_params()
    x = np.array([[0.3, 1.0]])
    truth = true_effects(params, x[0])

    rng = np.random.default_rng(99)
    n = 400000
    eta = rng.standard_normal(n)
    xi = rng.standard_normal(n)
    xm = np.repeat(x, n, axis=0)

    def m_of(z):
        lp = mediator_design(np.full(n, float(z)), xm, params.spec) @ params.beta
        return (lp + eta > 0).astype(float)

    def y_of(z, m):
        lp = outcome_design(np.full(n, float(z)), m, xm, params.spec) @ params.theta
        return (lp + xi > 0).astype(float)

    m0, m1 = m_of(0), m_of(1)
    mc = {
        EffectType.NDE: (y_of(1, m0) - y_of(0, m0)).mean(),
        EffectType.NIE: (y_of(1, m1) - y_of(1, m0)).mean(),
        EffectType.NDE_TOTAL: (y_of(1, m1) - y_of(0, m1)).mean(),
        EffectType.NIE_PURE: (y_of(0, m1) - y_of(0, m0)).mean(),
        EffectType.TE: (y_of(1, m1) - y_of(0, m0)).mean(),
    }
    for et in EffectType:
        assert truth[et] == pytest.approx(mc[et], abs=0.005), et


def test_true_effects_marginal_averages_rows():
    params = demo_params()
    ds = simulate(params, 50, 3)
    marg = true_effects(params, ds)
    per_row = [true_effects(params, ds.x[i])[EffectType.NIE]
               for i in range(ds.n)]
    assert marg[EffectType.NIE] == pytest.approx(np.mean(per_row), abs=1e-14)


def test_true_effects_take_one_pass_and_equal_effect_rows(monkeypatch):
    params = demo_params()
    ds = simulate(params, 300, 8)
    prof = CovariateProfile(np.array([0.3, 1.0]))
    cases = [(ds, ds.x), (prof, prof.values), (ds.x[:40], ds.x[:40])]
    expect = [{et: float(effect_rows(et, params.theta, params.beta, rows,
                                     params.spec)[0].mean()).hex()
               for et in EffectType} for _, rows in cases]
    real, passes = effects._mu_pass, []
    monkeypatch.setattr(effects, "_mu_pass",
                        lambda *args: passes.append(args[0]) or real(*args))
    for (at, _), want in zip(cases, expect):
        passes.clear()
        truth = true_effects(params, at)
        assert [sorted(pairs) for pairs in passes] == [[(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert {et: v.hex() for et, v in truth.items()} == want


def test_true_effects_reject_non_finite_rows():
    with pytest.raises(ValueError, match="^x has non-finite values$"):
        true_effects(demo_params(), np.array([[0.0, np.nan]]))


def test_true_effects_reject_zero_rows():
    with pytest.raises(ValueError, match="^x has no rows$"):
        true_effects(demo_params(), np.zeros((0, 2)))


def test_true_params_copy_the_callers_coefficients():
    base = demo_params()
    coefs = {key: np.array(getattr(base, key)) for key in ("alpha", "beta", "theta")}
    before = {key: vec.copy() for key, vec in coefs.items()}
    params = TrueParams(spec=base.spec, covariates=base.covariates, **coefs)
    for key, vec in coefs.items():
        stored = getattr(params, key)
        assert vec.flags.writeable and not stored.flags.writeable
        vec += 1.0
        assert np.array_equal(vec, before[key] + 1.0)
        assert np.array_equal(stored, before[key])


def test_replicate_seeds_are_consecutive():
    assert replicate_seeds(100, 4) == [100, 101, 102, 103]


class TestValidation:
    def test_coefficient_length_checked(self):
        spec = ModelSpec(mediator_zx=False, outcome_zx=False, outcome_mx=False,
                         outcome_zmx=False)
        with pytest.raises(ConfigError, match="beta"):
            TrueParams(spec=spec,
                       covariates=(CovariateSpec(name="a", dist="normal"),),
                       alpha=np.zeros(2), beta=np.zeros(2), theta=np.zeros(5))

    def test_confounding_rho_bounded(self):
        params = demo_params()
        with pytest.raises(ConfigError, match="rho"):
            TrueParams(spec=params.spec, covariates=params.covariates,
                       alpha=params.alpha, beta=params.beta,
                       theta=params.theta, confounding=(MY, 1.5))

    @pytest.mark.parametrize("kind", ["my", None, 1])
    def test_confounding_kind_must_be_a_confounding_kind(self, kind):
        with pytest.raises(ConfigError, match=re.escape(
                f"confounding kind must be a ConfoundingKind, got {kind!r}")):
            dataclasses.replace(demo_params(), confounding=(kind, 0.3))

    @pytest.mark.parametrize("rho", [True, np.bool_(False), "0.3", None, [0.3]])
    def test_confounding_rho_must_be_a_real_number(self, rho):
        with pytest.raises(ConfigError, match=(
                "^confounding correlation must be a real scalar, got")):
            dataclasses.replace(demo_params(), confounding=(MY, rho))

    def test_confounding_rho_read_as_a_float(self):
        params = dataclasses.replace(demo_params(),
                                     confounding=(MY, np.float32(0.5)))
        assert params.confounding == (MY, 0.5)
        assert type(params.confounding[1]) is float

    @pytest.mark.parametrize("field", ["value", "low", "high", "mean"])
    @pytest.mark.parametrize("bad", ["abc", "0.5", True, None, [0.5]])
    def test_covariate_numbers_must_be_real(self, field, bad):
        with pytest.raises(ConfigError, match=(
                f"^covariate 'x': {field} must be a real scalar, got")):
            CovariateSpec(name="x", dist="constant", **{field: bad})

    def test_covariate_numbers_keep_their_type(self):
        cov = CovariateSpec(name="u", dist="uniform", low=0, high=np.int64(2))
        assert cov.low == 0 and type(cov.low) is int
        assert cov.high == 2 and cov.high.dtype == np.int64

    @pytest.mark.parametrize("name", ["alpha", "beta", "theta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coefficients_must_be_finite(self, name, bad):
        vec = getattr(demo_params(), name).copy()
        vec[0] = bad
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got"):
            dataclasses.replace(demo_params(), **{name: vec})

    def test_integer_coefficients_simulate_the_float_dataset(self):
        ints = {"alpha": [-1, 0, 1], "beta": np.array([-1, 1, 0, 0]),
                "theta": np.array([-1, 0, 1, 0, 1, 0], dtype=np.int8)}
        params = dataclasses.replace(demo_params(), **ints)
        as_floats = dataclasses.replace(
            demo_params(), **{name: np.array(v, dtype=float) for name, v in ints.items()})
        assert params.theta.dtype == float and not params.theta.flags.writeable
        assert simulate(params, 300, 5).equals(simulate(as_floats, 300, 5))

    @pytest.mark.parametrize("name", [1, None, b"x", ("x",)])
    def test_covariate_name_must_be_a_string(self, name):
        with pytest.raises(ConfigError, match=re.escape(
                f"covariate name must be a string, got {name!r}")):
            CovariateSpec(name=name, dist="normal")

    def test_covariate_dist_names(self):
        with pytest.raises(ConfigError, match="dist"):
            CovariateSpec(name="bad", dist="exponential")
        with pytest.raises(ConfigError):
            CovariateSpec(name="u", dist="uniform", low=1.0, high=0.0)
        with pytest.raises(ConfigError):
            CovariateSpec(name="b", dist="bernoulli", mean=1.0)

    def test_n_must_be_positive(self):
        with pytest.raises(ConfigError):
            simulate(demo_params(), 0, 1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, seed):
        with pytest.raises(ConfigError, match=r"seed .*\[0, 2\*\*128\)"):
            simulate(demo_params(), 10, seed)

    @pytest.mark.parametrize("n, seed, name", [
        (50, 1.7, "seed"), (50, 1.0, "seed"), (50, True, "seed"), (50, "1", "seed"),
        (50.9, 1, "n"), (50.0, 1, "n"), (True, 1, "n")])
    def test_non_integer_size_or_seed_rejected(self, n, seed, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got"):
            simulate(demo_params(), n, seed)

    def test_numpy_integer_size_and_seed_accepted(self):
        a = simulate(demo_params(), np.int64(50), np.uint32(7))
        assert a.n == 50 and a.equals(simulate(demo_params(), 50, 7))

    @pytest.mark.parametrize("base, count, name", [
        (4.5, 2, "base_seed"), (False, 2, "base_seed"), (4, 2.0, "count"),
        (4, True, "count")])
    def test_replicate_seeds_rejects_non_integers(self, base, count, name):
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got"):
            replicate_seeds(base, count)

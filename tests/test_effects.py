"""Effect formulas, analytic gradients, and delta-method intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsens import (EffectType, FitContext, GradientVector, ModelSpec,
                     NotConvergedError, NumericalError, conditional_effect,
                     delta_se, demo_params, effect_marginal, effect_with_ci,
                     finite_diff_grad, grad_conditional, grad_effect_marginal,
                     norm_quantile, simulate)
from conftest import make_dataset

FULL = ModelSpec()

# worked single-covariate example, frozen from 30-digit quadrature:
# theta = (-1, 0.5, 1, 0, 0.2, 0, 0, 0), beta = (-0.5, 0.3, 0.1, 0), x = 0
THETA_REF = np.array([-1.0, 0.5, 1.0, 0.0, 0.2, 0.0, 0.0, 0.0])
BETA_REF = np.array([-0.5, 0.3, 0.1, 0.0])
X_REF = np.array([0.0])
REF_VALUES = {
    EffectType.NDE: 0.16271133010530178,
    EffectType.NIE: 0.042965230056058346,
    EffectType.NDE_TOTAL: 0.16737674032808101,
    EffectType.NIE_PURE: 0.038299819833279121,
    EffectType.TE: 0.20567656016136013,
}


@pytest.mark.parametrize("effect_type,expected", sorted(REF_VALUES.items(),
                                                        key=lambda kv: kv[0].value))
def test_reference_point_values(effect_type, expected):
    got = conditional_effect(effect_type, THETA_REF, BETA_REF, X_REF, FULL)
    assert got == pytest.approx(expected, abs=1e-14)


def test_no_exposure_effect_on_mediator_kills_mediation():
    beta = BETA_REF.copy()
    beta[1] = 0.0  # z coefficient; z:x already zero
    assert conditional_effect(EffectType.NIE, THETA_REF, beta, X_REF, FULL) == 0.0


def test_no_mediator_effect_on_outcome_kills_mediation():
    theta = THETA_REF.copy()
    theta[2] = 0.0  # m coefficient; z:m, m:x, z:m:x already zero
    assert conditional_effect(EffectType.NIE, theta, BETA_REF, X_REF, FULL) == 0.0


def test_no_direct_pathway_makes_nde_zero():
    theta = THETA_REF.copy()
    theta[1] = theta[3] = 0.0  # z and z:m coefficients
    assert conditional_effect(EffectType.NDE, theta, BETA_REF, X_REF,
                              FULL) == pytest.approx(0.0, abs=1e-16)


def coef_strategy(k, scale=2.0):
    return st.lists(st.floats(-scale, scale, allow_nan=False), min_size=k,
                    max_size=k).map(np.array)


@settings(max_examples=60)
@given(theta=coef_strategy(8), beta=coef_strategy(4),
       xv=st.floats(-3.0, 3.0, allow_nan=False))
def test_decomposition_identity_conditional(theta, beta, xv):
    x = np.array([xv])
    nde = conditional_effect(EffectType.NDE, theta, beta, x, FULL)
    nie = conditional_effect(EffectType.NIE, theta, beta, x, FULL)
    nde_t = conditional_effect(EffectType.NDE_TOTAL, theta, beta, x, FULL)
    nie_p = conditional_effect(EffectType.NIE_PURE, theta, beta, x, FULL)
    te = conditional_effect(EffectType.TE, theta, beta, x, FULL)
    assert nde + nie == pytest.approx(te, abs=1e-12)
    assert nde_t + nie_p == pytest.approx(te, abs=1e-12)


@settings(max_examples=60)
@given(theta=coef_strategy(8), beta=coef_strategy(4),
       xv=st.floats(-3.0, 3.0, allow_nan=False))
def test_effects_are_bounded_probability_differences(theta, beta, xv):
    for et in EffectType:
        val = conditional_effect(et, theta, beta, np.array([xv]), FULL)
        assert -1.0 - 1e-15 <= val <= 1.0 + 1e-15


def test_marginal_is_mean_of_conditionals(demo_clean, spec):
    params = demo_params()
    marg = effect_marginal(EffectType.NIE, params.theta, params.beta,
                           demo_clean, spec)
    per_row = [conditional_effect(EffectType.NIE, params.theta, params.beta,
                                  demo_clean.x[i], spec)
               for i in range(0, demo_clean.n, 50)]
    full = [conditional_effect(EffectType.NIE, params.theta, params.beta,
                               demo_clean.x[i], spec)
            for i in range(demo_clean.n)]
    assert marg == pytest.approx(np.mean(full), abs=1e-14)
    assert marg != pytest.approx(np.mean(per_row), abs=1e-6)  # subsample sanity


class TestGradients:
    def test_nde_has_no_beta_exposure_terms(self):
        grad = grad_conditional(EffectType.NDE, THETA_REF, BETA_REF, X_REF, FULL)
        # beta layout: intercept, z, x, z:x; NDE only uses the z=0 arm of
        # the mediator model
        assert grad.wrt_beta[1] == 0.0
        assert grad.wrt_beta[3] == 0.0
        assert grad.wrt_beta[0] != 0.0

    def test_nie_theta_interaction_pairs_collapse(self):
        grad = grad_conditional(EffectType.NIE, THETA_REF, BETA_REF, X_REF, FULL)
        # theta layout: 1, z, m, z:m, x, z:x, m:x, z:m:x; both q terms in
        # the mediated contrast sit at z=1, so the z:m partial equals the
        # m partial and z:m:x equals m:x
        assert grad.wrt_theta[3] == grad.wrt_theta[2]
        assert grad.wrt_theta[7] == grad.wrt_theta[6]
        assert grad.wrt_theta[1] == grad.wrt_theta[0]

    @pytest.mark.parametrize("effect_type", list(EffectType))
    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_conditional_gradient_matches_finite_differences(self, effect_type,
                                                             p):
        rng = np.random.default_rng(10 * p + list(EffectType).index(effect_type))
        kb, kt = 2 + 2 * p, 4 + 4 * p
        beta = rng.normal(scale=0.7, size=kb)
        theta = rng.normal(scale=0.7, size=kt)
        x = rng.normal(size=p)
        grad = grad_conditional(effect_type, theta, beta, x, FULL)
        packed = np.concatenate([beta, theta])
        f = lambda v: conditional_effect(effect_type, v[kb:], v[:kb], x, FULL)
        fd = finite_diff_grad(f, packed, step=1e-6)
        analytic = np.concatenate([grad.wrt_beta, grad.wrt_theta])
        assert np.max(np.abs(analytic - fd)) < 1e-6 * max(1.0,
                                                          np.abs(analytic).max())

    @pytest.mark.parametrize("effect_type", list(EffectType))
    def test_marginal_gradient_matches_finite_differences(self, effect_type,
                                                          demo_clean, spec):
        rng = np.random.default_rng(list(EffectType).index(effect_type))
        beta = rng.normal(scale=0.5, size=4)
        theta = rng.normal(scale=0.5, size=6)
        grad = grad_effect_marginal(effect_type, theta, beta, demo_clean, spec)
        packed = np.concatenate([beta, theta])
        f = lambda v: effect_marginal(effect_type, v[4:], v[:4], demo_clean, spec)
        fd = finite_diff_grad(f, packed, step=1e-6)
        analytic = np.concatenate([grad.wrt_beta, grad.wrt_theta])
        assert np.max(np.abs(analytic - fd)) < 1e-6 * max(1.0,
                                                          np.abs(analytic).max())

    @pytest.mark.parametrize("effect_type", list(EffectType))
    def test_full_spec_marginal_gradient_matches_finite_differences(
            self, effect_type):
        rng = np.random.default_rng(7 + list(EffectType).index(effect_type))
        p, n = 3, 400
        ds = make_dataset(np.zeros(n), np.zeros(n), np.zeros(n),
                          rng.normal(size=(n, p)), ("a", "b", "c"))
        kb, kt = 2 + 2 * p, 4 + 4 * p
        beta = rng.normal(scale=0.5, size=kb)
        theta = rng.normal(scale=0.5, size=kt)
        grad = grad_effect_marginal(effect_type, theta, beta, ds, FULL)
        f = lambda v: effect_marginal(effect_type, v[kb:], v[:kb], ds, FULL)
        fd = finite_diff_grad(f, np.concatenate([beta, theta]), step=1e-6)
        analytic = np.concatenate([grad.wrt_beta, grad.wrt_theta])
        assert np.max(np.abs(analytic - fd)) < 1e-6 * max(1.0,
                                                          np.abs(analytic).max())

    def test_reduced_spec_gradient_lengths(self, spec):
        grad = grad_conditional(EffectType.TE, np.zeros(6), np.zeros(4),
                                np.zeros(2), spec)
        assert grad.wrt_beta.shape == (4,)
        assert grad.wrt_theta.shape == (6,)


@pytest.mark.parametrize("scope", ["conditional", "marginal"])
@pytest.mark.parametrize("name", ["beta", "theta"])
def test_wrong_coefficient_length_names_the_vector(name, scope, demo_clean,
                                                   spec):
    params = demo_params()
    coefs = {"beta": params.beta, "theta": params.theta}
    coefs[name] = np.append(coefs[name], 0.1)
    ctx = FitContext(beta=coefs["beta"], theta=coefs["theta"],
                     sigma_beta=np.eye(coefs["beta"].size),
                     sigma_theta=np.eye(coefs["theta"].size), spec=spec,
                     dataset=demo_clean)
    with pytest.raises(ValueError, match=f"^{name} has length"):
        effect_with_ci(EffectType.NIE, scope, ctx, profile=np.zeros(2))


class TestDeltaSe:
    def test_identity_covariance_gives_gradient_norm(self):
        grad = GradientVector(wrt_beta=np.array([3.0, 4.0]),
                              wrt_theta=np.array([0.0]))
        assert delta_se(grad, np.eye(2), np.eye(1)) == pytest.approx(5.0)

    def test_zero_gradient_gives_zero(self):
        grad = GradientVector(wrt_beta=np.zeros(2), wrt_theta=np.zeros(3))
        assert delta_se(grad, np.eye(2), np.eye(3)) == 0.0

    def test_shape_mismatch_rejected(self):
        grad = GradientVector(wrt_beta=np.zeros(2), wrt_theta=np.zeros(3))
        with pytest.raises(ValueError, match="sigma_beta"):
            delta_se(grad, np.eye(3), np.eye(3))

    def test_negative_variance_rejected(self):
        grad = GradientVector(wrt_beta=np.array([1.0]), wrt_theta=np.zeros(1))
        with pytest.raises(NumericalError):
            delta_se(grad, -np.eye(1), np.eye(1))

    def test_tiny_negative_roundoff_clipped_to_zero(self):
        grad = GradientVector(wrt_beta=np.array([1.0]), wrt_theta=np.zeros(1))
        assert delta_se(grad, np.array([[-1e-14]]), np.eye(1)) == 0.0


class TestEffectWithCi:
    def make_ctx(self, ds, spec, **kw):
        params = demo_params()
        return FitContext(beta=params.beta, theta=params.theta,
                          sigma_beta=0.01 * np.eye(4),
                          sigma_theta=0.01 * np.eye(6), spec=spec,
                          dataset=ds, **kw)

    def test_wald_interval_halfwidth(self, demo_clean, spec):
        ctx = self.make_ctx(demo_clean, spec)
        est = effect_with_ci(EffectType.NIE, "marginal", ctx, alpha=0.05)
        half = norm_quantile(0.975) * est.std_error
        assert est.ci_upper - est.estimate == pytest.approx(half, abs=1e-14)
        assert est.estimate - est.ci_lower == pytest.approx(half, abs=1e-14)

    def test_alpha_changes_width_monotonically(self, demo_clean, spec):
        ctx = self.make_ctx(demo_clean, spec)
        wide = effect_with_ci(EffectType.NDE, "marginal", ctx, alpha=0.01)
        narrow = effect_with_ci(EffectType.NDE, "marginal", ctx, alpha=0.20)
        assert (wide.ci_upper - wide.ci_lower) > (narrow.ci_upper - narrow.ci_lower)

    def test_refuses_non_converged_sources(self, demo_clean, spec):
        ctx = self.make_ctx(demo_clean, spec, beta_converged=False)
        with pytest.raises(NotConvergedError, match="mediator"):
            effect_with_ci(EffectType.NIE, "marginal", ctx)
        ctx = self.make_ctx(demo_clean, spec, theta_converged=False,
                            theta_source="outcome model at rho = 0.3")
        with pytest.raises(NotConvergedError, match="rho = 0.3"):
            effect_with_ci(EffectType.NIE, "marginal", ctx)

    def test_conditional_needs_profile_and_marginal_needs_data(self, demo_clean,
                                                               spec):
        ctx = self.make_ctx(demo_clean, spec)
        with pytest.raises(ValueError, match="profile"):
            effect_with_ci(EffectType.NDE, "conditional", ctx)
        params = demo_params()
        bare = FitContext(beta=params.beta, theta=params.theta,
                          sigma_beta=np.eye(4), sigma_theta=np.eye(6),
                          spec=spec)
        with pytest.raises(ValueError, match="dataset"):
            effect_with_ci(EffectType.NDE, "marginal", bare)

    def test_alpha_validation(self, demo_clean, spec):
        ctx = self.make_ctx(demo_clean, spec)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                effect_with_ci(EffectType.TE, "marginal", ctx, alpha=bad)


def test_zero_covariate_effects_run():
    ds = make_dataset([0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1])
    spec = ModelSpec(exposure_x=False, mediator_x=False, mediator_zx=False,
                     outcome_x=False, outcome_zx=False, outcome_mx=False,
                     outcome_zmx=False)
    theta = np.array([-0.5, 0.4, 0.8, -0.2])
    beta = np.array([-0.6, 0.5])
    val = conditional_effect(EffectType.TE, theta, beta, np.empty(0), spec)
    nde = conditional_effect(EffectType.NDE, theta, beta, np.empty(0), spec)
    nie = conditional_effect(EffectType.NIE, theta, beta, np.empty(0), spec)
    assert val == pytest.approx(nde + nie, abs=1e-14)
    marg = effect_marginal(EffectType.TE, theta, beta, ds, spec)
    assert marg == pytest.approx(val, abs=1e-15)

"""Constrained bivariate likelihoods at fixed error correlation."""

import math
import zlib

import numpy as np
import pytest

from medsens import (ConfoundingKind, ModelSpec, build_exposure_design,
                     build_mediator_design, build_outcome_design,
                     constrained_grad, constrained_loglik, demo_params,
                     finite_diff_grad, fit_constrained, fit_probit,
                     probit_loglik, simulate)
from conftest import confounded_params, make_dataset

KINDS = list(ConfoundingKind)

EM = ConfoundingKind.EXPOSURE_MEDIATOR
MY = ConfoundingKind.MEDIATOR_OUTCOME
ZY = ConfoundingKind.EXPOSURE_OUTCOME


def one_row(z, m, y):
    return make_dataset([z], [m], [y])


class TestSingleRowClosedForms:
    """With all coefficients zero both linear predictors vanish, so each
    cell probability is an orthant mass with a closed form."""

    def test_exposure_mediator(self):
        # P(z=1, m=0) at rho=0.5 is Phi2(0,0;-0.5) = 1/4 - asin(.5)/2pi = 1/6
        ds = one_row(z=1, m=0, y=0)
        ll = constrained_loglik(EM, np.zeros(1), np.zeros(2), 0.5, ds,
                                ModelSpec())
        assert ll == pytest.approx(math.log(1.0 / 6.0), abs=1e-14)

    def test_mediator_outcome(self):
        # P(m=1, y=1) at rho=0.5 is Phi2(0,0;0.5) = 1/4 + 1/12 = 1/3
        ds = one_row(z=0, m=1, y=1)
        ll = constrained_loglik(MY, np.zeros(2), np.zeros(4), 0.5, ds,
                                ModelSpec())
        assert ll == pytest.approx(math.log(1.0 / 3.0), abs=1e-14)

    def test_exposure_outcome(self):
        # P(z=1, y=0) at rho=0.3 is Phi2(0,0;-0.3)
        ds = one_row(z=1, m=0, y=0)
        expect = 0.25 - math.asin(0.3) / (2.0 * math.pi)
        ll = constrained_loglik(ZY, np.zeros(1), np.zeros(4), 0.3, ds,
                                ModelSpec())
        assert ll == pytest.approx(math.log(expect), abs=1e-14)

    def test_zero_rho_single_row_is_product(self):
        ds = one_row(z=1, m=1, y=0)
        ll = constrained_loglik(EM, np.zeros(1), np.zeros(2), 0.0, ds,
                                ModelSpec())
        assert ll == pytest.approx(math.log(0.25), abs=1e-14)


def random_coefs(rng, ds, spec, scale=0.4):
    ncols = (build_exposure_design(ds, spec).shape[1],
             build_mediator_design(ds, spec).shape[1],
             build_outcome_design(ds, spec).shape[1])
    return tuple(rng.normal(scale=scale, size=k) for k in ncols)


@pytest.mark.parametrize("kind", KINDS)
def test_zero_rho_splits_into_univariate_logliks(kind, demo_clean, spec):
    rng = np.random.default_rng(3)
    alpha, beta, theta = random_coefs(rng, demo_clean, spec)
    pairs = {
        EM: (alpha, beta, build_exposure_design(demo_clean, spec), demo_clean.z,
             build_mediator_design(demo_clean, spec), demo_clean.m),
        MY: (beta, theta, build_mediator_design(demo_clean, spec), demo_clean.m,
             build_outcome_design(demo_clean, spec), demo_clean.y),
        ZY: (alpha, theta, build_exposure_design(demo_clean, spec), demo_clean.z,
             build_outcome_design(demo_clean, spec), demo_clean.y),
    }
    ca, cb, da, ra, db, rb = pairs[kind]
    joint = constrained_loglik(kind, ca, cb, 0.0, demo_clean, spec)
    split = probit_loglik(ca, da, ra) + probit_loglik(cb, db, rb)
    assert joint == pytest.approx(split, abs=1e-9 * abs(split))


# scale keeps the worst per-row orthant mass comfortably away from the
# underflow regime at extreme rho, where the finite-difference oracle
# (not the analytic gradient) loses accuracy
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rho,scale", [(-0.9, 0.15), (-0.4, 0.4), (0.0, 0.4),
                                       (0.25, 0.4), (0.85, 0.15)])
def test_analytic_gradient_matches_finite_differences(kind, rho, scale,
                                                      demo_clean, spec):
    rng = np.random.default_rng(zlib.crc32(f"{kind.value} {rho}".encode()))
    alpha, beta, theta = random_coefs(rng, demo_clean, spec, scale)
    coef_a, coef_b = {EM: (alpha, beta), MY: (beta, theta),
                      ZY: (alpha, theta)}[kind]
    ka, kb = len(coef_a), len(coef_b)

    packed = np.concatenate([coef_a, coef_b])
    f = lambda v: constrained_loglik(kind, v[:ka], v[ka:], rho, demo_clean, spec)
    fd = finite_diff_grad(f, packed, step=1e-6)
    ga, gb = constrained_grad(kind, coef_a, coef_b, rho, demo_clean, spec)
    analytic = np.concatenate([ga, gb])
    scale = np.maximum(np.abs(analytic), 1.0)
    assert np.max(np.abs(analytic - fd) / scale) < 1e-6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("rho", [-0.9, -0.4, 0.0, 0.25, 0.85])
def test_information_matches_finite_difference_hessian(kind, rho,
                                                       demo_confounded, spec):
    # the fit's covariance is the inverse analytic Hessian; differencing
    # the analytic score gives an independent Hessian at the optimum
    fit = fit_constrained(kind, rho, demo_confounded, spec)
    assert fit.converged
    ka = fit.coefficients_a.size
    x = np.concatenate([fit.coefficients_a, fit.coefficients_b])

    def score(v, i):
        ga, gb = constrained_grad(kind, v[:ka], v[ka:], rho, demo_confounded,
                                  spec)
        return np.concatenate([ga, gb])[i]

    jac = np.array([finite_diff_grad(lambda v: score(v, i), x, step=1e-6)
                    for i in range(x.size)])
    info = np.linalg.inv(fit.covariance_full)
    assert np.max(np.abs(info + jac) / np.maximum(np.abs(info), 1.0)) < 1e-6


def test_rho_outside_interior_band_rejected(demo_clean, spec):
    with pytest.raises(ValueError, match="0.999"):
        constrained_loglik(MY, np.zeros(4), np.zeros(6), 0.9995, demo_clean, spec)


class TestFitConstrained:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_rho_reduces_to_univariate_fits(self, kind, demo_clean, spec):
        fit = fit_constrained(kind, 0.0, demo_clean, spec)
        assert fit.converged
        (da, ra), (db, rb) = _designs_for(kind, demo_clean, spec)
        uni_a = fit_probit(da, ra)
        uni_b = fit_probit(db, rb)
        assert np.max(np.abs(fit.coefficients_a - uni_a.coefficients)) < 1e-6
        assert np.max(np.abs(fit.coefficients_b - uni_b.coefficients)) < 1e-6
        assert fit.loglik == pytest.approx(uni_a.loglik + uni_b.loglik,
                                           abs=1e-6)

    def test_optimum_has_small_gradient(self, demo_confounded, spec):
        fit = fit_constrained(MY, 0.3, demo_confounded, spec)
        ga, gb = constrained_grad(MY, fit.coefficients_a, fit.coefficients_b,
                                  0.3, demo_confounded, spec)
        assert fit.converged
        assert max(np.abs(ga).max(), np.abs(gb).max()) < 1e-5

    def test_recovers_truth_at_true_rho(self, spec):
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 6000, 1234)
        fit = fit_constrained(MY, 0.3, ds, spec)
        se_b = np.sqrt(np.diag(fit.covariance_b))
        assert fit.converged
        assert np.all(np.abs(fit.coefficients_b - params.theta) < 3.5 * se_b)

    def test_covariance_blocks_assemble(self, demo_confounded, spec):
        fit = fit_constrained(MY, 0.2, demo_confounded, spec)
        ka = fit.coefficients_a.size
        assert np.array_equal(fit.covariance_a, fit.covariance_full[:ka, :ka])
        assert np.array_equal(fit.covariance_b, fit.covariance_full[ka:, ka:])
        assert np.all(np.linalg.eigvalsh(fit.covariance_full) > 0)

    def test_loglik_is_continuous_in_rho(self, demo_confounded, spec):
        fits = [fit_constrained(MY, r, demo_confounded, spec)
                for r in (0.10, 0.11)]
        delta = np.abs(fits[0].coefficients_b - fits[1].coefficients_b).max()
        assert delta < 0.05

    def test_out_of_band_rho_clamped_with_warning(self, spec):
        params = confounded_params(MY, 0.9)
        ds = simulate(params, 1000, 55)
        fit = fit_constrained(MY, -1.0, ds, spec)
        assert fit.rho == pytest.approx(-0.999)
        assert any("clamp" in w for w in fit.warnings)
        assert fit.converged

    def test_profile_loglik_is_nearly_flat_in_rho(self, spec):
        # the error correlation is barely identified by functional form,
        # which is why it is swept as a sensitivity parameter instead of
        # estimated: the profile likelihood moves by well under 0.05% of
        # its magnitude across the whole band here
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 6000, 77)
        grid = [-0.3, -0.15, 0.0, 0.15, 0.3, 0.45, 0.6]
        fits = [fit_constrained(MY, r, ds, spec) for r in grid]
        assert all(f.converged for f in fits)
        logliks = np.array([f.loglik for f in fits])
        assert logliks.max() - logliks.min() < 2.0

    def test_warm_start_changes_nothing(self, demo_confounded, spec):
        cold = fit_constrained(MY, 0.25, demo_confounded, spec)
        start = np.concatenate([cold.coefficients_a, cold.coefficients_b])
        warm = fit_constrained(MY, 0.25, demo_confounded, spec, start=start)
        assert np.abs(warm.coefficients_b - cold.coefficients_b).max() < 1e-7


def _designs_for(kind, ds, spec):
    dz = build_exposure_design(ds, spec)
    dm = build_mediator_design(ds, spec)
    dy = build_outcome_design(ds, spec)
    return {EM: ((dz, ds.z), (dm, ds.m)),
            MY: ((dm, ds.m), (dy, ds.y)),
            ZY: ((dz, ds.z), (dy, ds.y))}[kind]

"""Constrained bivariate likelihoods at fixed error correlation."""

import dataclasses
import math
import re
import zlib

import numpy as np
import pytest
from scipy.special import log_ndtr

from medsens import (ConfoundingKind, ModelSpec, SeparationError, biprobit,
                     build_exposure_design, build_mediator_design,
                     build_outcome_design, bvn_cdf, constrained_grad,
                     fit_constrained, fit_probit, log_bvn_cdf, probit,
                     simulate)
from medsens.biprobit import _pair_pass, _probit_pair_path
from medsens.probit import ProbitFit
from medsens.numkernel import PROB_FLOOR
from conftest import (confounded_params, joint_loglik, make_dataset,
                      probit_loglik)
from finite_diff import finite_diff_grad

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
        ll = joint_loglik(EM, np.zeros(1), np.zeros(2), 0.5, ds, ModelSpec())
        assert ll == pytest.approx(math.log(1.0 / 6.0), abs=1e-14)

    def test_mediator_outcome(self):
        # P(m=1, y=1) at rho=0.5 is Phi2(0,0;0.5) = 1/4 + 1/12 = 1/3
        ds = one_row(z=0, m=1, y=1)
        ll = joint_loglik(MY, np.zeros(2), np.zeros(4), 0.5, ds, ModelSpec())
        assert ll == pytest.approx(math.log(1.0 / 3.0), abs=1e-14)

    def test_exposure_outcome(self):
        # P(z=1, y=0) at rho=0.3 is Phi2(0,0;-0.3)
        ds = one_row(z=1, m=0, y=0)
        expect = 0.25 - math.asin(0.3) / (2.0 * math.pi)
        ll = joint_loglik(ZY, np.zeros(1), np.zeros(4), 0.3, ds, ModelSpec())
        assert ll == pytest.approx(math.log(expect), abs=1e-14)

    def test_zero_rho_single_row_is_product(self):
        ds = one_row(z=1, m=1, y=0)
        ll = joint_loglik(EM, np.zeros(1), np.zeros(2), 0.0, ds, ModelSpec())
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
    joint = joint_loglik(kind, ca, cb, 0.0, demo_clean, spec)
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
    f = lambda v: joint_loglik(kind, v[:ka], v[ka:], rho, demo_clean, spec)
    fd = finite_diff_grad(f, packed, step=1e-6)
    ga, gb = constrained_grad(kind, coef_a, coef_b, rho, demo_clean, spec)
    analytic = np.concatenate([ga, gb])
    scale = np.maximum(np.abs(analytic), 1.0)
    assert np.max(np.abs(analytic - fd) / scale) < 1e-6


LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def pair_hessian(signed_a, signed_b, h_aa, h_bb, h_ab):
    cross = signed_a.T @ (signed_b * h_ab[:, None])
    return np.block([
        [signed_a.T @ (signed_a * h_aa[:, None]), cross],
        [cross.T, signed_b.T @ (signed_b * h_bb[:, None])]])


def reference_pair_pass(coef_a, signed_a, coef_b, signed_b, r):
    """The pair pass with per-row r, scipy's log_ndtr and the quadratic
    form of ln phi2 written out: the formula the kernel replaced."""
    u_a = signed_a @ coef_a
    u_b = signed_b @ coef_b
    logp = log_bvn_cdf(u_b, u_a, r)
    one_minus_r2 = 1.0 - r * r
    denom = np.sqrt(one_minus_r2)
    log_w_a = (-0.5 * u_a * u_a - LOG_SQRT_2PI
               + log_ndtr((u_b - r * u_a) / denom) - logp)
    log_w_b = (-0.5 * u_b * u_b - LOG_SQRT_2PI
               + log_ndtr((u_a - r * u_b) / denom) - logp)
    log_d = (-(u_a * u_a - 2.0 * r * u_a * u_b + u_b * u_b)
             / (2.0 * one_minus_r2) - 2.0 * LOG_SQRT_2PI
             - 0.5 * np.log(one_minus_r2) - logp)
    w_a, w_b, d = (np.exp(np.minimum(t, 600.0)) for t in (log_w_a, log_w_b, log_d))
    hessian = pair_hessian(signed_a, signed_b, -u_a * w_a - r * d - w_a * w_a,
                           -u_b * w_b - r * d - w_b * w_b, d - w_a * w_b)
    score = np.concatenate([signed_a.T @ w_a, signed_b.T @ w_b])
    return float(logp.sum()), score, hessian, u_a, u_b, w_a, w_b, d


def exact_pair_hessian(signed_a, signed_b, u_a, u_b, rho, signs):
    """The pair Hessian from row terms evaluated in 40-digit arithmetic,
    with bvn_cdf's Phi2 values taken as exact."""
    mpmath = pytest.importorskip("mpmath")
    rows = []
    with mpmath.workdps(40):
        half_log_2pi = mpmath.log(2 * mpmath.pi) / 2
        for a, b, s, p in zip(u_a, u_b, signs, bvn_cdf(u_b, u_a, signs * rho)):
            a, b, r = mpmath.mpf(float(a)), mpmath.mpf(float(b)), s * mpmath.mpf(rho)
            c, log_p = 1 - r * r, mpmath.log(mpmath.mpf(float(p)))
            w_a = mpmath.exp(-a * a / 2 - half_log_2pi - log_p
                             + mpmath.log(mpmath.ncdf((b - r * a) / mpmath.sqrt(c))))
            w_b = mpmath.exp(-b * b / 2 - half_log_2pi - log_p
                             + mpmath.log(mpmath.ncdf((a - r * b) / mpmath.sqrt(c))))
            d = mpmath.exp(-(a * a - 2 * r * a * b + b * b) / (2 * c)
                           - 2 * half_log_2pi - mpmath.log(c) / 2 - log_p)
            rows.append([float(-a * w_a - r * d - w_a * w_a),
                         float(-b * w_b - r * d - w_b * w_b), float(d - w_a * w_b)])
    return pair_hessian(signed_a, signed_b, *np.array(rows).T)


@pytest.fixture(scope="module")
def wide_pair_rows():
    """Designs and response signs whose signed predictors u_a, u_b cover
    [-8, 8], rows beyond it dropped."""
    rng = np.random.default_rng(2020)
    n = 3000
    xa = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.normal(size=n)])
    xb = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.normal(size=n),
                          rng.integers(0, 2, n)])
    coef_a, coef_b = np.array([0.3, 6.0, 0.8]), np.array([-0.2, -5.0, 1.0, 0.5])
    s_a, s_b = rng.choice([-1.0, 1.0], size=(2, n))
    signed_a, signed_b = xa * s_a[:, None], xb * s_b[:, None]
    keep = (np.abs(signed_a @ coef_a) <= 8.0) & (np.abs(signed_b @ coef_b) <= 8.0)
    return coef_a, xa[keep], s_a[keep], coef_b, xb[keep], s_b[keep]


def normwise(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.85, 0.95, 0.999])
def test_pair_pass_matches_the_reference_formula(rho, wide_pair_rows):
    # rows where Phi2 is below the probability floor are left out: there
    # both passes cap the ratios at exp(600) and w^2 overflows the Hessian
    # the kernel reads the designs and signs as they are, the reference
    # the sign-flipped designs s X
    coef_a, d_a, s_a, coef_b, d_b, s_b = wide_pair_rows
    signed_a, signed_b, signs = d_a * s_a[:, None], d_b * s_b[:, None], s_a * s_b
    live = bvn_cdf(signed_b @ coef_b, signed_a @ coef_a, signs * rho) > PROB_FLOOR
    signed_a, signed_b, signs = signed_a[live], signed_b[live], signs[live]
    got = _pair_pass(coef_a, coef_b, rho, d_a[live], s_a[live], d_b[live], s_b[live])
    ref = reference_pair_pass(coef_a, signed_a, coef_b, signed_b, signs * rho)
    assert normwise(got[0], ref[0]) <= 1e-13
    assert normwise(got[1], ref[1]) <= 1e-13
    if rho < 0.999:
        assert normwise(got[2], ref[2]) <= 1e-12
    else:
        # here d nearly cancels w_a w_b, and the reference's Hessian is
        # itself about 5e-11 from one built of exact row terms: the kernel
        # must be no farther from that than 1.5 times the reference
        exact = exact_pair_hessian(signed_a, signed_b, got[4], got[5], rho, signs)
        assert normwise(got[2], exact) <= 1.5 * normwise(ref[2], exact)
    assert got[3] == max(np.abs(ref[3]).max(), np.abs(ref[4]).max())  # reach
    for g, r in zip(got[4:6], ref[3:5]):    # u_a, u_b
        assert np.array_equal(g, r)
    for g, r in zip(got[6:], ref[5:]):      # w_a, w_b, d
        np.testing.assert_allclose(g, r, rtol=1e-10, atol=0.0)


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
    info = np.linalg.inv(fit.covariance)
    assert np.max(np.abs(info + jac) / np.maximum(np.abs(info), 1.0)) < 1e-6


def test_rho_outside_interior_band_rejected(demo_clean, spec):
    with pytest.raises(ValueError, match="0.999"):
        constrained_grad(MY, np.zeros(4), np.zeros(6), 0.9995, demo_clean, spec)
    with pytest.raises(ValueError, match="^rho must be a real scalar"):
        constrained_grad(MY, np.zeros(4), np.zeros(6), False, demo_clean, spec)


def test_wrong_coefficient_length_names_the_vector(demo_clean, spec):
    with pytest.raises(ValueError,
                       match=r"^coef_b has length \(7,\), its design has 6 columns$"):
        constrained_grad(MY, np.zeros(4), np.zeros(7), 0.5, demo_clean, spec)


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
        assert np.array_equal(fit.covariance_a, fit.covariance[:ka, :ka])
        assert np.array_equal(fit.covariance_b, fit.covariance[ka:, ka:])
        assert np.all(np.linalg.eigvalsh(fit.covariance) > 0)

    def test_fit_arrays_are_read_only_and_start_untouched(self,
                                                          demo_confounded,
                                                          spec):
        start = fit_constrained(MY, 0.2, demo_confounded, spec).coefficients.copy()
        fit = fit_constrained(MY, 0.25, demo_confounded, spec, start=start)
        assert start.flags.writeable
        assert not np.shares_memory(fit.coefficients, start)
        for array in (fit.coefficients, fit.covariance, fit.coefficients_a,
                      fit.coefficients_b, fit.covariance_a, fit.covariance_b):
            with pytest.raises(ValueError, match="read-only"):
                array[0, ...] = 0.0

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

    @pytest.mark.parametrize("rho", [0.5, -1.0])
    def test_fit_reports_its_ascents_record(self, monkeypatch, spec, rho):
        # the constrained twin of test_fit_keeps_the_ascents_warnings: the
        # fit carries its ascent's verdict, warnings, loglik, iterations and
        # score norm, the warnings after the clamp notice when rho is clamped
        ds = simulate(confounded_params(MY, 0.9), 1000, 55)
        flagged = ("observed information not positive definite at optimum",)
        real_ascent, records = biprobit._newton_ascent, []

        def flagging(f, x0):
            record, rows = real_ascent(f, x0)
            records.append(dataclasses.replace(
                record, loglik=-1.5, iterations=99, converged=False,
                score_norm=0.25, warnings=flagged))
            return records[-1], rows

        monkeypatch.setattr(biprobit, "_newton_ascent", flagging)
        fit = fit_constrained(MY, rho, ds, spec)
        [record] = records
        clamp = ("rho = -1.0 clamped to -0.999 for likelihood evaluation",)
        assert fit.warnings == (clamp if rho == -1.0 else ()) + flagged
        assert not fit.converged
        assert (fit.loglik, fit.iterations, fit.score_norm) == (-1.5, 99, 0.25)
        assert fit.covariance is record.covariance
        assert isinstance(fit, ProbitFit) and fit.passes == record.passes
        assert np.array_equal(np.concatenate([fit.coefficients_a,
                                              fit.coefficients_b]),
                              record.coefficients)

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

    def test_all_nan_start_rejected(self, demo_confounded, spec):
        cold = fit_constrained(MY, 0.25, demo_confounded, spec)
        k = cold.coefficients_a.size + cold.coefficients_b.size
        with pytest.raises(ValueError, match="start"):
            fit_constrained(MY, 0.25, demo_confounded, spec,
                            start=np.full(k, np.nan))

    @pytest.mark.parametrize("shape", ["short", "long", "row"])
    def test_start_of_the_wrong_shape_rejected(self, demo_confounded, spec, shape):
        cold = fit_constrained(MY, 0.25, demo_confounded, spec)
        ka, kb = cold.coefficients_a.size, cold.coefficients_b.size
        start = {"short": np.zeros(ka + kb - 1), "long": np.zeros(ka + kb + 1),
                 "row": np.zeros((1, ka + kb))}[shape]
        with pytest.raises(ValueError, match=re.escape(
                f"start has length {start.shape}, expected {ka + kb} "
                f"({ka} + {kb} coefficients)")):
            fit_constrained(MY, 0.25, demo_confounded, spec, start=start)

    def test_start_with_one_inf_entry_rejected(self, demo_confounded, spec):
        cold = fit_constrained(MY, 0.25, demo_confounded, spec)
        start = np.concatenate([cold.coefficients_a, cold.coefficients_b])
        start[1] = np.inf
        # not a SeparationError: the data are not separated
        with pytest.raises(ValueError, match="start"):
            fit_constrained(MY, 0.25, demo_confounded, spec, start=start)


def test_separated_outcome_raises_from_an_explicit_start(monkeypatch, spec):
    # the outcome is the sign of the covariate; with an explicit start no
    # probit fit runs, so the constrained fit itself must find the
    # separation
    rng = np.random.default_rng(5)
    x = rng.normal(size=200)
    ds = make_dataset(rng.integers(0, 2, 200), rng.integers(0, 2, 200),
                      (x > 0).astype(int), x[:, None], ("x",))
    probit_fits = []
    monkeypatch.setattr(probit, "fit_probit",
                        lambda *args: probit_fits.append(args))
    with pytest.raises(SeparationError, match="separat"):
        fit_constrained(MY, 0.3, ds, spec, start=np.zeros(3 + 5))
    assert probit_fits == []


@pytest.fixture(scope="module", params=KINDS, ids=[k.value for k in KINDS])
def fits_around_rho(request):
    """The kind's fits at rho = 0.2 and 0.2 -+ 1e-4 on an n = 2000 draw."""
    kind = request.param
    params = confounded_params(kind, 0.3)
    ds = simulate(params, 2000, 71)
    return [fit_constrained(kind, rho, ds, params.spec)
            for rho in (0.2, 0.2 - 1e-4, 0.2 + 1e-4)]


class TestPathDerivatives:
    """The closed-form rho derivatives at an optimum against central
    differences of two fits."""

    def test_profile_slope(self, fits_around_rho):
        fit, below, above = fits_around_rho
        assert all(f.converged for f in fits_around_rho)
        central = (above.loglik - below.loglik) / 2e-4
        assert fit.loglik_slope == pytest.approx(central, rel=1e-5)

    def test_tangent(self, fits_around_rho):
        fit, below, above = fits_around_rho
        central = (np.concatenate([above.coefficients_a, above.coefficients_b])
                   - np.concatenate([below.coefficients_a, below.coefficients_b])
                   ) / 2e-4
        assert fit.tangent.shape == central.shape
        assert np.abs(fit.tangent - central).max() <= 1e-5 * np.abs(central).max()

    @pytest.mark.parametrize("kind", KINDS)
    def test_probit_pair_tangent_is_the_zero_rho_fit_tangent(
            self, kind, demo_confounded, spec):
        # ln Phi2(u_a, u_b; 0) splits into the two probit terms, so the
        # probit fits and their covariances give the tangent at rho = 0
        _, _, tangent, _ = _probit_pair_path(kind, demo_confounded, spec)
        fit = fit_constrained(kind, 0.0, demo_confounded, spec)
        assert np.abs(tangent - fit.tangent).max() <= \
            1e-8 * np.abs(fit.tangent).max()

    @pytest.mark.parametrize("kind", KINDS)
    def test_probit_pair_curvature(self, kind):
        # the tetrachoric series' curvature against a central difference
        # of the fits' tangents at rho = -+1e-4
        params = confounded_params(kind, 0.3)
        ds = simulate(params, 2000, 71)
        _, _, _, curvature = _probit_pair_path(kind, ds, params.spec)
        below, above = (fit_constrained(kind, rho, ds, params.spec)
                        for rho in (-1e-4, 1e-4))
        assert below.converged and above.converged
        central = (above.tangent - below.tangent) / 2e-4
        assert curvature.shape == central.shape
        assert np.abs(curvature - central).max() <= \
            1e-6 * np.abs(central).max()


def _designs_for(kind, ds, spec):
    dz = build_exposure_design(ds, spec)
    dm = build_mediator_design(ds, spec)
    dy = build_outcome_design(ds, spec)
    return {EM: ((dz, ds.z), (dm, ds.m)),
            MY: ((dm, ds.m), (dy, ds.y)),
            ZY: ((dz, ds.z), (dy, ds.y))}[kind]

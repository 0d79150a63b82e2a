"""Effect formulas, analytic gradients, and delta-method intervals."""

import contextlib
import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from medsens import (ConfoundingKind, CovariateProfile, DataError, EffectType,
                     FitContext, GradientVector, ModelSpec, NotConvergedError,
                     NumericalError, constrained_context, delta_se,
                     demo_params, effect_rows, effect_with_ci, fit_constrained,
                     norm_quantile, simulate, unconstrained_context, write_csv)
from medsens import effects, probit
from medsens.cli import main
from conftest import make_dataset, reduced_spec
from finite_diff import finite_diff_grad

FULL = ModelSpec()
MY = ConfoundingKind.MEDIATOR_OUTCOME


def mean_effect(effect_type, theta, beta, x, spec):
    """The effect's mean over the rows of x (its value when x is one row)."""
    return float(effect_rows(effect_type, theta, beta, x, spec)[0].mean())

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
    got = mean_effect(effect_type, THETA_REF, BETA_REF, X_REF, FULL)
    assert got == pytest.approx(expected, abs=1e-14)


def test_no_exposure_effect_on_mediator_kills_mediation():
    beta = BETA_REF.copy()
    beta[1] = 0.0  # z coefficient; z:x already zero
    assert mean_effect(EffectType.NIE, THETA_REF, beta, X_REF, FULL) == 0.0


def test_no_mediator_effect_on_outcome_kills_mediation():
    theta = THETA_REF.copy()
    theta[2] = 0.0  # m coefficient; z:m, m:x, z:m:x already zero
    assert mean_effect(EffectType.NIE, theta, BETA_REF, X_REF, FULL) == 0.0


def test_no_direct_pathway_makes_nde_zero():
    theta = THETA_REF.copy()
    theta[1] = theta[3] = 0.0  # z and z:m coefficients
    assert mean_effect(EffectType.NDE, theta, BETA_REF, X_REF,
                       FULL) == pytest.approx(0.0, abs=1e-16)


def coef_strategy(k, scale=2.0):
    return st.lists(st.floats(-scale, scale, allow_nan=False), min_size=k,
                    max_size=k).map(np.array)


@settings(max_examples=60)
@given(theta=coef_strategy(8), beta=coef_strategy(4),
       xv=st.floats(-3.0, 3.0, allow_nan=False))
def test_decomposition_identity_conditional(theta, beta, xv):
    x = np.array([xv])
    nde = mean_effect(EffectType.NDE, theta, beta, x, FULL)
    nie = mean_effect(EffectType.NIE, theta, beta, x, FULL)
    nde_t = mean_effect(EffectType.NDE_TOTAL, theta, beta, x, FULL)
    nie_p = mean_effect(EffectType.NIE_PURE, theta, beta, x, FULL)
    te = mean_effect(EffectType.TE, theta, beta, x, FULL)
    assert nde + nie == pytest.approx(te, abs=1e-12)
    assert nde_t + nie_p == pytest.approx(te, abs=1e-12)


@settings(max_examples=60)
@given(theta=coef_strategy(8), beta=coef_strategy(4),
       xv=st.floats(-3.0, 3.0, allow_nan=False))
def test_effects_are_bounded_probability_differences(theta, beta, xv):
    for et in EffectType:
        val = mean_effect(et, theta, beta, np.array([xv]), FULL)
        assert -1.0 - 1e-15 <= val <= 1.0 + 1e-15


def test_marginal_is_mean_of_conditionals(demo_clean, spec):
    params = demo_params()
    marg = mean_effect(EffectType.NIE, params.theta, params.beta,
                       demo_clean.x, spec)
    per_row = [mean_effect(EffectType.NIE, params.theta, params.beta,
                           demo_clean.x[i], spec)
               for i in range(0, demo_clean.n, 50)]
    full = [mean_effect(EffectType.NIE, params.theta, params.beta,
                        demo_clean.x[i], spec)
            for i in range(demo_clean.n)]
    assert marg == pytest.approx(np.mean(full), abs=1e-14)
    assert marg != pytest.approx(np.mean(per_row), abs=1e-6)  # subsample sanity


class TestGradients:
    def test_nde_has_no_beta_exposure_terms(self):
        grad = effect_rows(EffectType.NDE, THETA_REF, BETA_REF, X_REF, FULL)[1]
        # beta layout: intercept, z, x, z:x; NDE only uses the z=0 arm of
        # the mediator model
        assert grad.wrt_beta[1] == 0.0
        assert grad.wrt_beta[3] == 0.0
        assert grad.wrt_beta[0] != 0.0

    def test_nie_theta_interaction_pairs_collapse(self):
        grad = effect_rows(EffectType.NIE, THETA_REF, BETA_REF, X_REF, FULL)[1]
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
        grad = effect_rows(effect_type, theta, beta, x, FULL)[1]
        packed = np.concatenate([beta, theta])
        f = lambda v: mean_effect(effect_type, v[kb:], v[:kb], x, FULL)
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
        grad = effect_rows(effect_type, theta, beta, demo_clean.x, spec)[1]
        packed = np.concatenate([beta, theta])
        f = lambda v: mean_effect(effect_type, v[4:], v[:4], demo_clean.x, spec)
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
        grad = effect_rows(effect_type, theta, beta, ds.x, FULL)[1]
        f = lambda v: mean_effect(effect_type, v[kb:], v[:kb], ds.x, FULL)
        fd = finite_diff_grad(f, np.concatenate([beta, theta]), step=1e-6)
        analytic = np.concatenate([grad.wrt_beta, grad.wrt_theta])
        assert np.max(np.abs(analytic - fd)) < 1e-6 * max(1.0,
                                                          np.abs(analytic).max())

    def test_reduced_spec_gradient_lengths(self, spec):
        grad = effect_rows(EffectType.TE, np.zeros(6), np.zeros(4),
                           np.zeros(2), spec)[1]
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
    profile = np.zeros(2) if scope == "conditional" else None
    with pytest.raises(ValueError, match=f"^{name} has length"):
        effect_with_ci(EffectType.NIE, scope, ctx, profile=profile)


@pytest.mark.parametrize("bad", ["nie", None, 1])
def test_bad_effect_type_names_it(bad, demo_clean, spec):
    ctx = TestEffectWithCi().make_ctx(demo_clean, spec)
    match = f"^effect type must be an EffectType, got {bad!r}$"
    with pytest.raises(ValueError, match=match):
        effect_with_ci(bad, "marginal", ctx)
    with pytest.raises(ValueError, match=match):
        effect_with_ci(bad, "conditional", ctx, profile=np.zeros(2))
    with pytest.raises(ValueError, match=match):
        effect_rows(bad, ctx.theta, ctx.beta, demo_clean.x, spec)


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
        with pytest.raises(ValueError, match=re.escape(
                "sigma_theta shape (2, 2) does not match gradient length 3")):
            delta_se(grad, np.eye(2), np.eye(2))

    def test_negative_variance_rejected(self):
        grad = GradientVector(wrt_beta=np.array([1.0]), wrt_theta=np.zeros(1))
        with pytest.raises(NumericalError):
            delta_se(grad, -np.eye(1), np.eye(1))

    def test_tiny_negative_roundoff_clipped_to_zero(self):
        grad = GradientVector(wrt_beta=np.array([1.0]), wrt_theta=np.zeros(1))
        assert delta_se(grad, np.array([[-1e-14]]), np.eye(1)) == 0.0


class TestEffectWithCi:
    def make_ctx(self, ds, spec):
        params = demo_params()
        return FitContext(beta=params.beta, theta=params.theta,
                          sigma_beta=0.01 * np.eye(4),
                          sigma_theta=0.01 * np.eye(6), spec=spec,
                          dataset=ds)

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

    def test_refuses_non_converged_sources(self, demo_clean, spec,
                                           monkeypatch):
        # the context builders refuse a block from an unconverged fit
        fit = fit_constrained(MY, 0.3, demo_clean, spec)
        with pytest.raises(NotConvergedError, match="rho=0.3"):
            constrained_context(MY, dataclasses.replace(fit, converged=False),
                                demo_clean, spec)
        monkeypatch.setattr(probit, "_FIT_ENTRY", {})  # fit afresh
        real = probit.fit_probit
        monkeypatch.setattr(probit, "fit_probit", lambda *args: dataclasses.replace(
            real(*args), converged=False))
        with pytest.raises(NotConvergedError, match="mediator"):
            unconstrained_context(demo_clean, spec)

    def test_conditional_needs_profile_and_marginal_needs_data(self, demo_clean,
                                                               spec):
        ctx = self.make_ctx(demo_clean, spec)
        with pytest.raises(ValueError, match="profile"):
            effect_with_ci(EffectType.NDE, "conditional", ctx)
        params = demo_params()
        with pytest.raises(TypeError, match="dataset"):
            FitContext(beta=params.beta, theta=params.theta,
                       sigma_beta=np.eye(4), sigma_theta=np.eye(6), spec=spec)
        assert unconstrained_context(demo_clean, spec).dataset is demo_clean

    @pytest.mark.parametrize("count", [1, 3])
    def test_profile_length_checked_against_dataset(self, demo_clean, spec,
                                                    count):
        ctx = self.make_ctx(demo_clean, spec)
        prof = CovariateProfile(values=np.zeros(count), name="wide")
        with pytest.raises(ValueError,
                           match=f"^profile 'wide' has {count} values, expected 2"):
            effect_with_ci(EffectType.NIE, "conditional", ctx, profile=prof)

    @pytest.mark.parametrize("values,match", [
        (np.array([np.nan, 0.0]), "non-finite"),
        (np.array([0.0, np.inf]), "non-finite"),
        (np.zeros((1, 2)), "flat vector"),
        (True, "real numbers"),
        (["0.5", "1"], "real numbers")])
    def test_raw_profile_read_through_covariate_profile(self, demo_clean, spec,
                                                        values, match):
        ctx = self.make_ctx(demo_clean, spec)
        with pytest.raises(DataError, match=match):
            effect_with_ci(EffectType.NIE, "conditional", ctx, profile=values)

    def test_alpha_validation(self, demo_clean, spec):
        ctx = self.make_ctx(demo_clean, spec)
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                effect_with_ci(EffectType.TE, "marginal", ctx, alpha=bad)
        with pytest.raises(ValueError, match="^alpha 1e-17 is too small"):
            effect_with_ci(EffectType.TE, "marginal", ctx, alpha=1e-17)
        with pytest.raises(ValueError, match="^alpha must be a real scalar"):
            effect_with_ci(EffectType.TE, "marginal", ctx, alpha="0.05")


def test_zero_covariate_effects_run():
    ds = make_dataset([0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 1, 1])
    spec = ModelSpec(exposure_x=False, mediator_x=False, mediator_zx=False,
                     outcome_x=False, outcome_zx=False, outcome_mx=False,
                     outcome_zmx=False)
    theta = np.array([-0.5, 0.4, 0.8, -0.2])
    beta = np.array([-0.6, 0.5])
    val = mean_effect(EffectType.TE, theta, beta, np.empty(0), spec)
    nde = mean_effect(EffectType.NDE, theta, beta, np.empty(0), spec)
    nie = mean_effect(EffectType.NIE, theta, beta, np.empty(0), spec)
    assert val == pytest.approx(nde + nie, abs=1e-14)
    marg = mean_effect(EffectType.TE, theta, beta, ds.x, spec)
    assert marg == pytest.approx(val, abs=1e-15)


@pytest.mark.parametrize("x", [[np.inf, 0.0], [[0.0, 0.0], [np.nan, 1.0]],
                               [-np.inf, np.inf]])
def test_effect_rows_refuses_non_finite_rows(x, spec):
    params = demo_params()
    with pytest.raises(ValueError, match="^x has non-finite values$"):
        effect_rows(EffectType.NIE, params.theta, params.beta, x, spec)


def test_effect_rows_refuses_zero_rows(spec):
    params = demo_params()
    with pytest.raises(ValueError, match="^x has no rows$"):
        effect_rows(EffectType.NIE, params.theta, params.beta, np.zeros((0, 2)), spec)


def test_layouts_are_built_once_and_read_only(spec):
    med, out = effects._layouts(spec, 2)
    assert effects._layouts(spec, 2)[1] is out
    assert effects._layouts(spec, 3)[1] is not out
    for layout in (*med.values(), *out.values()):
        assert not layout.flags.writeable
    with pytest.raises(TypeError):
        med[0] = np.zeros_like(med[0])


def count_calls(monkeypatch, name: str) -> list:
    """The arguments of every call of effects.<name>."""
    real = getattr(effects, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(effects, name, counted)
    return calls


# the probit cells of the two means each effect reads
CELLS_READ = {EffectType.NIE: 4, EffectType.NIE_PURE: 4, EffectType.NDE: 5,
              EffectType.NDE_TOTAL: 5, EffectType.TE: 6}
ALL_MEANS = sorted({pair for pairs in effects._CONTRASTS.values() for pair in pairs})


@pytest.mark.parametrize("scope", ["marginal", "conditional"])
@pytest.mark.parametrize("effect_type", list(EffectType))
def test_single_effect_evaluates_only_its_cells(monkeypatch, demo_clean, spec,
                                                effect_type, scope):
    assert demo_clean.n < effects._BLOCK  # one block: one call per cell
    fresh = dataclasses.replace(unconstrained_context(demo_clean, spec))  # empty memo
    profile, rows = (None, demo_clean.n) if scope == "marginal" else (np.zeros(2), 1)
    cells = count_calls(monkeypatch, "_probit_cell")
    passes = count_calls(monkeypatch, "_mu_pass")
    effect_with_ci(effect_type, scope, fresh, profile=profile)
    assert len(cells) == CELLS_READ[effect_type]
    assert all(x.shape[0] == rows for _, x in cells)
    assert [pairs for pairs, *_ in passes] == [list(effects._CONTRASTS[effect_type])]


def test_marginal_effects_evaluate_each_mean_once(monkeypatch, demo_clean, spec):
    ctx = unconstrained_context(demo_clean, spec)
    fresh = {et: effect_with_ci(et, "marginal", dataclasses.replace(ctx))
             for et in EffectType}
    passes = count_calls(monkeypatch, "_mu_pass")
    for effect_type in EffectType:
        memoized = effect_with_ci(effect_type, "marginal", ctx)
        assert memoized == fresh[effect_type]
        assert memoized.estimate.hex() == fresh[effect_type].estimate.hex()
        assert memoized.std_error.hex() == fresh[effect_type].std_error.hex()
    assert sorted(pair for pairs, *_ in passes for pair in pairs) == ALL_MEANS
    for et in EffectType:  # all memoized now
        effect_with_ci(et, "marginal", ctx)
    assert len(passes) == 3


def test_cmd_effects_evaluates_each_marginal_mean_once(monkeypatch, tmp_path,
                                                      spec):
    ds = simulate(demo_params(), 700, 74)
    write_csv(ds, tmp_path / "d.csv")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "data": "d.csv", "out": str(tmp_path / "out"),
        "model": {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)},
        "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                    "covariates": list(ds.covariate_names)},
        "effects": {"types": ["nde", "nie", "te", "nde*", "nie*"],
                    "scopes": ["marginal", "conditional"],
                    "profiles": [{"name": "band",
                                  "values": {"xcont": "mean+-sd", "xbin": 0}}]}}))
    passes = count_calls(monkeypatch, "_mu_pass")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["effects", str(cfg)]) == 0
    # one one-row pass per (effect, profile); the marginal means once
    # each, all in one pass
    rows = [x.shape[0] for _, _, _, x, *_ in passes]
    assert rows.count(1) == 15 and rows.count(ds.n) == 1 and len(rows) == 16
    assert sorted(pair for pairs, _, _, x, *_ in passes if x.shape[0] == ds.n
                  for pair in pairs) == ALL_MEANS


def test_cmd_effects_reads_six_cells_per_row_for_five_marginal_types(
        monkeypatch, tmp_path, spec):
    # the four means the five types contrast read the outcome cells (z, m)
    # and the mediator arms z' = 0, 1: six cells per row in one pass, on
    # rows in more than one block; filled one type at a time, they read 11.
    # Each estimate and SE is bitwise that of a lone effect on a fresh
    # context.
    ds = simulate(demo_params(), 10000, 78)
    assert ds.n > effects._BLOCK
    write_csv(ds, tmp_path / "d.csv")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "data": "d.csv", "out": str(tmp_path / "out"),
        "model": {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)},
        "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                    "covariates": list(ds.covariate_names)},
        "effects": {"types": ["nde", "nie", "te", "nde*", "nie*"],
                    "scopes": ["marginal"]}}))
    real, requests = effect_with_ci, []

    def recording(effect_type, scope, ctx, **kwargs):
        requests.append((effect_type, ctx, real(effect_type, scope, ctx, **kwargs)))
        return requests[-1][-1]
    monkeypatch.setattr("medsens.cli.effect_with_ci", recording)
    cells = count_calls(monkeypatch, "_probit_cell")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["effects", str(cfg)]) == 0
    assert sum(x.shape[0] for _, x in cells) == 6 * ds.n
    assert [et for et, _, _ in requests] == list(EffectType)
    for effect_type, ctx, est in requests:
        lone = effect_with_ci(effect_type, "marginal", dataclasses.replace(ctx))
        assert est.estimate.hex() == lone.estimate.hex()
        assert est.std_error.hex() == lone.std_error.hex()


def _blocked_case(spec: ModelSpec, p: int, n: int, seed: int) -> FitContext:
    """A context on n drawn rows with p covariates and drawn coefficients."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.normal(size=n), rng.random(n) < 0.3])[:, :p]
    ds = make_dataset(rng.random(n) < 0.4, rng.random(n) < 0.3, rng.random(n) < 0.5,
                      x, [f"x{j}" for j in range(p)])
    med, out = effects._layouts(spec, p)
    kb, kt = med[0].shape[1], out[0, 0].shape[1]
    return FitContext(beta=0.5 * rng.normal(size=kb), theta=0.5 * rng.normal(size=kt),
                      sigma_beta=np.eye(kb), sigma_theta=np.eye(kt), spec=spec,
                      dataset=ds)


@pytest.mark.parametrize("n", [effects._BLOCK - 1, effects._BLOCK,
                               effects._BLOCK + 1, 3 * effects._BLOCK + 5])
@pytest.mark.parametrize("spec,p", [(FULL, 2), (reduced_spec(), 2), (FULL, 0)],
                         ids=["full", "reduced", "p0"])
def test_blocked_marginal_matches_effect_rows(spec, p, n):
    ctx = _blocked_case(spec, p, n, seed=n + p)
    for effect_type in EffectType:
        est, grad = effects._marginal(effect_type, ctx)
        values, ref = effect_rows(effect_type, ctx.theta, ctx.beta, ctx.dataset.x, spec)
        assert abs(est - values.mean()) <= 1e-15
        assert np.array_equal(grad.wrt_beta, ref.wrt_beta)
        assert np.array_equal(grad.wrt_theta, ref.wrt_theta)


def _arrays(value):
    """Every numpy array inside value's dicts, tuples and gradients."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, GradientVector):
        return [value.wrt_beta, value.wrt_theta]
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple)):
        return [arr for item in value for arr in _arrays(item)]
    return []


def test_marginal_memo_holds_k_vectors_and_passes_stay_small(spec):
    n = 100_000
    ds = simulate(demo_params(), n, 75)
    ctx = TestEffectWithCi().make_ctx(ds, spec)
    bound = 0.25 * 12 * n * 8  # a quarter of the per-row cell memo it replaced
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for effect_type in EffectType:
            effect_with_ci(effect_type, "marginal", ctx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    k = max(ctx.beta.size, ctx.theta.size)
    arrays = _arrays(ctx._mu_memo)
    assert arrays and max(arr.size for arr in arrays) <= k
    print(f"traced peak of five marginal effects at n = {n}: {peak} bytes "
          f"(bound {bound:.0f})")
    assert peak < bound


def test_marginal_request_refuses_a_profile(demo_clean, spec):
    ctx = TestEffectWithCi().make_ctx(demo_clean, spec)
    with pytest.raises(ValueError, match="takes no covariate profile, got a profile$"):
        effect_with_ci(EffectType.NDE, "marginal", ctx, profile=[1.0, 2.0, 3.0])
    prof = CovariateProfile(values=np.zeros(2), name="origin")
    with pytest.raises(ValueError, match="got profile 'origin'$"):
        effect_with_ci(EffectType.NDE, "marginal", ctx, profile=prof)
    assert effect_with_ci(EffectType.NDE, "marginal", ctx).profile is None


@pytest.mark.parametrize("block", ["beta", "theta"])
def test_in_place_coefficient_edit_reads_fresh_cells(demo_clean, spec, block):
    base = unconstrained_context(demo_clean, spec)
    ctx = dataclasses.replace(base, beta=base.beta.copy(), theta=base.theta.copy())
    before = effect_with_ci(EffectType.NIE, "marginal", ctx)
    getattr(ctx, block)[1] += 0.25
    after = effect_with_ci(EffectType.NIE, "marginal", ctx)
    fresh = dataclasses.replace(ctx, beta=ctx.beta.copy(), theta=ctx.theta.copy())
    assert after == effect_with_ci(EffectType.NIE, "marginal", fresh)
    assert after.estimate != before.estimate
    assert len(ctx._mu_memo) == 1  # the means of the old coefficients are gone

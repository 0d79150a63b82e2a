"""Correlation scans, interval summaries, sign classification."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from scipy.interpolate import KroghInterpolator

from medsens import (ConfoundingKind, CovariateProfile, DataError,
                     EffectEstimate, EffectType, NotConvergedError, RhoGrid,
                     ScanError, ScanPoint, SensitivityScan, SignClass,
                     constrained_context, effect_with_ci, fit_constrained,
                     fit_unconstrained, identification_set, norm_quantile,
                     refine_boundary, run_scan, sign_ranges, simulate,
                     uncertainty_interval, unconstrained_context)
from medsens import biprobit as biprobit_mod
from medsens import datamodel as datamodel_mod
from medsens import numkernel as numkernel_mod
from medsens import probit as probit_mod
from medsens import sensitivity as sens_mod
from medsens.biprobit import PAIR_MODELS
from conftest import confounded_params

MY = ConfoundingKind.MEDIATOR_OUTCOME
ZY = ConfoundingKind.EXPOSURE_OUTCOME
EM = ConfoundingKind.EXPOSURE_MEDIATOR
NIE = EffectType.NIE


@pytest.fixture
def empty_memo():
    """Drop fit_designs' entry, and with it the probit fits that scans on
    a shared fixture dataset left in it."""
    probit_mod._FIT_ENTRY.clear()


def count_probit_fits(monkeypatch) -> list:
    """One entry per fit_probit call; probit._probit_fits is its only
    caller."""
    real, calls = probit_mod.fit_probit, []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(probit_mod, "fit_probit", counting)
    return calls


class TestRhoGrid:
    def test_default_grid(self):
        grid = RhoGrid.regular()
        assert grid.points[0] == -0.95
        assert grid.points[-1] == 0.95
        assert 0.0 in grid.points
        assert len(grid.points) == 191
        steps = np.diff(grid.points)
        assert steps.max() == pytest.approx(0.01, abs=1e-12)

    def test_zero_always_included_when_spanned(self):
        grid = RhoGrid.regular(-0.25, 0.25, 0.2)
        assert 0.0 in grid.points
        assert grid.points == (-0.25, -0.05, 0.0, 0.15, 0.25)

    def test_upper_endpoint_included(self):
        grid = RhoGrid.regular(0.1, 0.52, 0.25)
        assert grid.points == (0.1, 0.35, 0.52)
        assert 0.0 not in grid.points

    def test_band_clamping(self):
        grid = RhoGrid.regular(-1.0, 1.0, 0.5)
        assert grid.clamped
        assert grid.points == (-0.999, -0.5, 0.0, 0.5, 0.999)

    def test_bad_grids_rejected(self):
        with pytest.raises(ValueError):
            RhoGrid.regular(0.5, -0.5, 0.1)
        with pytest.raises(ValueError):
            RhoGrid.regular(-0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            RhoGrid.regular(-2.0, 0.5, 0.1)
        # float() would read these as numbers
        with pytest.raises(ValueError, match="^grid lower must be a real scalar"):
            RhoGrid.regular(False, True, 0.5)
        with pytest.raises(ValueError, match="^grid lower must be a real scalar"):
            RhoGrid.regular("-0.1", "0.1", "0.1")

    def test_point_count_capped_before_building(self):
        with pytest.raises(ValueError, match="at most"):
            RhoGrid.regular(-0.95, 0.95, 1e-9)

    def test_subnormal_step_capped_without_overflow(self):
        # (upper - lower) / 5e-324 is inf, which has no integer point count
        with pytest.raises(ValueError, match="at most 10001"):
            RhoGrid.regular(-0.5, 0.5, 5e-324)

    def test_single_point_grid(self):
        grid = RhoGrid.regular(0.3, 0.3, 0.1)
        assert grid.points == (0.3,)

    @pytest.mark.parametrize("points,problem", [
        ((), "at least one"),
        ((0.2, 0.2), "increasing"),
        ((0.3, 0.1), "increasing"),
        ((0.0, float("nan")), "finite"),
        ((-float("inf"), 0.0), "finite"),
        ((-1.5, 0.0), "finite"),
        ((False, True), "real scalar"),
        (("-0.1", 0.1), "real scalar"),
    ])
    def test_direct_grid_checked(self, points, problem):
        with pytest.raises(ValueError, match=problem):
            RhoGrid(lower=-1.0, upper=1.0, step=0.0, points=points)

    @pytest.mark.parametrize("bounds,message", [
        (("a", None, -3), "grid lower must be a real scalar, got 'a'"),
        ((-1.0, None, 0.0), "grid upper must be a real scalar, got None"),
        ((-1.0, 1.0, float("inf")), "grid step must be finite, got inf"),
        ((-1.0, 1.0, True), "grid step must be a real scalar, got True"),
        ((0.5, 0.1, 0.0), r"grid needs -1 <= lower <= upper <= 1, got \[0.5, 0.1\]"),
        ((-1.5, 1.0, 0.0), r"grid needs -1 <= lower <= upper <= 1, got \[-1.5, 1.0\]"),
        ((-1.0, 1.0, -3), "grid step must be positive, got -3.0"),
    ])
    def test_direct_grid_bounds_checked(self, bounds, message):
        lower, upper, step = bounds
        with pytest.raises(ValueError, match=f"^{message}$"):
            RhoGrid(lower=lower, upper=upper, step=step, points=(0.0,))


    def test_regular_clips_drift_past_upper(self):
        # lower + 3 step is 0.500000000083: beyond upper, and 8.3e-11 from
        # the upper point, which a scan would fit again
        grid = RhoGrid.regular(0.0, 0.5, 0.5 / (3 - 5e-10))
        assert grid.points == (0.0, 0.166666666694, 0.333333333389, 0.5)
        assert not grid.clamped

    def test_a_bound_beyond_the_band_admits_its_clamp(self):
        assert RhoGrid.regular(0.9, 1.0, 0.05).points == (0.9, 0.95, 0.999)
        assert RhoGrid.regular(0.9995, 1.0, 0.05).points == (0.999,)
        grid = RhoGrid(lower=-1.0, upper=-0.9995, step=0.0, points=(-0.999,))
        assert grid.points == (-0.999,)

    @pytest.mark.parametrize("points", [(0.5,), (0.0, 0.1000001), (-1e-9, 0.05)])
    def test_direct_points_outside_the_bounds_refused(self, points):
        with pytest.raises(ValueError,
                           match=r"^grid points must lie in \[0.0, 0.1\], got \["):
            RhoGrid(lower=0.0, upper=0.1, step=0.0, points=points)


def fake_estimate(est, se, alpha=0.05):
    half = norm_quantile(1 - alpha / 2) * se
    return EffectEstimate(effect_type=NIE, scope="marginal", estimate=est,
                          std_error=se, ci_lower=est - half,
                          ci_upper=est + half, alpha=alpha)


def fake_scan(entries, alpha=0.05):
    """entries: list of (rho, estimate, se) for converged points."""
    pts = tuple(ScanPoint(rho=r, estimate=fake_estimate(e, s, alpha),
                          converged=True) for r, e, s in entries)
    rhos = tuple(r for r, _, _ in entries)
    grid = RhoGrid(lower=rhos[0], upper=rhos[-1], step=0.0, points=rhos)
    return SensitivityScan(kind=MY, effect_type=NIE, scope="marginal",
                           grid=grid, alpha=alpha, points=pts, warnings=(),
                           dataset=None, spec=None, profile=None)


class TestSummaries:
    def test_identification_set_is_estimate_range(self):
        scan = fake_scan([(-0.2, 0.05, 0.01), (0.0, 0.03, 0.01),
                          (0.2, 0.01, 0.01)])
        iset = identification_set(scan)
        assert (iset.lower, iset.upper) == (0.01, 0.05)

    def test_uncertainty_interval_unions_cis(self):
        scan = fake_scan([(-0.2, 0.05, 0.02), (0.2, 0.01, 0.005)])
        ui = uncertainty_interval(scan)
        z = norm_quantile(0.975)
        assert ui.lower == pytest.approx(0.01 - z * 0.005)
        assert ui.upper == pytest.approx(0.05 + z * 0.02)
        assert ui.alpha == 0.05

    def test_uncertainty_interval_contains_identification_set(self):
        scan = fake_scan([(-0.3, 0.04, 0.01), (0.0, 0.02, 0.02),
                          (0.3, -0.01, 0.015)])
        iset = identification_set(scan)
        ui = uncertainty_interval(scan)
        assert ui.lower <= iset.lower and iset.upper <= ui.upper

    def test_all_failed_scan_raises(self):
        scan = fake_scan([(0.0, 0.1, 0.01)])
        dead = SensitivityScan(kind=scan.kind, effect_type=scan.effect_type,
                               scope=scan.scope, grid=scan.grid,
                               alpha=scan.alpha,
                               points=(ScanPoint(0.0, None, False),),
                               warnings=(), dataset=None, spec=None,
                               profile=None)
        with pytest.raises(ScanError):
            identification_set(dead)


class TestSignRanges:
    def test_uniformly_significant(self):
        scan = fake_scan([(-0.2, 0.05, 0.001), (0.0, 0.04, 0.001),
                          (0.2, 0.03, 0.001)])
        res = sign_ranges(scan)
        assert res.reference_sign == 1
        assert res.ranges == ((-0.2, 0.2, SignClass.SIGNIFICANT_SAME_SIGN),)

    def test_three_way_partition_with_reversal(self):
        scan = fake_scan([(-0.2, 0.08, 0.001), (-0.1, 0.05, 0.001),
                          (0.0, 0.03, 0.001), (0.1, 0.001, 0.01),
                          (0.2, -0.05, 0.001), (0.3, -0.08, 0.001)])
        res = sign_ranges(scan)
        assert res.reference_sign == 1
        assert res.ranges == (
            (-0.2, 0.1, SignClass.SIGNIFICANT_SAME_SIGN),
            (0.1, 0.2, SignClass.NOT_SIGNIFICANT),
            (0.2, 0.3, SignClass.REVERSED),
        )

    def test_reference_sign_prefers_positive_rho_on_tie(self):
        scan = fake_scan([(-0.1, -0.05, 0.001), (0.1, 0.05, 0.001)])
        res = sign_ranges(scan)
        assert res.reference_sign == 1
        assert res.ranges == ((-0.1, 0.1, SignClass.REVERSED),
                              (0.1, 0.1, SignClass.SIGNIFICANT_SAME_SIGN))

    def test_exact_zero_reference_warns_and_defaults_positive(self):
        scan = fake_scan([(0.0, 0.0, 0.05), (0.2, 0.2, 0.001)])
        res = sign_ranges(scan)
        assert res.reference_sign == 1
        assert any("zero" in w for w in res.warnings)

    def test_single_point_scan(self):
        scan = fake_scan([(0.3, -0.02, 0.001)])
        res = sign_ranges(scan)
        assert res.reference_sign == -1
        assert res.ranges == ((0.3, 0.3, SignClass.SIGNIFICANT_SAME_SIGN),)


class TestPredict:
    @pytest.mark.parametrize("rhos", [
        (0.0, 0.05), (0.0, 0.05, 0.15), (0.0, 0.05, 0.15, 0.25),
        (0.0, -0.05, -0.15, -0.25), (-0.2, -0.3, -0.35, -0.45),
        (0.6, 0.7, 0.9, 0.95), (0.1, 0.3)])
    def test_exact_on_a_polynomial_path(self, rhos):
        # a path of the interpolating degree: two conditions per node
        # (value and tangent) and a third at rho = 0 (its curvature); nodes
        # spaced unevenly, as around a grid's inserted 0 or across a
        # failed point
        poly = np.polynomial.polynomial
        degree = 2 * len(rhos) - 1 + (0.0 in rhos)
        path = np.random.default_rng(5).uniform(-1.0, 1.0, (degree + 1, 3))

        def derivative(order, rho):
            return poly.polyval(rho, poly.polyder(path, order))

        known = [(rho, derivative(0, rho), derivative(1, rho),
                  derivative(2, rho) if rho == 0.0 else None) for rho in rhos]
        step = rhos[-1] - rhos[-2]
        for rho in (rhos[-1] + step, rhos[-1] + 0.5 * step, rhos[1]):
            np.testing.assert_allclose(sens_mod._predict(known, rho),
                                       derivative(0, rho), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("node_rho,rho,curved", [
        (0.0, 0.1, True), (0.0, -0.05, True), (0.3, 0.4, False),
        (-0.3, -0.45, False)])
    def test_one_node_steps_as_before(self, node_rho, rho, curved):
        # an Euler step, quadratic with a curvature, bit for bit
        rng = np.random.default_rng(6)
        x, t, c = rng.normal(size=(3, 5))
        step = rho - node_rho
        want = x + t * step + (0.5 * c * step * step if curved else 0.0)
        got = sens_mod._predict([(node_rho, x, t, c if curved else None)], rho)
        assert got.tobytes() == want.tobytes()


def count_fits(monkeypatch) -> list:
    """Every fit_probit and fit_constrained call from now on, with no
    probit fits kept from before."""
    calls = []
    for module, name in ((probit_mod, "fit_probit"),
                         (sens_mod, "fit_constrained")):
        def counted(*args, _fit=getattr(module, name), **kwargs):
            calls.append(_fit)
            return _fit(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(probit_mod, "_FIT_ENTRY", {})
    return calls


class TestRunScan:
    def test_zero_grid_point_matches_unconstrained_pipeline(self,
                                                            demo_confounded,
                                                            spec):
        grid = RhoGrid.regular(0.0, 0.0, 0.01)
        scan = run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        assert len(scan.points) == 1
        ctx = unconstrained_context(demo_confounded, spec)
        direct = effect_with_ci(NIE, "marginal", ctx)
        pt = scan.points[0]
        assert pt.estimate.estimate == pytest.approx(direct.estimate,
                                                     abs=1e-10)
        assert pt.estimate.std_error == pytest.approx(direct.std_error,
                                                      rel=1e-4)

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_points_match_manual_reconstruction(self, kind, demo_confounded,
                                                spec):
        grid = RhoGrid.regular(-0.2, 0.2, 0.2)
        scan = run_scan(kind, NIE, "marginal", grid, demo_confounded, spec)
        for pt in scan.points:
            fit = fit_constrained(kind, pt.rho, demo_confounded, spec)
            ctx = constrained_context(kind, fit, demo_confounded, spec)
            manual = effect_with_ci(NIE, "marginal", ctx)
            assert pt.estimate.estimate == pytest.approx(manual.estimate,
                                                         abs=1e-7)
            assert pt.estimate.rho_context == (kind.value, pt.rho)

    @pytest.mark.parametrize("kind,fits", [(EM, 3), (MY, 2), (ZY, 3)])
    def test_anchor_starts_from_the_scan_probit_fits(self, kind, fits,
                                                     demo_confounded, spec,
                                                     empty_memo, monkeypatch):
        # the mediator and outcome probits plus the kind's pair: a my scan
        # fits no exposure probit, and no constrained fit refits a probit
        calls = count_probit_fits(monkeypatch)
        scan = run_scan(kind, NIE, "marginal", RhoGrid.regular(-0.1, 0.1, 0.1),
                        demo_confounded, spec)
        assert scan.failures == ()
        assert len(calls) == fits

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_scan_holds_no_row_vectors(self, kind, demo_confounded, spec):
        # neither a scan, nor the probit fits, nor a context built from
        # them keeps per-row Mills ratios or other n-vectors beyond the
        # dataset's own arrays
        prof = CovariateProfile(values=np.array([0.5, 1.0]), name="p")
        scan = run_scan(kind, NIE, "conditional",
                        RhoGrid.regular(-0.1, 0.1, 0.1), demo_confounded, spec,
                        profile=prof)
        fit = fit_constrained(kind, 0.1, demo_confounded, spec)
        held = (scan, fit_unconstrained(demo_confounded, spec),
                unconstrained_context(demo_confounded, spec),
                constrained_context(kind, fit, demo_confounded, spec))
        own = {id(v) for v in vars(demo_confounded).values()
               if isinstance(v, np.ndarray)}
        seen, arrays = set(), []

        def walk(obj):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            elif dataclasses.is_dataclass(obj):
                for field in dataclasses.fields(obj):
                    walk(getattr(obj, field.name))
            elif isinstance(obj, (tuple, list)):
                for item in obj:
                    walk(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    walk(item)

        walk(held)
        assert scan.failures == ()
        assert all(any(pt.coefficients is a for a in arrays)
                   for pt in scan.points)
        rows = [a for a in arrays if a.ndim and a.shape[0] == demo_confounded.n]
        assert {id(a) for a in rows} == own

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_fit_path_does_not_depend_on_the_effect(self, kind,
                                                    demo_confounded, spec,
                                                    monkeypatch):
        real = fit_constrained
        calls = []

        def recording(kind, rho, ds, spec, start=None):
            calls.append((rho, np.array(start)))
            return real(kind, rho, ds, spec, start=start)

        monkeypatch.setattr(sens_mod, "fit_constrained", recording)
        prof = CovariateProfile(values=np.array([0.5, 1.0]), name="p")
        grid = RhoGrid.regular(-0.3, 0.3, 0.1)
        sequences = []
        for effect in (EffectType.NDE, NIE, EffectType.TE):
            for scope in ("marginal", "conditional"):
                calls.clear()
                scan = run_scan(kind, effect, scope, grid, demo_confounded, spec,
                                profile=prof if scope == "conditional" else None)
                assert scan.failures == ()
                sequences.append(list(calls))
        first = sequences[0]
        assert [rho for rho, _ in first] == [0.0, 0.1, 0.2, 0.3,
                                             -0.1, -0.2, -0.3]
        for seq in sequences[1:]:
            assert [rho for rho, _ in seq] == [rho for rho, _ in first]
            assert all(a.tobytes() == b.tobytes()
                       for (_, a), (_, b) in zip(seq, first))

    def test_wrong_length_profile_rejected_before_fitting(self,
                                                          demo_confounded,
                                                          spec, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the profile")

        monkeypatch.setattr(probit_mod, "fit_probit", no_fit)
        monkeypatch.setattr(sens_mod, "fit_constrained", no_fit)
        prof = CovariateProfile(values=np.zeros(3), name="wide")
        with pytest.raises(ValueError,
                           match="^profile 'wide' has 3 values, expected 2"):
            run_scan(MY, NIE, "conditional", RhoGrid.regular(0.0, 0.1, 0.1),
                     demo_confounded, spec, profile=prof)

    def test_nan_profile_rejected_before_fitting(self, demo_confounded, spec,
                                                 monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the profile")

        monkeypatch.setattr(probit_mod, "fit_probit", no_fit)
        monkeypatch.setattr(sens_mod, "fit_constrained", no_fit)
        with pytest.raises(DataError, match="non-finite"):
            run_scan(MY, NIE, "conditional", RhoGrid.regular(0.0, 0.1, 0.1),
                     demo_confounded, spec, profile=np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("profile,name", [
        (np.zeros(2), "a profile"), (np.zeros(3), "a profile"),
        (CovariateProfile(values=np.zeros(2), name="origin"), "profile 'origin'")])
    def test_marginal_profile_rejected_before_fitting(self, demo_confounded,
                                                      spec, monkeypatch,
                                                      profile, name):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the profile")

        monkeypatch.setattr(probit_mod, "fit_probit", no_fit)
        monkeypatch.setattr(sens_mod, "fit_constrained", no_fit)
        with pytest.raises(ValueError, match=f"takes no covariate profile, got {name}$"):
            run_scan(MY, NIE, "marginal", RhoGrid.regular(0.0, 0.1, 0.1),
                     demo_confounded, spec, profile=profile)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan"), 1e-17])
    def test_bad_alpha_rejected_before_fitting(self, demo_confounded, spec,
                                               monkeypatch, alpha):
        calls = count_fits(monkeypatch)
        # 1 - 1e-17/2 rounds to 1, so the Wald quantile would be infinite
        match = (r"^alpha 1e-17 is too small: 1 - alpha/2 rounds to 1"
                 if alpha == 1e-17 else r"^alpha must lie in \(0, 1\), got ")
        with pytest.raises(ValueError, match=match):
            run_scan(MY, NIE, "marginal", RhoGrid.regular(0.0, 0.1, 0.1),
                     demo_confounded, spec, alpha=alpha)
        assert calls == []

    @pytest.mark.parametrize("kind,effect,match", [
        ("my", NIE, "^unknown confounding kind 'my'$"),
        (MY, "nie", "^effect type must be an EffectType, got 'nie'$")])
    def test_bad_kind_or_effect_rejected_before_fitting(self, demo_confounded, spec,
                                                       monkeypatch, kind, effect, match):
        calls = count_fits(monkeypatch)
        with pytest.raises(ValueError, match=match):
            run_scan(kind, effect, "marginal", RhoGrid.regular(-0.5, 0.5, 0.1),
                     demo_confounded, spec)
        if kind == "my":
            with pytest.raises(ValueError, match="^unknown confounding kind 'my'$"):
                biprobit_mod._probit_pair_path(kind, demo_confounded, spec)
        assert calls == []

    def test_grid_order_and_convergence(self, demo_confounded, spec):
        grid = RhoGrid.regular(-0.4, 0.4, 0.1)
        scan = run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        assert tuple(pt.rho for pt in scan.points) == grid.points
        assert scan.failures == ()

    def test_wide_grid_converges_everywhere(self):
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 5000, 64)
        grid = RhoGrid.regular(-0.95, 0.95, 0.1)
        scan = run_scan(MY, NIE, "marginal", grid, ds, params.spec)
        assert len(scan.points) == 21
        assert scan.failures == ()

    @staticmethod
    def count_passes(monkeypatch, kind, grid, ds, spec) -> list[int]:
        """Phi2 calls per constrained fit of a clean scan, checking that
        every likelihood pass makes exactly one."""
        # each log gets one entry per call of its function: the number of
        # Phi2 calls made inside it, so len(bvn_calls) counts Phi2 calls
        bvn_calls, per_pass, per_fit = [], [], []

        def counted(module, name, log):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                before = len(bvn_calls)
                out = real(*args, **kwargs)
                log.append(len(bvn_calls) - before)
                return out
            monkeypatch.setattr(module, name, wrapper)

        counted(numkernel_mod, "bvn_cdf", bvn_calls)
        counted(biprobit_mod, "_pair_pass", per_pass)
        counted(sens_mod, "fit_constrained", per_fit)
        scan = run_scan(kind, NIE, "marginal", grid, ds, spec)
        assert scan.failures == ()
        assert len(per_fit) == len(grid.points)
        assert per_pass and set(per_pass) == {1}
        assert sum(per_fit) == len(bvn_calls) == len(per_pass)
        return per_fit

    def test_wide_grid_phi2_passes(self, monkeypatch):
        # one Phi2 evaluation per likelihood pass, at most 15 per fit
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 5000, 64)
        per_fit = self.count_passes(monkeypatch, MY,
                                    RhoGrid.regular(-0.95, 0.95, 0.1), ds,
                                    params.spec)
        assert max(per_fit) <= 15
        # 84 passes when every fit starts from the previous optimum
        assert sum(per_fit) <= 75

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_wide_grid_tangent_predicted_passes(self, kind, monkeypatch):
        # Hermite starts through the last four optima and their tangents,
        # and quadratic steps off the rho = 0 anchor: 46 passes for each
        # kind, 42 if every fit took one Newton step; 53 (my) and 56 (zm,
        # zy) through the last two optima, 67 (my) with secant starts
        params = confounded_params(kind, 0.3)
        ds = simulate(params, 5000, 64)
        per_fit = self.count_passes(monkeypatch, kind,
                                    RhoGrid.regular(-0.95, 0.95, 0.1), ds,
                                    params.spec)
        assert sum(per_fit) <= 46

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_off_zero_anchor_passes(self, kind, monkeypatch):
        # a quadratic step off the rho = 0 probit pair: 3 passes, 4 with
        # an Euler step, and 5 when the fit starts from the probit fits
        # themselves
        params = confounded_params(kind, 0.3)
        ds = simulate(params, 2000, 67)
        per_fit = self.count_passes(monkeypatch, kind,
                                    RhoGrid.regular(0.3, 0.3, 0.1), ds,
                                    params.spec)
        assert per_fit[0] <= 3

    @staticmethod
    def count_setup(monkeypatch) -> dict:
        """Count validations and design builds through every binding."""
        counts = {"validate": 0, "build": 0}
        names = {"validate_for_fit": "validate",
                 "build_exposure_design": "build",
                 "build_mediator_design": "build",
                 "build_outcome_design": "build"}
        for module in (datamodel_mod, probit_mod, biprobit_mod):
            for name, key in names.items():
                real = getattr(module, name, None)
                if real is None:
                    continue

                def counted(*args, _real=real, _key=key, **kwargs):
                    counts[_key] += 1
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
        return counts

    def test_setup_once_per_scan(self, monkeypatch):
        # one validation and three design builds per scan, not at every
        # grid point (22 validations and 111 builds when rebuilt, 2 and 11
        # when the probit fits and the constrained fits set up separately)
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 1500, 65)
        counts = self.count_setup(monkeypatch)
        grid = RhoGrid.regular(-0.5, 0.5, 0.05)
        scan = run_scan(MY, NIE, "marginal", grid, ds, params.spec)
        assert len(scan.points) == 21
        assert counts == {"validate": 1, "build": 3}

    def test_setup_once_across_kinds(self, monkeypatch):
        # the three kinds' scans on one (dataset, spec) share one set-up
        # (6 validations when each kind set up its own pair) and its three
        # probit fits (8 when each scan fitted its own); a scan on another
        # dataset drops both with fit_designs' entry
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 1500, 66)
        counts = self.count_setup(monkeypatch)
        probit_calls = count_probit_fits(monkeypatch)
        grid = RhoGrid.regular(-0.2, 0.2, 0.1)
        for kind in (EM, MY, ZY, EM):
            scan = run_scan(kind, NIE, "marginal", grid, ds, params.spec)
            assert scan.failures == ()
        assert counts == {"validate": 1, "build": 3}
        assert len(probit_calls) == 3
        for data in (simulate(params, 1500, 67), ds):
            run_scan(MY, NIE, "marginal", grid, data, params.spec)
        assert counts == {"validate": 3, "build": 9}
        assert len(probit_calls) == 7

    def test_chain_starts_predicted_then_plain_after_failure(
            self, demo_confounded, spec, monkeypatch):
        real = fit_constrained
        starts, nodes = {}, {}

        def recording(kind, rho, ds, spec, start=None):
            starts[rho] = np.array(start)
            if rho in failing:
                raise ScanError(f"synthetic failure at {rho}")
            fit = real(kind, rho, ds, spec, start=start)
            nodes[rho] = (np.concatenate([fit.coefficients_a,
                                          fit.coefficients_b]), fit.tangent)
            return fit

        def euler(rho0, rho, curvature=None):
            x0, t0 = nodes[rho0]
            step = rho - rho0
            if curvature is None:
                return x0 + t0 * step
            return x0 + t0 * step + 0.5 * curvature * step * step

        def hermite(*known, rho, curved=True):
            # the interpolant through each node's value and tangent, and the
            # curvature at rho = 0 if curved, by Krogh's divided differences
            xi, yi = [], []
            for node_rho in known:
                derivatives = (*nodes[node_rho], curvature)[
                    :3 if curved and node_rho == 0.0 else 2]
                xi += [node_rho] * len(derivatives)
                yi += derivatives
            return KroghInterpolator(xi, np.array(yi))(rho)

        def close(a, b):
            return np.allclose(a, b, rtol=1e-12, atol=1e-12)

        monkeypatch.setattr(sens_mod, "fit_constrained", recording)
        base = fit_unconstrained(demo_confounded, spec)
        probit_start = np.concatenate([base.mediator.coefficients,
                                       base.outcome.coefficients])
        _, _, tangent, curvature = biprobit_mod._probit_pair_path(
            MY, demo_confounded, spec)
        failing = {0.5}
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(0.0, 0.7, 0.1),
                        demo_confounded, spec)
        assert scan.failures == (0.5,)
        assert np.array_equal(starts[0.0], probit_start)
        # one optimum (the anchor at rho = 0): a quadratic step off its
        # tangent and the probit pair's curvature
        assert np.array_equal(starts[0.1], euler(0.0, 0.1, curvature))
        assert not close(starts[0.1], euler(0.0, 0.1))
        # the window grows to four optima, matching the curvature at 0
        assert close(starts[0.2], hermite(0.0, 0.1, rho=0.2))
        assert close(starts[0.3], hermite(0.0, 0.1, 0.2, rho=0.3))
        assert close(starts[0.4], hermite(0.0, 0.1, 0.2, 0.3, rho=0.4))
        assert not close(starts[0.2], hermite(0.0, 0.1, rho=0.2, curved=False))
        assert not close(starts[0.4], hermite(0.1, 0.2, 0.3, rho=0.4))
        # then slides: the last four, without rho = 0
        assert close(starts[0.5], hermite(0.1, 0.2, 0.3, 0.4, rho=0.5))
        assert not close(starts[0.5], hermite(0.0, 0.1, 0.2, 0.3, 0.4, rho=0.5))
        # after the failure: Euler from the last optimum (off zero, so
        # without curvature), then the cubic Hermite across the gap
        assert np.array_equal(starts[0.6], euler(0.4, 0.6))
        assert close(starts[0.7], hermite(0.4, 0.6, rho=0.7))

        # a failed anchor: a quadratic step off the rho = 0 probit pair,
        # whose tangent and curvature are closed-form, which the next
        # start also matches
        failing = {0.0}
        starts.clear()
        nodes.clear()
        nodes[0.0] = (probit_start, tangent)
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(0.0, 0.2, 0.1),
                        demo_confounded, spec)
        assert scan.failures == (0.0,)
        assert np.array_equal(starts[0.0], probit_start)
        assert np.array_equal(starts[0.1], euler(0.0, 0.1, curvature))
        assert close(starts[0.2], hermite(0.0, 0.1, rho=0.2))

    def test_scope_validation(self, demo_confounded, spec):
        grid = RhoGrid.regular(0.0, 0.1, 0.1)
        with pytest.raises(ValueError, match="profile"):
            run_scan(MY, NIE, "conditional", grid, demo_confounded, spec)
        with pytest.raises(ValueError, match="scope"):
            run_scan(MY, NIE, "population", grid, demo_confounded, spec)

    def test_wide_grid_warns(self, demo_confounded, spec):
        grid = RhoGrid.regular(-0.99, 0.0, 0.5)
        scan = run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        assert any("0.95" in w for w in scan.warnings)

    def test_clamped_grid_warns(self, demo_confounded, spec):
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(0.9, 1.0, 0.05),
                        demo_confounded, spec)
        assert [pt.rho for pt in scan.points] == [0.9, 0.95, 0.999]
        assert scan.warnings[:2] == (
            "grid values beyond |rho| = 0.999 were clamped onto it",
            "grid extends beyond |rho| = 0.95; fits near the boundary can be "
            "numerically delicate")

    def test_conditional_scan_uses_profile(self, demo_confounded, spec):
        from medsens import CovariateProfile
        prof = CovariateProfile(values=np.array([0.0, 0.0]), name="origin")
        grid = RhoGrid.regular(-0.1, 0.1, 0.1)
        scan = run_scan(MY, NIE, "conditional", grid, demo_confounded, spec,
                        profile=prof)
        assert scan.profile is prof
        assert all(pt.estimate.scope == "conditional"
                   for pt in scan.converged_points())


@pytest.fixture(scope="module")
def edge_data():
    """Demo params confounded my at rho = 0.3, n = 5000, seed 7: a draw on
    which fits started at the probit pair itself fail near the band edge."""
    params = confounded_params(MY, 0.3)
    return simulate(params, 5000, 7), params.spec


class TestColdStart:
    """fit_constrained(start=None) starts where a one-point scan's anchor
    does: the second-order step off the memoized probit pair."""

    @pytest.mark.parametrize("kind,rho", [
        (EM, -0.999), (EM, -0.99), (EM, 0.999), (MY, -0.999), (MY, 0.999),
        (ZY, -0.999), (ZY, 0.999)])
    def test_band_edge_fits_converge_as_one_point_scans(self, kind, rho,
                                                        edge_data):
        # each stopped after one iteration with a score norm near 1e250
        # and 7-13 RuntimeWarnings when started at the probit pair
        ds, spec = edge_data
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_constrained(kind, rho, ds, spec)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert fit.converged and fit.rho == rho
        scan = run_scan(kind, NIE, "marginal", RhoGrid.regular(rho, rho, 0.1),
                        ds, spec)
        assert scan.failures == ()
        coef = np.concatenate([fit.coefficients_a, fit.coefficients_b])
        assert np.abs(coef - scan.points[0].coefficients).max() <= 1e-8

    @pytest.mark.parametrize("kind,missing", [(EM, 1), (MY, 0), (ZY, 1)])
    def test_cold_fits_and_scans_share_one_probit_set(
            self, kind, missing, demo_confounded, spec, empty_memo,
            monkeypatch):
        calls = count_probit_fits(monkeypatch)
        memo = probit_mod._fit_entry(demo_confounded, spec)[1]
        fit_constrained(kind, 0.2, demo_confounded, spec)
        assert len(calls) == 2 and set(memo) == set(PAIR_MODELS[kind])
        fit_constrained(kind, -0.3, demo_confounded, spec)
        assert len(calls) == 2
        # the scan fits only the effect model outside the pair, if any
        run_scan(kind, NIE, "marginal", RhoGrid.regular(-0.1, 0.1, 0.1),
                 demo_confounded, spec)
        assert len(calls) == 2 + missing
        assert set(memo) == {"mediator", "outcome", *PAIR_MODELS[kind]}


class TestContexts:
    def test_every_entry_reads_one_probit_set(self, empty_memo, monkeypatch):
        # the probit fits, both contexts, a scan of each kind and a cold
        # constrained fit on a fresh (dataset, spec) share three fits
        params = confounded_params(MY, 0.3)
        ds, spec = simulate(params, 1500, 68), params.spec
        calls = count_probit_fits(monkeypatch)
        fits = fit_unconstrained(ds, spec)
        contexts = [unconstrained_context(ds, spec)]
        for kind in (EM, MY, ZY):
            run_scan(kind, NIE, "marginal", RhoGrid.regular(-0.1, 0.1, 0.1),
                     ds, spec)
        fit = fit_constrained(ZY, 0.2, ds, spec)
        contexts.append(constrained_context(ZY, fit, ds, spec))
        assert len(calls) == 3
        assert fit_unconstrained(ds, spec).outcome is fits.outcome
        for model in ("exposure", "mediator", "outcome"):
            for array in (getattr(fits, model).coefficients,
                          getattr(fits, model).covariance):
                assert not array.flags.writeable
        assert contexts[0].beta is fits.mediator.coefficients
        assert contexts[0].theta is fits.outcome.coefficients
        assert contexts[1].beta is fits.mediator.coefficients
        assert contexts[1].sigma_beta is fits.mediator.covariance

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_blocks_from_the_fit_exactly_for_paired_models(self, kind,
                                                           demo_confounded,
                                                           spec):
        base = fit_unconstrained(demo_confounded, spec)
        fit = fit_constrained(kind, 0.2, demo_confounded, spec)
        ctx = constrained_context(kind, fit, demo_confounded, spec)
        fit_blocks = dict(zip(PAIR_MODELS[kind],
                              ((fit.coefficients_a, fit.covariance_a),
                               (fit.coefficients_b, fit.covariance_b))))
        for model, coef, cov in (("mediator", ctx.beta, ctx.sigma_beta),
                                 ("outcome", ctx.theta, ctx.sigma_theta)):
            probit = getattr(base, model)
            if model in PAIR_MODELS[kind]:
                assert coef is fit_blocks[model][0]
                assert cov is fit_blocks[model][1]
            else:
                assert coef is probit.coefficients
                assert cov is probit.covariance
        assert ctx.rho_context == (kind.value, 0.2)
        assert ctx.dataset is demo_confounded and ctx.spec is spec

    def test_unconstrained_context_reads_the_probit_fits(self,
                                                         demo_confounded,
                                                         spec):
        base = fit_unconstrained(demo_confounded, spec)
        ctx = unconstrained_context(demo_confounded, spec)
        assert ctx.beta is base.mediator.coefficients
        assert ctx.theta is base.outcome.coefficients
        assert ctx.sigma_beta is base.mediator.covariance
        assert ctx.sigma_theta is base.outcome.covariance
        assert ctx.rho_context is None

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_contexts_refuse_blocks_of_unconverged_fits(self, kind,
                                                        demo_confounded, spec,
                                                        monkeypatch):
        refusal = "{} did not converge; refusing to report an effect"
        fit = fit_constrained(kind, 0.2, demo_confounded, spec)
        with pytest.raises(NotConvergedError, match=re.escape(refusal.format(
                f"constrained fit (kind={kind.value}, rho=0.2)"))):
            constrained_context(kind, dataclasses.replace(fit, converged=False),
                                demo_confounded, spec)
        # probit fits that did not converge, in a fresh memo
        monkeypatch.setattr(probit_mod, "_FIT_ENTRY", {})
        real = probit_mod.fit_probit
        monkeypatch.setattr(probit_mod, "fit_probit", lambda *args: (
            dataclasses.replace(real(*args), converged=False)))
        with pytest.raises(NotConvergedError,
                           match=re.escape(refusal.format("mediator probit fit"))):
            unconstrained_context(demo_confounded, spec)
        # only a block the context takes from a probit fit is refused
        from_probit = {EM: "outcome", MY: None, ZY: "mediator"}[kind]
        if from_probit is None:
            ctx = constrained_context(kind, fit, demo_confounded, spec)
            assert ctx.beta is fit.coefficients_a
            assert ctx.theta is fit.coefficients_b
        else:
            with pytest.raises(NotConvergedError, match=re.escape(
                    refusal.format(f"{from_probit} probit fit"))):
                constrained_context(kind, fit, demo_confounded, spec)

    def test_scan_point_fails_when_its_context_refuses(self, demo_confounded,
                                                       spec, monkeypatch):
        # the fit at 0.1 converges; only the context built from it refuses
        real = sens_mod._context

        def context(ds, spec, kind=None, fit=None):
            if fit is not None and fit.rho == 0.1:
                raise NotConvergedError("synthetic refusal at 0.1")
            return real(ds, spec, kind, fit)

        monkeypatch.setattr(sens_mod, "_context", context)
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(-0.2, 0.2, 0.1),
                        demo_confounded, spec)
        assert scan._path.fits[0.1].converged
        assert scan.failures == (0.1,)
        assert scan.points[3] == ScanPoint(rho=0.1, estimate=None,
                                           converged=False)
        assert len(scan.converged_points()) == 4


class TestFailureHandling:
    def _failing_fit(self, bad):
        real = fit_constrained

        def stub(kind, rho, ds, spec, start=None):
            if bad(rho):
                raise ScanError(f"synthetic failure at {rho}")
            return real(kind, rho, ds, spec, start=start)

        return stub

    def test_majority_failures_raise_with_rho_list(self, demo_confounded,
                                                   spec, monkeypatch):
        monkeypatch.setattr(sens_mod, "fit_constrained",
                            self._failing_fit(lambda r: r > -0.15))
        grid = RhoGrid.regular(-0.2, 0.2, 0.1)
        with pytest.raises(ScanError, match="abandoned") as exc_info:
            run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        assert exc_info.value.failures == (-0.1, 0.0, 0.1, 0.2)

    def test_scan_error_failures_default_to_none(self):
        assert ScanError("scan has no converged grid points").failures == ()
        assert ScanError("abandoned", failures=[0.1, 0.2]).failures == (0.1, 0.2)

    def test_minority_failures_recorded_and_survivable(self, demo_confounded,
                                                       spec, monkeypatch):
        monkeypatch.setattr(sens_mod, "fit_constrained",
                            self._failing_fit(lambda r: abs(r - 0.2) < 1e-9))
        grid = RhoGrid.regular(-0.2, 0.2, 0.1)
        scan = run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        assert scan.failures == (0.2,)
        assert any("did not converge" in w for w in scan.warnings)
        iset = identification_set(scan)
        assert iset.lower <= iset.upper

    def test_failed_anchor_still_scans(self, demo_confounded, spec,
                                       empty_memo, monkeypatch):
        failing = self._failing_fit(lambda r: r == 0.0)
        starts = {}

        def recording(kind, rho, ds, spec, start=None):
            starts[rho] = start
            return failing(kind, rho, ds, spec, start=start)

        monkeypatch.setattr(sens_mod, "fit_constrained", recording)
        probit_calls = count_probit_fits(monkeypatch)
        grid = RhoGrid.regular(-0.1, 0.1, 0.1)
        scan = run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        assert scan.failures == (0.0,)
        assert len(scan.converged_points()) == 2
        # both chains start from a quadratic step off the scan's own
        # mediator and outcome probit fits: no refits
        assert len(probit_calls) == 2
        base = fit_unconstrained(demo_confounded, spec)
        probit_start = np.concatenate([base.mediator.coefficients,
                                       base.outcome.coefficients])
        _, _, tangent, curvature = biprobit_mod._probit_pair_path(
            MY, demo_confounded, spec)
        for rho in (0.0, 0.1, -0.1):
            assert np.array_equal(
                starts[rho],
                probit_start + tangent * rho + 0.5 * curvature * rho * rho)


class TestRefineBoundary:
    def test_boundary_refined_within_coarse_bracket(self, demo_confounded,
                                                    spec):
        grid = RhoGrid.regular(-0.6, 0.6, 0.2)
        scan = run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        classes = [c for _, _, c in sign_ranges(scan).ranges]
        if len(classes) < 2:
            pytest.skip("no classification change on this draw")
        boundaries = refine_boundary(scan, resolution=0.02)
        assert boundaries
        coarse = sign_ranges(scan).ranges
        for b in boundaries:
            # each refined boundary must fall inside one coarse cell that
            # ends at a classification change
            assert any(lo - 1e-9 <= b <= hi + 1e-9 for lo, hi, _ in coarse)

    @staticmethod
    def count_bvn_calls(monkeypatch) -> list:
        real, calls = numkernel_mod.bvn_cdf, []

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)
        monkeypatch.setattr(numkernel_mod, "bvn_cdf", counted)
        return calls

    def test_refits_start_from_bracket_hermite(self, monkeypatch):
        # each midpoint starts from the cubic Hermite through its bracket's
        # two converged ends: 28 Phi2 passes for these 14 refits, 34 from
        # Euler steps off the bracket's latest end, 48 from its bare
        # coefficients
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 5000, 64)
        nodes, starts = {}, {}
        real_fit = fit_constrained

        def recording(kind, rho, ds, spec, start=None):
            starts[rho] = np.array(start)
            fit = real_fit(kind, rho, ds, spec, start=start)
            nodes[rho] = (np.concatenate([fit.coefficients_a,
                                          fit.coefficients_b]), fit.tangent)
            return fit
        monkeypatch.setattr(sens_mod, "fit_constrained", recording)
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(-0.95, 0.95, 0.1),
                        ds, params.spec)
        calls = self.count_bvn_calls(monkeypatch)
        refits = len(starts)
        boundaries = refine_boundary(scan, resolution=0.001)
        assert boundaries == pytest.approx([0.5285156, 0.6699219], abs=1e-7)
        assert len(calls) <= 30
        order = list(starts)
        assert len(order) - refits == 14
        for k in range(refits, len(order)):
            # the bracket's ends: the nearest earlier fits on either side
            mid, earlier = order[k], order[:k]
            ends = (max(r for r in earlier if r < mid),
                    min(r for r in earlier if r > mid))
            hermite = KroghInterpolator(
                [r for r in ends for _ in range(2)],
                np.array([v for r in ends for v in nodes[r]]))
            np.testing.assert_allclose(starts[mid], hermite(mid),
                                       rtol=1e-12, atol=1e-12)

    def test_resolution_below_the_float_spacing_ends(self, monkeypatch):
        # at a resolution of 1e-300 the midpoint rounds to a bracket end
        # once the ends are adjacent doubles; bisection stops there,
        # within each boundary's grid bracket and within 1e-12 of the
        # resolution-1e-12 result. Halving a 0.1 bracket reaches the
        # spacing of doubles near 0.6 in about 50 steps, so 60 effects per
        # boundary are ample, and a bisection that never ends exceeds them.
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 5000, 64)
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(-0.9, 0.9, 0.1),
                        ds, params.spec)
        rhos = [pt.rho for pt in scan.points]
        assert rhos[14:17] == pytest.approx([0.5, 0.6, 0.7], abs=1e-12)
        near = refine_boundary(scan, resolution=1e-12)
        real, calls = sens_mod.effect_with_ci, []

        def budgeted(*args, **kwargs):
            calls.append(None)
            if len(calls) > 2 * 60:
                pytest.fail("bisection exceeded 60 effects per boundary")
            return real(*args, **kwargs)

        monkeypatch.setattr(sens_mod, "effect_with_ci", budgeted)
        boundaries = refine_boundary(scan, resolution=1e-300)
        assert len(boundaries) == 2
        for b, lo, hi, b_near in zip(boundaries, rhos[14:16], rhos[15:17], near):
            assert lo < b < hi
            assert abs(b - b_near) <= 1e-12

    def test_second_refinement_refits_nothing(self, monkeypatch):
        # the scan's fit path keeps every midpoint fit
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 2000, 64)
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(-0.95, 0.95, 0.1),
                        ds, params.spec)
        first = refine_boundary(scan, resolution=0.01)
        assert first
        calls = self.count_bvn_calls(monkeypatch)
        assert refine_boundary(scan, resolution=0.01) == first
        assert calls == []

    def test_refinement_refits_a_grid_point_that_failed(self, monkeypatch):
        # the grid point 0.55 fails in the scan and is the first midpoint
        # of the bracket (0.45, 0.65) around the boundary at 0.53;
        # refinement refits it from the bracket's ends and bisects past it
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 5000, 64)
        real, starts = fit_constrained, []

        def failing_once(kind, rho, ds, spec, start=None):
            starts.append(rho)
            if rho == 0.55 and starts.count(0.55) == 1:
                raise ScanError("synthetic failure at 0.55")
            return real(kind, rho, ds, spec, start=start)

        monkeypatch.setattr(sens_mod, "fit_constrained", failing_once)
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(-0.95, 0.95, 0.1),
                        ds, params.spec)
        assert scan.failures == (0.55,)
        refined = refine_boundary(scan, resolution=0.001)
        assert starts.count(0.55) == 2
        assert refined == pytest.approx([0.5285156, 0.6699219], abs=1e-7)

    def test_failed_midpoint_refit_returns_the_coarse_midpoint(self, monkeypatch):
        # every refit inside a bracket fails, so each boundary stops at its
        # first midpoint: the midpoint of the coarse bracket
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 2000, 64)
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(-0.95, 0.95, 0.1),
                        ds, params.spec)
        refits = []

        def failing(kind, rho, ds, spec, start=None):
            refits.append(rho)
            raise ScanError(f"synthetic failure at {rho}")

        monkeypatch.setattr(sens_mod, "fit_constrained", failing)
        assert [lo for lo, _, _ in sign_ranges(scan).ranges] == [-0.95, 0.45, 0.75]
        coarse = [0.5 * (0.35 + 0.45), 0.5 * (0.65 + 0.75)]
        assert refine_boundary(scan, resolution=0.001) == coarse
        assert refits == coarse

    def test_resolution_validation(self, demo_confounded, spec):
        scan = fake_scan([(0.0, 0.05, 0.001), (0.2, -0.05, 0.001)])
        with pytest.raises(ValueError):
            refine_boundary(scan, resolution=0.0)

    @pytest.mark.parametrize("resolution", [float("nan"), float("inf"),
                                            float("-inf"), "0.01"])
    def test_non_finite_resolution_rejected(self, resolution):
        scan = fake_scan([(0.0, 0.05, 0.001), (0.2, -0.05, 0.001)])
        with pytest.raises(ValueError, match="resolution"):
            refine_boundary(scan, resolution=resolution)

    def test_scan_built_by_hand_has_no_fits_to_refine(self):
        scan = fake_scan([(0.0, 0.05, 0.001), (0.2, -0.05, 0.001)])
        with pytest.raises(ValueError, match="^refine_boundary refits through "
                                             "the fits of a scan from run_scan"):
            refine_boundary(scan, resolution=0.01)

    def test_one_point_scan_keeps_no_path(self, demo_confounded, spec):
        # one grid point makes no bracket, so nothing would read the path
        scan = run_scan(MY, NIE, "marginal", RhoGrid.regular(0.3, 0.3, 0.1),
                        demo_confounded, spec)
        assert [pt.converged for pt in scan.points] == [True]
        assert scan._path is None
        assert refine_boundary(scan, resolution=0.01) == []

    def test_no_boundaries_for_uniform_classification(self):
        scan = fake_scan([(-0.1, 0.05, 0.001), (0.1, 0.04, 0.001)])
        assert refine_boundary(scan, resolution=0.01) == []

"""Correlation scans, interval summaries, sign classification."""

import numpy as np
import pytest

from medsens import (ConfoundingKind, EffectEstimate, EffectType, RhoGrid,
                     ScanError, ScanPoint, SensitivityScan, SignClass,
                     constrained_context, effect_with_ci, fit_constrained,
                     fit_unconstrained, identification_set, norm_quantile,
                     refine_boundary, run_scan, sign_ranges, simulate,
                     uncertainty_interval, unconstrained_context)
from medsens import biprobit as biprobit_mod
from medsens import probit as probit_mod
from medsens import sensitivity as sens_mod
from conftest import confounded_params

MY = ConfoundingKind.MEDIATOR_OUTCOME
ZY = ConfoundingKind.EXPOSURE_OUTCOME
EM = ConfoundingKind.EXPOSURE_MEDIATOR
NIE = EffectType.NIE


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

    def test_point_count_capped_before_building(self):
        with pytest.raises(ValueError, match="at most"):
            RhoGrid.regular(-0.95, 0.95, 1e-9)

    def test_single_point_grid(self):
        grid = RhoGrid.regular(0.3, 0.3, 0.1)
        assert grid.points == (0.3,)


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
                           dataset=None, spec=None, profile=None, base=None)


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
                               profile=None, base=None)
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
        base = fit_unconstrained(demo_confounded, spec)
        for pt in scan.points:
            fit = fit_constrained(kind, pt.rho, demo_confounded, spec)
            ctx = constrained_context(kind, fit, base, demo_confounded, spec)
            manual = effect_with_ci(NIE, "marginal", ctx)
            assert pt.estimate.estimate == pytest.approx(manual.estimate,
                                                         abs=1e-7)
            assert pt.estimate.rho_context == (kind.value, pt.rho)

    @pytest.mark.parametrize("kind", [EM, MY, ZY])
    def test_anchor_starts_from_the_scan_probit_fits(self, kind,
                                                     demo_confounded, spec,
                                                     monkeypatch):
        real = probit_mod.fit_probit
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(probit_mod, "fit_probit", counting)
        monkeypatch.setattr(biprobit_mod, "fit_probit", counting)
        scan = run_scan(kind, NIE, "marginal", RhoGrid.regular(-0.1, 0.1, 0.1),
                        demo_confounded, spec)
        assert scan.failures == ()
        assert len(calls) == 3

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

    def test_wide_grid_phi2_passes(self, monkeypatch):
        # one Phi2 evaluation per likelihood pass, at most 15 per fit
        params = confounded_params(MY, 0.3)
        ds = simulate(params, 5000, 64)
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

        counted(biprobit_mod, "bvn_cdf", bvn_calls)
        counted(biprobit_mod, "_pair_pass", per_pass)
        counted(sens_mod, "fit_constrained", per_fit)
        grid = RhoGrid.regular(-0.95, 0.95, 0.1)
        scan = run_scan(MY, NIE, "marginal", grid, ds, params.spec)
        assert scan.failures == ()
        assert len(per_fit) == 21
        assert per_pass and set(per_pass) == {1}
        assert max(per_fit) <= 15
        assert sum(per_fit) == len(bvn_calls) == len(per_pass)

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

    def test_conditional_scan_uses_profile(self, demo_confounded, spec):
        from medsens import CovariateProfile
        prof = CovariateProfile(values=np.array([0.0, 0.0]), name="origin")
        grid = RhoGrid.regular(-0.1, 0.1, 0.1)
        scan = run_scan(MY, NIE, "conditional", grid, demo_confounded, spec,
                        profile=prof)
        assert scan.profile is prof
        assert all(pt.estimate.scope == "conditional"
                   for pt in scan.converged_points())


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
                                       monkeypatch):
        monkeypatch.setattr(sens_mod, "fit_constrained",
                            self._failing_fit(lambda r: r == 0.0))
        grid = RhoGrid.regular(-0.1, 0.1, 0.1)
        scan = run_scan(MY, NIE, "marginal", grid, demo_confounded, spec)
        assert scan.failures == (0.0,)
        assert len(scan.converged_points()) == 2


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

    def test_resolution_validation(self, demo_confounded, spec):
        scan = fake_scan([(0.0, 0.05, 0.001), (0.2, -0.05, 0.001)])
        with pytest.raises(ValueError):
            refine_boundary(scan, resolution=0.0)

    def test_no_boundaries_for_uniform_classification(self):
        scan = fake_scan([(-0.1, 0.05, 0.001), (0.1, 0.04, 0.001)])
        assert refine_boundary(scan, resolution=0.01) == []

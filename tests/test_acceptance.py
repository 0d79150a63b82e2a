"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each test prints a single summary line through the real stderr so it shows
up in captured pytest runs. Budgets are wall-clock seconds on a laptop-class
machine; the numeric tolerances are the release contract.
"""

import time
from pathlib import Path

import numpy as np
import yaml

from conftest import confounded_params, joint_loglik, reduced_spec
from finite_diff import finite_diff_grad
from medsens import (ConfoundingKind, Dataset, EffectType, ModelSpec,
                     RhoGrid, bvn_cdf, constrained_grad, demo_params,
                     effect_rows, effect_with_ci, fit_constrained,
                     fit_unconstrained, identification_set, refine_boundary,
                     replicate_seeds, run_scan, sign_ranges, simulate,
                     true_effects, uncertainty_interval, unconstrained_context)
from medsens.cli import main as cli_main

DATA_DIR = Path(__file__).parent / "data"


def report(capsys, name: str, ok: bool, detail: str) -> bool:
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    return ok


def test_bvn_matches_quadrature_oracle(capsys):
    """Bivariate normal CDF vs frozen adaptive-quadrature grid, <= 1e-10."""
    rows = np.loadtxt(DATA_DIR / "bvn_oracle.csv", delimiter=",", skiprows=1)
    assert rows.shape == (11 * 11 * 9, 4)
    t0 = time.time()
    got = bvn_cdf(rows[:, 0], rows[:, 1], rows[:, 2])
    elapsed = time.time() - t0
    err = float(np.max(np.abs(got - rows[:, 3])))
    ok = err <= 1e-10 and elapsed < 5.0
    assert report(capsys, "bvn_quadrature_oracle", ok,
                  f"max abs err {err:.3e}, {elapsed:.2f}s")


def test_rho_zero_matches_univariate_fits(capsys):
    """Constrained fits at rho=0 reduce to the separate probit fits."""
    spec = reduced_spec()
    ds = simulate(demo_params(), 5000, 424242)
    t0 = time.time()
    base = fit_unconstrained(ds, spec)
    blocks = {
        ConfoundingKind.EXPOSURE_MEDIATOR: (base.exposure, base.mediator),
        ConfoundingKind.MEDIATOR_OUTCOME: (base.mediator, base.outcome),
        ConfoundingKind.EXPOSURE_OUTCOME: (base.exposure, base.outcome),
    }
    worst = 0.0
    for kind, (fa, fb) in blocks.items():
        fit = fit_constrained(kind, 0.0, ds, spec)
        assert fit.converged
        worst = max(worst,
                    float(np.max(np.abs(fit.coefficients_a - fa.coefficients))),
                    float(np.max(np.abs(fit.coefficients_b - fb.coefficients))))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    assert report(capsys, "rho_zero_reduction", ok,
                  f"max coef diff {worst:.3e}, {elapsed:.2f}s")


def test_analytic_gradients_match_finite_differences(capsys):
    """Joint-likelihood gradients vs central differences at 100 points.

    Draws keep tail orthant masses representable: beyond roughly 1e-12 the
    finite-difference oracle itself loses relative accuracy while the
    analytic gradient stays smooth, so wilder draws test the oracle, not
    the gradient.
    """
    full = ModelSpec()
    reduced = reduced_spec()
    rng = np.random.default_rng(np.random.Philox(key=31))
    kinds = list(ConfoundingKind)
    t0 = time.time()
    worst = 0.0
    n_pts = 0
    while n_pts < 100:
        for spec in (full, reduced):
            for p in (0, 1, 3):
                if n_pts >= 100:
                    break
                kind = kinds[n_pts % 3]
                n = 60
                ds = Dataset(
                    rng.integers(0, 2, n).astype(float),
                    rng.integers(0, 2, n).astype(float),
                    rng.integers(0, 2, n).astype(float),
                    rng.uniform(-1.5, 1.5, size=(n, p)),
                    tuple(f"x{i}" for i in range(p)))
                rho = rng.uniform(-0.8, 0.8)
                from medsens.biprobit import PAIR_MODELS
                from medsens.datamodel import model_designs
                designs = model_designs(ds, spec)
                (da, _), (db, _) = (designs[m] for m in PAIR_MODELS[kind])
                ca = rng.normal(scale=0.25, size=da.shape[1])
                cb = rng.normal(scale=0.25, size=db.shape[1])
                ga, gb = constrained_grad(kind, ca, cb, rho, ds, spec)
                analytic = np.concatenate([ga, gb])
                na = len(ca)

                def loglik(v, kind=kind, ds=ds, spec=spec, rho=rho, na=na):
                    return joint_loglik(kind, v[:na], v[na:], rho, ds, spec)

                fd = finite_diff_grad(loglik, np.concatenate([ca, cb]),
                                      step=1e-5)
                rel = np.max(np.abs(analytic - fd)
                             / np.maximum(1.0, np.abs(analytic)))
                worst = max(worst, float(rel))
                n_pts += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    assert report(capsys, "gradient_fidelity", ok,
                  f"{n_pts} points, worst rel err {worst:.3e}, "
                  f"{elapsed:.2f}s")


def test_effect_decompositions_are_exact(capsys):
    """NDE+NIE and NDE*+NIE* both equal TE at every random draw."""
    spec = ModelSpec()
    rng = np.random.default_rng(np.random.Philox(key=1000))
    p = 2
    worst = 0.0
    for _ in range(1000):
        theta = rng.normal(size=4 + 4 * p)
        beta = rng.normal(size=2 + 2 * p)
        x = rng.normal(size=p)
        value = {et: effect_rows(et, theta, beta, x, spec)[0][0]
                 for et in EffectType}
        te = value[EffectType.TE]
        d1 = value[EffectType.NDE] + value[EffectType.NIE] - te
        d2 = value[EffectType.NDE_TOTAL] + value[EffectType.NIE_PURE] - te
        worst = max(worst, abs(d1), abs(d2))
    ok = worst <= 1e-12
    assert report(capsys, "decomposition_identity", ok,
                  f"1000 draws, worst abs defect {worst:.3e}")


def test_delta_se_matches_bootstrap(capsys):
    """Delta-method SEs of marginal NDE/NIE vs nonparametric bootstrap."""
    spec = reduced_spec()
    ds = simulate(demo_params(), 2000, 777)
    t0 = time.time()
    ctx = unconstrained_context(ds, spec)
    delta = {et: effect_with_ci(et, "marginal", ctx).std_error
             for et in (EffectType.NDE, EffectType.NIE)}
    rng = np.random.default_rng(np.random.Philox(key=20260814))
    boots = {et: [] for et in delta}
    for _ in range(500):
        dsb = ds.take(rng.integers(0, ds.n, ds.n))
        fits = fit_unconstrained(dsb, spec)
        for et in boots:
            boots[et].append(effect_rows(
                et, fits.outcome.coefficients, fits.mediator.coefficients,
                dsb.x, spec)[0].mean())
    elapsed = time.time() - t0
    ratios = {et.value: delta[et] / float(np.std(vals, ddof=1))
              for et, vals in boots.items()}
    worst = max(abs(r - 1.0) for r in ratios.values())
    ok = worst <= 0.10 and elapsed < 300.0
    detail = ", ".join(f"{k} ratio {v:.4f}" for k, v in ratios.items())
    assert report(capsys, "delta_vs_bootstrap", ok,
                  f"{detail}, {elapsed:.1f}s")


def test_constrained_fit_recovers_truth_under_confounding(capsys):
    """Fits at the true error correlation are unbiased; naive fits are not.

    Each estimate is paired with the true marginal NIE computed on the same
    covariate draw, so covariate sampling noise cancels out of the
    Monte-Carlo standard error.
    """
    spec = reduced_spec()
    params = confounded_params(ConfoundingKind.MEDIATOR_OUTCOME, 0.3)
    grid = RhoGrid.regular(0.3, 0.3, 0.1)
    t0 = time.time()
    adj, naive = [], []
    for seed in replicate_seeds(4242, 200):
        ds = simulate(params, 5000, seed)
        truth = true_effects(params, ds)[EffectType.NIE]
        scan = run_scan(ConfoundingKind.MEDIATOR_OUTCOME, EffectType.NIE,
                        "marginal", grid, ds, spec)
        assert all(pt.converged for pt in scan.points)
        adj.append(scan.points[0].estimate.estimate - truth)
        ctx = unconstrained_context(ds, spec)
        naive.append(effect_with_ci(EffectType.NIE, "marginal", ctx).estimate
                     - truth)
    elapsed = time.time() - t0
    adj, naive = np.array(adj), np.array(naive)
    se_adj = float(np.std(adj, ddof=1) / np.sqrt(len(adj)))
    se_naive = float(np.std(naive, ddof=1) / np.sqrt(len(naive)))
    bias_adj, bias_naive = float(np.mean(adj)), float(np.mean(naive))
    ok = (abs(bias_adj) <= 2.0 * se_adj
          and abs(bias_naive) > 3.0 * se_naive
          and elapsed < 900.0)
    assert report(
        capsys, "monte_carlo_recovery", ok,
        f"adjusted bias {bias_adj:+.2e} ({abs(bias_adj) / se_adj:.1f} MC SE), "
        f"naive bias {bias_naive:+.2e} ({abs(bias_naive) / se_naive:.1f} MC SE), "
        f"{elapsed:.0f}s")


def test_wald_ci_coverage(capsys):
    """Nominal 95% intervals for marginal NIE cover in >= 90% of replicates."""
    spec = reduced_spec()
    params = demo_params()
    hits = 0
    reps = 200
    t0 = time.time()
    for seed in replicate_seeds(909, reps):
        ds = simulate(params, 2000, seed)
        truth = true_effects(params, ds)[EffectType.NIE]
        est = effect_with_ci(EffectType.NIE, "marginal",
                             unconstrained_context(ds, spec))
        hits += est.ci_lower <= truth <= est.ci_upper
    elapsed = time.time() - t0
    coverage = hits / reps
    ok = coverage >= 0.90
    assert report(capsys, "ci_coverage", ok,
                  f"{coverage:.3f} over {reps} replicates, {elapsed:.0f}s")


def test_sign_partition_and_interval_nesting(capsys):
    """Scan classification, boundary refinement, and grid monotonicity.

    A mediator-outcome confounded scenario is tuned so the NIE scan walks
    through all three sign classes. Refined boundaries must agree with a
    10x finer scan, and identification/uncertainty intervals must nest as
    the grid widens.
    """
    spec = reduced_spec()
    params = confounded_params(ConfoundingKind.MEDIATOR_OUTCOME, 0.45)
    ds = simulate(params, 3000, 2024)
    kind, et = ConfoundingKind.MEDIATOR_OUTCOME, EffectType.NIE
    t0 = time.time()
    scan = run_scan(kind, et, "marginal", RhoGrid.regular(-0.9, 0.9, 0.1),
                    ds, spec)
    classes = tuple(r[2] for r in sign_ranges(scan).ranges)
    three_way = len(classes) == 3 and len(set(classes)) == 3

    bounds = refine_boundary(scan, resolution=0.01)
    fine = run_scan(kind, et, "marginal", RhoGrid.regular(0.5, 0.9, 0.01),
                    ds, spec)
    fine_breaks = [r[1] for r in sign_ranges(fine).ranges[:-1]]
    # a refined boundary and the matching fine-grid break may legitimately
    # disagree by one resolution cell plus the bisection bracket half-width
    boundary_ok = len(bounds) == len(fine_breaks) == 2 and all(
        abs(b - fb) <= 0.015 for b, fb in zip(bounds, fine_breaks))

    intervals = []
    for lo, hi in ((-0.2, 0.2), (-0.5, 0.5), (-0.9, 0.9)):
        s = run_scan(kind, et, "marginal", RhoGrid.regular(lo, hi, 0.1),
                     ds, spec)
        intervals.append((identification_set(s), uncertainty_interval(s)))
    nested = all(
        outer[i].lower <= inner[i].lower and inner[i].upper <= outer[i].upper
        for inner, outer in zip(intervals, intervals[1:]) for i in (0, 1))
    elapsed = time.time() - t0
    ok = three_way and boundary_ok and nested
    assert report(
        capsys, "scan_structure", ok,
        f"classes {len(set(classes))}/3, boundaries {bounds} vs fine grid "
        f"{fine_breaks}, nesting {nested}, {elapsed:.0f}s")


def test_cli_pipeline_is_deterministic(tmp_path, capsys):
    """simulate -> fit -> effects -> sens reruns are byte-identical."""
    scenario = {
        "model": {"mediator_zx": False, "outcome_zx": False,
                  "outcome_mx": False, "outcome_zmx": False},
        "seed": 31459,
        "scenario": {
            "n": 800,
            "covariates": [{"name": "x1", "dist": "normal"}],
            "alpha": [-0.4, 0.1],
            "beta": [-1.3, 0.4, 0.2],
            "theta": [-0.8, 0.3, 0.6, -0.1, 0.2],
            "confounding": {"kind": "my", "rho": 0.3},
        },
    }
    t0 = time.time()
    outputs = []
    for run in ("a", "b"):
        root = tmp_path / run
        root.mkdir()
        sim_cfg = root / "sim.yaml"
        sim_cfg.write_text(yaml.safe_dump(
            {**scenario, "out": str(root / "sim")}), encoding="utf-8")
        assert cli_main(["simulate", str(sim_cfg)]) == 0
        ana = {
            "data": str(root / "sim" / "data.csv"),
            "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                        "covariates": ["x1"]},
            "model": scenario["model"],
            "effects": {"types": ["nde", "nie", "te"],
                        "scopes": ["marginal"]},
            "scans": [{"kind": "my", "effect": "nie", "scope": "marginal",
                       "grid": {"lower": -0.3, "upper": 0.3, "step": 0.15}}],
        }
        for cmd in ("fit", "effects", "sens"):
            cfg = root / f"{cmd}.yaml"
            cfg.write_text(yaml.safe_dump(
                {**ana, "out": str(root / cmd)}), encoding="utf-8")
            assert cli_main([cmd, str(cfg)]) == 0
        files = {}
        for sub in ("sim", "fit", "effects", "sens"):
            for path in sorted((root / sub).iterdir()):
                files[f"{sub}/{path.name}"] = path.read_bytes()
        outputs.append(files)
    elapsed = time.time() - t0
    same_names = set(outputs[0]) == set(outputs[1])
    diff = [k for k in outputs[0] if outputs[0][k] != outputs[1].get(k)]
    ok = same_names and not diff and len(outputs[0]) >= 10
    assert report(
        capsys, "cli_determinism", ok,
        f"{len(outputs[0])} files byte-identical across reruns, {elapsed:.1f}s")

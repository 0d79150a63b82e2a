"""Monte Carlo bias and CI coverage study for the constrained estimator.

Replicates: simulate data with mediator-outcome confounding at a known
correlation, re-estimate the mediated effect with the correlation fixed
at its true value, and tally bias, delta-method CI coverage, and what
the naive (correlation zero) estimator would have reported.

Usage: python3 scripts/coverage_study.py [--reps 200] [--n 5000] [--rho 0.3]
"""

import argparse
import dataclasses

import numpy as np

from medsens import (ConfoundingKind, EffectType, constrained_context,
                     demo_params, effect_with_ci, fit_constrained,
                     fit_unconstrained, replicate_seeds, simulate,
                     true_effects, unconstrained_context)


def one_replicate(params, n, rho, seed, effect_type):
    ds = simulate(params, n, seed)
    truth = true_effects(params, ds)[effect_type]

    fits = fit_unconstrained(ds, params.spec)
    naive = effect_with_ci(effect_type, "marginal",
                           unconstrained_context(ds, params.spec, fits))

    fit = fit_constrained(ConfoundingKind.MEDIATOR_OUTCOME, rho, ds, params.spec)
    ctx = constrained_context(ConfoundingKind.MEDIATOR_OUTCOME, fit, fits, ds,
                              params.spec)
    adjusted = effect_with_ci(effect_type, "marginal", ctx)
    return {
        "truth": truth,
        "naive": naive.estimate,
        "adjusted": adjusted.estimate,
        "covered": adjusted.ci_lower <= truth <= adjusted.ci_upper,
        "se": adjusted.std_error,
        "converged": fit.converged,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--rho", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--effect", default="nie",
                        choices=[e.value for e in EffectType])
    args = parser.parse_args()

    effect_type = EffectType(args.effect)
    params = dataclasses.replace(
        demo_params(), confounding=(ConfoundingKind.MEDIATOR_OUTCOME, args.rho))

    results = []
    for seed in replicate_seeds(args.seed, args.reps):
        results.append(one_replicate(params, args.n, args.rho, seed, effect_type))

    truth = np.array([r["truth"] for r in results])
    naive = np.array([r["naive"] for r in results])
    adjusted = np.array([r["adjusted"] for r in results])
    covered = np.array([r["covered"] for r in results])
    n_conv = sum(r["converged"] for r in results)

    bias_adj = adjusted - truth
    bias_naive = naive - truth
    mc_se = adjusted.std(ddof=1) / np.sqrt(args.reps)
    print(f"{args.reps} replicates, n={args.n}, rho={args.rho}, "
          f"effect={effect_type.value}, {n_conv} converged")
    print(f"  mean truth          {truth.mean():+.5f}")
    print(f"  adjusted: mean bias {bias_adj.mean():+.5f}  (mc se {mc_se:.5f})")
    print(f"  naive:    mean bias {bias_naive.mean():+.5f}")
    print(f"  empirical sd        {adjusted.std(ddof=1):.5f}")
    print(f"  mean delta se       {np.mean([r['se'] for r in results]):.5f}")
    print(f"  CI coverage         {covered.mean():.3f}")


if __name__ == "__main__":
    main()

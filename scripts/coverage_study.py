"""Monte Carlo bias and CI coverage study for the constrained estimator.

Replicates: simulate data with unmeasured confounding of one kind at a
known correlation, re-estimate the effect with a one-point scan at the
true correlation, and tally bias, delta-method CI coverage, and what the
naive (correlation zero) estimator would have reported. A replicate whose
scan raises ScanError counts as not converged and is left out of the
tallies.

Usage: python3 scripts/coverage_study.py [--kind my] [--reps 200] [--n 5000]
       [--rho 0.3]
"""

import argparse
import dataclasses

import numpy as np

from medsens import (ConfoundingKind, EffectType, RhoGrid, ScanError,
                     demo_params, effect_with_ci, replicate_seeds, run_scan,
                     simulate, true_effects, unconstrained_context)


def one_replicate(params, kind, n, rho, seed, effect_type):
    """The replicate's tallies, None when its scan fails."""
    ds = simulate(params, n, seed)
    truth = true_effects(params, ds)[effect_type]
    try:
        scan = run_scan(kind, effect_type, "marginal",
                        RhoGrid.regular(rho, rho), ds, params.spec)
    except ScanError:
        return None
    naive = effect_with_ci(effect_type, "marginal",
                           unconstrained_context(ds, params.spec))
    adjusted = scan.points[0].estimate
    return {
        "truth": truth,
        "naive": naive.estimate,
        "adjusted": adjusted.estimate,
        "covered": adjusted.ci_lower <= truth <= adjusted.ci_upper,
        "se": adjusted.std_error,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="my",
                        choices=[k.value for k in ConfoundingKind])
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--rho", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--effect", default="nie",
                        choices=[e.value for e in EffectType])
    args = parser.parse_args()

    kind = ConfoundingKind(args.kind)
    effect_type = EffectType(args.effect)
    params = dataclasses.replace(demo_params(), confounding=(kind, args.rho))

    outcomes = [one_replicate(params, kind, args.n, args.rho, seed, effect_type)
                for seed in replicate_seeds(args.seed, args.reps)]
    results = [r for r in outcomes if r is not None]
    print(f"{args.reps} replicates, kind={kind.value}, n={args.n}, "
          f"rho={args.rho}, effect={effect_type.value}, "
          f"{len(results)} converged")
    if not results:
        return

    truth = np.array([r["truth"] for r in results])
    naive = np.array([r["naive"] for r in results])
    adjusted = np.array([r["adjusted"] for r in results])
    covered = np.array([r["covered"] for r in results])

    bias_adj = adjusted - truth
    bias_naive = naive - truth
    mc_se = adjusted.std(ddof=1) / np.sqrt(len(results))
    print(f"  mean truth          {truth.mean():+.5f}")
    print(f"  adjusted: mean bias {bias_adj.mean():+.5f}  (mc se {mc_se:.5f})")
    print(f"  naive:    mean bias {bias_naive.mean():+.5f}")
    print(f"  empirical sd        {adjusted.std(ddof=1):.5f}")
    print(f"  mean delta se       {np.mean([r['se'] for r in results]):.5f}")
    print(f"  CI coverage         {covered.mean():.3f}")


if __name__ == "__main__":
    main()

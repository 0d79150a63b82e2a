"""End-to-end demo on a synthetic confounded dataset.

Simulates mediator-outcome confounded data at a known correlation,
fits the naive unconstrained models, reports effect estimates, then
runs a sensitivity scan and prints the identification set, uncertainty
interval and sign-classification ranges.

Usage: python3 scripts/run_demo.py [--n 4000] [--rho 0.3] [--seed 20260814]
"""

import argparse
import dataclasses
import time

from medsens import (ConfoundingKind, EffectType, RhoGrid, demo_params,
                     effect_with_ci, identification_set, refine_boundary,
                     run_scan, sign_ranges, simulate, true_effects,
                     unconstrained_context, uncertainty_interval)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=4000)
    parser.add_argument("--rho", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=20260814)
    parser.add_argument("--step", type=float, default=0.05)
    args = parser.parse_args()

    params = dataclasses.replace(
        demo_params(), confounding=(ConfoundingKind.MEDIATOR_OUTCOME, args.rho))
    ds = simulate(params, args.n, args.seed)
    truth = true_effects(params, ds)
    print(f"simulated n={ds.n} with mediator-outcome confounding rho={args.rho}")
    print(f"prevalence: z={ds.z.mean():.3f} m={ds.m.mean():.3f} y={ds.y.mean():.3f}")
    print()

    ctx = unconstrained_context(ds, params.spec)
    print("naive (rho=0) marginal estimates vs simulation truth:")
    for et in (EffectType.NDE, EffectType.NIE, EffectType.TE):
        est = effect_with_ci(et, "marginal", ctx)
        print(f"  {et.value:4s}  est={est.estimate:+.4f}  se={est.std_error:.4f}  "
              f"ci=[{est.ci_lower:+.4f}, {est.ci_upper:+.4f}]  "
              f"true={truth[et]:+.4f}")
    print()

    grid = RhoGrid.regular(-0.6, 0.6, args.step)
    t0 = time.perf_counter()
    scan = run_scan(ConfoundingKind.MEDIATOR_OUTCOME, EffectType.NIE,
                    "marginal", grid, ds, params.spec)
    dt = time.perf_counter() - t0
    print(f"scan over {len(grid.points)} rho values in {dt:.2f}s "
          f"({len(scan.failures)} failures)")

    iset = identification_set(scan)
    ui = uncertainty_interval(scan)
    print(f"  identification set  [{iset.lower:+.4f}, {iset.upper:+.4f}]")
    print(f"  uncertainty interval [{ui.lower:+.4f}, {ui.upper:+.4f}]")

    ranges = sign_ranges(scan)
    print(f"  reference sign {ranges.reference_sign:+d}")
    for lo, hi, cls in ranges.ranges:
        print(f"  rho in [{lo:+.2f}, {hi:+.2f}]  {cls.value}")
    boundaries = refine_boundary(scan, resolution=0.01)
    if boundaries:
        print(f"  refined boundaries: {[round(b, 3) for b in boundaries]}")

    at_truth = min(scan.converged_points(), key=lambda pt: abs(pt.rho - args.rho))
    print(f"\nat rho={at_truth.rho:+.2f}: est={at_truth.estimate.estimate:+.4f} "
          f"(true NIE {truth[EffectType.NIE]:+.4f})")


if __name__ == "__main__":
    main()

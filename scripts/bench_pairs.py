"""Parent/change benchmark pairs: runs perfbench/run.py on two source trees
in alternating order and writes a BENCH_<label>.json record.

For each workload, pair i runs one seed on both trees, one at a time; the
tree run first alternates from pair to pair, so a drift in machine load
does not favour one side. The record holds, per workload and end-to-end
metric of BENCHMARK.json, both medians and interquartile ranges, how
many pairs the change won and lost, and a verdict: "unresolved" when the
parent's IQR is wider than the metric's regression bound times its
median and not every change run beats every parent run, else "worse"
when the change's median is beyond the bound, else "within_bound". Every
verdict but "within_bound" is printed. Every workload of BENCHMARK.json
runs 10 pairs of its run_seconds each. A claim (one workload and metric) is optional; without
one the record's claim is "none" and it has no claim_check. A claim is
reported as wins out of N, the gap between the medians and the parent
IQR; it holds when there are at least 10 pairs, every run is correct, the
change's median ok_frac is no lower than the parent's, the change wins at
least 9 in 10 pairs and the gap exceeds the IQR. Optional traced runs
(--traced-pairs) add the per-layer metrics of seed 7 for both trees on
every workload, one traced_<workload>_seed7 entry each.

Usage (from the root of the change tree):

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --label probit_gram --first-seed 2201 [--claim effects_cli:wall_s] \\
        [--traced-pairs 3] [--summary "what changed"]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")
PAIRS = 10
TRACED_SEED = 7
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_once(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One perfbench/run.py process in ``tree``: its last stdout line (the
    record) joined with its {"environment": ...} line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith('{"environment"'))
    return {**json.loads(lines[-1]), **json.loads(env)}


def run_pairs(trees: dict, workload: str, seeds, trace: int = 0) -> list[dict]:
    """{side: record} per seed; the side run first alternates, parent first."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({side: run_once(trees[side], workload, seed, trace)
                      for side in order})
    return pairs


def _value(record: dict, metric: str) -> float:
    return record["metrics"][metric]["value"]


def iqr(values) -> float:
    """75th minus 25th percentile, interpolated linearly between order
    statistics (numpy.percentile's default)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict], seeds, metrics=None) -> dict:
    """One workload's entry of the record from its pairs."""
    metrics = metrics or BENCHMARK["end_to_end"]
    out = {"pairs": len(pairs), "seeds": list(seeds),
           "correct_all": all(p[side]["correct"] for p in pairs for side in SIDES),
           "metrics": {}}
    for metric in metrics:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        parent = [_value(p["parent"], name) for p in pairs]
        change = [_value(p["change"], name) for p in pairs]
        gains = [sign * (a - b) for a, b in zip(parent, change)]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        rel_change = change_median / parent_median - 1.0 if parent_median else 0.0
        clear = min(sign * (a - b) for a in parent for b in change) > 0
        noisy = iqr(parent) > metric["bound"] * abs(parent_median)
        out["metrics"][name] = {
            "unit": metric["unit"],
            "parent_median": parent_median, "change_median": change_median,
            "parent_iqr": iqr(parent), "change_iqr": iqr(change),
            "rel_change": rel_change,
            "verdict": ("unresolved" if noisy and not clear
                        else "worse" if sign * rel_change > metric["bound"]
                        else "within_bound"),
            "change_better_pairs": sum(g > 0 for g in gains),
            "change_worse_pairs": sum(g < 0 for g in gains)}
    return out


def claim_check(summary: dict, metric: str) -> dict:
    """Wins out of N, median gap and parent IQR for the claimed metric. A
    gain holds only on enough pairs of correct runs that fail no more
    operations than the parent's."""
    m, ok = summary["metrics"][metric], summary["metrics"]["ok_frac"]
    sign = next(1 if e["better"] == "lower" else -1
                for e in BENCHMARK["end_to_end"] if e["name"] == metric)
    gap = sign * (m["parent_median"] - m["change_median"])
    wins, n = m["change_better_pairs"], summary["pairs"]
    return {"wins": wins, "pairs": n, "median_gap": gap,
            "parent_iqr": m["parent_iqr"],
            "holds": (n >= PAIRS and summary["correct_all"]
                      and ok["change_median"] >= ok["parent_median"]
                      and wins >= 0.9 * n and gap > m["parent_iqr"])}


def claim_text(workload: str, metric: str, summary: dict) -> str:
    m, check = summary["metrics"][metric], claim_check(summary, metric)
    verb = "improves" if check["median_gap"] > 0 else "does not improve"
    return (f"{workload} {metric} {verb}: {m['parent_median']:.4g} -> "
            f"{m['change_median']:.4g} {m['unit']} ({100 * m['rel_change']:+.1f}%), "
            f"better in {check['wins']} of {check['pairs']} pairs, median gap "
            f"{check['median_gap']:.3g} {m['unit']} against a parent IQR of "
            f"{check['parent_iqr']:.3g} {m['unit']}")


def summarize_traced(pairs: list[dict]) -> dict:
    """Per side, every per-layer metric's runs and their median."""
    out = {side: {} for side in SIDES}
    for side, layers in out.items():
        for name in pairs[0][side]["metrics"]:
            runs = [_value(p[side], name) for p in pairs]
            layers[name] = {"median": statistics.median(runs), "runs": runs}
    return out


def machine(record: dict) -> str:
    env = record["environment"]
    threads = sorted(set(env["threads"].values()))
    return (f"{env['nproc']}-core {env['machine']}, Python {env['python']}, "
            f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS {env['blas']}, "
            f"thread pools pinned to {'/'.join(threads)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the gain claimed, if any")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="workload j, pair i runs seed first + 10 * j + i")
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--summary", default="", help="what the change does")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_<label>.json in the change tree")
    args = parser.parse_args(argv)
    workload, _, metric = (args.claim or "").partition(":")
    if args.claim is not None and (workload not in WORKLOADS or metric not in {
            e["name"] for e in BENCHMARK["end_to_end"]}):
        parser.error(f"--claim names no measured workload and metric: {args.claim!r}")
    return args


def verdict_lines(workloads: dict) -> list[str]:
    """One line per workload metric whose verdict is not within_bound."""
    return [f"{name} {metric}: {m['verdict']}, {m['parent_median']:.4g} -> "
            f"{m['change_median']:.4g} {m['unit']} ({100 * m['rel_change']:+.1f}%), "
            f"parent IQR {m['parent_iqr']:.3g} {m['unit']}"
            for name, w in workloads.items() for metric, m in w["metrics"].items()
            if m["verdict"] != "within_bound"]


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads, last = {}, None
    for j, name in enumerate(WORKLOADS):
        seeds = range(args.first_seed + j * PAIRS, args.first_seed + (j + 1) * PAIRS)
        pairs = run_pairs(trees, name, seeds)
        workloads[name] = summarize(pairs, seeds)
        last = pairs[-1]["change"]
        print(name, json.dumps(workloads[name]["metrics"]["wall_s"]), flush=True)
    seeds = [s for w in workloads.values() for s in w["seeds"]]
    record = {
        "label": args.label,
        "change": args.summary,
        "claim": "none",
        "method": (f"perfbench/run.py --seconds {BENCHMARK['run_seconds']:g} "
                   f"--trace 0, {PAIRS} alternating parent/change pairs per workload "
                   f"(the side run first alternates), seeds {min(seeds)}-{max(seeds)}, "
                   "run one at a time, each side from its own tree; end-to-end "
                   "times are reference-normalized seconds; parent_iqr is the "
                   "75th minus the 25th percentile (linear interpolation) of "
                   "the parent's runs"),
        "machine": machine(last),
        "workloads": workloads,
    }
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        record["claim"] = claim_text(claim_workload, claim_metric,
                                     workloads[claim_workload])
        record["claim_check"] = {
            "workload": claim_workload, "metric": claim_metric,
            **claim_check(workloads[claim_workload], claim_metric)}
    for name in WORKLOADS if args.traced_pairs else ():
        pairs = run_pairs(trees, name, [TRACED_SEED] * args.traced_pairs, 1)
        record[f"traced_{name}_seed{TRACED_SEED}"] = {
            "method": (f"perfbench/run.py --workload {name} --seed "
                       f"{TRACED_SEED} --trace 1, {args.traced_pairs} "
                       "alternating pairs; raw seconds"),
            **summarize_traced(pairs)}
    out = args.out or trees["change"] / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print("\n".join(verdict_lines(workloads)) or "every metric within its bound")
    if args.claim:
        print(record["claim"])
        print("claim holds" if record["claim_check"]["holds"] else "claim does not hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

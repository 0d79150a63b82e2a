"""Parent/change output check: runs medsens simulate, fit, effects and sens
in two source trees and compares every file they write.

In each tree the commands run as subprocesses with that tree's src/ on
PYTHONPATH and every BLAS thread pool pinned to one thread, in a scratch
directory of their own. The configs are fixed: simulate draws --n rows of
the demo scenario (demo_params) with mediator-outcome confounding at
rho = 0.3; fit, effects (all five effects, marginal and at four
profiles) and sens read that data, and sens runs three scans, one per
confounding kind, once on a 21-point grid and once on the default grid.
fit runs once more on that data rewritten with "\r\n" line ends
(data_crlf.csv), so the CSV line count's "\r" branch is compared too.
Two more runs read the same data under other models: effects with every
model block on (effects_full, a 12-column outcome design), and fit with
every block on but outcome_zm and outcome_zmx (fit_no_zm), whose outcome
Hessian is gathered from more columns than the base block [1, x].

Each output file is reported as identical, byte for byte, or else with
the largest difference in each numeric column (CSV) or key (JSON), judged
by the tolerance rule for outputs versus the parent: estimates, CI
bounds and simulate's true effects within 1e-9 absolute, SEs within 1e-8
relative, and data.csv, sign_ranges.csv and failures.csv identical.
Other numeric columns are reported but not judged. A different text cell, stdout or stderr, a
missing file or a different exit code is a breach, and the exit status
is 1 on any breach.

Usage (from the root of the change tree):

    python3 scripts/compare_outputs.py --parent ../parent --change . [--n 10000]
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import yaml  # noqa: E402

from medsens import demo_params  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SEED = 20260814
# column or key -> (bound, "abs" or "rel"); the rule for outputs versus the parent
BOUNDS = {**{name: (1e-9, "abs") for name in
             ("estimate", "ci_lower", "ci_upper", "lower", "upper",
              # the keys of truth.json's true_effects_marginal
              "nde", "nie", "te", "nde_total", "nie_pure")},
          "std_error": (1e-8, "rel")}
# fit_crlf's data: simulate's data.csv with "\r\n" line ends
CRLF_DATA = "data_crlf.csv"
IDENTICAL = {"data.csv", CRLF_DATA, "sign_ranges.csv", "failures.csv"}
SCANS = [{"kind": "my", "effect": "nie", "scope": "marginal"},
         {"kind": "zm", "effect": "nde", "scope": "conditional", "profile": "typical"},
         {"kind": "zy", "effect": "te", "scope": "marginal"}]


def configs(n: int) -> dict:
    """Config per run, in run order: {run: (command, config)}."""
    params = demo_params()
    model = {f.name: getattr(params.spec, f.name)
             for f in dataclasses.fields(params.spec)}
    names = params.covariate_names
    simulate = {
        "seed": SEED, "out": "simulate", "model": model,
        "scenario": {"n": n,
                     "covariates": [dataclasses.asdict(c) for c in params.covariates],
                     **{key: getattr(params, key).tolist()
                        for key in ("alpha", "beta", "theta")},
                     "confounding": {"kind": "my", "rho": 0.3}}}
    analysis = {
        "data": "simulate/data.csv", "model": model,
        "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                    "covariates": list(names)},
        "effects": {"types": ["nde", "nie", "te", "nde*", "nie*"],
                    "scopes": ["marginal", "conditional"],
                    "profiles": [{"name": "typical",
                                  "values": {names[0]: "mean", names[1]: 0}},
                                 {"name": "band",
                                  "values": {names[0]: "mean+-sd", names[1]: 1}}]}}
    grid = {"lower": -0.5, "upper": 0.5, "step": 0.05}  # 21 points
    full = dict.fromkeys(model, True)
    return {"simulate": ("simulate", simulate),
            **{run: (run, {**analysis, "out": run}) for run in ("fit", "effects")},
            "fit_crlf": ("fit", {**analysis, "data": CRLF_DATA, "out": "fit_crlf"}),
            # every block on: the 12-column outcome design
            "effects_full": ("effects", {**analysis, "model": full,
                                         "out": "effects_full"}),
            # no z*m: the outcome's Hessian map takes columns beyond [1, x]
            "fit_no_zm": ("fit", {**analysis, "out": "fit_no_zm", "model": {
                **full, "outcome_zm": False, "outcome_zmx": False}}),
            "sens_grid21": ("sens", {**analysis, "out": "sens_grid21",
                                     "scans": [{**s, "grid": grid} for s in SCANS]}),
            "sens_default": ("sens", {**analysis, "out": "sens_default",
                                      "scans": SCANS})}


def run_tree(tree: Path, workdir: Path, n: int) -> dict:
    """Each run's exit code, after running it in workdir with tree's src/."""
    env = {**os.environ, **{var: "1" for var in THREAD_VARS},
           "PYTHONPATH": str(tree.resolve() / "src")}
    workdir.mkdir(parents=True)
    codes = {}
    for run, (command, config) in configs(n).items():
        if config.get("data") == CRLF_DATA:
            data = (workdir / "simulate" / "data.csv").read_bytes()
            (workdir / CRLF_DATA).write_bytes(data.replace(b"\n", b"\r\n"))
        path = workdir / f"{run}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from medsens.cli import main; sys.exit(main(sys.argv[1:]))",
             command, path.name],
            cwd=workdir, env=env, capture_output=True)
        (workdir / f"{run}.stdout").write_bytes(proc.stdout)
        (workdir / f"{run}.stderr").write_bytes(proc.stderr)
        codes[run] = proc.returncode
    return codes


def _number(text):
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _csv_cells(path: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """The header and every (column, cell) in row order."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    return header, [(header[j] if j < len(header) else "<beyond the header>", cell)
                    for row in rows[1:] for j, cell in enumerate(row)]


def _json_cells(value, key: str = "") -> list[tuple[str, object]]:
    """Every leaf as (the key it sits under, value), in document order."""
    if isinstance(value, dict):
        return [cell for k in sorted(value) for cell in _json_cells(value[k], k)]
    if isinstance(value, list):
        return [cell for v in value for cell in _json_cells(v, key)] + [
            (f"<length of {key}>", len(value))]
    return [(key, value)]


def compare_file(parent: Path, change: Path) -> tuple[list[str], bool]:
    """Report lines for one output file, and whether it breaches the rule:
    every column (or JSON key) that differs, with its largest difference."""
    if parent.read_bytes() == change.read_bytes():
        return ["identical"], False
    if parent.name in IDENTICAL or parent.suffix not in (".csv", ".json"):
        return ["differs; must be identical, BREACH"], True
    if parent.suffix == ".csv":
        (head_a, cells_a), (head_b, cells_b) = _csv_cells(parent), _csv_cells(change)
        if head_a != head_b:
            return [f"header differs: {head_a} vs {head_b}"], True
    else:
        cells_a = _json_cells(json.loads(parent.read_text(encoding="utf-8")))
        cells_b = _json_cells(json.loads(change.read_text(encoding="utf-8")))
    if [c for c, _ in cells_a] != [c for c, _ in cells_b]:
        return ["layout differs (rows, columns or keys)"], True
    largest: dict[str, float] = {}
    lines, breach = [], False
    for (column, a), (_, b) in zip(cells_a, cells_b):
        x, y = _number(a), _number(b)
        if x is None or y is None or isinstance(a, bool) or isinstance(b, bool):
            if a != b:
                lines.append(f"{column}: {a!r} vs {b!r}")
                breach = True
            continue
        diff = abs(x - y)
        if BOUNDS.get(column, (None, "abs"))[1] == "rel":
            diff = diff / abs(x) if x else (0.0 if y == 0 else math.inf)
        largest[column] = max(largest.get(column, 0.0), diff)
    for column, diff in largest.items():
        if not diff:
            continue
        bound, kind = BOUNDS.get(column, (None, "abs"))
        if bound is None:
            verdict = "not judged"
        else:
            verdict = "ok" if diff <= bound else "BREACH"
            breach |= diff > bound
        lines.append(f"{column}: largest {kind} difference {diff:.3g}"
                     + ("" if bound is None else f" (bound {bound:g})") + f", {verdict}")
    return ["differs", *lines], breach


def compare(parent_dir: Path, change_dir: Path, codes: dict) -> tuple[list[str], bool]:
    """Report lines for every run and output file, and whether any breaches."""
    lines, breach = [], False
    for run in configs(1):
        if codes["parent"][run] != codes["change"][run]:
            lines.append(f"{run}: exit code {codes['parent'][run]} (parent) vs "
                         f"{codes['change'][run]} (change), BREACH")
            breach = True
        elif codes["parent"][run]:
            lines.append(f"{run}: exit code {codes['parent'][run]} in both trees")
    files = sorted({p.relative_to(d).as_posix() for d in (parent_dir, change_dir)
                    for p in d.rglob("*") if p.is_file() and p.suffix != ".yaml"})
    for name in files:
        a, b = parent_dir / name, change_dir / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: only in the {'parent' if a.is_file() else 'change'}"
                         " tree, BREACH")
            breach = True
            continue
        report, bad = compare_file(a, b)
        lines.append(f"{name}: {report[0]}")
        lines += [f"    {line}" for line in report[1:]]
        breach |= bad
    return lines, breach


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--n", type=int, default=10_000, help="rows simulated")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        codes = {side: run_tree(getattr(args, side), dirs[side], args.n)
                 for side in dirs}
        lines, breach = compare(dirs["parent"], dirs["change"], codes)
    print("\n".join(lines))
    print("outputs breach the tolerance rule" if breach
          else "outputs within the tolerance rule")
    return 1 if breach else 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads.

A workload makes ``inputs`` inputs from the workload seed in ``setup``.
``run_unit(i)`` runs one unit of work on input ``i`` (the timed part), and
``check`` returns how many of a unit's ops failed and whether its outputs
are correct. Dataset seeds are derived from the workload seed so that
different workload seeds never share a dataset.

Every call into the package goes through a module attribute looked up at
call time (``medsens.cli.main``, ``medsens.run_scan``), so the tracer's
wrappers are used when they are installed. Only public names are used.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import time
from pathlib import Path

import numpy as np
import yaml

import medsens
import medsens.cli

CONFOUNDING_RHO = 0.3
ROLES = {"exposure": "z", "mediator": "m", "outcome": "y"}


def _confounded(params, kind, rho=CONFOUNDING_RHO):
    return dataclasses.replace(params, confounding=(kind, rho))


def _write_config(path: Path, config: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _model_flags(spec) -> dict:
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}


@dataclasses.dataclass
class Unit:
    """What one unit of work left behind for checking and reporting."""

    index: int
    op_spans: list[tuple[float, float]] | None = None
    out_dir: Path | None = None
    exit_code: int = 0
    results: list | None = None


class _CliWorkload:
    """One in-process ``medsens`` command per unit, on input ``i``'s config."""

    command = ""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._calls = 0

    def config(self, i: int) -> Path:
        return self.workdir / f"analysis{i}.yaml"

    def run_unit(self, i: int) -> Unit:
        self._calls += 1
        out = self.workdir / f"out{self._calls}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = medsens.cli.main([self.command, str(self.config(i)),
                                     "--out", str(out)])
        return Unit(index=i, out_dir=out, exit_code=code)

    def out_bytes(self, unit: Unit) -> int:
        return sum(p.stat().st_size for p in unit.out_dir.iterdir() if p.is_file())


class SensCli(_CliWorkload):
    """``medsens sens`` with three scans, one per confounding kind.

    Why: the paper's headline computation. The 21-point grid reaches all
    four Gauss-Legendre bands of the bivariate normal CDF and the three
    scans use all three pair likelihoods. The fit cost of one dataset
    varies by up to 45% from seed to seed, so a run takes three.
    """

    name = "sens_cli"
    command = "sens"
    inputs = 3
    n = 5000
    grid = {"lower": -0.95, "upper": 0.95, "step": 0.1}
    grid_points = 21
    # (kind, effect, scope, profile name)
    scans = (("zm", "nde", "marginal", None),
             ("my", "nie", "marginal", None),
             ("zy", "te", "conditional", "typical"))
    ops_per_unit = grid_points * len(scans)
    expected_spans = ("cli.main", "datamodel.load_csv", "sensitivity.run_scan",
                      "biprobit.fit_constrained", "numkernel.bvn_cdf",
                      "probit.fit_probit", "effects.effect_with_ci",
                      "sensitivity.summaries")

    def setup(self, seed: int) -> None:
        params = _confounded(medsens.demo_params(),
                             medsens.ConfoundingKind.MEDIATOR_OUTCOME)
        self.spec = params.spec
        self.names = params.covariate_names
        for i in range(self.inputs):
            ds = medsens.simulate(params, self.n, seed * self.inputs + i)
            medsens.write_csv(ds, self.workdir / f"data{i}.csv")
            _write_config(self.config(i), {
                "data": f"data{i}.csv",
                "columns": {**ROLES, "covariates": list(self.names)},
                "model": _model_flags(self.spec),
                "alpha": 0.05,
                "effects": {"profiles": [
                    {"name": "typical", "values": {"xcont": "mean", "xbin": 0}}]},
                "scans": [{"kind": k, "effect": e, "scope": s, "grid": self.grid,
                           **({"profile": p} if p else {})}
                          for k, e, s, p in self.scans],
            })
        self._references = {}

    @staticmethod
    def _tag(kind, effect, scope, profile) -> str:
        return "_".join([kind, effect, scope] + ([profile] if profile else []))

    def references(self, i: int) -> dict[str, float]:
        """Each scan's effect on input ``i`` under no confounding, from
        the public API."""
        if i not in self._references:
            roles = medsens.ColumnRoles(**ROLES, covariates=self.names)
            ds = medsens.load_csv(self.workdir / f"data{i}.csv", roles).dataset
            ctx = medsens.unconstrained_context(ds, self.spec)
            means, _ = medsens.covariate_stats(ds)
            typical = medsens.CovariateProfile(
                values=np.array([means[0], 0.0]), name="typical")
            self._references[i] = {
                self._tag(k, e, s, p): medsens.effect_with_ci(
                    medsens.EffectType(e), s, ctx, alpha=0.05,
                    profile=typical if p else None).estimate
                for k, e, s, p in self.scans}
        return self._references[i]

    def check(self, unit: Unit) -> tuple[int, bool]:
        """(failed grid points, outputs correct). A grid point fails when
        its fit did not converge; every point of a scan fails when the
        scan's outputs break an invariant, which also makes them
        incorrect."""
        out = unit.out_dir
        if unit.exit_code != 0:
            return self.ops_per_unit, False
        intervals: dict[str, dict[str, tuple[float, float]]] = {}
        for row in _read_csv(out / "intervals.csv"):
            intervals.setdefault(row["scan"], {})[row["label"]] = (
                float(row["lower"]), float(row["upper"]))
        ranges: dict[str, list[tuple[float, float]]] = {}
        for row in _read_csv(out / "sign_ranges.csv"):
            ranges.setdefault(row["scan"], []).append(
                (float(row["rho_lower"]), float(row["rho_upper"])))
        listed = {(row["scan"], float(row["rho"]))
                  for row in _read_csv(out / "failures.csv")}
        failed, correct, not_converged = 0, True, set()
        for tag, reference in self.references(unit.index).items():
            points = _read_csv(out / f"scan_{tag}.csv")
            converged = [p for p in points if p["converged"] == "true"]
            not_converged |= {(tag, float(p["rho"])) for p in points
                              if p["converged"] != "true"}
            rhos = [float(p["rho"]) for p in converged]
            at_zero = [float(p["estimate"]) for p in converged
                       if float(p["rho"]) == 0.0]
            iset = intervals.get(tag, {}).get("identification_set")
            ui = intervals.get(tag, {}).get("uncertainty_interval")
            tiles = sorted(ranges.get(tag, []))
            ok = (len(points) == self.grid_points
                  and all(abs(v - reference) <= 1e-6 for v in at_zero)
                  and iset is not None and ui is not None
                  and ui[0] <= iset[0] <= iset[1] <= ui[1]
                  and bool(tiles) and tiles[0][0] == rhos[0]
                  and tiles[-1][1] == rhos[-1]
                  and all(a[1] == b[0] for a, b in zip(tiles, tiles[1:])))
            failed += len(points) - len(converged) if ok else self.grid_points
            correct = correct and ok
        if listed != not_converged:
            return self.ops_per_unit, False
        return failed, correct


class EffectsCli(_CliWorkload):
    """``medsens effects`` on a large cohort with the full model.

    Why: the no-sensitivity path, dominated by CSV loading and the three
    probit fits; it never calls the bivariate normal CDF, so Phi2 and
    constrained-fit changes must not move it.
    """

    name = "effects_cli"
    command = "effects"
    inputs = 1
    n = 500_000
    ops_per_unit = n
    types = ("nde", "nie", "te", "nde*", "nie*")
    expected_spans = ("cli.main", "datamodel.load_csv", "probit.fit_unconstrained",
                      "probit.fit_probit", "effects.effect_with_ci")

    @staticmethod
    def params():
        """Two normal, one uniform and one Bernoulli covariate, every
        interaction block on; exposure, mediator and outcome prevalences
        are about 51%, 40% and 45%."""
        covs = (medsens.CovariateSpec("x1", "normal"),
                medsens.CovariateSpec("x2", "normal"),
                medsens.CovariateSpec("x3", "uniform"),
                medsens.CovariateSpec("x4", "bernoulli", mean=0.4))
        return medsens.TrueParams(
            spec=medsens.ModelSpec(), covariates=covs,
            alpha=np.array([-0.3, 0.3, -0.2, 0.4, 0.3]),
            beta=np.array([-0.6, 0.5, 0.2, 0.15, -0.3, 0.25,
                           0.1, -0.1, 0.2, 0.15]),
            theta=np.array([-0.7, 0.3, 0.5, -0.2,
                            0.2, -0.1, 0.3, 0.2,
                            0.1, 0.05, -0.1, 0.1,
                            -0.05, 0.1, 0.1, -0.1,
                            0.05, -0.05, 0.1, 0.05]))

    def config(self, i: int) -> Path:
        return self.workdir / "analysis.yaml"

    def setup(self, seed: int) -> None:
        params = self.params()
        ds = medsens.simulate(params, self.n, seed)
        medsens.write_csv(ds, self.workdir / "data.csv")
        _write_config(self.config(0), {
            "data": "data.csv",
            "columns": {**ROLES, "covariates": list(params.covariate_names)},
            "model": _model_flags(params.spec),
            "alpha": 0.05,
            "effects": {
                "types": list(self.types),
                "scopes": ["marginal", "conditional"],
                "profiles": [
                    {"name": "sweep1",
                     "values": {"x1": "mean+-sd", "x2": "mean", "x3": "mean", "x4": 0}},
                    {"name": "sweep2",
                     "values": {"x1": "mean", "x2": "mean+-sd", "x3": "mean", "x4": 1}},
                ]},
        })

    def check(self, unit: Unit) -> tuple[int, bool]:
        """All rows fail, and the outputs are incorrect, unless both
        decompositions of TE hold to 1e-12 in every (scope, profile)
        group of 7 = 1 marginal + 6 profiles."""
        if unit.exit_code != 0:
            return self.ops_per_unit, False
        groups: dict[tuple[str, str], dict[str, float]] = {}
        for row in _read_csv(unit.out_dir / "effects.csv"):
            groups.setdefault((row["scope"], row["profile"]), {})[row["effect"]] = \
                float(row["estimate"])
        effects = {"nde", "nie", "te", "nde_total", "nie_pure"}
        ok = len(groups) == 7 and all(
            set(g) == effects
            and abs(g["nde"] + g["nie"] - g["te"]) <= 1e-12
            and abs(g["nde_total"] + g["nie_pure"] - g["te"]) <= 1e-12
            for g in groups.values())
        return (0, True) if ok else (self.ops_per_unit, False)


class Replicates:
    """A Monte-Carlo study: one single-point scan per simulated dataset.

    Why: how the acceptance suite and coverage studies use the code. Each
    constrained fit starts cold from the univariate probits and pays its
    own set-up, and the per-fit cost has a heavy tail; 300 replicates
    make its share of the run steadier from seed to seed.
    """

    name = "replicates"
    inputs = 1
    count = 300
    n = 2000
    ops_per_unit = count
    expected_spans = ("sensitivity.run_scan", "biprobit.fit_constrained",
                      "numkernel.bvn_cdf", "probit.fit_probit",
                      "effects.effect_with_ci")

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        base = medsens.demo_params()
        kinds = list(medsens.ConfoundingKind)
        self.spec = base.spec
        self.grid = medsens.RhoGrid.regular(CONFOUNDING_RHO, CONFOUNDING_RHO, 0.1)
        self.datasets = []
        for i in range(self.count):
            kind = kinds[i % len(kinds)]
            ds = medsens.simulate(_confounded(base, kind), self.n,
                                  seed * self.count + i)
            self.datasets.append((kind, ds))

    def run_unit(self, i: int) -> Unit:
        spans, results = [], []
        clock = time.perf_counter
        for kind, ds in self.datasets:
            t0 = clock()
            try:
                scan = medsens.run_scan(kind, medsens.EffectType.NIE, "marginal",
                                        self.grid, ds, self.spec)
            except medsens.MedsensError:
                scan = None
            spans.append((t0, clock()))
            results.append(scan)
        return Unit(index=i, op_spans=spans, results=results)

    def _first_size(self, kind, names) -> int:
        first = (medsens.mediator_terms if kind is medsens.ConfoundingKind.MEDIATOR_OUTCOME
                 else medsens.exposure_terms)
        return len(first(self.spec, names))

    def check(self, unit: Unit) -> tuple[int, bool]:
        """(failed replicates, outputs correct). A replicate fails unless
        its point converged; a converged point whose score, recomputed
        with the public gradient, is not below 1e-6 is also incorrect."""
        failed, correct = 0, True
        for (kind, ds), scan in zip(self.datasets, unit.results):
            pt = scan.points[0] if scan is not None else None
            if pt is None or not pt.converged:
                failed += 1
                continue
            ka = self._first_size(kind, ds.covariate_names)
            ga, gb = medsens.constrained_grad(kind, pt.coefficients[:ka],
                                              pt.coefficients[ka:], pt.rho,
                                              ds, self.spec)
            if not max(np.abs(ga).max(), np.abs(gb).max()) < 1e-6:
                failed += 1
                correct = False
        return failed, correct

    def out_bytes(self, unit: Unit) -> int:
        return 0


WORKLOADS = {w.name: w for w in (SensCli, EffectsCli, Replicates)}

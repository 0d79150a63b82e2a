"""End-to-end command-line interface behavior."""

import argparse
import csv
import json
import math
import re
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from medsens import (ColumnRoles, ConfoundingKind, Dataset, EffectType,
                     demo_params, effect_rows, load_csv, simulate, true_effects,
                     write_csv)
import medsens.cli
from medsens.cli import main
from conftest import confounded_params, write_rows

SCENARIO = {
    "model": {"mediator_zx": False, "outcome_zx": False, "outcome_mx": False,
              "outcome_zmx": False},
    "seed": 20260814,
    "scenario": {
        "n": 800,
        "covariates": [
            {"name": "xcont", "dist": "normal"},
            {"name": "xbin", "dist": "bernoulli", "mean": 0.2},
        ],
        "alpha": [-0.50, 0.08, 0.15],
        "beta": [-1.36, 0.35, 0.18, 0.12],
        "theta": [-0.80, 0.25, 0.60, -0.10, 0.20, -0.15],
        "confounding": {"kind": "my", "rho": 0.3},
    },
}


class Plain(str):
    """A config scalar written unquoted, so that a YAML 1.1 reader would
    take 1_0, 0.0_5, 1:30 or 017 for a number and on or yes for a bool."""


class ConfigDumper(yaml.SafeDumper):
    """yaml.SafeDumper that writes a Plain as a plain scalar."""


ConfigDumper.add_representer(Plain, lambda dumper, text: dumper.represent_scalar(
    dumper.resolve(yaml.ScalarNode, text, (True, False)), text))


def write_config(path: Path, obj: dict) -> Path:
    path.write_text(yaml.dump(obj, Dumper=ConfigDumper), encoding="utf-8")
    return path


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One simulated dataset shared by the analysis commands."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "sim.yaml", {**SCENARIO,
                                           "out": str(root / "simout")})
    assert main(["simulate", str(cfg)]) == 0
    return root


def analysis_config(root: Path, out: str, **extra) -> Path:
    obj = {
        "data": str(root / "simout" / "data.csv"),
        "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                    "covariates": ["xcont", "xbin"]},
        "model": SCENARIO["model"],
        "out": str(root / out),
        **extra,
    }
    return write_config(root / f"{out}.yaml", obj)


ROLES = {"exposure": "z", "mediator": "m", "outcome": "y"}
TYPICAL = {"xcont": "mean", "xbin": 0}


def scenario(**changes) -> dict:
    """SCENARIO's scenario section with ``changes``; "DROP" removes a key."""
    merged = {**SCENARIO["scenario"], **changes}
    return {"scenario": {k: v for k, v in merged.items() if v != "DROP"}}


def profiles(*entries) -> dict:
    return {"effects": {"profiles": list(entries)}}


class TestSimulate:
    def test_outputs_exist_and_load(self, workdir):
        out = workdir / "simout"
        assert (out / "data.csv").exists()
        roles = ColumnRoles("z", "m", "y", ("xcont", "xbin"))
        res = load_csv(out / "data.csv", roles)
        assert res.dataset.n == 800
        assert res.dropped == 0

    def test_truth_sidecar_matches_library(self, workdir):
        truth = json.loads((workdir / "simout" / "truth.json").read_text())
        assert truth["n"] == 800
        assert truth["seed"] == 20260814
        assert truth["confounding"] == {"kind": "my", "rho": 0.3}
        roles = ColumnRoles("z", "m", "y", ("xcont", "xbin"))
        ds = load_csv(workdir / "simout" / "data.csv", roles).dataset
        params = confounded_params(ConfoundingKind.MEDIATOR_OUTCOME, 0.3)
        expect = true_effects(params, ds)
        for et, val in expect.items():
            assert truth["true_effects_marginal"][et.value] == pytest.approx(
                val, abs=1e-12)

    def test_outputs_past_one_write_chunk(self, tmp_path):
        # the chunked write_csv against the row writer, and the truth
        # sidecar against effect_rows, on n = one write chunk plus a row
        n = medsens.datamodel._WRITE_CHUNK + 1
        cfg = write_config(tmp_path / "sim.yaml", {
            **SCENARIO, **scenario(n=n), "out": str(tmp_path / "big")})
        assert main(["simulate", str(cfg)]) == 0
        params = confounded_params(ConfoundingKind.MEDIATOR_OUTCOME, 0.3)
        ds = simulate(params, n, SCENARIO["seed"])
        write_rows(ds, tmp_path / "rows.csv")
        assert (tmp_path / "big" / "data.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()
        truth = json.loads((tmp_path / "big" / "truth.json").read_text())
        assert truth["true_effects_marginal"] == {
            et.value: float(effect_rows(et, params.theta, params.beta, ds.x,
                                        params.spec)[0].mean())
            for et in EffectType}

    def test_seed_flag_changes_data(self, workdir, tmp_path):
        cfg = write_config(tmp_path / "sim.yaml",
                           {**SCENARIO, "out": str(tmp_path / "a")})
        assert main(["simulate", str(cfg)]) == 0
        assert main(["simulate", str(cfg), "--seed", "1", "--out",
                     str(tmp_path / "c")]) == 0
        assert (tmp_path / "a" / "data.csv").read_bytes() != \
            (tmp_path / "c" / "data.csv").read_bytes()


class TestFit:
    def test_tables_and_exit_code(self, workdir):
        cfg = analysis_config(workdir, "fitout")
        assert main(["fit", str(cfg)]) == 0
        coefs = read_rows(workdir / "fitout" / "coefficients.csv")
        terms = {(r["model"], r["term"]) for r in coefs}
        assert ("mediator", "z") in terms
        assert ("outcome", "z:m") in terms
        assert ("exposure", "xbin") in terms
        conv = read_rows(workdir / "fitout" / "convergence.csv")
        assert all(r["converged"] == "true" for r in conv)
        summary = json.loads((workdir / "fitout" / "summary.json").read_text())
        assert summary["command"] == "fit"
        assert len(summary["coefficients"]) == len(coefs)

    def test_float_cells_roundtrip_at_full_precision(self, workdir):
        coefs = read_rows(workdir / "fitout" / "coefficients.csv")
        for row in coefs:
            val = float(row["estimate"])
            assert repr(val) == row["estimate"]

    def test_separated_data_exits_nonzero(self, tmp_path, capsys):
        # exposure perfectly determined by the covariate
        rng = np.random.default_rng(0)
        xs = rng.normal(size=60)
        lines = ["z,m,y,x"]
        for x in xs:
            z = int(x > 0)
            lines.append(f"{z},{rng.integers(0, 2)},{rng.integers(0, 2)},{x!r}")
        (tmp_path / "sep.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.yaml", {
            "data": str(tmp_path / "sep.csv"),
            "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                        "covariates": ["x"]},
            "out": str(tmp_path / "out"),
        })
        assert main(["fit", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err


class TestEffects:
    def test_requested_grid_of_effects(self, workdir):
        cfg = analysis_config(
            workdir, "effout",
            alpha=0.05,
            effects={
                "types": ["nde", "nie", "te", "nde*", "nie*"],
                "scopes": ["marginal", "conditional"],
                "profiles": [
                    {"name": "typical", "values": {"xcont": "mean", "xbin": 0}},
                    {"name": "band", "values": {"xcont": "mean+-sd", "xbin": 0}},
                ],
            })
        assert main(["effects", str(cfg)]) == 0
        rows = read_rows(workdir / "effout" / "effects.csv")
        profiles = {r["profile"] for r in rows if r["scope"] == "conditional"}
        assert profiles == {"typical", "band.mean-sd", "band.mean",
                            "band.mean+sd"}
        # 5 effects x (1 marginal + 4 conditional profiles)
        assert len(rows) == 25

    def test_decompositions_sum_to_total(self, workdir):
        rows = read_rows(workdir / "effout" / "effects.csv")
        marg = {r["effect"]: float(r["estimate"]) for r in rows
                if r["scope"] == "marginal"}
        assert marg["nde"] + marg["nie"] == pytest.approx(marg["te"], abs=1e-12)
        assert marg["nde_total"] + marg["nie_pure"] == pytest.approx(
            marg["te"], abs=1e-12)

    def test_json_mirrors_csv(self, workdir):
        rows = read_rows(workdir / "effout" / "effects.csv")
        summary = json.loads((workdir / "effout" / "summary.json").read_text())
        assert len(summary["effects"]) == len(rows)
        for csv_row, json_row in zip(rows, summary["effects"]):
            assert float(csv_row["estimate"]) == json_row["estimate"]
            assert csv_row["effect"] == json_row["effect"]

    def test_profile_flag_and_alpha_override(self, workdir, tmp_path):
        cfg = analysis_config(workdir, "eff2",
                              effects={"types": ["nie"], "scopes": ["conditional"]})
        code = main(["effects", str(cfg), "--out", str(tmp_path / "o"),
                     "--alpha", "0.10", "--profile", "xcont=mean,xbin=1"])
        assert code == 0
        rows = read_rows(tmp_path / "o" / "effects.csv")
        assert [r["profile"] for r in rows] == ["cli1"]
        assert float(rows[0]["alpha"]) == 0.10

    def test_profile_flag_naming_a_covariate_twice_rejected(self, workdir,
                                                            tmp_path, capsys):
        cfg = analysis_config(workdir, "eff5", effects={
            "types": ["nie"], "scopes": ["conditional"]})
        assert main(["effects", str(cfg), "--out", str(tmp_path / "o"),
                     "--profile", "xcont=1,xbin=0,xcont=5"]) == 1
        assert capsys.readouterr().err == (
            "error: --profile 'xcont=1,xbin=0,xcont=5' names covariate "
            "'xcont' twice\n")
        assert not (tmp_path / "o").exists()

    def test_conditional_without_profiles_errors(self, workdir, tmp_path,
                                                 capsys):
        cfg = analysis_config(workdir, "eff3",
                              effects={"types": ["nie"],
                                       "scopes": ["conditional"]})
        assert main(["effects", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "profile" in capsys.readouterr().err

    def test_incomplete_profile_rejected(self, workdir, tmp_path, capsys):
        cfg = analysis_config(
            workdir, "eff4",
            effects={"types": ["nie"], "scopes": ["conditional"],
                     "profiles": [{"name": "p", "values": {"xcont": 0}}]})
        assert main(["effects", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "xbin" in capsys.readouterr().err


class TestSens:
    GRID = {"lower": -0.3, "upper": 0.3, "step": 0.15}

    def test_scan_tables(self, workdir):
        cfg = analysis_config(
            workdir, "sensout",
            scans=[{"kind": "my", "effect": "nie", "scope": "marginal",
                    "grid": self.GRID}])
        assert main(["sens", str(cfg)]) == 0
        pts = read_rows(workdir / "sensout" / "scan_my_nie_marginal.csv")
        assert [float(r["rho"]) for r in pts] == [-0.3, -0.15, 0.0, 0.15, 0.3]
        assert all(r["converged"] == "true" for r in pts)
        intervals = read_rows(workdir / "sensout" / "intervals.csv")
        labels = {r["label"] for r in intervals}
        assert labels == {"identification_set", "uncertainty_interval"}
        ranges = read_rows(workdir / "sensout" / "sign_ranges.csv")
        assert ranges, "at least one classified range"
        failures = read_rows(workdir / "sensout" / "failures.csv")
        assert failures == []

    def test_uncertainty_interval_consistency(self, workdir):
        pts = read_rows(workdir / "sensout" / "scan_my_nie_marginal.csv")
        intervals = read_rows(workdir / "sensout" / "intervals.csv")
        ui = next(r for r in intervals if r["label"] == "uncertainty_interval")
        assert float(ui["lower"]) == min(float(r["ci_lower"]) for r in pts)
        assert float(ui["upper"]) == max(float(r["ci_upper"]) for r in pts)

    def test_json_mirrors_scan_points(self, workdir):
        summary = json.loads((workdir / "sensout" / "summary.json").read_text())
        scan = summary["scans"][0]
        pts = read_rows(workdir / "sensout" / "scan_my_nie_marginal.csv")
        assert len(scan["points"]) == len(pts)
        assert scan["identification_set"]["lower"] <= \
            scan["identification_set"]["upper"]

    def test_kind_and_grid_flags(self, workdir, tmp_path):
        cfg = analysis_config(workdir, "sens4")
        code = main(["sens", str(cfg), "--out", str(tmp_path / "o"),
                     "--kind", "zy", "--grid=-0.2:0.2:0.2"])
        assert code == 0
        pts = read_rows(tmp_path / "o" / "scan_zy_nie_marginal.csv")
        assert [float(r["rho"]) for r in pts] == [-0.2, 0.0, 0.2]

    def test_default_scan_when_config_has_none(self, workdir, tmp_path):
        cfg = analysis_config(workdir, "sens5")
        code = main(["sens", str(cfg), "--out", str(tmp_path / "o"),
                     "--grid", "0.0:0.1:0.1"])
        assert code == 0
        assert (tmp_path / "o" / "scan_my_nie_marginal.csv").exists()

    def test_conditional_scan_by_profile_name(self, workdir, tmp_path):
        cfg = analysis_config(
            workdir, "sens6",
            effects={"profiles": [{"name": "typ",
                                   "values": {"xcont": "mean", "xbin": 0}}]},
            scans=[{"kind": "my", "effect": "nie", "scope": "conditional",
                    "profile": "typ", "grid": "0.0:0.2:0.2"}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "scan_my_nie_conditional_typ.csv").exists()

    def test_scans_sharing_a_tag_rejected_before_fitting(self, workdir,
                                                         tmp_path, capsys):
        # under --kind zy both requests would write scan_zy_nde_marginal.csv
        cfg = analysis_config(workdir, "sens7", scans=[
            {"kind": "zm", "effect": "nde", "scope": "marginal"},
            {"kind": "my", "effect": "nde", "scope": "marginal"}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o"),
                     "--kind", "zy", "--grid", "0.0:0.1:0.1"]) == 1
        assert "zy_nde_marginal" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_profiles_sanitized_to_one_tag_rejected(self, workdir, tmp_path,
                                                    capsys):
        values = {"xcont": "mean", "xbin": 0}
        cfg = analysis_config(
            workdir, "sens8",
            effects={"profiles": [{"name": "a b", "values": values},
                                  {"name": "a-b", "values": values}]},
            scans=[{"kind": "my", "effect": "nie", "scope": "conditional",
                    "profile": name, "grid": "0.0:0.1:0.1"}
                   for name in ("a b", "a-b")])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "my_nie_conditional_a-b" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_both_ends_of_a_sweep_scan_to_their_own_files(self, workdir, tmp_path):
        ends = ("band.mean-sd", "band.mean+sd")
        cfg = analysis_config(
            workdir, "sens10",
            effects={"profiles": [{"name": "band", "values": {
                "xcont": "mean+-sd", "xbin": 0}}]},
            scans=[{"kind": "my", "effect": "nie", "scope": "conditional",
                    "profile": end, "grid": "0.0:0.1:0.1"} for end in ends])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 0
        tags = [f"my_nie_conditional_{end}" for end in ends]
        scans = [(tmp_path / "o" / f"scan_{tag}.csv").read_bytes() for tag in tags]
        assert scans[0] != scans[1]
        rows = read_rows(tmp_path / "o" / "intervals.csv")
        assert [(r["scan"], r["profile"]) for r in rows] == [
            pair for pair in zip(tags, ends) for _ in range(2)]

    def test_subnormal_grid_step_rejected(self, workdir, tmp_path, capsys):
        cfg = analysis_config(workdir, "sens9", scans=[
            {"kind": "my", "effect": "nie", "scope": "marginal",
             "grid": {"lower": -0.5, "upper": 0.5, "step": 5.0e-324}}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad scan grid:")
        assert "at most 10001" in err
        assert not (tmp_path / "o").exists()


class TestRunOutcomes:
    """What a run prints and writes when a scan is abandoned, a probit fit
    stops unconverged or the data CSV drops rows."""

    def test_abandoned_scan_writes_the_other_scans(self, workdir, tmp_path,
                                                   capsys, monkeypatch):
        import medsens.sensitivity as sens_mod
        real = sens_mod.fit_constrained

        def refuse_zy(kind, *args, **kwargs):
            if kind is ConfoundingKind.EXPOSURE_OUTCOME:
                raise medsens.SeparationError("separated")
            return real(kind, *args, **kwargs)
        monkeypatch.setattr(sens_mod, "fit_constrained", refuse_zy)
        cfg = analysis_config(workdir, "abandon", scans=[
            {"kind": "my", "effect": "nie", "grid": "0.0:0.1:0.1"},
            {"kind": "zy", "effect": "te", "grid": "-0.45:0.45:0.05"},
            {"kind": "zm", "effect": "nde", "grid": "0.0:0.1:0.1"}])
        out = tmp_path / "o"
        assert main(["sens", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"sensitivity tables written to {out}\n"
        assert captured.err.startswith(
            "error: scan zy_te_marginal: 19 of 19 grid points failed to converge")
        assert captured.err.endswith("; scan abandoned\n")
        assert captured.err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "failures.csv", "intervals.csv", "scan_my_nie_marginal.csv",
            "scan_zm_nde_marginal.csv", "sign_ranges.csv", "summary.json"]
        failures = read_rows(out / "failures.csv")
        assert {r["scan"] for r in failures} == {"zy_te_marginal"}
        assert [float(r["rho"]) for r in failures] == pytest.approx(
            [-0.45 + 0.05 * i for i in range(19)], abs=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert [s["scan"] for s in summary["scans"]] == [
            "my_nie_marginal", "zm_nde_marginal"]

    def test_unconverged_probit_fit_writes_tables_and_exits_1(
            self, workdir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(medsens.probit, "MAX_ITER", 1)
        cfg = analysis_config(workdir, "unconverged")
        out = tmp_path / "o"
        assert main(["fit", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"fit tables written to {out}\n"
        assert captured.err == "error: at least one probit fit did not converge\n"
        conv = read_rows(out / "convergence.csv")
        assert [r["converged"] for r in conv] == ["false"] * 3
        assert (out / "coefficients.csv").exists()
        assert json.loads((out / "summary.json").read_text())["convergence"][0][
            "converged"] is False

    def test_fit_reports_dropped_rows_before_the_tables(self, workdir, tmp_path,
                                                        capsys):
        lines = (workdir / "simout" / "data.csv").read_text().splitlines()
        for i in (3, 10):
            cells = lines[i].split(",")
            cells[1] = "NA"
            lines[i] = ",".join(cells)
        (tmp_path / "na.csv").write_text("\n".join(lines) + "\n")
        cfg = yaml.safe_load(analysis_config(workdir, "dropped").read_text())
        cfg["data"] = str(tmp_path / "na.csv")
        out = tmp_path / "o"
        assert main(["fit", str(write_config(tmp_path / "c.yaml", cfg)),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"dropped 2 incomplete rows\nfit tables written to {out}\n")
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["n_rows"], summary["dropped_rows"]) == (798, 2)

    def test_overflowing_covariate_named(self, workdir, tmp_path, capsys):
        """A covariate near 1e160, whose squares overflow X'X: an error
        naming the design, and no RuntimeWarning on the way."""
        ds = load_csv(workdir / "simout" / "data.csv",
                      ColumnRoles(**ROLES, covariates=("xcont", "xbin"))).dataset
        huge = Dataset(ds.z, ds.m, ds.y, ds.x * [1e160, 1.0], ds.covariate_names)
        write_csv(huge, tmp_path / "huge.csv")
        cfg = yaml.safe_load(analysis_config(workdir, "huge").read_text())
        cfg["data"] = str(tmp_path / "huge.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fit", str(write_config(tmp_path / "c.yaml", cfg))]) == 1
        assert capsys.readouterr().err == (
            "error: exposure design matrix has a non-finite or overflowing "
            "entry: its X'X is not finite\n")

    def test_constant_covariate_named(self, workdir, tmp_path, capsys):
        """A covariate fixed at 0.1, whose computed std is not exactly 0."""
        lines = (workdir / "simout" / "data.csv").read_text().splitlines()
        lines = [lines[0] + ",dose"] + [line + ",0.1" for line in lines[1:]]
        (tmp_path / "dose.csv").write_text("\n".join(lines) + "\n")
        cfg = yaml.safe_load(analysis_config(workdir, "dose").read_text())
        cfg["data"] = str(tmp_path / "dose.csv")
        cfg["columns"]["covariates"].append("dose")
        out = tmp_path / "o"
        assert main(["fit", str(write_config(tmp_path / "c.yaml", cfg)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: covariate columns with zero variance: ['dose']\n")
        assert not out.exists()


def test_profile_tokens_pin_values_and_names():
    """Every profile token's values and names, from the config and from
    --profile text; xcont has mean 3 and SD sqrt(2.5), xbin 0.5 and 0.5."""
    x = np.array([[1.0, 0.0], [2.0, 1.0], [4.0, 0.0], [5.0, 1.0]])
    ds = Dataset([0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 1], x, ("xcont", "xbin"))
    sd = math.sqrt(2.5)
    cfg = profiles(
        {"name": "a", "values": {"xcont": "mean", "xbin": 0}},
        {"name": "b", "values": {"xcont": " Mean+SD ", "xbin": 1}},
        {"name": "c", "values": {"xcont": "mean-sd", "xbin": 0.25}},
        {"name": "d", "values": {"xcont": -1.5, "xbin": "mean±sd"}},
        {"values": {"xcont": "MEAN+-SD", "xbin": "1e0"}})
    args = argparse.Namespace(profile=["xcont=2.5, xbin = mean+sd",
                                       "xcont= mean+-sd ,xbin=-0"])
    got = [(p.name, p.values.tolist())
           for p in medsens.cli._parse_profiles(cfg, ds, args)]
    assert got == [
        ("a", [3.0, 0.0]), ("b", [3.0 + sd, 1.0]), ("c", [3.0 - sd, 0.25]),
        ("d.mean-sd", [-1.5, 0.0]), ("d.mean", [-1.5, 0.5]),
        ("d.mean+sd", [-1.5, 1.0]),
        ("profile5.mean-sd", [3.0 - sd, 1.0]), ("profile5.mean", [3.0, 1.0]),
        ("profile5.mean+sd", [3.0 + sd, 1.0]),
        ("cli1", [2.5, 1.0]),
        ("cli2.mean-sd", [3.0 - sd, -0.0]), ("cli2.mean", [3.0, -0.0]),
        ("cli2.mean+sd", [3.0 + sd, -0.0])]
    flag_only = medsens.cli._parse_profiles({"effects": {}}, ds, args)
    assert [math.copysign(1.0, p.values[1]) for p in flag_only[1:]] == [-1.0] * 3


def test_profiles_read_covariate_stats_once_and_only_for_tokens(monkeypatch):
    x = np.array([[1.0, 0.0], [2.0, 1.0], [4.0, 0.0], [5.0, 1.0]])
    ds = Dataset([0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 1], x, ("xcont", "xbin"))
    calls = []

    def counted(data):
        calls.append(data)
        return medsens.datamodel.covariate_stats(data)
    monkeypatch.setattr(medsens.cli, "covariate_stats", counted)
    numeric = argparse.Namespace(profile=["xcont=2.5,xbin=1", "xcont=-1,xbin=0"])
    assert len(medsens.cli._parse_profiles({"effects": {}}, ds, numeric)) == 2
    assert calls == []
    tokens = argparse.Namespace(profile=["xcont=mean,xbin=1", "xcont=0,xbin=mean+-sd",
                                         "xcont=mean-sd,xbin=0"])
    assert len(medsens.cli._parse_profiles({"effects": {}}, ds, tokens)) == 5
    assert calls == [ds]


@pytest.mark.parametrize("command", ["fit", "effects", "sens", "simulate"])
def test_rerun_is_byte_identical(workdir, tmp_path, command):
    if command == "simulate":
        cfg = write_config(tmp_path / "sim.yaml", SCENARIO)
    else:
        cfg = analysis_config(
            workdir, "rerun",
            effects={"types": ["nde", "nie", "te"],
                     "scopes": ["marginal", "conditional"],
                     "profiles": [{"name": "band", "values": {
                         "xcont": "mean+-sd", "xbin": 0}}]},
            scans=[{"kind": "my", "effect": "nie", "scope": "marginal",
                    "grid": TestSens.GRID},
                   {"kind": "zy", "effect": "te", "scope": "conditional",
                    "profile": "band.mean", "grid": "0.0:0.2:0.2"}])
    for run in ("a", "b"):
        assert main([command, str(cfg), "--out", str(tmp_path / run)]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert "summary.json" in names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_csv_cells_with_commas_are_quoted(workdir, tmp_path):
    """A profile or covariate name holding a comma stays one cell: every
    row read back with csv.reader has the header's width."""
    lines = (workdir / "simout" / "data.csv").read_text().splitlines()
    lines[0] = lines[0].replace("xcont", '"age, years"')
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    name = "typical, adjusted"
    cfg = write_config(tmp_path / "c.yaml", {
        "data": str(tmp_path / "data.csv"),
        "columns": {"exposure": "z", "mediator": "m", "outcome": "y",
                    "covariates": ["age, years", "xbin"]},
        "model": SCENARIO["model"],
        "effects": {"types": ["nie"], "scopes": ["conditional"], "profiles": [
            {"name": name, "values": {"age, years": "mean", "xbin": 0}}]},
        "scans": [{"kind": "my", "effect": "nie", "scope": "conditional",
                   "profile": name, "grid": "0.0:0.2:0.2"}]})
    for command in ("fit", "effects", "sens"):
        assert main([command, str(cfg), "--out", str(tmp_path / command)]) == 0
    for path, column, expect in [
            (tmp_path / "fit" / "coefficients.csv", "term", "age, years"),
            (tmp_path / "effects" / "effects.csv", "profile", name),
            (tmp_path / "sens" / "intervals.csv", "profile", name),
            (tmp_path / "sens" / "sign_ranges.csv", "profile", name)]:
        with open(path, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows, path.name
        assert all(len(row) == len(header) for row in rows), path.name
        cells = {row[header.index(column)] for row in rows}
        assert expect in cells, path.name


class TestConfigErrors:
    def test_missing_config_file(self, capsys):
        assert main(["fit", "/nonexistent/cfg.yaml"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", {"bogus": 1})
        assert main(["fit", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("data: [unclosed", encoding="utf-8")
        assert main(["fit", str(path)]) == 1
        assert "YAML" in capsys.readouterr().err

    def test_unknown_effect_type(self, workdir, tmp_path, capsys):
        cfg = analysis_config(workdir, "bad1",
                              effects={"types": ["hazard_ratio"]})
        assert main(["effects", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "hazard_ratio" in capsys.readouterr().err

    def test_bad_alpha(self, workdir, tmp_path, capsys):
        cfg = analysis_config(workdir, "bad2")
        assert main(["effects", str(cfg), "--out", str(tmp_path / "o"),
                     "--alpha", "1.5"]) == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["effects", "sens"])
    @pytest.mark.parametrize("in_config", [True, False])
    def test_alpha_too_small_for_a_wald_quantile(self, tmp_path, capsys,
                                                 command, in_config):
        # 1 - 1e-17/2 rounds to 1; the data file does not exist, so the
        # error must come before any data is read
        cfg = write_config(tmp_path / "c.yaml", {
            "data": str(tmp_path / "missing.csv"),
            "columns": {"exposure": "z", "mediator": "m", "outcome": "y"},
            **({"alpha": 1e-17} if in_config else {})})
        flags = [] if in_config else ["--alpha", "1e-17"]
        assert main([command, str(cfg), "--out", str(tmp_path / "o")]
                    + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alpha 1e-17 is too small")
        assert not (tmp_path / "o").exists()

    def test_bad_grid_string(self, workdir, tmp_path, capsys):
        cfg = analysis_config(workdir, "bad3")
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o"),
                     "--grid", "0:1"]) == 1
        assert "LO:HI:STEP" in capsys.readouterr().err

    def test_unknown_scan_profile_name(self, workdir, tmp_path, capsys):
        cfg = analysis_config(
            workdir, "bad4",
            scans=[{"kind": "my", "effect": "nie", "scope": "conditional",
                    "profile": "ghost"}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "ghost" in capsys.readouterr().err

    def test_missing_data_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml",
                           {"columns": {"exposure": "z", "mediator": "m",
                                        "outcome": "y"}})
        assert main(["fit", str(cfg)]) == 1
        assert "data" in capsys.readouterr().err

    def test_quoted_boolean_model_flag_rejected(self, workdir, tmp_path,
                                                capsys):
        cfg = analysis_config(workdir, "bad5",
                              model={**SCENARIO["model"], "mediator_x": "false"})
        assert main(["fit", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "model.mediator_x" in capsys.readouterr().err

    def test_fractional_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sim.yaml",
                           {**SCENARIO, "seed": 1.5, "out": str(tmp_path / "o")})
        assert main(["simulate", str(cfg)]) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seed,flag", [(-1, None),
                                           (None, str(2**128))])
    def test_seed_outside_key_range_rejected(self, tmp_path, capsys, seed,
                                             flag):
        cfg = write_config(tmp_path / "sim.yaml", {
            **SCENARIO, **({} if seed is None else {"seed": seed}),
            "out": str(tmp_path / "o")})
        argv = ["simulate", str(cfg)] + ([] if flag is None else ["--seed", flag])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: seed must lie in [0, 2**128)")
        assert "Traceback" not in err

    def test_fractional_scenario_size_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sim.yaml", {
            **SCENARIO, "scenario": {**SCENARIO["scenario"], "n": 1.5},
            "out": str(tmp_path / "o")})
        assert main(["simulate", str(cfg)]) == 1
        assert "scenario.n" in capsys.readouterr().err

    def test_quoted_alpha_rejected(self, workdir, tmp_path, capsys):
        cfg = analysis_config(workdir, "bad6", alpha="0.05")
        assert main(["effects", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("lower", "-0.1"), ("upper", "0.1"),
                                           ("step", True)])
    def test_non_numeric_grid_value_rejected(self, workdir, tmp_path, capsys,
                                             key, value):
        grid = {"lower": -0.1, "upper": 0.1, "step": 0.1, key: value}
        cfg = analysis_config(workdir, "bad7", scans=[
            {"kind": "my", "effect": "nie", "scope": "marginal", "grid": grid}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"grid.{key}" in capsys.readouterr().err

    def test_quoted_confounding_rho_rejected(self, tmp_path, capsys):
        scenario = {**SCENARIO["scenario"],
                    "confounding": {"kind": "my", "rho": "0.3"}}
        cfg = write_config(tmp_path / "sim.yaml", {
            **SCENARIO, "scenario": scenario, "out": str(tmp_path / "o")})
        assert main(["simulate", str(cfg)]) == 1
        assert "scenario.confounding.rho" in capsys.readouterr().err

    def test_quoted_covariate_parameter_rejected(self, tmp_path, capsys):
        scenario = {**SCENARIO["scenario"], "covariates": [
            {"name": "xcont", "dist": "normal"},
            {"name": "xbin", "dist": "bernoulli", "mean": "0.2"}]}
        cfg = write_config(tmp_path / "sim.yaml", {
            **SCENARIO, "scenario": scenario, "out": str(tmp_path / "o")})
        assert main(["simulate", str(cfg)]) == 1
        assert "'xbin' mean" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("alpha", [-0.5, "0.08", 0.15]),
                                           ("beta", [-1.36, 0.35, 0.18, True]),
                                           ("theta", 0.5)])
    def test_non_numeric_coefficient_vector_rejected(self, tmp_path, capsys,
                                                     key, value):
        cfg = write_config(tmp_path / "sim.yaml", {
            **SCENARIO, "scenario": {**SCENARIO["scenario"], key: value},
            "out": str(tmp_path / "o")})
        assert main(["simulate", str(cfg)]) == 1
        assert f"scenario.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("fit", "data", 5),
        ("fit", "out", 5),
        ("fit", "delimiter", ";;"),
        ("fit", "delimiter", 5),
        ("sens", "effects", [1]),
        ("effects", "effects.types", "te"),
        ("effects", "effects.scopes", "marginal"),
        ("sens", "effects.profiles", {"name": "p", "values": {}}),
    ])
    def test_mistyped_value_rejected(self, workdir, tmp_path, capsys,
                                     command, key, value):
        section, _, sub = key.partition(".")
        obj = yaml.safe_load(analysis_config(workdir, "bad8").read_text())
        obj[section] = {sub: value} if sub else value
        cfg = write_config(tmp_path / "c.yaml", obj)
        assert main([command, str(cfg)]) == 1
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("effects, message", [
        ({"types": []}, "effects.types must name at least one entry"),
        ({"scopes": []}, "effects.scopes must name at least one entry"),
        ({"types": ["nie", "te", "nie"]}, "entry 'nie' repeats nie"),
        ({"types": ["nde_total", "nde*"]}, "entry 'nde*' repeats nde_total"),
        ({"types": ["nie_pure", "NIE*"]}, "entry 'NIE*' repeats nie_pure"),
    ])
    def test_empty_or_repeated_effect_request_rejected(self, workdir, tmp_path,
                                                       capsys, effects,
                                                       message):
        cfg = analysis_config(workdir, "bad11", effects=effects)
        assert main(["effects", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scope", ["conditionl", 5])
    def test_unknown_scan_scope_rejected(self, workdir, tmp_path, capsys,
                                         scope):
        cfg = analysis_config(workdir, "bad10", scans=[
            {"kind": "my", "effect": "nie", "scope": scope}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "scan scope" in capsys.readouterr().err

    def test_profile_values_must_be_a_mapping(self, workdir, tmp_path, capsys):
        cfg = analysis_config(workdir, "bad9", effects={
            "profiles": [{"name": "p", "values": 5}]})
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "'values' mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "effects", "sens"])
    def test_missing_data_file(self, tmp_path, capsys, command):
        missing = tmp_path / "absent.csv"
        cfg = write_config(tmp_path / "c.yaml", {
            "data": str(missing), "out": str(tmp_path / "o"),
            "columns": {"exposure": "z", "mediator": "m", "outcome": "y"}})
        assert main([command, str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read data file {missing}: ")
        assert not (tmp_path / "o").exists()

    def test_scan_grid_entry_checked_under_grid_flag(self, workdir, tmp_path,
                                                     capsys):
        cfg = analysis_config(workdir, "bad10", scans=[
            {"kind": "my", "effect": "nie", "scope": "marginal",
             "grid": {"bogus": 1}}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o"),
                     "--grid", "0:0.2:0.1"]) == 1
        assert "unknown scans[0].grid keys: ['bogus']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_scan_kind_entry_checked_under_kind_flag(self, workdir, tmp_path,
                                                     capsys):
        cfg = analysis_config(workdir, "bad13", scans=[
            {"kind": "bogus", "effect": "nie", "scope": "marginal"}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o"),
                     "--kind", "my", "--grid", "0:0.2:0.1"]) == 1
        assert "unknown confounding kind 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid,message", [
        ("0.1:oops", "scans[1].grid expects LO:HI:STEP, got '0.1:oops'"),
        ("0.1:x:0.2", "scans[1].grid values must be numeric, got '0.1:x:0.2'"),
        (5, "scans[1].grid must be a mapping or LO:HI:STEP string")])
    def test_scan_grid_entry_errors_name_the_entry(self, workdir, tmp_path,
                                                   capsys, grid, message):
        cfg = analysis_config(workdir, "bad11", scans=[
            {"kind": "zm", "effect": "nie", "scope": "marginal"},
            {"kind": "my", "effect": "nie", "scope": "marginal", "grid": grid}])
        assert main(["sens", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command,key,extra", [
        *((command, "effects.profiles[1].name", {"effects": {
            "scopes": ["conditional"], "profiles": [
                {"name": "typical", "values": {"xcont": "mean", "xbin": 0}},
                {"name": "a\rb", "values": {"xcont": "mean", "xbin": 1}}]}})
          for command in ("effects", "sens")),
        *((command, "columns.covariates entry", {"columns": {
            "exposure": "z", "mediator": "m", "outcome": "y",
            "covariates": ["xcont", "x\rbin"]}})
          for command in ("fit", "effects", "sens")),
        ("simulate", "scenario.covariates[1].name", scenario(covariates=[
            {"name": "xcont", "dist": "normal"},
            {"name": "x\rbin", "dist": "bernoulli", "mean": 0.2}]))])
    def test_carriage_return_in_written_name_rejected(self, workdir, tmp_path,
                                                      capsys, command, key,
                                                      extra):
        cfg = analysis_config(workdir, "bad12", **extra)
        out = tmp_path / "o"
        assert main([command, str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "carriage return" in err
        assert not out.exists()


def test_line_breaks_and_quotes_in_profile_names_are_quoted(workdir, tmp_path):
    name = 'two\nlines, "quoted"'
    cfg = analysis_config(workdir, "quoted", effects={
        "types": ["nie"], "scopes": ["conditional"],
        "profiles": [{"name": name, "values": {"xcont": "mean", "xbin": 0}}]})
    assert main(["effects", str(cfg), "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "effects.csv", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[header.index("profile")] for row in rows] == [name]
    assert all(len(row) == len(header) for row in rows)


def readme_output_table() -> list[tuple[str, str, list[str], str | None]]:
    """(command, file name, columns, summary.json key or None) for each CSV
    row of README's outputs table, with the scan files' <...>[...] tag as
    the {} of the file names in medsens.cli._OUTPUTS."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | files | columns | `summary.json` key |") + 2
    rows, command = [], None
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cmd, files, columns, key = (c.strip() for c in line.strip("|").split("|"))
        command = cmd.strip("`") or command
        name = re.match(r"`([^`]*)`", files).group(1)
        if name.endswith(".csv") and command != "simulate":
            rows.append((command, re.sub(r"<.*[>\]]", "{}", name),
                         columns.split(" (")[0].split(", "),
                         None if key == "—" else key.strip("`")))
    return rows


def test_readme_output_headers_match_writers(workdir, tmp_path):
    rows = readme_output_table()
    assert rows == [(command, *entry) for command, entries in medsens.cli._OUTPUTS.items()
                    for entry in entries]
    cfg = analysis_config(
        workdir, "readme",
        effects={"types": ["nie"], "scopes": ["marginal", "conditional"],
                 "profiles": [{"name": "typ",
                               "values": {"xcont": "mean", "xbin": 0}}]},
        scans=[{"kind": "my", "effect": "nie", "scope": "conditional",
                "profile": "typ", "grid": "0.0:0.1:0.1"}])
    for command in ("fit", "effects", "sens"):
        assert main([command, str(cfg), "--out", str(tmp_path / command)]) == 0
    for command, name, columns, key in rows:
        paths = sorted((tmp_path / command).glob(name.format("*")))
        assert paths, f"{command} wrote no file matching {name}"
        for path in paths:
            header = path.read_text(encoding="utf-8").splitlines()[0]
            assert header.split(",") == columns, path.name
        if key is not None:
            records = json.loads((tmp_path / command / "summary.json").read_text())[key]
            assert records and all(sorted(r) == sorted(columns) for r in records), key


# One bad config per place the CLI raises ConfigError: (command, config,
# flags, text the error line must hold). ``config`` is merged into the analysis
# config, or into SCENARIO for simulate; a string is the config file's
# text, and None names a config file that does not exist.
CONFIG_ERRORS = {
    "unknown-top-key": ("fit", {"bogus": 1}, [],
                        "unknown config keys: ['bogus']"),
    "seed-not-integer": ("simulate", {"seed": 1.5}, [],
                         "seed must be an integer, got 1.5"),
    "out-not-string": ("fit", {"out": 5}, [], "out must be a string, got 5"),
    "model-flag-requires": ("fit", {"model": {"mediator_x": False, "mediator_zx": True}},
                            [], "mediator_zx requires mediator_x"),
    "alpha-not-number": ("effects", {"alpha": "0.05"}, [],
                         "alpha must be a number, got '0.05'"),
    "covariate-carriage-return": (
        "fit", {"columns": {**ROLES, "covariates": ["xcont", "x\rbin"]}}, [],
        "columns.covariates entry 'x\\rbin' must not hold a carriage return"),
    "unknown-effect-type": ("effects", {"effects": {"types": ["hazard_ratio"]}},
                            [], "unknown effect type 'hazard_ratio'"),
    "unknown-scan-scope": ("sens", {"scans": [{"scope": "conditionl"}]}, [],
                           "scan scope must be marginal or conditional, "
                           "got 'conditionl' (scans[0].scope)"),
    "grid-flag-underscore": ("sens", {}, ["--grid", "0_0:0.1_0:0.05"],
                             "--grid values must be numeric, got "
                             "'0_0:0.1_0:0.05'"),
    "grid-entry-underscore": ("sens", {"scans": [{"grid": "0:0.1_0:0.05"}]}, [],
                              "scans[0].grid values must be numeric, got "
                              "'0:0.1_0:0.05'"),
    "grid-flag-shape": ("sens", {}, ["--grid", "0:1"],
                        "--grid expects LO:HI:STEP, got '0:1'"),
    "grid-flag-not-numeric": ("sens", {}, ["--grid", "0:x:1"],
                              "--grid values must be numeric, got '0:x:1'"),
    "grid-entry-type": ("sens", {"scans": [{"grid": 5}]}, [],
                        "scans[0].grid must be a mapping or LO:HI:STEP string"),
    "grid-empty": ("sens", {}, ["--grid", "0.5:0.1:0.1"],
                   "bad scan grid: --grid: grid needs -1 <= lower <= upper"),
    "grid-entry-empty": ("sens", {"scans": [{"kind": "zm"}, {"grid": "0.5:0.1:0.1"}]},
                         [], "bad scan grid: scans[1].grid: grid needs -1 <= "
                             "lower <= upper"),
    "config-file-missing": ("fit", None, [], "cannot read config file "),
    "config-not-yaml": ("fit", "data: [unclosed", [],
                        ": not valid YAML: expected ',' or ']', but got "
                        "'<stream end>' at line 1, column 16"),
    "config-not-mapping": ("fit", "- 1\n", [],
                           "config must be a mapping, got [1]"),
    "repeated-key": ("effects", "data: d.csv\nalpha: 0.05\nout: o\nalpha: 0.5\n",
                     [], ": not valid YAML: found repeated key 'alpha' at "
                         "line 4, column 1"),
    "repeated-column-key": ("fit", "columns:\n  exposure: z\n  mediator: m\n"
                                   "  exposure: y\n", [],
                            ": not valid YAML: found repeated key 'exposure' "
                            "at line 4, column 3"),
    "repeated-scan-key": ("sens", "scans: [{kind: my, kind: zy}]\n", [],
                          ": not valid YAML: found repeated key 'kind' at "
                          "line 1, column 20"),
    "alpha-range": ("effects", {}, ["--alpha", "1.5"],
                    "alpha must lie in (0, 1), got 1.5"),
    "alpha-too-small": ("effects", {"alpha": 1e-17}, [],
                        "alpha 1e-17 is too small"),
    "model-not-mapping": ("fit", {"model": [1]}, [],
                          "model must be a mapping, got [1]"),
    "model-flag-not-boolean": ("fit", {"model": {"mediator_x": "false"}}, [],
                               "model.mediator_x must be true or false, "
                               "got 'false'"),
    "columns-not-mapping": ("fit", {"columns": 5}, [],
                            "columns must be a mapping, got 5"),
    "columns-role-not-string": ("fit", {"columns": {**ROLES, "exposure": 1}}, [],
                                "columns.exposure must be a string, got 1"),
    "covariate-name-not-string": (
        "fit", {"columns": {**ROLES, "covariates": ["xcont", 2]}}, [],
        "columns.covariates entry must be a string, got 2"),
    "columns-role-missing": ("fit", {"columns": {"exposure": "z",
                                                 "mediator": "m"}}, [],
                             "columns.outcome is required"),
    "covariates-not-list": ("fit", {"columns": {**ROLES, "covariates": 5}}, [],
                            "columns.covariates must be a list, got 5"),
    "data-missing": ("fit", {"data": "DROP"}, [],
                     "data is required"),
    "delimiter-not-char": ("fit", {"delimiter": ";;"}, [],
                           "delimiter must be a one-character string, "
                           "got ';;'"),
    "data-file-missing": ("fit", {"data": "absent.csv"}, [],
                          "cannot read data file "),
    "profile-token": ("effects", profiles(
        {"name": "p", "values": {"xcont": "median", "xbin": 0}}), [],
        "profile value 'median' is neither numeric"),
    "profile-token-path": ("effects", profiles(
        {"name": "p", "values": {"xcont": 0, "xbin": "median"}}), [],
        "(profile 'p', covariate 'xbin')"),
    "profile-flag-token": ("effects", {}, ["--profile", "xcont=median,xbin=0"],
                           "profile value 'median' is neither numeric nor one "
                           "of ('mean', 'mean-sd', 'mean+sd', 'mean+-sd', "
                           "'mean±sd') (profile 'cli1', covariate 'xcont')"),
    "profile-flag-underscore": ("effects", {}, ["--profile", "xcont=1_0,xbin=0"],
                                "profile value '1_0' is neither numeric nor "
                                "one of ('mean', 'mean-sd', 'mean+sd', "
                                "'mean+-sd', 'mean±sd') (profile 'cli1', "
                                "covariate 'xcont')"),
    "profile-yaml-underscore": ("effects", profiles(
        {"name": "p", "values": {"xcont": Plain("1_0"), "xbin": 0}}), [],
        "profile value '1_0' is neither numeric nor one of ('mean', 'mean-sd', "
        "'mean+sd', 'mean+-sd', 'mean±sd') (profile 'p', covariate 'xcont')"),
    "profile-yaml-sexagesimal": ("effects", profiles(
        {"name": "p", "values": {"xcont": 0, "xbin": Plain("1:30")}}), [],
        "profile value '1:30' is neither numeric nor one of ('mean', 'mean-sd', "
        "'mean+sd', 'mean+-sd', 'mean±sd') (profile 'p', covariate 'xbin')"),
    "alpha-yaml-underscore": ("effects", {"alpha": Plain("0.0_5")}, [],
                              "alpha must be a number, got '0.0_5'"),
    "grid-bound-yaml-sexagesimal": (
        "sens", {"scans": [{"grid": {"lower": Plain("-1:30")}}]}, [],
        "scans[0].grid.lower must be a number, got '-1:30'"),
    "scenario-size-yaml-underscore": ("simulate", scenario(n=Plain("1_000")), [],
                                      "scenario.n must be an integer, got '1_000'"),
    "column-named-on": ("fit", {"columns": {**ROLES, "mediator": Plain("on")}},
                        [], "mapped columns not in header: ['on']"),
    "model-flag-yaml-yes": ("fit", {"model": {"exposure_x": Plain("yes")}}, [],
                            "model.exposure_x must be true or false, got 'yes'"),
    "profile-non-ascii-digit": ("effects", profiles(
        {"name": "p", "values": {"xcont": "\u0663", "xbin": 0}}), [],
        "profile value '\u0663' is neither numeric"),
    "profile-name-not-string": ("effects", profiles(
        {"name": 0.5, "values": TYPICAL}), [],
        "effects.profiles[0].name must be a string, got 0.5"),
    "profile-incomplete": ("effects", profiles(
        {"name": "p", "values": {"xcont": 0}}), [],
        "profile 'p' must assign exactly the covariates"),
    "profile-two-sweeps": ("effects", profiles(
        {"name": "p", "values": {"xcont": "mean+-sd", "xbin": "mean+-sd"}}),
        [], "profile 'p' sweeps more than one covariate"),
    "effects-not-mapping": ("effects", {"effects": [1]}, [],
                            "effects must be a mapping, got [1]"),
    "effects-types-not-list": ("effects", {"effects": {"types": "te"}}, [],
                               "effects.types must be a list, got 'te'"),
    "profile-values-not-mapping": ("sens", profiles(
        {"name": "p", "values": 5}), [],
        "effects.profiles[0].values must be a 'values' mapping, got 5"),
    "profile-flag-pair": ("effects", {}, ["--profile", "xcont"],
                          "--profile expects NAME=VALUE pairs, got 'xcont'"),
    "profile-flag-repeat": ("effects", {},
                            ["--profile", "xcont=1,xbin=0,xcont=5"],
                            "--profile 'xcont=1,xbin=0,xcont=5' names "
                            "covariate 'xcont' twice"),
    "profile-names-repeat": ("effects", profiles(
        {"name": "p", "values": TYPICAL}, {"name": "p", "values": TYPICAL}),
        [], "profile names must be distinct"),
    "effects-types-empty": ("effects", {"effects": {"types": []}}, [],
                            "effects.types must name at least one entry"),
    "effects-types-repeat": ("effects", {"effects": {"types": ["nie", "nie"]}},
                             [], "effects.types entry 'nie' repeats nie"),
    "effects-scope-unknown": ("effects", {"effects": {"scopes": ["joint"]}},
                              [], "effects.scopes entries must be marginal "
                                  "or conditional, got 'joint'"),
    "conditional-without-profiles": (
        "effects", {"effects": {"scopes": ["conditional"]}}, [],
        "conditional effects requested but no profiles given"),
    "scans-not-list": ("sens", {"scans": {"kind": "my"}}, [],
                       "scans must be a list, got {'kind': 'my'}"),
    "scan-not-mapping": ("sens", {"scans": [5]}, [],
                         "scans[0] must be a mapping, got 5"),
    "scan-profile-missing": ("sens", {"scans": [{"scope": "conditional"}]}, [],
                             "scans[0].profile is required for a "
                             "conditional scan"),
    "scan-profile-not-string": ("sens", {"scans": [{"scope": "conditional",
                                                    "profile": 1}]}, [],
                                "scans[0].profile must be a string, got 1"),
    "scan-profile-unknown": ("sens", {"scans": [{"scope": "conditional",
                                                 "profile": "ghost"}]}, [],
                             "scan profile 'ghost' not found"),
    "scan-tags-repeat": ("sens", {"scans": [{"kind": "my"}, {"kind": "my"}]},
                         [], "scan requests share the output tag(s) "
                             "['my_nie_marginal']"),
    "scenario-not-mapping": ("simulate", {"scenario": 5}, [],
                             "scenario must be a mapping, got 5"),
    "scenario-size-missing": ("simulate", scenario(n="DROP"), [],
                              "scenario.n is required"),
    "scenario-covariate-name-not-string": ("simulate", scenario(covariates=[
        {"name": 1, "dist": "normal"}]), [],
        "scenario.covariates[0].name must be a string, got 1"),
    "scenario-covariate-no-dist": ("simulate", scenario(covariates=[
        {"name": "xcont"}]), [],
        "scenario.covariates[0] 'xcont' dist is required"),
    "confounding-no-rho": ("simulate", scenario(confounding={"kind": "my"}),
                           [], "scenario.confounding.rho is required"),
    "coefficients-missing": ("simulate", scenario(alpha="DROP"), [],
                             "scenario.alpha is required"),
}


def base_config(workdir: Path, command: str) -> dict:
    """SCENARIO for simulate, else the analysis config."""
    if command == "simulate":
        return dict(SCENARIO)
    return yaml.safe_load(analysis_config(workdir, "base").read_text())


def assert_config_error(workdir, tmp_path, capsys, command, config, flags,
                        expect):
    """``config`` (see CONFIG_ERRORS) exits 1 with one ``error:`` line
    holding ``expect`` as its only stderr, and no output directory."""
    path = tmp_path / "c.yaml"
    if isinstance(config, str):
        path.write_text(config, encoding="utf-8")
    elif config is not None:
        obj = {**base_config(workdir, command), **config}
        write_config(path, {k: v for k, v in obj.items() if v != "DROP"})
    out = tmp_path / "o"
    assert main([command, str(path), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    first, newline, rest = err.partition("\n")
    assert first.startswith("error: ") and expect in first
    assert newline and not rest
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_corpus(workdir, tmp_path, capsys, case):
    assert_config_error(workdir, tmp_path, capsys, *CONFIG_ERRORS[case])


@pytest.mark.parametrize("text,value", [
    ("017", 17), ("-017", -17), ("0o17", 15), ("0x1A", 26), ("1e3", 1000.0),
    ("-.5", -0.5), (".inf", math.inf), ("1_0", "1_0"), ("0.0_5", "0.0_5"),
    ("1:30", "1:30"), ("0b11", "0b11"), ("true", True), ("False", False),
    ("TRUE", True), ("tRue", "tRue"), ("on", "on"), ("Off", "Off"),
    ("yes", "yes"), ("No", "No")])
def test_config_numbers_are_yaml_core_schema(tmp_path, text, value):
    """Plain scalars resolve as YAML 1.2 core-schema ints, floats and
    booleans: no digit separators, sexagesimal or binary numbers, 017 is
    decimal, and only true and false are booleans."""
    path = write_config(tmp_path / "c.yaml", {"scenario": {"n": Plain(text)}})
    n = medsens.cli._load_config(str(path), argparse.Namespace())["scenario"]["n"]
    assert n == value and type(n) is type(value)


def test_merge_keys_are_not_repeats(tmp_path):
    """A << merge key is no repeated key, and a key beside it overrides the
    merged value, as YAML's merge rule has it."""
    path = tmp_path / "c.yaml"
    path.write_text("scenario:\n  <<: {n: 10, covariates: []}\n  n: 20\n",
                    encoding="utf-8")
    got = medsens.cli._load_config(str(path), argparse.Namespace())["scenario"]
    assert (got["n"], got["covariates"]) == (20, [])


def test_unknown_keys_of_mixed_types_listed(workdir, tmp_path, capsys):
    """Unknown keys that are not all strings still sort into one message."""
    assert_config_error(workdir, tmp_path, capsys, "fit", "1: 2\nbogus: 3\n",
                        [], "unknown config keys: [1, 'bogus']")


@pytest.mark.parametrize("command,config,expect", [
    ("fit", {"model": False}, "model must be a mapping, got False"),
    ("sens", {"scans": 0}, "scans must be a list, got 0"),
    ("sens", {"scans": [{"grid": 0}]},
     "scans[0].grid must be a mapping or LO:HI:STEP string"),
    ("sens", {"scans": [{"grid": False}]},
     "scans[0].grid must be a mapping or LO:HI:STEP string"),
    ("effects", {"effects": []}, "effects must be a mapping, got []"),
    ("fit", {"columns": {**ROLES, "covariates": ""}},
     "columns.covariates must be a list, got ''"),
    ("simulate", scenario(covariates=5),
     "scenario.covariates must be a list, got 5"),
])
def test_falsy_value_of_the_wrong_type_rejected(workdir, tmp_path, capsys,
                                                command, config, expect):
    assert_config_error(workdir, tmp_path, capsys, command, config, [], expect)


def drop_nulls(obj):
    if isinstance(obj, dict):
        return {k: drop_nulls(v) for k, v in obj.items() if v is not None}
    if isinstance(obj, list):
        return [drop_nulls(v) for v in obj]
    return obj


@pytest.mark.parametrize("command,nulls", [
    ("fit", {"out": None, "alpha": None, "seed": None, "delimiter": None,
             "effects": None, "scans": None, "scenario": None,
             "model": {**SCENARIO["model"], "exposure_x": None}}),
    ("effects", {"effects": {"types": None, "scopes": None,
                             "profiles": None}}),
    ("sens", {"scans": [{"kind": None, "effect": None, "scope": None,
                         "profile": None,
                         "grid": {"lower": None, "upper": 0.1, "step": 0.5}}]}),
    ("simulate", {"seed": None, **scenario(confounding=None, covariates=[
        {"name": "xcont", "dist": "normal", "value": None, "low": None,
         "high": None, "mean": None},
        {"name": "xbin", "dist": "bernoulli", "mean": 0.2}])}),
])
def test_null_key_means_its_default(workdir, tmp_path, command, nulls):
    """A config with null keys writes the same bytes as one without them."""
    obj = {**base_config(workdir, command), **nulls}
    for name, config in (("null", obj), ("absent", drop_nulls(obj))):
        cfg = write_config(tmp_path / f"{name}.yaml", config)
        assert main([command, str(cfg), "--out", str(tmp_path / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "null").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "absent").iterdir())
    for name in names:
        assert (tmp_path / "null" / name).read_bytes() == \
            (tmp_path / "absent" / name).read_bytes(), name


# The dotted path of each _SCHEMA section in the docstring's schema block;
# "[]" marks a list of such mappings.
SECTION_PATHS = {
    "config": "", "columns": "columns.", "model": "model.",
    "effects": "effects.", "profile": "effects.profiles[].",
    "scan": "scans[].", "grid": "scans[].grid.", "scenario": "scenario.",
    "covariate": "scenario.covariates[].",
    "confounding": "scenario.confounding."}


def documented_keys(node: dict, prefix: str = "") -> set[str]:
    keys = set()
    for key, value in node.items():
        keys.add(prefix + key)
        subs = ([(v, f"{prefix}{key}[].") for v in value]
                if isinstance(value, list) else [(value, f"{prefix}{key}.")])
        for sub, path in subs:
            if isinstance(sub, dict) and path in SECTION_PATHS.values():
                keys |= documented_keys(sub, path)
    return keys


def test_docstring_schema_matches_key_table():
    doc = medsens.cli.__doc__
    block = doc.split("keys not listed here are rejected):\n\n")[1]
    documented = documented_keys(yaml.safe_load(
        textwrap.dedent(block.split("\n\n")[0])))
    assert set(SECTION_PATHS) == set(medsens.cli._SCHEMA)
    table = {SECTION_PATHS[section] + key
             for section, keys in medsens.cli._SCHEMA.items() for key in keys}
    assert documented == table

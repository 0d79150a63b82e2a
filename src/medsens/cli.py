"""Command-line interface: fit, effects, sens, simulate.

Each subcommand takes one YAML config file as its positional argument;
flags override individual config entries. Outputs are UTF-8 CSV tables
with LF newlines (a cell holding a comma, double quote or newline is quoted)
plus a summary.json mirroring every table, written so that reruns on
identical inputs are byte-identical: floats are emitted with repr (exact
round-trip, always at least full 17-significant-digit fidelity when
needed), JSON keys are sorted, and nothing time-dependent is written.
The last digits of fitted values depend on the BLAS thread count (the
probit products sum in a thread-dependent order), so reruns match byte
for byte only on hosts with the same BLAS threading.

Config schema (keys not listed here are rejected):

    data: path.csv              # relative to the config file
    delimiter: ","
    columns:
      exposure: z
      mediator: m
      outcome: y
      covariates: [age, edu]
    model:                      # optional; all eight flags optional
      exposure_x: true
      mediator_x: true
      mediator_zx: true
      outcome_zm: true
      outcome_x: true
      outcome_zx: true
      outcome_mx: true
      outcome_zmx: true
    alpha: 0.05
    out: medsens_out            # relative to the working directory
    seed: 20260814              # simulate only
    effects:
      types: [nde, nie, te, nde*, nie*]
      scopes: [marginal, conditional]
      profiles:
        - name: typical
          values: {age: mean, edu: 0}       # mean / mean-sd / mean+sd
        - name: band
          values: {age: mean+-sd, edu: 0}   # expands to three profiles
    scans:
      - kind: my                # zm | my | zy
        effect: nie
        scope: marginal         # or conditional with profile: <name>
        grid: {lower: -0.95, upper: 0.95, step: 0.01}
    scenario:                   # simulate only
      n: 5000
      covariates:
        - {name: age, dist: normal}         # constant/uniform/normal/bernoulli
      alpha: [...]
      beta: [...]
      theta: [...]
      confounding: {kind: my, rho: 0.3}     # optional

Model flags must be YAML booleans, seed and scenario.n integers, and
alpha, the grid bounds and step, scenario.confounding.rho, the numeric
fields of scenario covariates and the entries of the scenario coefficient
vectors numbers (a quoted "0.05" is a string); data and out must be
strings, delimiter a one-character string, effects a mapping and its
types, scopes and profiles lists; a value of another type is rejected,
never coerced. effects.types and scopes must not be empty, nor types name
an effect twice (nde* is nde_total). Scans must differ in kind, effect,
scope or profile name: each writes scan_<kind>_<effect>_<scope>[_<profile>].csv.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.special import ndtr

from .biprobit import ConfoundingKind
from .datamodel import (ColumnRoles, CovariateProfile, Dataset, LoadResult,
                        ModelSpec, covariate_stats, exposure_terms, load_csv,
                        mediator_terms, outcome_terms, write_csv)
from .effects import EffectType, effect_with_ci
from .errors import ConfigError, MedsensError, ScanError
from .probit import fit_unconstrained
from .sensitivity import (DEFAULT_GRID_LOWER, DEFAULT_GRID_STEP,
                          DEFAULT_GRID_UPPER, RhoGrid, identification_set,
                          run_scan, sign_ranges, unconstrained_context,
                          uncertainty_interval)
from .simgen import CovariateSpec, TrueParams, simulate, true_effects

_EFFECT_ALIASES = {
    "nde": EffectType.NDE, "nie": EffectType.NIE, "te": EffectType.TE,
    "nde_total": EffectType.NDE_TOTAL, "nie_pure": EffectType.NIE_PURE,
    "nde*": EffectType.NDE_TOTAL, "nie*": EffectType.NIE_PURE,
}
_KINDS = {k.value: k for k in ConfoundingKind}
_IDENTITY = ["scan", "kind", "effect", "scope", "profile"]
_MEAN_TOKENS = ("mean", "mean-sd", "mean+sd", "mean+-sd", "mean±sd")

_TOP_KEYS = {"data", "delimiter", "columns", "model", "alpha", "out",
             "seed", "effects", "scans", "scenario"}


def _fmt(v) -> str:
    """Deterministic plain-text rendering of one cell."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_outputs(cfg: _Config, loaded: LoadResult, command: str, tables,
                   summary: dict) -> Path:
    """Write each (file name, header, rows) table as CSV and summary.json,
    whose envelope (command, n_rows, dropped_rows) is added to ``summary``;
    returns the output directory."""
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
    _write_json(out / "summary.json", {
        "command": command, "n_rows": loaded.dataset.n,
        "dropped_rows": loaded.dropped, **summary})
    return out


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")


def _config_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _config_str(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _config_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _output_name(value, key: str) -> str:
    """A name written into output CSV cells. csv.writer quotes a cell
    holding a line feed but not one holding a carriage return, which
    csv.reader then reads as a line break."""
    name = str(value)
    if "\r" in name:
        raise ConfigError(f"{key} {name!r} must not hold a carriage return")
    return name


def _lookup(table: dict, name, what: str):
    """Case-insensitive lookup of an effect type (_EFFECT_ALIASES) or a
    confounding kind (_KINDS) by name."""
    key = str(name).strip().lower()
    if key not in table:
        raise ConfigError(f"unknown {what} {name!r}; choose from {sorted(table)}")
    return table[key]


def _check_scope(scope, what: str) -> str:
    if scope not in ("marginal", "conditional"):
        raise ConfigError(f"{what} must be marginal or conditional, got {scope!r}")
    return scope


def _parse_grid(spec, where: str) -> RhoGrid:
    """A LO:HI:STEP string or a {lower, upper, step} mapping with the
    package defaults -> RhoGrid; errors name ``where`` the grid came from
    (the --grid flag or a scan's grid entry)."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where} expects LO:HI:STEP, got {spec!r}")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{where} values must be numeric, got {spec!r}") from None
    elif isinstance(spec, dict):
        _reject_unknown(spec, {"lower", "upper", "step"}, where)
        lo, hi, step = (_config_float(spec.get(key, default), f"{where}.{key}")
                        for key, default in (("lower", DEFAULT_GRID_LOWER),
                                             ("upper", DEFAULT_GRID_UPPER),
                                             ("step", DEFAULT_GRID_STEP)))
    else:
        raise ConfigError(f"{where} must be a mapping or LO:HI:STEP string")
    try:
        return RhoGrid.regular(lo, hi, step)
    except ValueError as exc:
        raise ConfigError(f"bad scan grid: {exc}") from None


@dataclass
class _Config:
    """Parsed analysis configuration (one command invocation)."""

    base_dir: Path
    raw: dict
    out_dir: Path
    alpha: float
    seed: int


def _load_config(path_str: str, args) -> _Config:
    path = Path(path_str)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping at the top level")
    _reject_unknown(raw, _TOP_KEYS, "config")

    out = _config_str(raw.get("out", "medsens_out"), "out")
    out = getattr(args, "out", None) or out
    alpha = getattr(args, "alpha", None)
    if alpha is None:
        alpha = _config_float(raw.get("alpha", 0.05), "alpha")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha!r}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ConfigError(f"alpha {alpha!r} is too small: 1 - alpha/2 rounds "
                          "to 1, so the Wald quantile is infinite")

    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _config_int(raw.get("seed", 0), "seed")
    return _Config(base_dir=path.parent, raw=raw, out_dir=Path(out),
                   alpha=alpha, seed=seed)


def _parse_spec(raw: dict) -> ModelSpec:
    model = raw.get("model", {}) or {}
    if not isinstance(model, dict):
        raise ConfigError("model must be a mapping of term flags")
    flags = {f.name for f in ModelSpec.__dataclass_fields__.values()}
    _reject_unknown(model, flags, "model")
    for key, value in model.items():
        if not isinstance(value, bool):
            raise ConfigError(
                f"model.{key} must be true or false, got {value!r}")
    return ModelSpec(**model)


def _parse_roles(raw: dict) -> ColumnRoles:
    cols = raw.get("columns")
    if not isinstance(cols, dict):
        raise ConfigError("config needs a 'columns' mapping with exposure, "
                          "mediator and outcome entries")
    _reject_unknown(cols, {"exposure", "mediator", "outcome", "covariates"},
                    "columns")
    for role in ("exposure", "mediator", "outcome"):
        if role not in cols:
            raise ConfigError(f"columns.{role} is required")
    covs = cols.get("covariates", []) or []
    if not isinstance(covs, (list, tuple)):
        raise ConfigError("columns.covariates must be a list")
    return ColumnRoles(exposure=str(cols["exposure"]),
                       mediator=str(cols["mediator"]),
                       outcome=str(cols["outcome"]),
                       covariates=tuple(_output_name(c, "columns.covariates entry")
                                        for c in covs))


def _load_dataset(cfg: _Config) -> LoadResult:
    raw = cfg.raw
    if "data" not in raw:
        raise ConfigError("config needs a 'data' entry with the CSV path")
    roles = _parse_roles(raw)
    data_path = Path(_config_str(raw["data"], "data"))
    if not data_path.is_absolute():
        data_path = cfg.base_dir / data_path
    delim = raw.get("delimiter", ",")
    if not isinstance(delim, str) or len(delim) != 1:
        raise ConfigError(
            f"delimiter must be a one-character string, got {delim!r}")
    try:
        return load_csv(data_path, roles, delimiter=delim)
    except OSError as exc:
        raise ConfigError(f"cannot read data file {data_path}: {exc}") from None


def _resolve_profile_value(token, mean: float, sd: float) -> list[float]:
    """One covariate's profile entry -> list of concrete values (length
    3 for the mean+-sd sweep, else 1)."""
    if isinstance(token, (int, float)) and not isinstance(token, bool):
        return [float(token)]
    text = str(token).strip().lower().replace("±", "+-")
    if text == "mean":
        return [mean]
    if text == "mean-sd":
        return [mean - sd]
    if text == "mean+sd":
        return [mean + sd]
    if text == "mean+-sd":
        return [mean - sd, mean, mean + sd]
    try:
        return [float(text)]
    except ValueError:
        raise ConfigError(
            f"profile value {token!r} is neither numeric nor one of "
            f"{_MEAN_TOKENS}") from None


def _expand_profile(name: str, values: dict, ds: Dataset) -> list[CovariateProfile]:
    names = ds.covariate_names
    missing = [c for c in names if c not in values]
    extra = [c for c in values if c not in names]
    if missing or extra:
        raise ConfigError(
            f"profile {name!r} must assign exactly the covariates {list(names)}"
            f" (missing {missing}, unknown {extra})")
    means, sds = covariate_stats(ds)
    stats = {c: (means[i], sds[i]) for i, c in enumerate(names)}
    resolved = {c: _resolve_profile_value(values[c], *stats[c]) for c in names}
    sweeps = [c for c in names if len(resolved[c]) > 1]
    if len(sweeps) > 1:
        raise ConfigError(
            f"profile {name!r} sweeps more than one covariate ({sweeps}); "
            "one mean+-sd token per profile")
    if not sweeps:
        vec = np.array([resolved[c][0] for c in names])
        return [CovariateProfile(values=vec, name=name)]
    sweep = sweeps[0]
    out = []
    for val, tag in zip(resolved[sweep], ("mean-sd", "mean", "mean+sd")):
        vec = np.array([val if c == sweep else resolved[c][0] for c in names])
        out.append(CovariateProfile(values=vec, name=f"{name}.{tag}"))
    return out


def _effects_section(raw: dict) -> dict:
    """The effects mapping with its null entries dropped; types, scopes
    and profiles must be lists."""
    eff = raw.get("effects", {}) or {}
    if not isinstance(eff, dict):
        raise ConfigError(f"effects must be a mapping, got {eff!r}")
    _reject_unknown(eff, {"types", "scopes", "profiles"}, "effects")
    eff = {key: value for key, value in eff.items() if value is not None}
    for key, value in eff.items():
        if not isinstance(value, list):
            raise ConfigError(f"effects.{key} must be a list, got {value!r}")
    return eff


def _parse_profiles(cfg: _Config, ds: Dataset, args) -> list[CovariateProfile]:
    entries = []
    for i, entry in enumerate(_effects_section(cfg.raw).get("profiles", [])):
        if not isinstance(entry, dict) or not isinstance(entry.get("values"), dict):
            raise ConfigError("each profile needs a 'values' mapping")
        _reject_unknown(entry, {"name", "values"}, "profile")
        entries.append((_output_name(entry.get("name", f"profile{i + 1}"),
                                     f"effects.profiles[{i}].name"),
                        entry["values"]))
    for i, text in enumerate(getattr(args, "profile", None) or [], start=1):
        values = {}
        for pair in text.split(","):
            if "=" not in pair:
                raise ConfigError(
                    f"--profile expects NAME=VALUE pairs, got {pair!r}")
            key, val = pair.split("=", 1)
            values[key.strip()] = val.strip()
        entries.append((f"cli{i}", values))
    profiles: list[CovariateProfile] = []
    for name, values in entries:
        profiles.extend(_expand_profile(name, values, ds))
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        raise ConfigError(f"profile names must be distinct, got {names}")
    return profiles


def _fit_tables(ds: Dataset, spec: ModelSpec, fits):
    """Coefficient and convergence rows for the three probit fits."""
    coef_rows, conv_rows = [], []
    for model, terms, fit in (
            ("exposure", exposure_terms(spec, ds.covariate_names), fits.exposure),
            ("mediator", mediator_terms(spec, ds.covariate_names), fits.mediator),
            ("outcome", outcome_terms(spec, ds.covariate_names), fits.outcome)):
        se = np.sqrt(np.diag(fit.covariance))
        for term, est, s in zip(terms, fit.coefficients, se):
            zval = est / s if s > 0 else np.inf
            pval = 2.0 * float(ndtr(-abs(zval)))
            coef_rows.append([model, term, est, s, zval, pval])
        conv_rows.append([model, fit.converged, fit.iterations, fit.loglik,
                          fit.score_norm, ds.n, len(terms)])
    return coef_rows, conv_rows


def cmd_fit(args) -> int:
    cfg = _load_config(args.config, args)
    loaded = _load_dataset(cfg)
    ds = loaded.dataset
    spec = _parse_spec(cfg.raw)
    fits = fit_unconstrained(ds, spec)
    coef_rows, conv_rows = _fit_tables(ds, spec, fits)
    coef_header = ["model", "term", "estimate", "std_error", "z_value", "p_value"]
    conv_header = ["model", "converged", "iterations", "loglik", "score_norm",
                   "n_rows", "n_params"]
    out = _write_outputs(cfg, loaded, "fit", [
        ("coefficients.csv", coef_header, coef_rows),
        ("convergence.csv", conv_header, conv_rows)], {
        "covariates": list(ds.covariate_names),
        "coefficients": [dict(zip(coef_header, row)) for row in coef_rows],
        "convergence": [dict(zip(conv_header, row)) for row in conv_rows],
    })
    if loaded.dropped:
        print(f"dropped {loaded.dropped} incomplete rows")
    print(f"fit tables written to {out}")
    all_converged = all(f.converged for f in (fits.exposure, fits.mediator,
                                              fits.outcome))
    if not all_converged:
        print("error: at least one probit fit did not converge", file=sys.stderr)
        return 1
    return 0


def _requested_effects(cfg: _Config) -> tuple[list[EffectType], list[str]]:
    eff = _effects_section(cfg.raw)
    entries = eff.get("types", ["nde", "nie", "te"])
    types = [_lookup(_EFFECT_ALIASES, t, "effect type") for t in entries]
    scopes = [str(s) for s in eff.get("scopes", ["marginal"])]
    for key, value in (("types", types), ("scopes", scopes)):
        if not value:
            raise ConfigError(f"effects.{key} must name at least one entry")
    for i, (entry, effect_type) in enumerate(zip(entries, types)):
        if effect_type in types[:i]:
            raise ConfigError(f"effects.types entry {entry!r} repeats {effect_type.value}")
    for scope in scopes:
        _check_scope(scope, "effects.scopes entries")
    return types, scopes


def cmd_effects(args) -> int:
    cfg = _load_config(args.config, args)
    loaded = _load_dataset(cfg)
    ds = loaded.dataset
    spec = _parse_spec(cfg.raw)
    types, scopes = _requested_effects(cfg)
    profiles = _parse_profiles(cfg, ds, args)
    if "conditional" in scopes and not profiles:
        raise ConfigError("conditional effects requested but no profiles given")

    ctx = unconstrained_context(ds, spec)
    groups = [("marginal", None)] if "marginal" in scopes else []
    if "conditional" in scopes:
        groups += [("conditional", prof) for prof in profiles]
    rows = []
    for effect_type in types:
        for scope, prof in groups:
            est = effect_with_ci(effect_type, scope, ctx, alpha=cfg.alpha,
                                 profile=prof)
            rows.append([effect_type.value, scope, "" if prof is None else prof.name,
                         est.estimate, est.std_error, est.ci_lower,
                         est.ci_upper, est.alpha])
    header = ["effect", "scope", "profile", "estimate", "std_error",
              "ci_lower", "ci_upper", "alpha"]
    out = _write_outputs(cfg, loaded, "effects", [("effects.csv", header, rows)], {
        "alpha": cfg.alpha,
        "profiles": {p.name: [float(v) for v in p.values] for p in profiles},
        "effects": [dict(zip(header, row)) for row in rows],
    })
    print(f"effect tables written to {out}")
    return 0


def _parse_scan_requests(cfg: _Config, args, profiles) -> list[dict]:
    raw_scans = cfg.raw.get("scans", []) or []
    if not isinstance(raw_scans, list):
        raise ConfigError("scans must be a list of scan request mappings")
    grid_override = getattr(args, "grid", None)
    kind_override = getattr(args, "kind", None)
    if not raw_scans:
        raw_scans = [{"kind": kind_override or "my", "effect": "nie",
                      "scope": "marginal"}]
    requests = []
    by_name = {p.name: p for p in profiles}
    flag_grid = None if grid_override is None else _parse_grid(grid_override, "--grid")
    for i, entry in enumerate(raw_scans):
        if not isinstance(entry, dict):
            raise ConfigError("each scan request must be a mapping")
        _reject_unknown(entry, {"kind", "effect", "scope", "grid", "profile"},
                        "scan")
        kind = _lookup(_KINDS, kind_override or entry.get("kind", "my"),
                       "confounding kind")
        effect = _lookup(_EFFECT_ALIASES, entry.get("effect", "nie"), "effect type")
        scope = _check_scope(entry.get("scope", "marginal"), "scan scope")
        profile = None
        if scope == "conditional":
            pname = entry.get("profile")
            if pname is None:
                raise ConfigError("conditional scans need a profile name")
            if str(pname) not in by_name:
                raise ConfigError(
                    f"scan profile {pname!r} not found among profiles "
                    f"{sorted(by_name)}")
            profile = by_name[str(pname)]
        grid = _parse_grid(entry.get("grid") or {}, f"scans[{i}].grid")
        if flag_grid is not None:
            grid = flag_grid
        requests.append({"kind": kind, "effect": effect, "scope": scope,
                         "profile": profile, "grid": grid})
    return requests


def _scan_tag(req) -> str:
    parts = [req["kind"].value, req["effect"].value, req["scope"]]
    if req["profile"] is not None:
        safe = "".join(c if (c.isalnum() or c in "_.-") else "-"
                       for c in req["profile"].name)
        parts.append(safe)
    return "_".join(parts)


def cmd_sens(args) -> int:
    cfg = _load_config(args.config, args)
    loaded = _load_dataset(cfg)
    ds = loaded.dataset
    spec = _parse_spec(cfg.raw)
    profiles = _parse_profiles(cfg, ds, args)
    requests = _parse_scan_requests(cfg, args, profiles)
    tags = [_scan_tag(req) for req in requests]
    duplicated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if duplicated:
        raise ConfigError(
            f"scan requests share the output tag(s) {duplicated}; each scan "
            "needs its own kind, effect, scope or profile name")

    point_header = ["rho", "estimate", "std_error", "ci_lower", "ci_upper",
                    "converged"]
    tables, interval_rows, range_rows, failure_rows = [], [], [], []
    summary = []
    exit_code = 0
    for req, tag in zip(requests, tags):
        try:
            scan = run_scan(req["kind"], req["effect"], req["scope"],
                            req["grid"], ds, spec, alpha=cfg.alpha,
                            profile=req["profile"])
        except ScanError as exc:
            print(f"error: scan {tag}: {exc}", file=sys.stderr)
            failure_rows.extend([tag, rho] for rho in getattr(exc, "failures", []))
            exit_code = 1
            continue
        rows = []
        for pt in scan.points:
            est = pt.estimate
            cells = (["", "", "", ""] if est is None else
                     [est.estimate, est.std_error, est.ci_lower, est.ci_upper])
            rows.append([pt.rho, *cells, pt.converged])
        tables.append((f"scan_{tag}.csv", point_header, rows))
        iset = identification_set(scan)
        ui = uncertainty_interval(scan)
        ranges = sign_ranges(scan)
        identity = [tag, req["kind"].value, req["effect"].value, req["scope"],
                    req["profile"].name if req["profile"] is not None else ""]
        interval_rows.extend([*identity, res.label, res.lower, res.upper,
                              "" if res.alpha is None else res.alpha]
                             for res in (iset, ui))
        range_rows.extend([*identity, lo, hi, cls.value, ranges.reference_sign]
                          for lo, hi, cls in ranges.ranges)
        failure_rows.extend([tag, rho] for rho in scan.failures)
        summary.append({
            **dict(zip(_IDENTITY, identity)),
            "alpha": cfg.alpha,
            "grid": {"lower": req["grid"].lower, "upper": req["grid"].upper,
                     "step": req["grid"].step,
                     "n_points": len(req["grid"].points)},
            "identification_set": {"lower": iset.lower, "upper": iset.upper},
            "uncertainty_interval": {"lower": ui.lower, "upper": ui.upper},
            "sign_ranges": [{"rho_lower": lo, "rho_upper": hi,
                             "classification": cls.value}
                            for lo, hi, cls in ranges.ranges],
            "reference_sign": ranges.reference_sign,
            "failures": list(scan.failures),
            "warnings": list(scan.warnings) + list(ranges.warnings),
            "points": [dict(zip(point_header, row)) for row in rows],
        })

    out = _write_outputs(cfg, loaded, "sens", tables + [
        ("intervals.csv", [*_IDENTITY, "label", "lower", "upper", "alpha"],
         interval_rows),
        ("sign_ranges.csv", [*_IDENTITY, "rho_lower", "rho_upper",
                             "classification", "reference_sign"], range_rows),
        ("failures.csv", ["scan", "rho"], failure_rows)], {"scans": summary})
    print(f"sensitivity tables written to {out}")
    return exit_code


def _parse_scenario(cfg: _Config) -> tuple[TrueParams, int]:
    raw = cfg.raw.get("scenario")
    if not isinstance(raw, dict):
        raise ConfigError("simulate needs a 'scenario' mapping in the config")
    _reject_unknown(raw, {"n", "covariates", "alpha", "beta", "theta",
                          "confounding"}, "scenario")
    if "n" not in raw:
        raise ConfigError("scenario.n is required")
    n = _config_int(raw["n"], "scenario.n")
    covs = []
    for entry in raw.get("covariates", []) or []:
        if not isinstance(entry, dict) or "name" not in entry or "dist" not in entry:
            raise ConfigError(
                "each scenario covariate needs at least name and dist")
        _reject_unknown(entry, {"name", "dist", "value", "low", "high", "mean"},
                        "scenario covariate")
        covs.append(CovariateSpec(**{
            k: (str(v) if k in ("name", "dist")
                else _config_float(v, f"scenario covariate {entry['name']!r} {k}"))
            for k, v in entry.items()}))
    spec = _parse_spec(cfg.raw)
    conf = None
    if raw.get("confounding") is not None:
        centry = raw["confounding"]
        if not isinstance(centry, dict) or "kind" not in centry or "rho" not in centry:
            raise ConfigError("scenario.confounding needs kind and rho")
        _reject_unknown(centry, {"kind", "rho"}, "confounding")
        conf = (_lookup(_KINDS, centry["kind"], "confounding kind"),
                _config_float(centry["rho"], "scenario.confounding.rho"))
    coefs = {}
    for key in ("alpha", "beta", "theta"):
        if not isinstance(raw.get(key), list):
            raise ConfigError(f"scenario.{key} coefficient vector is required")
        coefs[key] = np.array([_config_float(v, f"scenario.{key}")
                               for v in raw[key]])
    params = TrueParams(spec=spec, covariates=tuple(covs), confounding=conf,
                        **coefs)
    return params, n


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args)
    params, n = _parse_scenario(cfg)
    ds = simulate(params, n, cfg.seed)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv(ds, out / "data.csv")
    effects = {et.value: v for et, v in true_effects(params, ds).items()}
    truth = {
        "n": n,
        "seed": cfg.seed,
        "covariates": [
            {"name": c.name, "dist": c.dist, "value": c.value, "low": c.low,
             "high": c.high, "mean": c.mean} for c in params.covariates],
        "alpha": [float(v) for v in params.alpha],
        "beta": [float(v) for v in params.beta],
        "theta": [float(v) for v in params.theta],
        "confounding": (None if params.confounding is None else
                        {"kind": params.confounding[0].value,
                         "rho": params.confounding[1]}),
        "true_effects_marginal": effects,
        "prevalence": {"z": float(ds.z.mean()), "m": float(ds.m.mean()),
                       "y": float(ds.y.mean())},
    }
    _write_json(out / "truth.json", truth)
    _write_json(out / "summary.json", {"command": "simulate", **truth})
    print(f"simulated dataset written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medsens",
        description="Causal mediation analysis for binary exposure, mediator "
                    "and outcome, with sensitivity analysis to unmeasured "
                    "confounding via fixed error-term correlations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="YAML config file")
        p.add_argument("--out", help="output directory (overrides config)")

    p_fit = sub.add_parser("fit", help="fit the three probit models")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_eff = sub.add_parser("effects", help="estimate effects with Wald CIs")
    common(p_eff)
    p_eff.add_argument("--alpha", type=float, help="CI level (overrides config)")
    p_eff.add_argument("--profile", action="append", metavar="NAME=VALUE,...",
                       help="extra covariate profile; values may be numbers "
                            "or mean / mean-sd / mean+sd / mean+-sd")
    p_eff.set_defaults(func=cmd_effects)

    p_sens = sub.add_parser("sens", help="sensitivity scans over rho grids")
    common(p_sens)
    p_sens.add_argument("--alpha", type=float, help="CI level (overrides config)")
    p_sens.add_argument("--grid", metavar="LO:HI:STEP",
                        help="override every scan's rho grid")
    p_sens.add_argument("--kind", choices=sorted(_KINDS),
                        help="override every scan's confounding kind")
    p_sens.add_argument("--profile", action="append", metavar="NAME=VALUE,...",
                        help="extra covariate profile (see effects)")
    p_sens.set_defaults(func=cmd_sens)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MedsensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

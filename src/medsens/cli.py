"""Command-line interface: fit, effects, sens, simulate.

Each subcommand takes one YAML config file as its positional argument;
flags override individual config entries. Outputs are UTF-8 CSV tables
with LF newlines (a cell holding a comma, double quote or newline is quoted),
each listed in _OUTPUTS with its header and its summary.json key, plus that
summary.json, written so that reruns on identical inputs are
byte-identical: floats are emitted with repr (exact
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
        scope: marginal
        grid: {lower: -0.95, upper: 0.95, step: 0.01}   # or "LO:HI:STEP"
      - {kind: zy, effect: te, scope: conditional, profile: typical}
    scenario:                   # simulate only
      n: 5000
      covariates:               # dist: constant | uniform | normal | bernoulli
        - {name: age, dist: normal}
        - {name: female, dist: bernoulli, mean: 0.5}
        - {name: site, dist: uniform, low: 0.0, high: 1.0}
        - {name: arm, dist: constant, value: 1.0}
      alpha: [...]              # packed coefficients, as in TrueParams
      beta: [...]
      theta: [...]
      confounding: {kind: my, rho: 0.3}     # optional

_SCHEMA gives each key its type and default. A null or absent key takes
the default; any other value must have the key's type or is rejected,
never coerced: a quoted "0.05" is not a number, nor false a mapping, and
every name (a column, covariate, profile or scan profile) is a string.
effects.types and scopes must not be empty, nor types name an effect
twice (nde* is nde_total). Scans must differ in kind, effect, scope or
profile name: each writes scan_<kind>_<effect>_<scope>[_<profile>].csv,
where a profile-name character other than a letter, digit, "_", ".", "+"
or "-" becomes "-". A number given as text (a data CSV cell, a --profile
or quoted profile value, a LO:HI:STEP grid) is ASCII without "_".
Unquoted numbers and booleans follow the YAML 1.2 core schema
(_ConfigLoader): 1_0, 0.0_5 and 1:30 are strings, 017 is 17, and only
true and false (also True, TRUE, False, FALSE) are booleans, so on, off,
yes and no are strings. A mapping that names one key twice, at the top
level or in any section, is refused rather than read as its last value.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import yaml
from scipy.special import ndtr

from .biprobit import ConfoundingKind
from .datamodel import (ColumnRoles, CovariateProfile, Dataset, LoadResult,
                        ModelSpec, _number, covariate_stats, exposure_terms,
                        load_csv, mediator_terms, outcome_terms, write_csv)
from .effects import EffectType, _check_alpha, _marginal_means, effect_with_ci
from .errors import ConfigError, MedsensError, ScanError
from .probit import fit_unconstrained
from .sensitivity import (DEFAULT_GRID_LOWER, DEFAULT_GRID_STEP,
                          DEFAULT_GRID_UPPER, RhoGrid, identification_set,
                          run_scan, sign_ranges, unconstrained_context,
                          uncertainty_interval)
from .simgen import CovariateSpec, TrueParams, simulate, true_effects

_EFFECT_ALIASES = {**{t.value: t for t in EffectType},
                   "nde*": EffectType.NDE_TOTAL, "nie*": EffectType.NIE_PURE}
_KINDS = {k.value: k for k in ConfoundingKind}
_IDENTITY = ["scan", "kind", "effect", "scope", "profile"]
# a multiple of a covariate's SD -> the token that adds it to the mean, which
# also names that end of a mean+-sd sweep
_SD_NAMES = {0: "mean", -1: "mean-sd", 1: "mean+sd"}
# profile token -> the multiples of a covariate's SD it adds to the mean
_SD_STEPS = {**{token: (k,) for k, token in _SD_NAMES.items()}, "mean+-sd": (-1, 0, 1)}
_MEAN_TOKENS = (*_SD_STEPS, "mean±sd")  # ± is read as +-
_SCOPES = ("marginal", "conditional")

# type name -> (what an error says a value must be, test). The exact type()
# tests keep YAML true and false, which are Python ints, from passing as numbers.
_TYPES = {
    "integer": ("an integer", lambda v: type(v) is int),
    "number": ("a number", lambda v: type(v) in (int, float)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "char": ("a one-character string", lambda v: isinstance(v, str) and len(v) == 1),
    "boolean": ("true or false", lambda v: isinstance(v, bool)),
    "list": ("a list", lambda v: isinstance(v, list)),
    "mapping": ("a mapping", lambda v: isinstance(v, dict)),
    "values": ("a 'values' mapping", lambda v: isinstance(v, dict)),
    "free": ("anything", lambda v: True),  # read by a name lookup or _parse_grid
}
_REQUIRED = object()
# section -> key -> (type, default); a null or absent key takes the default.
# fit, effects and sens need data; simulate reads scenario and seed instead.
_SCHEMA = {
    "config": {"data": ("string", None), "delimiter": ("char", ","),
               "columns": ("mapping", {}), "model": ("mapping", {}),
               "alpha": ("number", 0.05), "out": ("string", "medsens_out"),
               "seed": ("integer", 0), "effects": ("mapping", {}),
               "scans": ("list", []), "scenario": ("mapping", {})},
    "columns": {"exposure": ("string", _REQUIRED), "mediator": ("string", _REQUIRED),
                "outcome": ("string", _REQUIRED), "covariates": ("list", [])},
    "model": {f.name: ("boolean", f.default) for f in fields(ModelSpec)},
    "effects": {"types": ("list", ["nde", "nie", "te"]),
                "scopes": ("list", ["marginal"]), "profiles": ("list", [])},
    "profile": {"name": ("string", None), "values": ("values", _REQUIRED)},
    "scan": {"kind": ("free", "my"), "effect": ("free", "nie"),
             "scope": ("free", "marginal"), "profile": ("string", None),
             "grid": ("free", {})},
    "grid": {"lower": ("number", DEFAULT_GRID_LOWER),
             "upper": ("number", DEFAULT_GRID_UPPER),
             "step": ("number", DEFAULT_GRID_STEP)},
    "scenario": {"n": ("integer", _REQUIRED), "covariates": ("list", []),
                 "alpha": ("list", _REQUIRED), "beta": ("list", _REQUIRED),
                 "theta": ("list", _REQUIRED), "confounding": ("mapping", None)},
    "covariate": {"name": ("string", _REQUIRED), "dist": ("string", _REQUIRED),
                  **{f.name: ("number", f.default) for f in fields(CovariateSpec)
                     if f.name not in ("name", "dist")}},
    "confounding": {"kind": ("free", _REQUIRED), "rho": ("number", _REQUIRED)},
}
# command -> the CSV files it writes, in the order of the rows it returns:
# (file name, header, summary.json key its rows are mirrored under, or None).
# scan_{}.csv is one file per scan tag, whose rows sens mirrors as that scan's
# "points" in "scans" instead, beside its intervals, sign ranges and failures.
_OUTPUTS = {
    "fit": (("coefficients.csv", ["model", "term", "estimate", "std_error",
                                  "z_value", "p_value"], "coefficients"),
            ("convergence.csv", ["model", "converged", "iterations", "loglik",
                                 "score_norm", "n_rows", "n_params"], "convergence")),
    "effects": (("effects.csv", ["effect", "scope", "profile", "estimate",
                                 "std_error", "ci_lower", "ci_upper", "alpha"],
                 "effects"),),
    "sens": (("scan_{}.csv", ["rho", "estimate", "std_error", "ci_lower",
                              "ci_upper", "converged"], None),
             ("intervals.csv", [*_IDENTITY, "label", "lower", "upper", "alpha"], None),
             ("sign_ranges.csv", [*_IDENTITY, "rho_lower", "rho_upper",
                                  "classification", "reference_sign"], None),
             ("failures.csv", ["scan", "rho"], None)),
}


def _fmt(v) -> str:
    """Deterministic plain-text rendering of one cell."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _records(header, rows) -> list[dict]:
    """rows as summary.json records keyed by their file's header."""
    return [dict(zip(header, row)) for row in rows]


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _typed(value, kind: str, path: str):
    """``value`` if it has the _TYPES ``kind`` (a number as a float)."""
    what, test = _TYPES[kind]
    if not test(value):
        raise ConfigError(f"{path} must be {what}, got {value!r}")
    return float(value) if kind == "number" else value


def _section(raw, section: str, prefix: str = "") -> dict:
    """Check a config mapping against _SCHEMA[section] and return all of
    the section's keys, each null or absent one as its default. Errors
    name a key as ``prefix + key`` and the mapping as ``prefix`` less its
    trailing separator (the top level as "config")."""
    where = prefix[:-1] or "config"
    _typed(raw, "mapping", where)
    schema = _SCHEMA[section]
    unknown = sorted((key for key in raw if key not in schema), key=str)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {unknown}")
    out = {}
    for key, (kind, default) in schema.items():
        value = raw.get(key)
        if value is None and default is _REQUIRED:
            raise ConfigError(f"{prefix}{key} is required")
        out[key] = default if value is None else _typed(value, kind, prefix + key)
    return out


def _output_name(name, key: str) -> str:
    """A name written into output CSV cells: a string without a carriage
    return. csv.writer quotes a cell holding a line feed but not one holding
    a carriage return, which csv.reader then reads as a line break."""
    _typed(name, "string", key)
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


def _parse_grid(spec, where: str) -> RhoGrid:
    """A LO:HI:STEP string or a {lower, upper, step} mapping with the
    package defaults -> RhoGrid; errors name ``where`` the grid came from
    (the --grid flag or a scan's grid entry)."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{where} expects LO:HI:STEP, got {spec!r}")
        try:
            lo, hi, step = (_number(p) for p in parts)
        except ValueError:
            raise ConfigError(f"{where} values must be numeric, got {spec!r}") from None
    elif isinstance(spec, dict):
        lo, hi, step = _section(spec, "grid", f"{where}.").values()
    else:
        raise ConfigError(f"{where} must be a mapping or LO:HI:STEP string")
    try:
        return RhoGrid.regular(lo, hi, step)
    except ValueError as exc:
        raise ConfigError(f"bad scan grid: {where}: {exc}") from None


class _ConfigLoader(yaml.SafeLoader):
    """yaml.SafeLoader with the YAML 1.2 core schema's plain-scalar bool,
    int and float rules, where YAML 1.1's read unquoted 1_0, 0.0_5, 1:30
    and 017 as 10, 0.05, 90 and 15, and on, off, yes and no as booleans:
    the first three stay strings, 017 is 17, and only true and false (in
    lower, title or upper case) are booleans, so a column named on is the
    string "on". A mapping that repeats a key is refused, as YAML 1.2
    requires, where PyYAML would keep the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found repeated key {key!r}", key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


_BOOL, _INT, _FLOAT, _MERGE = (f"tag:yaml.org,2002:{t}"
                               for t in ("bool", "int", "float", "merge"))
_ConfigLoader.yaml_implicit_resolvers = {
    first: [(tag, rx) for tag, rx in resolvers if tag not in (_BOOL, _INT, _FLOAT)]
    for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()}
_ConfigLoader.add_implicit_resolver(
    _BOOL, re.compile(r"^(?:true|True|TRUE|false|False|FALSE)$"), list("tTfF"))
_ConfigLoader.add_implicit_resolver(
    _INT, re.compile(r"^(?:[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+)$"),
    list("-+0123456789"))
_ConfigLoader.add_implicit_resolver(
    _FLOAT, re.compile(r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
                       r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"),
    list("-+.0123456789"))


def _core_int(loader, node) -> int:
    """A core-schema int: decimal, 0o octal or 0x hexadecimal."""
    text = loader.construct_scalar(node)
    base = {"0o": 8, "0x": 16}.get(text[:2])
    return int(text) if base is None else int(text[2:], base)


_ConfigLoader.add_constructor(_INT, _core_int)


def _load_config(path_str: str, args) -> dict:
    """The config file's top-level section with the command-line flags
    applied, ``data`` taken relative to the config file and ``model`` as a
    ModelSpec."""
    path = Path(path_str)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_ConfigLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except yaml.YAMLError as exc:  # one line: the problem at its mark
        mark = getattr(exc, "problem_mark", None)
        problem = (" ".join(str(exc).split()) if mark is None else
                   f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}")
        raise ConfigError(f"{path}: not valid YAML: {problem}") from None
    cfg = _section({} if raw is None else raw, "config")
    cfg["out"] = Path(getattr(args, "out", None) or cfg["out"])
    for key in ("alpha", "seed"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    try:
        _check_alpha(cfg["alpha"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg["data"] is not None:
        cfg["data"] = path.parent / cfg["data"]
    cfg["model"] = ModelSpec(**_section(cfg["model"], "model", "model."))
    return cfg


def _load_dataset(cfg: dict) -> LoadResult:
    if cfg["data"] is None:
        raise ConfigError("data is required")
    cols = _section(cfg["columns"], "columns", "columns.")
    roles = ColumnRoles(*(cols[r] for r in ("exposure", "mediator", "outcome")),
                        tuple(_output_name(c, "columns.covariates entry")
                              for c in cols["covariates"]))
    try:
        return load_csv(cfg["data"], roles, delimiter=cfg["delimiter"])
    except OSError as exc:
        raise ConfigError(f"cannot read data file {cfg['data']}: {exc}") from None


def _expand_profile(name: str, values: dict, names: tuple[str, ...],
                    stats) -> list[CovariateProfile]:
    """The profiles of one entry; stats() gives the covariates' means and
    SDs, read only for a mean or SD token."""
    missing = [c for c in names if c not in values]
    extra = [c for c in values if c not in names]
    if missing or extra:
        raise ConfigError(
            f"profile {name!r} must assign exactly the covariates {list(names)}"
            f" (missing {missing}, unknown {extra})")
    points = []  # per covariate, its (profile-name suffix, value) at each step
    for j, c in enumerate(names):
        # a number is read from its text too: the repr of a float round-trips
        text = str(values[c]).strip().lower().replace("±", "+-")
        steps = _SD_STEPS.get(text, ())
        if steps:
            mean, sd = (column[j] for column in stats())
            points.append([(f".{_SD_NAMES[k]}" if len(steps) > 1 else "",
                            mean + k * sd if k else mean) for k in steps])
            continue
        try:
            points.append([("", _number(text))])
        except ValueError:
            raise ConfigError(
                f"profile value {values[c]!r} is neither numeric nor one of "
                f"{_MEAN_TOKENS} (profile {name!r}, covariate {c!r})") from None
    sweeps = [c for c, pts in zip(names, points) if len(pts) > 1]
    if len(sweeps) > 1:
        raise ConfigError(
            f"profile {name!r} sweeps more than one covariate ({sweeps}); "
            "one mean+-sd token per profile")
    return [CovariateProfile(np.array([v for _, v in row]),
                             name + "".join(tag for tag, _ in row))
            for row in itertools.product(*points)]


def _parse_profiles(cfg: dict, ds: Dataset, args) -> list[CovariateProfile]:
    entries = []
    effects = _section(cfg["effects"], "effects", "effects.")
    for i, entry in enumerate(effects["profiles"]):
        entry = _section(entry, "profile", f"effects.profiles[{i}].")
        name = f"profile{i + 1}" if entry["name"] is None else entry["name"]
        entries.append((_output_name(name, f"effects.profiles[{i}].name"),
                        entry["values"]))
    for i, text in enumerate(getattr(args, "profile", None) or [], start=1):
        values = {}
        for pair in text.split(","):
            if "=" not in pair:
                raise ConfigError(f"--profile expects NAME=VALUE pairs, got {pair!r}")
            key, val = (part.strip() for part in pair.split("=", 1))
            if key in values:
                raise ConfigError(f"--profile {text!r} names covariate {key!r} twice")
            values[key] = val
        entries.append((f"cli{i}", values))
    stats = functools.cache(lambda: covariate_stats(ds))
    profiles = [profile for name, values in entries
                for profile in _expand_profile(name, values, ds.covariate_names, stats)]
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        raise ConfigError(f"profile names must be distinct, got {names}")
    return profiles


def cmd_fit(cfg: dict, ds: Dataset, args):
    """Coefficient and convergence rows for the three probit fits."""
    spec, names = cfg["model"], ds.covariate_names
    fits = fit_unconstrained(ds, spec)
    models = (("exposure", exposure_terms(spec, names), fits.exposure),
              ("mediator", mediator_terms(spec, names), fits.mediator),
              ("outcome", outcome_terms(spec, names), fits.outcome))
    coef_rows, conv_rows = [], []
    for model, terms, fit in models:
        se = np.sqrt(np.diag(fit.covariance))
        for term, est, s in zip(terms, fit.coefficients, se):
            zval = est / s if s > 0 else np.inf
            pval = 2.0 * float(ndtr(-abs(zval)))
            coef_rows.append([model, term, est, s, zval, pval])
        conv_rows.append([model, fit.converged, fit.iterations, fit.loglik,
                          fit.score_norm, ds.n, len(terms)])
    errors = ([] if all(fit.converged for _, _, fit in models) else
              ["at least one probit fit did not converge"])
    return [coef_rows, conv_rows], {"covariates": list(names)}, errors


def _requested_effects(cfg: dict) -> tuple[list[EffectType], list[str]]:
    eff = _section(cfg["effects"], "effects", "effects.")
    types = [_lookup(_EFFECT_ALIASES, t, "effect type") for t in eff["types"]]
    scopes = [str(s) for s in eff["scopes"]]
    for key, value in (("types", types), ("scopes", scopes)):
        if not value:
            raise ConfigError(f"effects.{key} must name at least one entry")
    for i, (entry, effect_type) in enumerate(zip(eff["types"], types)):
        if effect_type in types[:i]:
            raise ConfigError(f"effects.types entry {entry!r} repeats {effect_type.value}")
    for scope in scopes:
        if scope not in _SCOPES:
            raise ConfigError("effects.scopes entries must be marginal or "
                              f"conditional, got {scope!r}")
    return types, scopes


def cmd_effects(cfg: dict, ds: Dataset, args):
    types, scopes = _requested_effects(cfg)
    profiles = _parse_profiles(cfg, ds, args)
    if "conditional" in scopes and not profiles:
        raise ConfigError("conditional effects requested but no profiles given")

    ctx = unconstrained_context(ds, cfg["model"])
    groups = [("marginal", None)] if "marginal" in scopes else []
    if groups:  # every marginal mean the requested types contrast, in one pass
        _marginal_means(ctx, types)
    if "conditional" in scopes:
        groups += [("conditional", prof) for prof in profiles]
    rows = []
    for effect_type in types:
        for scope, prof in groups:
            est = effect_with_ci(effect_type, scope, ctx, alpha=cfg["alpha"],
                                 profile=prof)
            rows.append([effect_type.value, scope, "" if prof is None else prof.name,
                         est.estimate, est.std_error, est.ci_lower,
                         est.ci_upper, est.alpha])
    return [rows], {
        "alpha": cfg["alpha"],
        "profiles": {p.name: [float(v) for v in p.values] for p in profiles},
    }, []


def _parse_scan_requests(cfg: dict, args, profiles) -> list[dict]:
    flag_grid = getattr(args, "grid", None)
    if flag_grid is not None:
        flag_grid = _parse_grid(flag_grid, "--grid")
    by_name = {p.name: p for p in profiles}
    requests = []
    for i, entry in enumerate(cfg["scans"] or [{}]):
        entry = _section(entry, "scan", f"scans[{i}].")
        # the entry's kind is checked even when --kind replaces it
        kind = _KINDS.get(getattr(args, "kind", None),
                          _lookup(_KINDS, entry["kind"], "confounding kind"))
        effect = _lookup(_EFFECT_ALIASES, entry["effect"], "effect type")
        scope = entry["scope"]
        if scope not in _SCOPES:
            raise ConfigError(f"scan scope must be marginal or conditional, "
                              f"got {scope!r} (scans[{i}].scope)")
        profile = None
        if scope == "conditional":
            if entry["profile"] is None:
                raise ConfigError(f"scans[{i}].profile is required for a conditional scan")
            profile = by_name.get(entry["profile"])
            if profile is None:
                raise ConfigError(f"scan profile {entry['profile']!r} not found among "
                                  f"profiles {sorted(by_name)}")
        grid = _parse_grid(entry["grid"], f"scans[{i}].grid")
        requests.append({"kind": kind, "effect": effect, "scope": scope,
                         "profile": profile,
                         "grid": grid if flag_grid is None else flag_grid})
    return requests


def _scan_tag(req) -> str:
    parts = [req["kind"].value, req["effect"].value, req["scope"]]
    if req["profile"] is not None:
        safe = "".join(c if (c.isalnum() or c in "_.+-") else "-"
                       for c in req["profile"].name)
        parts.append(safe)
    return "_".join(parts)


def cmd_sens(cfg: dict, ds: Dataset, args):
    profiles = _parse_profiles(cfg, ds, args)
    requests = _parse_scan_requests(cfg, args, profiles)
    tags = [_scan_tag(req) for req in requests]
    duplicated = sorted({tag for tag in tags if tags.count(tag) > 1})
    if duplicated:
        raise ConfigError(
            f"scan requests share the output tag(s) {duplicated}; each scan "
            "needs its own kind, effect, scope or profile name")

    point_header = _OUTPUTS["sens"][0][1]  # scan_{}.csv's
    points, interval_rows, range_rows, failure_rows = {}, [], [], []
    summary, errors = [], []
    for req, tag in zip(requests, tags):
        try:
            scan = run_scan(req["kind"], req["effect"], req["scope"],
                            req["grid"], ds, cfg["model"], alpha=cfg["alpha"],
                            profile=req["profile"])
        except ScanError as exc:
            errors.append(f"scan {tag}: {exc}")
            failure_rows.extend([tag, rho] for rho in exc.failures)
            continue
        rows = []
        for pt in scan.points:
            est = pt.estimate
            cells = (["", "", "", ""] if est is None else
                     [est.estimate, est.std_error, est.ci_lower, est.ci_upper])
            rows.append([pt.rho, *cells, pt.converged])
        points[tag] = rows
        intervals = identification_set(scan), uncertainty_interval(scan)
        ranges = sign_ranges(scan)
        identity = [tag, req["kind"].value, req["effect"].value, req["scope"],
                    req["profile"].name if req["profile"] is not None else ""]
        interval_rows.extend([*identity, res.label, res.lower, res.upper,
                              "" if res.alpha is None else res.alpha]
                             for res in intervals)
        range_rows.extend([*identity, lo, hi, cls.value, ranges.reference_sign]
                          for lo, hi, cls in ranges.ranges)
        failure_rows.extend([tag, rho] for rho in scan.failures)
        summary.append({
            **dict(zip(_IDENTITY, identity)),
            "alpha": cfg["alpha"],
            "grid": {"lower": req["grid"].lower, "upper": req["grid"].upper,
                     "step": req["grid"].step,
                     "n_points": len(req["grid"].points)},
            **{res.label: {"lower": res.lower, "upper": res.upper} for res in intervals},
            "sign_ranges": [{"rho_lower": lo, "rho_upper": hi,
                             "classification": cls.value}
                            for lo, hi, cls in ranges.ranges],
            "reference_sign": ranges.reference_sign,
            "failures": list(scan.failures),
            "warnings": list(scan.warnings) + list(ranges.warnings),
            "points": _records(point_header, rows),
        })
    return [points, interval_rows, range_rows, failure_rows], {"scans": summary}, errors


def _run(args) -> int:
    """Run fit, effects or sens: load the config and the dataset, call the
    command for its rows per file of _OUTPUTS (a dict of rows per scan tag
    for scan_{}.csv), its summary fields and its error lines, then write
    the CSVs and summary.json, and report. Exits 1 on any error line."""
    cfg = _load_config(args.config, args)
    loaded = _load_dataset(cfg)
    tables, summary, errors = args.func(cfg, loaded.dataset, args)
    out = cfg["out"]
    out.mkdir(parents=True, exist_ok=True)
    for (name, header, key), rows in zip(_OUTPUTS[args.command], tables, strict=True):
        for tag, tag_rows in (rows.items() if isinstance(rows, dict) else [("", rows)]):
            with open(out / name.format(tag), "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([_fmt(v) for v in row] for row in tag_rows)
        if key is not None:
            summary[key] = _records(header, rows)
    _write_json(out / "summary.json", {
        "command": args.command, "n_rows": loaded.dataset.n,
        "dropped_rows": loaded.dropped, **summary})
    if args.command == "fit" and loaded.dropped:
        print(f"dropped {loaded.dropped} incomplete rows")
    what = {"fit": "fit", "effects": "effect", "sens": "sensitivity"}[args.command]
    print(f"{what} tables written to {out}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


def _parse_scenario(cfg: dict) -> tuple[TrueParams, int]:
    raw = _section(cfg["scenario"], "scenario", "scenario.")
    covs = []
    for i, entry in enumerate(raw["covariates"]):
        # errors name a covariate by its index and, if a string, its name
        name = entry.get("name") if isinstance(entry, dict) else None
        entry = _section(entry, "covariate", f"scenario.covariates[{i}]"
                         + (f" {name!r} " if isinstance(name, str) else "."))
        _output_name(entry["name"], f"scenario.covariates[{i}].name")
        covs.append(CovariateSpec(**entry))
    conf = raw["confounding"]
    if conf is not None:
        conf = _section(conf, "confounding", "scenario.confounding.")
        conf = (_lookup(_KINDS, conf["kind"], "confounding kind"), conf["rho"])
    coefs = {key: [_typed(v, "number", f"scenario.{key}[{j}]")
                   for j, v in enumerate(raw[key])]
             for key in ("alpha", "beta", "theta")}
    params = TrueParams(spec=cfg["model"], covariates=tuple(covs),
                        confounding=conf, **coefs)
    return params, raw["n"]


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args)
    params, n = _parse_scenario(cfg)
    ds = simulate(params, n, cfg["seed"])
    out = cfg["out"]
    out.mkdir(parents=True, exist_ok=True)
    write_csv(ds, out / "data.csv")
    effects = {et.value: v for et, v in true_effects(params, ds).items()}
    truth = {
        "n": n,
        "seed": cfg["seed"],
        "covariates": [asdict(c) for c in params.covariates],
        **{key: getattr(params, key).tolist() for key in ("alpha", "beta", "theta")},
        "confounding": (None if params.confounding is None else
                        {"kind": params.confounding[0].value,
                         "rho": params.confounding[1]}),
        "true_effects_marginal": effects,
        "prevalence": {key: float(getattr(ds, key).mean()) for key in "zmy"},
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
    commands = {}
    for name, func, text in (
            ("fit", cmd_fit, "fit the three probit models"),
            ("effects", cmd_effects, "estimate effects with Wald CIs"),
            ("sens", cmd_sens, "sensitivity scans over rho grids"),
            ("simulate", cmd_simulate, "generate a synthetic dataset")):
        command = commands[name] = sub.add_parser(name, help=text)
        command.set_defaults(func=func)
        command.add_argument("config", help="YAML config file")
        command.add_argument("--out", help="output directory (overrides config)")
    for name in ("effects", "sens"):
        commands[name].add_argument("--alpha", type=float,
                                    help="CI level (overrides config)")
    commands["sens"].add_argument("--grid", metavar="LO:HI:STEP",
                                  help="override every scan's rho grid")
    commands["sens"].add_argument("--kind", choices=sorted(_KINDS),
                                  help="override every scan's confounding kind")
    for name in ("effects", "sens"):
        commands[name].add_argument(
            "--profile", action="append", metavar="NAME=VALUE,...",
            help="extra covariate profile; values may be numbers or mean / "
                 "mean-sd / mean+sd / mean+-sd")
    commands["simulate"].add_argument("--seed", type=int,
                                      help="RNG seed (overrides config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args) if args.command in _OUTPUTS else args.func(args)
    except MedsensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing for the benchmark, done from outside the package.

Each traced function of a ``medsens`` module is replaced by a wrapper that
records a span (name, start, end, parent, attributes). The wrapper is
installed in every ``medsens`` module that holds a binding of the
function, not only in the defining one: ``biprobit`` calls
``bvn_cdf`` through its own ``from .numkernel import bvn_cdf`` binding,
``cli`` calls ``effect_with_ci`` through its own, and so on. Spans are
kept in memory; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

MODULES = ("numkernel", "datamodel", "probit", "biprobit", "effects",
           "simgen", "sensitivity", "cli")

# Gauss-Legendre band of the Genz bivariate normal CDF, by |rho|; the
# limits are those of medsens.numkernel.
BANDS = (("b6", 0.3), ("b12", 0.75), ("b20", 0.925), ("ext", float("inf")))


def _band(rho) -> str:
    absr = float(np.abs(np.asarray(rho, dtype=float)).max(initial=0.0))
    return next(name for name, limit in BANDS if absr < limit)


def _bvn_attrs(a, b, rho):
    return {"rows": int(np.broadcast(a, b, rho).size), "band": _band(rho)}


def _fit_attrs(fit):
    return {"iterations": int(fit.iterations), "converged": bool(fit.converged)}


def _probit_attrs(fit):
    return {"iterations": int(fit.iterations)}


def _load_attrs(loaded):
    return {"rows": int(loaded.dataset.n)}


# (module, function, span name, attributes from the arguments, attributes
# from the result); several functions may share one span name
TARGETS = (
    ("numkernel", "bvn_cdf", "numkernel.bvn_cdf", _bvn_attrs, None),
    ("biprobit", "fit_constrained", "biprobit.fit_constrained", None, _fit_attrs),
    ("probit", "fit_probit", "probit.fit_probit", None, _probit_attrs),
    ("probit", "fit_unconstrained", "probit.fit_unconstrained", None, None),
    ("datamodel", "load_csv", "datamodel.load_csv", None, _load_attrs),
    ("datamodel", "validate_for_fit", "datamodel.validate_for_fit", None, None),
    ("datamodel", "build_exposure_design", "datamodel.design", None, None),
    ("datamodel", "build_mediator_design", "datamodel.design", None, None),
    ("datamodel", "build_outcome_design", "datamodel.design", None, None),
    ("effects", "effect_with_ci", "effects.effect_with_ci", None, None),
    ("sensitivity", "run_scan", "sensitivity.run_scan", None, None),
    ("sensitivity", "identification_set", "sensitivity.summaries", None, None),
    ("sensitivity", "uncertainty_interval", "sensitivity.summaries", None, None),
    ("sensitivity", "sign_ranges", "sensitivity.summaries", None, None),
    ("simgen", "simulate", "simgen.simulate", None, None),
    ("cli", "main", "cli.main", None, None),
)


class TraceError(RuntimeError):
    """The instrumentation does not match the program: a traced function
    is gone or one of its bindings was missed."""


class Tracer:
    """In-memory span recorder; ``installed()`` patches the package."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                attrs.update(after(result))
            return result

        return traced

    def installed(self):
        return _Installed(self)


class _Installed:
    """Context manager that swaps every binding of every target."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple] = []

    def __enter__(self):
        modules = [importlib.import_module(f"medsens.{m}") for m in MODULES]
        bound = [mod for name, mod in sys.modules.items()
                 if name == "medsens" or name.startswith("medsens.")]
        originals = []
        for mod_name, fn_name, span, before, after in TARGETS:
            mod = modules[MODULES.index(mod_name)]
            if not callable(getattr(mod, fn_name, None)):
                self.__exit__(None, None, None)
                raise TraceError(f"medsens.{mod_name}.{fn_name} no longer exists")
            original = getattr(mod, fn_name)
            wrapper = self.tracer._wrap(original, span, before, after)
            originals.append(original)
            for holder in bound:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self.patched.append((holder, attr, original))
        stale = [f"{holder.__name__}.{attr}" for holder in bound
                 for attr, value in vars(holder).items()
                 if any(value is fn for fn in originals)]
        if stale:
            self.__exit__(None, None, None)
            raise TraceError(f"unpatched bindings: {stale}")
        return self.tracer

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self.patched):
            setattr(holder, attr, original)
        self.patched.clear()
        return False


def _self_times(spans) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    Children of one span never overlap here: every workload runs the
    sequential code path, so their durations simply add up.
    """
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    covered = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
    return dur - covered


def _ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return p
        p = spans[p][3]
    return -1


def layer_metrics(spans, setup_spans, out_bytes: int,
                  overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as ``{name: (value, unit)}``, from the spans of
    one unit of work and of one set-up."""
    selfs = _self_times(spans)
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(idx(name)))

    def self_s(name):
        return float(selfs[idx(name)].sum())

    def total_s(name):
        return float(dur[idx(name)].sum())

    def mean_attr(name, key):
        vals = [spans[i][4][key] for i in idx(name)]
        return float(np.mean(vals)) if vals else 0.0

    def per_row_ns(seconds, rows):
        return seconds / rows * 1e9 if rows else 0.0

    out: dict[str, tuple[float, str]] = {}

    bvn = idx("numkernel.bvn_cdf")
    rows = sum(spans[i][4]["rows"] for i in bvn)
    out["numkernel.bvn_cdf.calls"] = (calls("numkernel.bvn_cdf"), "count")
    out["numkernel.bvn_cdf.rows"] = (float(rows), "count")
    out["numkernel.bvn_cdf.self_s"] = (self_s("numkernel.bvn_cdf"), "s")
    out["numkernel.bvn_cdf.ns_per_row"] = (
        per_row_ns(float(selfs[bvn].sum()), rows), "ns")
    for band, _ in BANDS:
        members = [i for i in bvn if spans[i][4]["band"] == band]
        band_rows = sum(spans[i][4]["rows"] for i in members)
        out[f"numkernel.bvn_cdf.rows_{band}"] = (float(band_rows), "count")
        out[f"numkernel.bvn_cdf.ns_per_row_{band}"] = (
            per_row_ns(float(selfs[members].sum()), band_rows), "ns")

    fits = idx("biprobit.fit_constrained")
    bvn_in_fit = {i: 0 for i in fits}
    for i in bvn:
        owner = _ancestor(spans, i, "biprobit.fit_constrained")
        if owner >= 0:
            bvn_in_fit[owner] += 1
    per_fit = list(bvn_in_fit.values())
    out["biprobit.fit_constrained.calls"] = (calls("biprobit.fit_constrained"), "count")
    out["biprobit.fit_constrained.total_s"] = (total_s("biprobit.fit_constrained"), "s")
    out["biprobit.fit_constrained.self_s"] = (self_s("biprobit.fit_constrained"), "s")
    out["biprobit.fit_constrained.iters_mean"] = (
        mean_attr("biprobit.fit_constrained", "iterations"), "count")
    out["biprobit.fit_constrained.bvn_per_fit"] = (
        float(np.mean(per_fit)) if per_fit else 0.0, "count")
    out["biprobit.fit_constrained.bvn_per_fit_max"] = (
        float(max(per_fit, default=0)), "count")
    out["biprobit.fit_constrained.not_converged"] = (
        float(sum(not spans[i][4]["converged"] for i in fits)), "count")

    out["probit.fit_probit.calls"] = (calls("probit.fit_probit"), "count")
    out["probit.fit_probit.self_s"] = (self_s("probit.fit_probit"), "s")
    out["probit.fit_probit.iters_mean"] = (
        mean_attr("probit.fit_probit", "iterations"), "count")
    out["probit.fit_unconstrained.calls"] = (calls("probit.fit_unconstrained"), "count")
    out["probit.fit_unconstrained.total_s"] = (total_s("probit.fit_unconstrained"), "s")

    loads = idx("datamodel.load_csv")
    load_rows = sum(spans[i][4]["rows"] for i in loads)
    load_self = float(selfs[loads].sum())
    out["datamodel.load_csv.self_s"] = (self_s("datamodel.load_csv"), "s")
    out["datamodel.load_csv.rows_per_s"] = (
        load_rows / load_self if load_self > 0 else 0.0, "1/s")
    for name in ("datamodel.validate_for_fit", "datamodel.design",
                 "effects.effect_with_ci"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")

    out["sensitivity.run_scan.calls"] = (calls("sensitivity.run_scan"), "count")
    out["sensitivity.run_scan.total_s"] = (total_s("sensitivity.run_scan"), "s")
    out["sensitivity.run_scan.self_s"] = (self_s("sensitivity.run_scan"), "s")
    out["sensitivity.summaries.self_s"] = (self_s("sensitivity.summaries"), "s")

    sim = [i for i, s in enumerate(setup_spans) if s[0] == "simgen.simulate"]
    setup_selfs = _self_times(setup_spans)
    out["simgen.simulate.calls"] = (float(len(sim)), "count")
    out["simgen.simulate.self_s"] = (float(setup_selfs[sim].sum()), "s")

    out["cli.main.self_s"] = (self_s("cli.main"), "s")
    out["cli.out_bytes"] = (float(out_bytes), "bytes")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out

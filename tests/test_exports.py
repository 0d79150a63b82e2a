"""The package namespace: what medsens exports is what it binds, and the
names and fields the benchmark reads."""

import ast
import dataclasses
import importlib
import re
import types
from pathlib import Path

import medsens

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_has_no_duplicates():
    assert len(medsens.__all__) == len(set(medsens.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in medsens.__all__ if not hasattr(medsens, name)]
    assert missing == []


def test_every_public_binding_is_listed():
    bound = {name for name, value in vars(medsens).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert sorted(bound - set(medsens.__all__)) == []


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def test_benchmark_reads_only_exported_names():
    # every medsens.<name> the benchmark scripts read, except the
    # submodules they import and dunders such as medsens.__file__
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path.name)
        submodules = {alias.name.split(".")[1] for node in ast.walk(tree)
                      if isinstance(node, ast.Import) for alias in node.names
                      if alias.name.startswith("medsens.")}
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "medsens"
                  and not node.attr.startswith("__")} - submodules
    assert "run_scan" in reads
    assert sorted(reads - set(medsens.__all__)) == []


def test_benchmark_trace_targets_exist():
    # the (module, function) pairs of perfbench/tracing.py's TARGETS table,
    # read from its source so that nothing under perfbench/ is imported
    table = next(node.value for node in ast.walk(_parse("tracing.py"))
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    targets = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert ("biprobit", "fit_constrained") in targets
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"medsens.{module}"),
                                       name, None))]
    assert missing == []


def test_readme_api_section_documents_exactly_the_public_names():
    text = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"`([^`]+)`", section)
    assert len(documented) == len(set(documented))
    assert set(documented) == set(medsens.__all__) - {"__version__"}


# the fields perfbench/ reads off package objects: the replicates check
# (ScanPoint), the sens_cli references (SensitivityScan, LoadResult,
# Dataset, EffectEstimate), the tracer's result attributes (ProbitFit,
# ConstrainedFit) and the workloads' scenarios (TrueParams)
BENCHMARK_FIELDS = {
    "ScanPoint": ("rho", "converged", "coefficients"),
    "SensitivityScan": ("points",),
    "LoadResult": ("dataset",),
    "Dataset": ("n", "covariate_names"),
    "ProbitFit": ("iterations",),
    "ConstrainedFit": ("iterations", "converged"),
    "EffectEstimate": ("estimate",),
    "TrueParams": ("spec", "covariate_names", "confounding"),
}


def test_benchmark_fields_exist():
    missing = []
    for cls_name, names in BENCHMARK_FIELDS.items():
        cls = getattr(medsens, cls_name)
        fields = {f.name for f in dataclasses.fields(cls)}
        missing += [f"{cls_name}.{name}" for name in names
                    if name not in fields
                    and not isinstance(getattr(cls, name, None), property)]
    assert missing == []

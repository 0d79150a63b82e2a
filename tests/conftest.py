import csv

import numpy as np
import pytest

from medsens import (ConfoundingKind, Dataset, ModelSpec, TrueParams,
                     demo_params, simulate)
from medsens.biprobit import _pair_pass, _pair_rows
from medsens.datamodel import model_designs
from medsens.numkernel import _log_ndtr


def reduced_spec() -> ModelSpec:
    """Demo model layout: covariate main effects and the z:m interaction
    only."""
    return ModelSpec(mediator_zx=False, outcome_zx=False, outcome_mx=False,
                     outcome_zmx=False)


def write_rows(ds: Dataset, path) -> None:
    """write_csv as one csv writerow per row: the reference for the bytes
    of write_csv's chunked writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["z", "m", "y", *ds.covariate_names])
        for i in range(ds.n):
            writer.writerow([int(ds.z[i]), int(ds.m[i]), int(ds.y[i]),
                             *[repr(float(v)) for v in ds.x[i]]])


def joint_loglik(kind: ConfoundingKind, coef_a, coef_b, rho, ds: Dataset,
                 spec: ModelSpec) -> float:
    """The kind's constrained log-likelihood at (first, second)
    coefficients: the first value of the pass a constrained fit runs."""
    pair = _pair_rows(kind, model_designs(ds, spec))
    return _pair_pass(np.asarray(coef_a, dtype=float),
                      np.asarray(coef_b, dtype=float), rho, *pair)[0]


def probit_loglik(coefficients, design, response) -> float:
    """The probit log-likelihood, summed over the same ln Phi rows as
    fit_probit."""
    s = 2.0 * np.asarray(response, dtype=float) - 1.0
    return float(_log_ndtr(s * (design @ np.asarray(coefficients, dtype=float))).sum())


def confounded_params(kind: ConfoundingKind, rho: float) -> TrueParams:
    base = demo_params()
    return TrueParams(spec=base.spec, covariates=base.covariates,
                      alpha=base.alpha, beta=base.beta, theta=base.theta,
                      confounding=(kind, rho))


def make_dataset(z, m, y, x=None, names=()):
    z = np.asarray(z)
    if x is None:
        x = np.empty((len(z), 0))
    return Dataset(z=z, m=np.asarray(m), y=np.asarray(y),
                   x=np.asarray(x, dtype=float), covariate_names=tuple(names))


@pytest.fixture(scope="session")
def demo_clean():
    """n=1500 draw from the demo scenario without confounding."""
    return simulate(demo_params(), 1500, 91)


@pytest.fixture(scope="session")
def demo_confounded():
    """n=1500 draw with mediator-outcome confounding at rho=0.3."""
    params = confounded_params(ConfoundingKind.MEDIATOR_OUTCOME, 0.3)
    return simulate(params, 1500, 92)


@pytest.fixture(scope="session")
def spec():
    return reduced_spec()

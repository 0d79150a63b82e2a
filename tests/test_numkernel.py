"""Bivariate normal CDF and scalar normal helpers."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medsens import (EvaluationError, MedsensError, binorm_cdf, bvn_cdf,
                     clamp_rho, finite_diff_grad, log_bvn_cdf, norm_cdf,
                     norm_pdf, norm_quantile)

ORACLE = Path(__file__).parent / "data" / "bvn_oracle.csv"

finite_z = st.floats(-8.0, 8.0, allow_nan=False)
interior_rho = st.floats(-0.999, 0.999, allow_nan=False)


def test_normal_scalar_constants():
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert norm_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)
    assert norm_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-14)
    assert norm_quantile(0.5) == 0.0


def test_normal_scalar_validation():
    with pytest.raises(ValueError):
        norm_cdf(float("nan"))
    with pytest.raises(ValueError):
        norm_pdf(float("inf"))
    with pytest.raises(ValueError):
        norm_quantile(0.0)
    with pytest.raises(ValueError):
        norm_quantile(1.0)


@given(st.floats(1e-6, 1 - 1e-6))
def test_quantile_roundtrip(p):
    assert norm_cdf(norm_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_clamp_rho():
    assert clamp_rho(0.5) == (0.5, False)
    assert clamp_rho(-0.999) == (-0.999, False)
    assert clamp_rho(0.9999) == (0.999, True)
    assert clamp_rho(-1.0) == (-0.999, True)
    with pytest.raises(ValueError):
        clamp_rho(1.2)
    with pytest.raises(ValueError):
        clamp_rho(float("nan"))


# --- bivariate CDF against closed forms -------------------------------

def test_bvn_zero_rho_factorizes_exactly():
    for a in (-3.0, -0.7, 0.0, 1.2, 4.0):
        for b in (-2.5, 0.0, 0.4, 3.0):
            assert binorm_cdf(a, b, 0.0) == pytest.approx(
                norm_cdf(a) * norm_cdf(b), abs=1e-15)


def test_bvn_perfect_correlation_limits():
    # rho=1: mass on the diagonal, so P = Phi(min); rho=-1: antidiagonal
    for a in (-2.0, -0.3, 0.8, 2.5):
        for b in (-1.5, 0.1, 2.0):
            assert binorm_cdf(a, b, 1.0) == pytest.approx(
                norm_cdf(min(a, b)), abs=1e-15)
            assert binorm_cdf(a, b, -1.0) == pytest.approx(
                max(0.0, norm_cdf(a) + norm_cdf(b) - 1.0), abs=1e-15)


def test_bvn_origin_arcsine_identity():
    for rho in (-0.95, -0.5, 0.0, 0.3, 0.7, 0.99):
        expect = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert binorm_cdf(0.0, 0.0, rho) == pytest.approx(expect, abs=1e-15)


def load_oracle():
    with open(ORACLE, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11 * 11 * 9
    return tuple(np.array([float(r[key]) for r in rows])
                 for key in ("a", "b", "rho", "phi2"))


def test_bvn_against_frozen_quadrature_oracle():
    # mixed |rho| across rows: the row-by-row evaluation
    a, b, rho, oracle = load_oracle()
    err = np.abs(bvn_cdf(a, b, rho) - oracle)
    assert err.max() <= 1e-10


def test_bvn_oracle_one_abs_rho_at_a_time():
    # every row of a call shares |rho|: the shared evaluation. The file's
    # +-0.475 pair differs in the last bit, so it makes two groups.
    a, b, rho, oracle = load_oracle()
    groups = np.unique(np.abs(rho))
    mixed_signs = 0
    for absr in groups:
        rows = np.abs(rho) == absr
        mixed_signs += len(set(np.signbit(rho[rows]))) == 2
        err = np.abs(bvn_cdf(a[rows], b[rows], rho[rows]) - oracle[rows])
        assert err.max() <= 1e-10, absr
    assert mixed_signs >= 3


@pytest.mark.parametrize("absr", [0.0, 0.05, 0.2999, 0.3, 0.5, 0.7499, 0.75,
                                  0.9, 0.9249])
def test_bvn_shared_abs_rho_is_bitwise_the_row_by_row_value(absr):
    rng = np.random.default_rng(int(absr * 10_000))
    n = 2000
    a = rng.normal(scale=2.0, size=n)
    b = rng.normal(scale=2.0, size=n)
    r = rng.choice([-1.0, 1.0], size=n) * absr
    if absr == 0.0:
        assert set(np.signbit(r)) == {False, True}   # +0.0 and -0.0 rows
    shared = bvn_cdf(a, b, r)
    # one appended row at another |rho| forces the row-by-row evaluation
    other = 0.95 if absr < 0.5 else 0.1
    per_row = bvn_cdf(np.append(a, 0.3), np.append(b, -0.4),
                      np.append(r, other))[:n]
    assert np.array_equal(shared, per_row)


def test_bvn_mpmath_spot_checks():
    # independent 1-d oracle: integrate phi(u) * Phi((b - rho u)/sqrt(1-rho^2))
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 25

    def oracle(a, b, rho):
        denom = mpmath.sqrt(1 - mpmath.mpf(rho) ** 2)
        integrand = lambda u: mpmath.npdf(u) * mpmath.ncdf((b - rho * u) / denom)
        return float(mpmath.quad(integrand, [-mp.inf, a]))

    points = [(0.5, -0.3, 0.6), (-1.2, 2.0, -0.85), (2.0, 2.0, 0.97),
              (-3.5, -0.5, 0.45), (0.0, 1.0, -0.99)]
    for a, b, rho in points:
        assert binorm_cdf(a, b, rho) == pytest.approx(oracle(a, b, rho),
                                                      abs=5e-15)


# --- distributional invariants ----------------------------------------

@given(finite_z, finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_symmetry_is_exact(a, b, rho):
    assert binorm_cdf(a, b, rho) == binorm_cdf(b, a, rho)


@given(finite_z, finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_frechet_bounds(a, b, rho):
    val = binorm_cdf(a, b, rho)
    lo = max(0.0, norm_cdf(a) + norm_cdf(b) - 1.0)
    hi = min(norm_cdf(a), norm_cdf(b))
    assert lo - 1e-14 <= val <= hi + 1e-14


@given(finite_z, finite_z, interior_rho, interior_rho)
def test_bvn_monotone_in_rho(a, b, r1, r2):
    lo, hi = sorted((r1, r2))
    assert binorm_cdf(a, b, lo) <= binorm_cdf(a, b, hi) + 1e-13


@given(finite_z, finite_z, finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_monotone_in_abscissa(a1, a2, b, rho):
    lo, hi = sorted((a1, a2))
    assert binorm_cdf(lo, b, rho) <= binorm_cdf(hi, b, rho) + 1e-14


@given(finite_z, finite_z, finite_z, finite_z,
       st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_rectangle_mass_nonnegative(a1, a2, b1, b2, rho):
    a1, a2 = sorted((a1, a2))
    b1, b2 = sorted((b1, b2))
    mass = (binorm_cdf(a2, b2, rho) - binorm_cdf(a1, b2, rho)
            - binorm_cdf(a2, b1, rho) + binorm_cdf(a1, b1, rho))
    assert mass >= -1e-13


@given(finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_marginalizes_to_univariate(a, rho):
    # Phi(8.5) differs from 1 by ~1e-18, far below the tolerance
    assert binorm_cdf(a, 8.5, rho) == pytest.approx(norm_cdf(a), abs=1e-12)


def test_bvn_broadcasting_and_scalar_paths():
    a = np.array([-1.0, 0.0, 1.0])
    out = bvn_cdf(a, 0.5, 0.3)
    assert out.shape == (3,)
    for i, ai in enumerate(a):
        assert out[i] == binorm_cdf(ai, 0.5, 0.3)
    grid = bvn_cdf(a.reshape(3, 1), a.reshape(1, 3), 0.0)
    assert grid.shape == (3, 3)


def test_binorm_validates_scalar_inputs():
    # binorm_cdf is the validating entry point; bvn_cdf is documented as
    # the unvalidated hot path
    with pytest.raises(ValueError):
        binorm_cdf(0.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        binorm_cdf(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        binorm_cdf(0.0, float("inf"), 0.0)


def test_log_bvn_matches_log_of_cdf_and_is_floored():
    val = log_bvn_cdf(np.array(-1.0), np.array(-1.0), np.array(0.25))
    assert val == pytest.approx(math.log(binorm_cdf(-1.0, -1.0, 0.25)), abs=1e-14)
    deep = log_bvn_cdf(np.array(-40.0), np.array(-40.0), np.array(0.0))
    assert np.isfinite(deep)
    assert deep >= math.log(1e-300)


# --- finite differences ------------------------------------------------

def test_finite_diff_grad_on_smooth_function():
    f = lambda v: float(v[0] ** 2 + 3.0 * v[0] * v[1] - math.sin(v[2]))
    point = np.array([0.7, -1.2, 0.4])
    grad = finite_diff_grad(f, point)
    expect = np.array([2 * 0.7 + 3 * -1.2, 3 * 0.7, -math.cos(0.4)])
    assert np.allclose(grad, expect, atol=1e-8)


def test_finite_diff_grad_flags_bad_component():
    def f(v):
        if v[1] > 1.0:
            return float("nan")
        return float(v.sum())

    with pytest.raises(EvaluationError) as exc_info:
        finite_diff_grad(f, np.array([0.0, 1.0, 0.0]), step=0.5)
    assert exc_info.value.component == 1
    assert isinstance(exc_info.value, MedsensError)

"""Bivariate normal CDF, scalar normal helpers and the tests'
finite-difference helper."""

import csv
import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from finite_diff import finite_diff_grad
from medsens import bvn_cdf, clamp_rho, log_bvn_cdf, norm_quantile
from medsens.numkernel import _log_ndtr

ORACLE = Path(__file__).parent / "data" / "bvn_oracle.csv"

finite_z = st.floats(-8.0, 8.0, allow_nan=False)
interior_rho = st.floats(-0.999, 0.999, allow_nan=False)


def norm_cdf(z):
    return float(ndtr(z))


def phi2_at(a, b, rho) -> float:
    """Phi2 at one point, from bvn_cdf."""
    return float(bvn_cdf(a, b, rho))


def test_normal_scalar_constants():
    assert norm_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-14)
    assert norm_quantile(0.5) == 0.0


def test_normal_scalar_validation():
    with pytest.raises(ValueError):
        norm_quantile(0.0)
    with pytest.raises(ValueError):
        norm_quantile(1.0)
    with pytest.raises(ValueError, match="^p must be a real scalar"):
        norm_quantile("0.5")


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
    for not_real in (True, np.bool_(False), np.array(True), np.array(False),
                     "0.5"):
        with pytest.raises(ValueError, match="must be a real scalar"):
            clamp_rho(not_real)


# --- bivariate CDF against closed forms -------------------------------

def test_bvn_zero_rho_factorizes_exactly():
    for a in (-3.0, -0.7, 0.0, 1.2, 4.0):
        for b in (-2.5, 0.0, 0.4, 3.0):
            assert phi2_at(a, b, 0.0) == pytest.approx(
                norm_cdf(a) * norm_cdf(b), abs=1e-15)


def test_bvn_perfect_correlation_limits():
    # rho=1: mass on the diagonal, so P = Phi(min); rho=-1: antidiagonal
    for a in (-2.0, -0.3, 0.8, 2.5):
        for b in (-1.5, 0.1, 2.0):
            assert phi2_at(a, b, 1.0) == pytest.approx(
                norm_cdf(min(a, b)), abs=1e-15)
            assert phi2_at(a, b, -1.0) == pytest.approx(
                max(0.0, norm_cdf(a) + norm_cdf(b) - 1.0), abs=1e-15)


def test_bvn_origin_arcsine_identity():
    for rho in (-0.95, -0.5, 0.0, 0.3, 0.7, 0.99):
        expect = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert phi2_at(0.0, 0.0, rho) == pytest.approx(expect, abs=1e-15)


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
                                  0.9, 0.9249, 0.925, 0.95, 0.99, 0.999])
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


# Gauss-Legendre 6-, 12- and 20-point nodes (positive half) and weights
GL_X6 = np.array([0.9324695142031521, 0.6612093864662645, 0.2386191860831969])
GL_W6 = np.array([0.1713244923791704, 0.3607615730481386, 0.4679139345726910])
GL_X12 = np.array(
    [0.9815606342467192, 0.9041172563704749, 0.7699026741943047,
     0.5873179542866175, 0.3678314989981802, 0.1252334085114689])
GL_W12 = np.array(
    [0.04717533638651183, 0.1069393259953184, 0.1600783285433462,
     0.2031674267230659, 0.2334925365383548, 0.2491470458134028])
GL_X20 = np.array(
    [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154195, 0.2277858511416451,
     0.07652652113349734])
GL_W20 = np.array(
    [0.01761400713915212, 0.04060142980038694, 0.06267204833410907,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183820, 0.1491729864726037,
     0.1527533871307258])


def moderate_band_reference(a, b, r):
    """P(X <= a, Y <= b) for |r| < 0.925 by Genz's Gauss-Legendre sum, row
    by row with the signed arcsin(r) and signed node sines, row major:
    (rows, nodes) arrays per node sign, summed with .sum(axis=1)."""
    h = np.minimum(-a, -b)
    k = np.maximum(-a, -b)
    res = np.full(h.shape, np.nan)
    lower = 0.0
    for upper, x, w in ((0.3, GL_X6, GL_W6), (0.75, GL_X12, GL_W12),
                        (0.925, GL_X20, GL_W20)):
        rows = (np.abs(r) >= lower) & (np.abs(r) < upper)
        lower = upper
        hh, kk = h[rows], k[rows]
        hk, hs = (hh * kk)[:, None], (0.5 * (hh * hh + kk * kk))[:, None]
        asr = np.arcsin(r[rows])
        acc = 0.0
        for sgn in (-1.0, 1.0):
            sn = np.sin((1.0 + sgn * x) * asr[:, None] * 0.5)
            acc = acc + (w * np.exp((sn * hk - hs) / (1.0 - sn * sn))).sum(axis=1)
        res[rows] = acc * asr / (4.0 * np.pi) + ndtr(-hh) * ndtr(-kk)
    return np.clip(res, 0.0, 1.0)


@pytest.mark.parametrize("absr", [0.0, 0.05, 0.2999, 0.3, 0.5, 0.7499, 0.75,
                                  0.9, 0.9249])
def test_bvn_gauss_legendre_bands_are_bitwise_the_signed_row_formula(absr):
    rng = np.random.default_rng(int(absr * 10_000) + 7)
    n = 2000
    a = rng.normal(scale=2.0, size=n)
    b = rng.normal(scale=2.0, size=n)
    r = rng.choice([-1.0, 1.0], size=n) * absr
    assert np.array_equal(bvn_cdf(a, b, r), moderate_band_reference(a, b, r))
    # mixed |rho| inside the band: the row-by-row evaluation
    lower, upper = next(band for band in ((0.0, 0.3), (0.3, 0.75), (0.75, 0.925))
                        if absr < band[1])
    r[::3] = np.copysign(rng.uniform(lower, upper, size=len(r[::3])), r[::3])
    assert len(np.unique(np.abs(r))) > 2
    assert np.array_equal(bvn_cdf(a, b, r), moderate_band_reference(a, b, r))


def extreme_band_reference(a, b, r):
    """P(X <= a, Y <= b) for 0.925 <= |r| <= 1 by Genz's expansion, row
    major: (rows, 10 nodes) arrays per node sign, summed with .sum(axis=1)."""
    h = np.minimum(-a, -b)
    k = np.maximum(-a, -b)
    neg = r < 0.0
    k = np.where(neg, -k, k)
    hk = h * k
    bvn = np.zeros_like(h)
    inner = np.abs(r) < 1.0
    hh, kk, hkk, rr = h[inner], k[inner], hk[inner], r[inner]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                     under="ignore"):
        ass = (1.0 - rr) * (1.0 + rr)
        a_ = np.sqrt(ass)
        bs = (hh - kk) ** 2
        c = (4.0 - hkk) / 8.0
        d = (12.0 - hkk) / 16.0
        asr = -0.5 * (bs / ass + hkk)
        acc = np.where(
            asr > -100.0,
            a_ * np.exp(asr) * (1.0 - c * (bs - ass) * (1.0 - d * bs / 5.0) / 3.0
                                + c * d * ass * ass / 5.0),
            0.0)
        b_ = np.sqrt(bs)
        tail = np.exp(-0.5 * hkk) * math.sqrt(2.0 * math.pi) * ndtr(-b_ / a_) \
            * b_ * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        acc -= np.where(-hkk < 100.0, tail, 0.0)
        ah = 0.5 * a_
        for sgn in (-1.0, 1.0):
            xs = (ah[:, None] * (sgn * GL_X20 + 1.0)) ** 2
            rs = np.sqrt(1.0 - xs)
            asr2 = -0.5 * (bs[:, None] / xs + hkk[:, None])
            sp = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
            ep = np.exp(-hkk[:, None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
            term = np.where(asr2 > -100.0,
                            ah[:, None] * GL_W20 * np.exp(asr2) * (ep - sp), 0.0)
            acc += term.sum(axis=1)
    bvn[inner] = -acc / (2.0 * np.pi)
    res = np.where(neg, -bvn + np.where(k > h, ndtr(k) - ndtr(h), 0.0),
                   bvn + ndtr(-np.maximum(h, k)))
    return np.clip(res, 0.0, 1.0)


@pytest.mark.parametrize("absr", [0.925, 0.95, 0.99, 0.999, 1.0])
@pytest.mark.parametrize("scale", [0.5, 2.0, 6.0])
def test_bvn_extreme_band_is_bitwise_the_row_major_formula(absr, scale):
    rng = np.random.default_rng(int(absr * 10_000 + scale))
    n = 2500                       # more than two row blocks
    a = rng.normal(scale=scale, size=n)
    b = rng.normal(scale=scale, size=n)
    r = rng.choice([-1.0, 1.0], size=n) * absr
    assert np.array_equal(bvn_cdf(a, b, r), extreme_band_reference(a, b, r))
    # mixed |rho| inside the band: the row-by-row evaluation
    r[::3] = rng.uniform(0.925, 1.0, size=len(r[::3])) * np.sign(r[::3])
    assert np.array_equal(bvn_cdf(a, b, r), extreme_band_reference(a, b, r))


BAND_EDGES = (0.3, 0.75, 0.925, 1.0)


def test_bvn_band_edges_and_limits_are_bitwise_the_row_formulas():
    # shared |rho| at every band edge, just below it and at 0, with rows of
    # both signs; then one mixed call over the same values, rows at +-1
    # included
    absrs = sorted({0.0, *BAND_EDGES,
                    *(float(np.nextafter(e, 0.0)) for e in BAND_EDGES)})
    rng = np.random.default_rng(23)
    n = 600
    a = rng.normal(scale=2.0, size=n)
    b = rng.normal(scale=2.0, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)

    def reference(r):
        return np.where(np.abs(r) < 0.925, moderate_band_reference(a, b, r),
                        extreme_band_reference(a, b, r))

    for absr in absrs:
        r = sign * absr
        assert np.array_equal(bvn_cdf(a, b, r), reference(r)), absr
    r = sign * rng.choice(absrs, size=n)
    assert set(r[np.abs(r) == 1.0]) == {-1.0, 1.0}
    assert np.array_equal(bvn_cdf(a, b, r), reference(r))


BAD_RHO = [float("nan"), 1.5, -1.5, float("inf"), -float("inf"),
           1.0 + 2.0 ** -52, -(1.0 + 2.0 ** -52)]


@pytest.mark.parametrize("rho", BAD_RHO)
def test_bvn_rejects_rho_outside_minus_one_one(rho):
    message = f"got {rho!r}$"
    with pytest.raises(ValueError, match=message):      # scalar
        bvn_cdf(0.3, -0.4, rho)
    with pytest.raises(ValueError, match=message):      # shared |rho|
        bvn_cdf(np.array([0.3, -1.0, 2.0]), 0.5, np.full(3, rho))
    with pytest.raises(ValueError, match=message):      # one row of many
        bvn_cdf(np.array([0.3, -1.0, 2.0]), 0.5, np.array([0.2, rho, -1.0]))
    with pytest.raises(ValueError, match=message):
        log_bvn_cdf(0.3, -0.4, rho)

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
        assert phi2_at(a, b, rho) == pytest.approx(oracle(a, b, rho), abs=5e-15)


def test_log_ndtr_against_mpmath():
    # |error| <= max(1e-15 |ln Phi|, 2.3e-16): 1e-15 relative for q <= 0,
    # 2.3e-16 absolute above 6, the weaker of the two in between, where
    # rounding q/sqrt(2) alone costs Phi(-q) about q^2 ulp
    mpmath = pytest.importorskip("mpmath")
    cut = -20.0
    q = np.concatenate([
        -np.logspace(3, -3, 400), np.linspace(-30.0, 40.0, 1401),
        np.logspace(-3, math.log10(40.0), 200),
        [-0.0, 0.0, cut, np.nextafter(cut, -np.inf), np.nextafter(cut, 0.0),
         cut - 1e-9, cut + 1e-9, 6.0, np.nextafter(6.0, 0.0),
         np.nextafter(6.0, np.inf)]])
    with mpmath.workdps(40):
        oracle = np.array([float(mpmath.log(mpmath.ncdf(mpmath.mpf(float(v)))))
                           for v in q])
    bound = np.maximum(1e-15 * np.abs(oracle), 2.3e-16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = _log_ndtr(q)                  # rows on both sides of -20
        above = _log_ndtr(q[q > cut])         # the log(ndtr) path alone
    assert np.all(np.abs(mixed - oracle) <= bound)
    assert np.array_equal(above, mixed[q > cut])


@pytest.mark.parametrize("q", [-40.0, -1e3])
def test_log_ndtr_underflow_raises_no_warning(q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = _log_ndtr(np.array([q, 0.0]))
    assert np.isfinite(value).all() and value[0] < -800.0


# --- distributional invariants ----------------------------------------

@given(finite_z, finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_symmetry_is_exact(a, b, rho):
    assert phi2_at(a, b, rho) == phi2_at(b, a, rho)


@given(finite_z, finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_frechet_bounds(a, b, rho):
    val = phi2_at(a, b, rho)
    lo = max(0.0, norm_cdf(a) + norm_cdf(b) - 1.0)
    hi = min(norm_cdf(a), norm_cdf(b))
    assert lo - 1e-14 <= val <= hi + 1e-14


@given(finite_z, finite_z, interior_rho, interior_rho)
def test_bvn_monotone_in_rho(a, b, r1, r2):
    lo, hi = sorted((r1, r2))
    assert phi2_at(a, b, lo) <= phi2_at(a, b, hi) + 1e-13


@given(finite_z, finite_z, finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_monotone_in_abscissa(a1, a2, b, rho):
    lo, hi = sorted((a1, a2))
    assert phi2_at(lo, b, rho) <= phi2_at(hi, b, rho) + 1e-14


@given(finite_z, finite_z, finite_z, finite_z,
       st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_rectangle_mass_nonnegative(a1, a2, b1, b2, rho):
    a1, a2 = sorted((a1, a2))
    b1, b2 = sorted((b1, b2))
    mass = (phi2_at(a2, b2, rho) - phi2_at(a1, b2, rho)
            - phi2_at(a2, b1, rho) + phi2_at(a1, b1, rho))
    assert mass >= -1e-13


@given(finite_z, st.floats(-1.0, 1.0, allow_nan=False))
def test_bvn_marginalizes_to_univariate(a, rho):
    # Phi(8.5) differs from 1 by ~1e-18, far below the tolerance
    assert phi2_at(a, 8.5, rho) == pytest.approx(norm_cdf(a), abs=1e-12)


def test_bvn_broadcasting_and_scalar_paths():
    a = np.array([-1.0, 0.0, 1.0])
    out = bvn_cdf(a, 0.5, 0.3)
    assert out.shape == (3,)
    for i, ai in enumerate(a):
        assert out[i] == bvn_cdf(ai, 0.5, 0.3)
    grid = bvn_cdf(a.reshape(3, 1), a.reshape(1, 3), 0.0)
    assert grid.shape == (3, 3)


def test_log_bvn_matches_log_of_cdf_and_is_floored():
    val = log_bvn_cdf(np.array(-1.0), np.array(-1.0), np.array(0.25))
    assert val == pytest.approx(math.log(phi2_at(-1.0, -1.0, 0.25)), abs=1e-14)
    deep = log_bvn_cdf(np.array(-40.0), np.array(-40.0), np.array(0.0))
    assert np.isfinite(deep)
    assert deep >= math.log(1e-300)


# --- finite differences (tests/finite_diff.py) --------------------------

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

    with pytest.raises(ValueError, match="probing component 1 "):
        finite_diff_grad(f, np.array([0.0, 1.0, 0.0]), step=0.5)


# --- one dtype rule for real-valued arrays (numkernel._as_real_array) ----

BAD_DTYPES = [bool, str, bytes, object, complex]


@pytest.fixture(scope="module")
def real_array_entries(demo_confounded, spec):
    """Per entry: a valid value, the call that takes it, the error class
    and the parameter name a refusal must start with."""
    from medsens import (ConfigError, ConfoundingKind, CovariateProfile, Dataset,
                         DataError, EffectType, GradientVector, bvn_cdf,
                         constrained_grad, delta_se, demo_params, effect_rows,
                         fit_constrained, fit_probit, fit_unconstrained,
                         log_bvn_cdf)
    ds, my, nie = demo_confounded, ConfoundingKind.MEDIATOR_OUTCOME, EffectType.NIE
    fits = fit_unconstrained(ds, spec)
    beta, theta = fits.mediator.coefficients, fits.outcome.coefficients
    sigma_beta, sigma_theta = fits.mediator.covariance, fits.outcome.covariance
    design = np.column_stack([np.ones(ds.n), ds.z, ds.x])
    phi2_args = {"a": np.array([0.3, -1.2]), "b": np.array([0.5, 0.1]),
                 "rho": np.array([0.2, -0.6])}

    def phi2(func, arg):
        return lambda v: func(**{**phi2_args, arg: v})
    params = demo_params()
    return {
        **{f"TrueParams {name}": (
            getattr(params, name),
            lambda v, name=name: dataclasses.replace(params, **{name: v}),
            ConfigError, name) for name in ("alpha", "beta", "theta")},
        **{f"{func.__name__} {arg}": (valid, phi2(func, arg), ValueError, arg)
           for func in (bvn_cdf, log_bvn_cdf) for arg, valid in phi2_args.items()},
        "delta_se grad.wrt_beta": (
            beta, lambda v: delta_se(GradientVector(v, theta), sigma_beta, sigma_theta),
            ValueError, "grad.wrt_beta"),
        "delta_se grad.wrt_theta": (
            theta, lambda v: delta_se(GradientVector(beta, v), sigma_beta, sigma_theta),
            ValueError, "grad.wrt_theta"),
        "delta_se sigma_beta": (
            sigma_beta, lambda v: delta_se(GradientVector(beta, theta), v, sigma_theta),
            ValueError, "sigma_beta"),
        "delta_se sigma_theta": (
            sigma_theta, lambda v: delta_se(GradientVector(beta, theta), sigma_beta, v),
            ValueError, "sigma_theta"),
        "Dataset x": (ds.x, lambda v: Dataset(ds.z, ds.m, ds.y, v, ds.covariate_names),
                      DataError, "x"),
        "CovariateProfile values": (np.array([0.5, 1.0]),
                                    lambda v: CovariateProfile(v, name="p"),
                                    DataError, "profile 'p' values"),
        "fit_constrained start": (np.concatenate([beta, theta]),
                                  lambda v: fit_constrained(my, 0.1, ds, spec, start=v),
                                  ValueError, "start"),
        "constrained_grad coef_a": (
            beta, lambda v: constrained_grad(my, v, theta, 0.1, ds, spec),
            ValueError, "coef_a"),
        "constrained_grad coef_b": (
            theta, lambda v: constrained_grad(my, beta, v, 0.1, ds, spec),
            ValueError, "coef_b"),
        "effect_rows theta": (theta, lambda v: effect_rows(nie, v, beta, ds.x[:3], spec),
                              ValueError, "theta"),
        "effect_rows beta": (beta, lambda v: effect_rows(nie, theta, v, ds.x[:3], spec),
                             ValueError, "beta"),
        "effect_rows x": (ds.x[:3], lambda v: effect_rows(nie, theta, beta, v, spec),
                          ValueError, "x"),
        "fit_probit design": (design, lambda v: fit_probit(v, ds.m), ValueError, "design"),
    }


ENTRY_NAMES = ["Dataset x", "CovariateProfile values", "fit_constrained start",
               "constrained_grad coef_a", "constrained_grad coef_b",
               "effect_rows theta", "effect_rows beta", "effect_rows x",
               "fit_probit design", "bvn_cdf a", "bvn_cdf b", "bvn_cdf rho",
               "log_bvn_cdf a", "log_bvn_cdf b", "log_bvn_cdf rho",
               "delta_se grad.wrt_beta", "delta_se grad.wrt_theta",
               "delta_se sigma_beta", "delta_se sigma_theta",
               "TrueParams alpha", "TrueParams beta", "TrueParams theta"]


@pytest.mark.parametrize("dtype", BAD_DTYPES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("entry", ENTRY_NAMES)
def test_real_arrays_refuse_other_dtypes(real_array_entries, entry, dtype):
    valid, call, error, name = real_array_entries[entry]
    call(valid)  # the valid value passes
    with pytest.raises(error, match=f"^{re.escape(name)} must be real numbers, "
                                    "got dtype") as info:
        call(valid.astype(dtype))
    assert type(info.value) is error


@pytest.mark.parametrize("entry", ["TrueParams alpha", "Dataset x", "bvn_cdf a"])
def test_real_arrays_refuse_ragged_sequences(real_array_entries, entry):
    _, call, error, name = real_array_entries[entry]
    ragged = [[1.0], [2.0, 3.0]] if entry == "Dataset x" else [[1.0, 2.0], [3.0]]
    with pytest.raises(error, match=f"^{re.escape(name)} must be real numbers in a "
                                    "rectangular array, got a ragged sequence$") as info:
        call(ragged)
    assert type(info.value) is error


def test_binary_responses_take_bool_indicators(demo_confounded):
    from medsens import Dataset, fit_probit
    ds = demo_confounded
    flags = Dataset(ds.z.astype(bool), ds.m.astype(bool), ds.y.astype(bool),
                    ds.x, ds.covariate_names)
    assert flags.equals(ds) and flags.z.dtype == np.int64
    design = np.column_stack([np.ones(ds.n), ds.z, ds.x])
    assert np.array_equal(fit_probit(design, ds.m.astype(bool)).coefficients,
                          fit_probit(design, ds.m).coefficients)

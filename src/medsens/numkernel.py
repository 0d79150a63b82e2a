"""Normal-distribution kernels used by every other module.

The scalar entries (norm_quantile, clamp_rho) check their inputs. The
vectorized bivariate CDF bvn_cdf is what the likelihood code calls in
bulk; it checks rho, not a and b.

The bivariate normal CDF uses the Drezner/Wesolowsky method in Genz's
formulation: Gauss-Legendre quadrature on an arcsin-transformed integrand
for |rho| < 0.925 and an asymptotic-expansion transformation above that.
Absolute accuracy is around 5e-16, comfortably inside the 1e-12 target
for |rho| <= 0.999, and the |rho| = 1 limits are exact:
    bvn_cdf(a, b, 1)  = Phi(min(a, b))
    bvn_cdf(a, b, -1) = max(0, Phi(a) + Phi(b) - 1)

bvn_cdf is one table of |rho| bands, _BANDS: Gauss-Legendre sums of 6,
12 and 20 points below 0.3, 0.75 and 0.925, the expansion below 1, and the
|rho| = 1 limit. A row with |rho| > 1 or a NaN rho raises ValueError.
Each band's evaluator takes either the |rho| all rows of a call share or
one |rho| per row; every row is written by exactly one band. The
Gauss-Legendre sum depends on rho only through arcsin(rho) and the node
sines sin(arcsin(rho) (1 -+ x) / 2), and the expansion's per-node
quantities only through |rho|. When every row of a call has the same |rho|
(a likelihood pass at a fixed rho, where the rows carry +-rho), those are
computed once and the row signs applied by exact sign flips; arcsin and
sin are odd, so the result is bitwise the row-by-row one.

ln Phi2 is log_bvn_cdf, the one place that applies the probability floor
PROB_FLOOR before the log.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Probabilities are floored here before any log, so likelihood code never
# produces -inf even in hopeless corners of the parameter space.
PROB_FLOOR = 1e-300

# Likelihood evaluations require a strictly interior correlation.
RHO_INTERIOR = 0.999


def _as_real(value, name: str, error=ValueError) -> float:
    """value as a float, which may be NaN or infinite; bools (any value of
    boolean dtype, 0-d arrays too) and strings, which float() would
    coerce, are not real scalars and are refused with error."""
    try:
        if not (isinstance(value, (bool, str, bytes))
                or getattr(value, "dtype", None) == bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise error(f"{name} must be a real scalar, got {value!r}")


def _as_real_array(value, name: str, error=ValueError) -> np.ndarray:
    """value as a float array; arrays of any dtype but integer or float
    (bool, str, bytes, object, complex), which np.asarray(value,
    dtype=float) would coerce, are refused with error, and so is a ragged
    sequence, which numpy cannot make an array of."""
    try:
        arr = np.asarray(value)
    except ValueError:  # "inhomogeneous shape"
        raise error(f"{name} must be real numbers in a rectangular array, "
                    "got a ragged sequence") from None
    if arr.dtype.kind not in "iuf":
        raise error(f"{name} must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _check_len(name: str, coef, k: int) -> np.ndarray:
    """coef as a float vector, once it has the k entries of its design's
    columns."""
    coef = _as_real_array(coef, name)
    if coef.shape != (k,):
        raise ValueError(f"{name} has length {coef.shape}, its design has {k} columns")
    return coef


def _as_finite_float(value, name: str) -> float:
    out = _as_real(value, name)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out!r}")
    return out


def norm_quantile(p) -> float:
    """Standard normal quantile for p strictly inside (0, 1)."""
    p = _as_real(p, "p")
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    return float(ndtri(p))


# _log_ndtr takes log(ndtr(q)) above this cut, where ndtr(q) > 2.7e-89; below
# it ndtr loses relative accuracy and underflows near -38.5, so log_ndtr's
# asymptotic series takes over
_LOG_NDTR_CUT = -20.0


def _log_ndtr(q):
    """ln Phi(q) of a float array: log(ndtr(q)) in place above -20, which
    is cheaper per row than scipy's log_ndtr, and log_ndtr at and below.

    Relative error stays near 2e-16 for q <= 0. Above 0 the error is
    absolute, at most 1.2e-16 beyond 6 (ndtr(q) rounds to a double next
    to 1), which suits callers that only take exp() of differences or sum
    rows. No warning is raised where ndtr underflows.
    """
    out = ndtr(q)
    if q.min(initial=np.inf) > _LOG_NDTR_CUT:  # False for a NaN row
        return np.log(out, out=out)
    low = q <= _LOG_NDTR_CUT
    np.log(out, out=out, where=~low)
    out[low] = log_ndtr(q[low])
    return out


def clamp_rho(rho: float) -> tuple[float, bool]:
    """Clamp a correlation to the interior band used by likelihoods.

    Returns the (possibly clamped) value and whether clamping happened.
    """
    rho = _as_finite_float(rho, "rho")
    if abs(rho) > 1.0:
        _bad_rho(rho)
    if abs(rho) > RHO_INTERIOR:
        return math.copysign(RHO_INTERIOR, rho), True
    return rho, False


# Gauss-Legendre nodes (positive half) and weights of 6, 12 and 20 points
_GL_X6 = np.array([0.9324695142031521, 0.6612093864662645, 0.2386191860831969])
_GL_W6 = np.array([0.1713244923791704, 0.3607615730481386, 0.4679139345726910])
_GL_X12 = np.array(
    [0.9815606342467192, 0.9041172563704749, 0.7699026741943047,
     0.5873179542866175, 0.3678314989981802, 0.1252334085114689])
_GL_W12 = np.array(
    [0.04717533638651183, 0.1069393259953184, 0.1600783285433462,
     0.2031674267230659, 0.2334925365383548, 0.2491470458134028])
_GL_X20 = np.array(
    [0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
     0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
     0.5108670019508271, 0.3737060887154195, 0.2277858511416451,
     0.07652652113349734])
_GL_W20 = np.array(
    [0.01761400713915212, 0.04060142980038694, 0.06267204833410907,
     0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
     0.1316886384491766, 0.1420961093183820, 0.1491729864726037,
     0.1527533871307258])


def _gl_columns(x, w):
    """(1 -+ x, weights) as node-major columns."""
    return (np.concatenate([1.0 - x, 1.0 + x])[:, None],
            np.concatenate([w, w])[:, None])


def _node_sum(t):
    """Sum over the node axis (axis 0, fewer than 16 nodes): in order below
    8 nodes, else eight-way pairwise then in order. This is the order of
    numpy's pairwise sum along a contiguous last axis, so node-major terms
    add up bitwise as row-major ones summed with .sum(axis=1) would."""
    if len(t) < 8:
        acc, rest = t[0], t[1:]
    else:
        acc = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
        rest = t[8:]
    for row in rest:
        acc = acc + row
    return acc


def _bvn_upper_gl(nodes, w, h, k, r, absr):
    """P(X > h, Y > k) by the Gauss-Legendre sum for |r| < 0.925.

    absr holds each row's |r|, or is the one |r| all rows share, and then
    arcsin and the node sines sin(arcsin|r| (1 -+ x) / 2) are computed once
    as (2 nodes, 1) columns. arcsin and sin are odd and sign flips are
    exact, so carrying the row sign on hk and the closing factor asr gives
    bitwise the signed per-row formula.
    """
    s = np.copysign(1.0, r)
    asr = np.arcsin(absr)
    sn = np.sin(nodes * asr * 0.5)
    hs = 0.5 * (h * h + k * k)
    # w exp((sn hk - hs) / (1 - sn^2)) in one buffer: at (2 nodes, n)
    # fresh temporaries cost more than the arithmetic
    terms = sn * (s * (h * k))
    terms -= hs
    terms /= 1.0 - sn * sn
    np.exp(terms, out=terms)
    terms *= w
    half = len(w) // 2
    acc = _node_sum(terms[:half]) + _node_sum(terms[half:])
    return acc * (s * asr) / (4.0 * np.pi) + ndtr(-h) * ndtr(-k)


# the 20-point band's 1 -+ x and weights, also the nodes of the
# |rho| >= 0.925 expansion
_EXT_NODES, _EXT_W = _gl_columns(_GL_X20, _GL_W20)
# rows per (20 nodes, rows) block of the expansion sum: keeps its
# temporaries cache-sized
_EXT_BLOCK = 1024


def _ext_nodes(ah):
    """Per-node quantities of the expansion: xs, sqrt(1 - xs), 1 - rs,
    2 (1 + rs) and ah w, as (20, 1) columns for a scalar ah, else
    (20, rows)."""
    xs = (_EXT_NODES * ah) ** 2
    rs = np.sqrt(1.0 - xs)
    return xs, rs, 1.0 - rs, 2.0 * (1.0 + rs), _EXT_W * ah


def _add_ext_terms(acc, bs, hk, c, d, xs, rs, one_minus_rs, two_one_plus_rs,
                   ahw):
    """acc += the node sums of ah w exp(-(bs/xs + hk)/2) (ep - sp), the
    1 - x nodes first, masked to 0 where the exponent is <= -100."""
    t = bs / xs
    t += hk
    t *= -0.5
    skip = ~(t > -100.0)
    np.maximum(t, -101.0, out=t)    # changes only entries skip drops
    np.exp(t, out=t)
    t *= ahw
    ep = -hk * one_minus_rs
    ep /= two_one_plus_rs
    np.exp(ep, out=ep)
    ep /= rs
    sp = d * xs
    sp += 1.0
    sp *= c * xs
    sp += 1.0
    ep -= sp
    t *= ep
    np.copyto(t, 0.0, where=skip)
    half = len(t) // 2
    acc += _node_sum(t[:half])
    acc += _node_sum(t[half:])


def _ext_expansion(h, k, hk, absr):
    """P(X > h, Y > k) at correlation |r| less its |r| = 1 limit
    P(X > max(h, k)), by Genz's asymptotic expansion for
    0.925 <= |r| < 1; k already carries the row sign and absr is the
    rows' |r| or one shared value."""
    ass = (1.0 - absr) * (1.0 + absr)
    a = np.sqrt(ass)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -0.5 * (bs / ass + hk)
    keep = asr > -100.0
    # exp is slow where it underflows to subnormals; the clamp changes
    # only entries the mask drops
    np.maximum(asr, -101.0, out=asr)
    acc = np.where(
        keep,
        a * np.exp(asr)
        * (1.0 - c * (bs - ass) * (1.0 - d * bs / 5.0) / 3.0 + c * d * ass * ass / 5.0),
        0.0)
    b = np.sqrt(bs)
    tail = np.exp(-0.5 * hk) * SQRT_2PI * ndtr(-b / a) * b \
        * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
    acc -= np.where(-hk < 100.0, tail, 0.0)
    ah = 0.5 * a
    shared = _ext_nodes(ah) if np.ndim(ah) == 0 else None
    for lo in range(0, len(h), _EXT_BLOCK):
        rows = slice(lo, lo + _EXT_BLOCK)
        nodes = shared if shared is not None else _ext_nodes(ah[rows])
        _add_ext_terms(acc[rows], bs[rows], hk[rows], c[rows], d[rows], *nodes)
    return -acc / (2.0 * np.pi)


def _bvn_upper_extreme(h, k, r, absr, expand=True):
    """P(X > h, Y > k) for 0.925 <= |r| < 1: the |r| = 1 limit plus the
    expansion term, with absr as in _ext_expansion. With expand=False it
    is the exact |r| = 1 limit, which takes r of any sign.

    (1 - |r|)(1 + |r|) is (1 - r)(1 + r) up to the order of its factors,
    so both give bitwise the same values.
    """
    neg = r < 0.0
    k = np.where(neg, -k, k)
    bvn = _ext_expansion(h, k, h * k, absr) if expand else 0.0
    return np.where(neg, -bvn + np.where(k > h, ndtr(k) - ndtr(h), 0.0),
                    bvn + ndtr(-np.maximum(h, k)))


# The |rho| bands by increasing |rho|, as in Genz's reference
# implementation: Gauss-Legendre of 6, 12 and 20 points below 0.3, 0.75 and
# 0.925, the expansion below 1, then the |rho| = 1 limit. Each evaluator
# takes (h, k, r, absr) with absr per row or shared.
_BAND_EDGES = np.array([0.3, 0.75, 0.925, 1.0])
_BANDS = (
    *(functools.partial(_bvn_upper_gl, *_gl_columns(x, w))
      for x, w in ((_GL_X6, _GL_W6), (_GL_X12, _GL_W12), (_GL_X20, _GL_W20))),
    _bvn_upper_extreme,
    functools.partial(_bvn_upper_extreme, expand=False))


def bvn_cdf(a, b, rho):
    """Vectorized bivariate standard normal CDF P(X <= a, Y <= b).

    Arguments broadcast against each other, and each must hold integers or
    floats: a bool, string, object or complex one raises ValueError. rho is
    checked: a row with a NaN rho or |rho| > 1 raises ValueError naming the
    value. a and b are not checked for finiteness and must be finite:
    bvn_cdf(inf, 0.3, 0.5) is NaN, while bvn_cdf(0.3, inf, -0.95) is
    Phi(0.3). Each row is evaluated by the one band of _BANDS its |rho|
    falls in. If all rows share one |rho| (checked in one pass), that band
    is picked once and its rho-dependent node quantities are computed once
    for the call, with a result bitwise equal to the row-by-row
    evaluation.
    """
    a, b, rho = np.broadcast_arrays(
        _as_real_array(a, "a"), _as_real_array(b, "b"), _as_real_array(rho, "rho"))
    shape = a.shape
    h = -a.ravel()
    k = -b.ravel()
    # canonical argument order makes the a <-> b symmetry hold bitwise
    h, k = np.minimum(h, k), np.maximum(h, k)
    r = rho.ravel()
    absr = np.abs(r)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        if absr.size and (absr == absr[0]).all():   # False for a NaN row
            if absr[0] > 1.0:
                _bad_rho(r[0])
            band = _BANDS[np.searchsorted(_BAND_EDGES, absr[0], side="right")]
            out = band(h, k, r, absr[0])
        else:
            bad = ~(absr <= 1.0)
            if bad.any():
                _bad_rho(r[bad][0])
            index = np.searchsorted(_BAND_EDGES, absr, side="right")
            out = np.empty_like(h)
            for i, band in enumerate(_BANDS):
                rows = index == i
                if rows.any():
                    out[rows] = band(h[rows], k[rows], r[rows], absr[rows])
    out = np.clip(out, 0.0, 1.0)
    return out.reshape(shape)


def _bad_rho(rho):
    raise ValueError(f"correlation must satisfy |rho| <= 1, got {float(rho)!r}")


def log_bvn_cdf(a, b, rho):
    """ln Phi2: elementwise log of bvn_cdf with the probability floor
    applied, so a likelihood never sees -inf."""
    return np.log(np.maximum(bvn_cdf(a, b, rho), PROB_FLOOR))


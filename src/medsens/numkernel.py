"""Normal-distribution kernels used by every other module.

Scalar wrappers (norm_cdf, norm_pdf, norm_quantile, binorm_cdf) validate
their inputs and are the documented public surface. The vectorized
bivariate CDF bvn_cdf is what the likelihood code calls in bulk.

The bivariate normal CDF uses the Drezner/Wesolowsky method in Genz's
formulation: Gauss-Legendre quadrature on an arcsin-transformed integrand
for |rho| < 0.925 and an asymptotic-expansion transformation above that.
Absolute accuracy is around 5e-16, comfortably inside the 1e-12 target
for |rho| <= 0.999, and the |rho| = 1 limits are exact:
    binorm_cdf(a, b, 1)  = Phi(min(a, b))
    binorm_cdf(a, b, -1) = max(0, Phi(a) + Phi(b) - 1)

The quadrature depends on rho only through arcsin(rho) and the node sines
sin(arcsin(rho) (1 -+ x) / 2). When every row of a bvn_cdf call has the
same |rho| < 0.925 (a likelihood pass at a fixed rho, where the rows carry
+-rho), those are computed once and the row signs applied by exact sign
flips; arcsin and sin are odd, so the result is bitwise the row-by-row one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import MedsensError

SQRT_2PI = math.sqrt(2.0 * math.pi)

# Probabilities are floored here before any log, so likelihood code never
# produces -inf even in hopeless corners of the parameter space.
PROB_FLOOR = 1e-300

# Likelihood evaluations require a strictly interior correlation.
RHO_INTERIOR = 0.999


class EvaluationError(MedsensError):
    """finite_diff_grad hit a non-finite function value at a probe point."""

    def __init__(self, message: str, component: int):
        super().__init__(message)
        self.component = component


def _as_finite_float(value, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a real scalar, got {value!r}") from exc
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out!r}")
    return out


def norm_cdf(z) -> float:
    """Standard normal CDF of a finite scalar."""
    return float(ndtr(_as_finite_float(z, "z")))


def norm_pdf(z) -> float:
    """Standard normal density of a finite scalar."""
    z = _as_finite_float(z, "z")
    return math.exp(-0.5 * z * z) / SQRT_2PI


def norm_quantile(p) -> float:
    """Standard normal quantile for p strictly inside (0, 1)."""
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    return float(ndtri(p))


def safe_log(p):
    """Elementwise log with the package-wide probability floor applied."""
    return np.log(np.maximum(p, PROB_FLOOR))


def clamp_rho(rho: float) -> tuple[float, bool]:
    """Clamp a correlation to the interior band used by likelihoods.

    Returns the (possibly clamped) value and whether clamping happened.
    """
    rho = _as_finite_float(rho, "rho")
    if abs(rho) > 1.0:
        raise ValueError(f"correlation must satisfy |rho| <= 1, got {rho!r}")
    if abs(rho) > RHO_INTERIOR:
        return math.copysign(RHO_INTERIOR, rho), True
    return rho, False


# Gauss-Legendre nodes (positive half) and weights; order picked by |rho|
# exactly as in Genz's reference implementation of the Drezner/Wesolowsky
# method: 6 points below 0.3, 12 below 0.75, 20 otherwise.
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


def _gl_band(upper, x, w):
    """(upper |rho| limit, 1 -+ x, weights) as node-major columns."""
    return (upper, np.concatenate([1.0 - x, 1.0 + x])[:, None],
            np.concatenate([w, w])[:, None])


_GL_BANDS = (_gl_band(0.3, _GL_X6, _GL_W6), _gl_band(0.75, _GL_X12, _GL_W12),
             _gl_band(0.925, _GL_X20, _GL_W20))


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


def _gl_upper(h, k, hk, asr, sn, w):
    """P(X > h, Y > k) by the moderate-band Gauss-Legendre sum.

    sn holds the node sines sin(asr (1 -+ x) / 2), node-major: per row
    (2 nodes, n), or for a shared |rho| the unsigned (2 nodes, 1) column
    with the row signs carried by hk and the closing factor asr.
    """
    hs = 0.5 * (h * h + k * k)
    # w exp((sn hk - hs) / (1 - sn^2)) in one buffer: at (2 nodes, n)
    # fresh temporaries cost more than the arithmetic
    terms = sn * hk
    terms -= hs
    terms /= 1.0 - sn * sn
    np.exp(terms, out=terms)
    terms *= w
    half = len(w) // 2
    acc = _node_sum(terms[:half]) + _node_sum(terms[half:])
    return acc * asr / (4.0 * np.pi) + ndtr(-h) * ndtr(-k)


def _bvn_upper_shared(h, k, r, absr):
    """P(X > h, Y > k) when every row has |r| = absr < 0.925.

    arcsin and sin are odd and sign flips are exact, so carrying the row
    sign s on hk and asr gives bitwise the per-row values of
    _bvn_upper_moderate while arcsin and the node sines are computed once.
    """
    nodes, w = next((x, w) for upper, x, w in _GL_BANDS if absr < upper)
    s = np.copysign(1.0, r)
    asr = np.arcsin(np.array([absr]))
    return _gl_upper(h, k, s * (h * k), s * asr, np.sin(nodes * asr * 0.5), w)


def _bvn_upper_moderate(h, k, r, out):
    """P(X > h, Y > k) for |r| < 0.925, row by row, written into out."""
    absr = np.abs(r)
    lower = 0.0
    for upper, nodes, w in _GL_BANDS:
        mask = (absr >= lower) & (absr < upper)
        lower = upper
        if not mask.any():
            continue
        hh, kk = h[mask], k[mask]
        asr = np.arcsin(r[mask])
        out[mask] = _gl_upper(hh, kk, hh * kk, asr, np.sin(nodes * asr * 0.5), w)


def _bvn_upper_extreme(h, k, r, out):
    """P(X > h, Y > k) for 0.925 <= |r| <= 1, written into out.

    The |r| = 1 boundary needs no special casing: the expansion block is
    skipped there and the closing marginal terms are already the exact
    perfectly-correlated probabilities.
    """
    x, w = _GL_X20, _GL_W20
    neg = r < 0.0
    k = np.where(neg, -k, k)
    hk = h * k
    bvn = np.zeros_like(h)
    interior = np.abs(r) < 1.0
    if interior.any():
        hh, kk = h[interior], k[interior]
        hkk, rr = hk[interior], r[interior]
        ass = (1.0 - rr) * (1.0 + rr)
        a = np.sqrt(ass)
        bs = (hh - kk) ** 2
        c = (4.0 - hkk) / 8.0
        d = (12.0 - hkk) / 16.0
        asr = -0.5 * (bs / ass + hkk)
        acc = np.where(
            asr > -100.0,
            a * np.exp(asr)
            * (1.0 - c * (bs - ass) * (1.0 - d * bs / 5.0) / 3.0 + c * d * ass * ass / 5.0),
            0.0)
        b = np.sqrt(bs)
        tail = np.exp(-0.5 * hkk) * SQRT_2PI * ndtr(-b / a) * b \
            * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        acc -= np.where(-hkk < 100.0, tail, 0.0)
        ah = 0.5 * a
        for sgn in (-1.0, 1.0):
            xs = (ah[:, None] * (sgn * x + 1.0)) ** 2
            rs = np.sqrt(1.0 - xs)
            asr2 = -0.5 * (bs[:, None] / xs + hkk[:, None])
            sp = 1.0 + c[:, None] * xs * (1.0 + d[:, None] * xs)
            ep = np.exp(-hkk[:, None] * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
            term = np.where(asr2 > -100.0, ah[:, None] * w * np.exp(asr2) * (ep - sp), 0.0)
            acc += term.sum(axis=1)
        bvn[interior] = -acc / (2.0 * np.pi)
    pos = ~neg
    res = np.empty_like(bvn)
    res[pos] = bvn[pos] + ndtr(-np.maximum(h, k))[pos]
    res[neg] = -bvn[neg] + np.where(k > h, ndtr(k) - ndtr(h), 0.0)[neg]
    out[...] = np.clip(res, 0.0, 1.0)


def bvn_cdf(a, b, rho):
    """Vectorized bivariate standard normal CDF P(X <= a, Y <= b).

    Arguments broadcast against each other; no input validation happens
    here, so callers on the hot path must pass finite a, b and |rho| <= 1.
    If all rows share one |rho| < 0.925 (checked in one pass), the band is
    picked once and arcsin and the node sines are evaluated once for the
    call, with a result bitwise equal to the row-by-row evaluation used for
    mixed |rho| and for |rho| >= 0.925.
    """
    a, b, rho = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float),
        np.asarray(rho, dtype=float))
    shape = a.shape
    h = -a.ravel()
    k = -b.ravel()
    # canonical argument order makes the a <-> b symmetry hold bitwise
    h, k = np.minimum(h, k), np.maximum(h, k)
    r = rho.ravel()
    absr = np.abs(r)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        if absr.size and absr[0] < 0.925 and (absr == absr[0]).all():
            out = _bvn_upper_shared(h, k, r, absr[0])
        else:
            out = np.empty_like(h)
            moderate = absr < 0.925
            if moderate.any():
                sub = np.empty(int(moderate.sum()))
                _bvn_upper_moderate(h[moderate], k[moderate], r[moderate], sub)
                out[moderate] = sub
            extreme = ~moderate
            if extreme.any():
                sub = np.empty(int(extreme.sum()))
                _bvn_upper_extreme(h[extreme], k[extreme], r[extreme], sub)
                out[extreme] = sub
    out = np.clip(out, 0.0, 1.0)
    return out.reshape(shape)


def binorm_cdf(a, b, rho) -> float:
    """Bivariate standard normal CDF P(X <= a, Y <= b) with correlation rho.

    Scalar, validating entry point. Accuracy is ~1e-15 absolute for
    |rho| <= 0.999 and the |rho| = 1 limits are exact.
    """
    a = _as_finite_float(a, "a")
    b = _as_finite_float(b, "b")
    rho = _as_finite_float(rho, "rho")
    if abs(rho) > 1.0:
        raise ValueError(f"correlation must satisfy |rho| <= 1, got {rho!r}")
    return float(bvn_cdf(a, b, rho))


def log_bvn_cdf(a, b, rho):
    """Elementwise log of bvn_cdf with the probability floor applied."""
    return safe_log(bvn_cdf(a, b, rho))


def finite_diff_grad(f, point, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a real vector.

    Accuracy is O(step^2) times a third-derivative bound, so the default
    step suits smooth likelihood-scale functions. Raises EvaluationError
    (carrying the component index) if a probe returns a non-finite value.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.ndim != 1:
        raise ValueError("point must be a scalar or 1-d vector")
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a positive finite scalar, got {step!r}")
    grad = np.empty(point.size)
    for j in range(point.size):
        probe = point.copy()
        probe[j] = point[j] + step
        hi = float(f(probe))
        probe[j] = point[j] - step
        lo = float(f(probe))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise EvaluationError(
                f"function value non-finite when probing component {j} "
                f"(f+ = {hi!r}, f- = {lo!r})", component=j)
        grad[j] = (hi - lo) / (2.0 * step)
    return grad


__all__ = [
    "EvaluationError", "PROB_FLOOR", "RHO_INTERIOR", "SQRT_2PI",
    "binorm_cdf", "bvn_cdf", "clamp_rho", "finite_diff_grad",
    "log_bvn_cdf", "log_ndtr", "ndtr", "ndtri", "norm_cdf", "norm_pdf",
    "norm_quantile", "safe_log",
]

"""Sensitivity scans over a fixed grid of error-term correlations.

For each grid value rho the relevant constrained fit is recomputed and
the requested effect re-estimated, using the coefficient sources the
confounding direction dictates:

    exposure-mediator (zm): mediator coefficients from the constrained
        fit, outcome coefficients from the unconstrained outcome probit;
    mediator-outcome (my): both coefficient blocks from the joint
        constrained fit;
    exposure-outcome (zy): outcome coefficients from the constrained
        fit, mediator coefficients from the unconstrained mediator probit.

The scan summaries are the identification set (range of point
estimates), the uncertainty interval (union of the pointwise Wald
intervals, so its coverage is at least the nominal level at every grid
value), and sign ranges classifying each rho against the sign of the
rho-nearest-zero estimate.

Fitting does not depend on the effect: a scan refits the kind's model
pair at every grid value, then reads the effect off each fit. A point
fails when its fit raises a MedsensError or does not converge, or when
its context or effect raises one (a context refuses a block from a fit
that did not converge); only a failed fit changes later starts. Every
constrained fit goes through one _FitPath per scan, which keeps each
rho's converged fit, so it fits that rho once, and starts a fit from the
nodes its caller names, by one of two rules (Allgower & Georg 1990, ch.
2 and 6). A chain step, outward from the grid point nearest zero, starts
from the confluent Hermite polynomial through the chain's last four
converged optima, which matches each optimum's value and tangent
dx/drho, or from an Euler step when the chain has one optimum; after a
failed point the chain restarts from its last optimum alone. The rho = 0
probit pair counts as an optimum, with a closed-form tangent and
curvature, which the polynomial and a step off it also match; it is
biprobit._probit_pair_path's node, whose quadratic step starts the
anchor, and is also where fit_constrained starts when given no start. A
fit inside a bracket, refine_boundary's midpoints, starts from the cubic
Hermite through the bracket's two converged ends.
A scan fits only the probits it reads, through probit._probit_fits,
which fits each once per (dataset, spec) and keeps it in that pair's
fit_designs entry, so no probit fit is kept on or passed with the scan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .biprobit import (PAIR_MODELS, ConfoundingKind, ConstrainedFit, _pair_models,
                       _predict, _probit_pair_path, fit_constrained)
from .datamodel import CovariateProfile, Dataset, ModelSpec
from .effects import (EffectEstimate, EffectType, FitContext, _check_request,
                      effect_with_ci)
from .errors import MedsensError, NotConvergedError, ScanError
from .numkernel import RHO_INTERIOR, _as_finite_float, _as_real
from .probit import _check_fit_args, _probit_fits, fit_unconstrained

DEFAULT_GRID_LOWER = -0.95
DEFAULT_GRID_UPPER = 0.95
DEFAULT_GRID_STEP = 0.01

# grid values are rounded here to absorb floating accumulation drift
_GRID_DECIMALS = 12
# largest grid RhoGrid.regular builds (a step of 2e-4 across [-1, 1]);
# every point is a constrained refit
MAX_GRID_POINTS = 10_001
# converged nodes a chain's starts are predicted from
_WINDOW = 4
# the models whose coefficients the effects read
_EFFECT_MODELS = ("mediator", "outcome")


def _grid_bounds(lower, upper, step) -> tuple[float, float, float]:
    """lower, upper and step as finite floats, with -1 <= lower <= upper
    <= 1 and step >= 0; step 0 marks a grid of given points."""
    lower, upper, step = map(_as_finite_float, (lower, upper, step),
                             ("grid lower", "grid upper", "grid step"))
    if not -1.0 <= lower <= upper <= 1.0:
        raise ValueError(
            f"grid needs -1 <= lower <= upper <= 1, got [{lower}, {upper}]")
    if step < 0.0:
        raise ValueError(f"grid step must be positive, got {step!r}")
    return lower, upper, step


def _grid_value(v: float) -> float:
    """v clamped onto the +-0.999 likelihood band and rounded to
    _GRID_DECIMALS decimals."""
    return round(math.copysign(min(abs(v), RHO_INTERIOR), v), _GRID_DECIMALS)


@dataclass(frozen=True)
class RhoGrid:
    """Ordered, deduplicated correlation grid.

    Values beyond the +-0.999 likelihood band are clamped onto it;
    0 is always included when the range spans it. The bounds and step are
    checked however the grid is built, and every point must lie within
    the bounds or on a bound's clamped, rounded value.
    """

    lower: float
    upper: float
    step: float
    points: tuple[float, ...]
    clamped: bool = False

    def __post_init__(self):
        lower, upper, _ = _grid_bounds(self.lower, self.upper, self.step)
        points = tuple(_as_real(v, "grid point") for v in self.points)
        if not points:
            raise ValueError("grid needs at least one point")
        bad = [v for v in points if not (math.isfinite(v) and abs(v) <= 1.0)]
        if bad:
            raise ValueError(f"grid points must be finite with |rho| <= 1, got {bad}")
        # a bound also admits its own grid value, as regular builds it
        lo, hi = min(lower, _grid_value(lower)), max(upper, _grid_value(upper))
        outside = [v for v in points if not lo <= v <= hi]
        if outside:
            raise ValueError(
                f"grid points must lie in [{lower}, {upper}], got {outside}")
        steps = [(a, b) for a, b in zip(points, points[1:]) if b <= a]
        if steps:
            raise ValueError(f"grid points must be strictly increasing, got "
                             f"{steps[0][1]!r} after {steps[0][0]!r}")
        object.__setattr__(self, "points", points)

    @classmethod
    def regular(cls, lower: float = DEFAULT_GRID_LOWER,
                upper: float = DEFAULT_GRID_UPPER,
                step: float = DEFAULT_GRID_STEP) -> "RhoGrid":
        lower, upper, step = _grid_bounds(lower, upper, step)
        if step <= 0.0:
            raise ValueError(f"grid step must be positive, got {step!r}")
        # a subnormal step makes the span infinite, which has no int floor
        span = (upper - lower) / step + 1e-9
        count = math.floor(span) + 1 if math.isfinite(span) else span
        if count > MAX_GRID_POINTS:
            raise ValueError(
                f"grid [{lower}, {upper}] with step {step!r} has {count} "
                f"points; at most {MAX_GRID_POINTS} are allowed")
        # lower + i * step can round past upper
        raw = [min(lower + i * step, upper) for i in range(count)]
        raw.append(upper)
        if lower <= 0.0 <= upper:
            raw.append(0.0)
        return cls(lower=lower, upper=upper, step=step,
                   points=tuple(sorted(set(map(_grid_value, raw)))),
                   clamped=max(map(abs, raw)) > RHO_INTERIOR)


@dataclass(frozen=True)
class ScanPoint:
    """One grid value: the refitted effect and the fit's packed
    coefficients, the fit's own read-only array (both None if the point
    failed)."""

    rho: float
    estimate: EffectEstimate | None
    converged: bool
    coefficients: np.ndarray | None = None


@dataclass(frozen=True)
class SensitivityScan:
    """Scan results plus the dataset and spec to refit at new rho values.

    A scan from run_scan on more than one grid point also keeps its
    _FitPath, out of repr and comparisons, so that refine_boundary refits
    from the scan's own fits and a rho whose fit converged is not fitted
    again. A one-point scan has no bracket to refine and keeps none.
    """

    kind: ConfoundingKind
    effect_type: EffectType
    scope: str
    grid: RhoGrid
    alpha: float
    points: tuple[ScanPoint, ...]
    warnings: tuple[str, ...]
    dataset: Dataset
    spec: ModelSpec
    profile: CovariateProfile | None
    _path: _FitPath | None = field(default=None, repr=False, compare=False)

    @property
    def failures(self) -> tuple[float, ...]:
        return tuple(pt.rho for pt in self.points if not pt.converged)

    def converged_points(self) -> list[ScanPoint]:
        return [pt for pt in self.points if pt.converged and pt.estimate is not None]


def _context(ds, spec, kind=None, fit=None) -> FitContext:
    """FitContext from the probit fits _probit_fits keeps for (ds, spec),
    except for the mediator (beta) and outcome (theta) blocks that the
    constrained fit's pair, PAIR_MODELS[kind], contains. Raises
    NotConvergedError, naming the fit, when a block it takes comes from a
    fit that did not converge, the mediator's first."""
    blocks = {model: (probit.coefficients, probit.covariance, probit.converged,
                      f"{model} probit fit")
              for model, probit in _probit_fits(ds, spec, _EFFECT_MODELS).items()}
    if fit is not None:
        tag = f"constrained fit (kind={kind.value}, rho={fit.rho})"
        for model, coef, cov in zip(PAIR_MODELS[kind],
                                    (fit.coefficients_a, fit.coefficients_b),
                                    (fit.covariance_a, fit.covariance_b)):
            if model in blocks:
                blocks[model] = (coef, cov, fit.converged, tag)
    for _, _, converged, source in blocks.values():
        if not converged:
            raise NotConvergedError(
                f"{source} did not converge; refusing to report an effect")
    beta, sigma_beta, *_ = blocks["mediator"]
    theta, sigma_theta, *_ = blocks["outcome"]
    return FitContext(
        beta=beta, theta=theta, sigma_beta=sigma_beta, sigma_theta=sigma_theta,
        spec=spec, dataset=ds,
        rho_context=None if fit is None else (kind.value, fit.rho))


def unconstrained_context(ds: Dataset, spec: ModelSpec) -> FitContext:
    """FitContext built from the three separate probit fits. All three
    are fitted, as fit_unconstrained returns them, so data the exposure
    probit fails on fail here too, though the effects read only two."""
    fit_unconstrained(ds, spec)
    return _context(ds, spec)


def constrained_context(kind: ConfoundingKind, fit: ConstrainedFit,
                        ds: Dataset, spec: ModelSpec) -> FitContext:
    """FitContext at the fit's rho: the constrained fit supplies the
    coefficient blocks its kind affects, the probit fits the rest."""
    return _context(ds, spec, kind, fit)


class _FitPath:
    """The kind's constrained fits on (ds, spec), one per rho fitted: the
    converged fit, or None where it raised a MedsensError or did not
    converge. Only converged fits are kept for good; a failed rho is
    fitted again when asked for again."""

    def __init__(self, kind, ds, spec):
        self.kind, self.ds, self.spec = kind, ds, spec
        self.probit_pair = _probit_pair_path(kind, ds, spec)
        self.fits = {}  # keyed by rho

    def node(self, rho):
        """The (rho, x, tangent, curvature) node of the converged fit at
        rho, or the probit pair's where rho has none (a failed or unfitted
        anchor); nodes at rho = 0 carry the curvature."""
        fit = self.fits.get(rho)
        if fit is None:
            return self.probit_pair
        return (rho, fit.coefficients, fit.tangent,
                self.probit_pair[3] if rho == 0.0 else None)

    def fit(self, rho, known) -> ConstrainedFit | None:
        """The fit at rho: the kept one if rho converged before, else a
        fit from the Hermite polynomial through the nodes at the rhos
        known."""
        if self.fits.get(rho) is None:
            start = _predict([self.node(r) for r in known], rho)
            try:
                fit = fit_constrained(self.kind, rho, self.ds, self.spec,
                                      start=start)
                self.fits[rho] = fit if fit.converged else None
            except MedsensError:
                self.fits[rho] = None
        return self.fits[rho]


def _scan_point(scan: SensitivityScan, rho, fit) -> ScanPoint:
    """The scan's effect at one refit; the point fails with its fit or
    when its context or effect raises a MedsensError."""
    if fit is None:
        return ScanPoint(rho=rho, estimate=None, converged=False)
    try:
        ctx = _context(scan.dataset, scan.spec, scan.kind, fit)
        est = effect_with_ci(scan.effect_type, scan.scope, ctx,
                             alpha=scan.alpha, profile=scan.profile)
    except MedsensError:
        return ScanPoint(rho=rho, estimate=None, converged=False)
    return ScanPoint(rho, est, True, fit.coefficients)


def run_scan(kind: ConfoundingKind, effect_type: EffectType, scope: str,
             grid: RhoGrid, ds: Dataset, spec: ModelSpec,
             alpha: float = 0.05, profile=None) -> SensitivityScan:
    """Refit at every grid value and re-estimate one effect.

    Raises ScanError when more than half the grid points fail; partial
    failures are recorded on the scan and surfaced via .failures.
    """
    _pair_models(kind)  # the request's checks, before any fit
    _check_fit_args(ds, spec)
    _check_request(effect_type, scope, alpha, profile, ds)
    warnings: list[str] = []
    if grid.clamped:
        warnings.append("grid values beyond |rho| = 0.999 were clamped onto it")
    if max(abs(p) for p in grid.points) > 0.95:
        warnings.append(
            "grid extends beyond |rho| = 0.95; fits near the boundary can be "
            "numerically delicate")

    _probit_fits(ds, spec, _EFFECT_MODELS)  # their errors raise before any refit
    path, rhos = _FitPath(kind, ds, spec), grid.points
    # the point nearest zero, then a chain outward on either side of it
    anchor = int(np.argmin(np.abs(rhos)))
    for chain in ((anchor,), range(anchor + 1, len(rhos)),
                  range(anchor - 1, -1, -1)):
        # the rhos of the nodes to predict from: the last _WINDOW
        # converged, or only the last one after a failed point
        known = [rhos[anchor]]
        for i in chain:
            known = (known[-1:] if path.fit(rhos[i], known) is None
                     else [*known[1 - _WINDOW:], rhos[i]])
    scan = SensitivityScan(kind=kind, effect_type=effect_type, scope=scope,
                           grid=grid, alpha=alpha, points=(), warnings=(),
                           dataset=ds, spec=spec,
                           _path=path if len(rhos) > 1 else None,  # no bracket to refine
                           profile=profile if scope == "conditional" else None)
    points = tuple(_scan_point(scan, rho, path.fits[rho]) for rho in rhos)
    failed = [pt.rho for pt in points if not pt.converged]
    if len(failed) > 0.5 * len(points):
        raise ScanError(
            f"{len(failed)} of {len(points)} grid points failed to converge "
            f"(at rho = {failed}); scan abandoned", failures=failed)
    if failed:
        warnings.append(f"{len(failed)} grid points did not converge: {failed}")
    return replace(scan, points=points, warnings=tuple(warnings))


@dataclass(frozen=True)
class IntervalResult:
    """A scan summary interval (identification set or uncertainty
    interval)."""

    label: str
    lower: float
    upper: float
    effect_type: EffectType
    kind: ConfoundingKind
    alpha: float | None = None


def _require_converged(scan: SensitivityScan) -> list[ScanPoint]:
    pts = scan.converged_points()
    if not pts:
        raise ScanError("scan has no converged grid points to summarize")
    return pts


def identification_set(scan: SensitivityScan) -> IntervalResult:
    """Range of the point estimates over the converged grid values."""
    ests = [pt.estimate.estimate for pt in _require_converged(scan)]
    return IntervalResult(label="identification_set", lower=min(ests),
                          upper=max(ests), effect_type=scan.effect_type,
                          kind=scan.kind)


def uncertainty_interval(scan: SensitivityScan) -> IntervalResult:
    """Union of the pointwise Wald intervals over the converged grid.

    Covers the true effect with probability at least 1 - alpha whenever
    the true correlation lies on the grid.
    """
    pts = _require_converged(scan)
    return IntervalResult(label="uncertainty_interval",
                          lower=min(pt.estimate.ci_lower for pt in pts),
                          upper=max(pt.estimate.ci_upper for pt in pts),
                          effect_type=scan.effect_type, kind=scan.kind,
                          alpha=scan.alpha)


class SignClass(enum.Enum):
    SIGNIFICANT_SAME_SIGN = "significant_same_sign"
    NOT_SIGNIFICANT = "not_significant"
    REVERSED = "reversed"


@dataclass(frozen=True)
class SignRanges:
    """Partition of the scanned correlation span by significance class.

    ranges are contiguous (lo, hi, class) triples over the converged
    span; each internal boundary sits at the first grid point of the
    next class.
    """

    reference_sign: int
    ranges: tuple[tuple[float, float, SignClass], ...]
    warnings: tuple[str, ...] = ()


def _classify(est: EffectEstimate, reference_sign: int) -> SignClass:
    if est.ci_lower <= 0.0 <= est.ci_upper:
        return SignClass.NOT_SIGNIFICANT
    sign = 1 if est.estimate > 0 else -1
    return (SignClass.SIGNIFICANT_SAME_SIGN if sign == reference_sign
            else SignClass.REVERSED)


def _reference_sign(scan: SensitivityScan) -> tuple[int, list[str]]:
    pts = _require_converged(scan)
    ref_pt = min(pts, key=lambda pt: (abs(pt.rho), pt.rho < 0))
    ref = ref_pt.estimate.estimate
    if ref == 0.0:
        return 1, ["reference estimate at the rho nearest zero is exactly "
                   "zero; treating positive as the reference sign"]
    return (1 if ref > 0 else -1), []


def sign_ranges(scan: SensitivityScan) -> SignRanges:
    """Classify every converged grid value against the near-zero sign."""
    pts = _require_converged(scan)
    ref_sign, warnings = _reference_sign(scan)
    classes = [(pt.rho, _classify(pt.estimate, ref_sign)) for pt in pts]
    ranges: list[tuple[float, float, SignClass]] = []
    run_start, run_class = classes[0]
    for rho, cls in classes[1:]:
        if cls is not run_class:
            ranges.append((run_start, rho, run_class))
            run_start, run_class = rho, cls
    ranges.append((run_start, classes[-1][0], run_class))
    return SignRanges(reference_sign=ref_sign, ranges=tuple(ranges),
                      warnings=tuple(warnings))


def refine_boundary(scan: SensitivityScan, resolution: float = 0.01) -> list[float]:
    """Bisect each classification change down to the requested width.

    Each boundary between adjacent differently-classified grid points is
    refined by refitting at bracket midpoints until the bracket is no
    wider than resolution; the returned value is the bracket midpoint.
    Each midpoint is fitted through the scan's _FitPath inside its
    bracket, so it starts from the cubic Hermite through the bracket's two
    converged ends; a midpoint that converged before, in the scan or an
    earlier call, is not refitted, and one that failed is refitted.
    A scan built by hand keeps no fits, so refining one of its
    boundaries raises ValueError; a one-point scan has no boundary.
    A failed refit stops refinement of that boundary at the coarse
    bracket (the scan-level warning machinery does not apply here; the
    coarse midpoint is still returned).
    Bisection also stops when a midpoint rounds to an end of its bracket:
    a resolution below the float spacing at a boundary returns the
    midpoint of a bracket whose ends are adjacent doubles.
    """
    resolution = _as_finite_float(resolution, "resolution")
    if resolution <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution!r}")
    pts = _require_converged(scan)
    ref_sign, _ = _reference_sign(scan)
    boundaries = []
    for left, right in zip(pts[:-1], pts[1:]):
        cls_left = _classify(left.estimate, ref_sign)
        if cls_left is _classify(right.estimate, ref_sign):
            continue
        if scan._path is None:
            raise ValueError("refine_boundary refits through the fits of a "
                             "scan from run_scan; this scan keeps none")
        lo, hi = left.rho, right.rho
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            pt = _scan_point(scan, mid, scan._path.fit(mid, (lo, hi)))
            if not pt.converged:
                break
            same = _classify(pt.estimate, ref_sign) is cls_left
            lo, hi = (mid, hi) if same else (lo, mid)
        boundaries.append(0.5 * (lo + hi))
    return sorted(boundaries)

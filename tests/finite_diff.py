"""Central-difference gradients, the tests' check on analytic ones."""

import math

import numpy as np


def finite_diff_grad(f, point, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a real vector.

    Accuracy is O(step^2) times a third-derivative bound, so the default
    step suits smooth likelihood-scale functions. Raises ValueError naming
    the component if a probe returns a non-finite value.
    """
    point = np.atleast_1d(np.asarray(point, dtype=float))
    grad = np.empty(point.size)
    for j in range(point.size):
        probe = point.copy()
        probe[j] = point[j] + step
        hi = float(f(probe))
        probe[j] = point[j] - step
        lo = float(f(probe))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise ValueError(
                f"function value non-finite when probing component {j} "
                f"(f+ = {hi!r}, f- = {lo!r})")
        grad[j] = (hi - lo) / (2.0 * step)
    return grad

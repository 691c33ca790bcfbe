"""Golden-section maximization: the reference optimizer of the tests.

The package's estimators use closed forms or a score root; this search
on function values alone checks them independently.
"""

import math
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_scalar(
    objective: Callable[[float], float],
    lower: float,
    upper: float,
    tol: float,
) -> tuple[float, float, bool]:
    """Golden-section maximization on [lower, upper].

    Returns (argmax, value, boundary_flag); the flag is set when the best
    point lies within tol of an endpoint.  Assumes unimodality, not
    differentiability.  Raises if the objective returns NaN anywhere
    probed.
    """
    if not lower < upper:
        raise ValueError("need lower < upper")
    if not tol > 0:
        raise ValueError("tol must be positive")

    def f(x: float) -> float:
        y = objective(x)
        if math.isnan(y):
            raise ValueError(f"objective returned NaN at {x}")
        return y

    a, b = lower, upper
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    candidates = [(fc, c), (fd, d), (f(lower), lower), (f(upper), upper)]
    value, best = max(candidates)
    boundary = best - lower <= tol or upper - best <= tol
    return best, value, boundary

"""Loss-rate estimation from equal-spacer statistics.

The pair estimator has a closed form; the triple estimator brackets the
maximum of the conditional log-likelihood on a grid and solves for the
root of its closed-form score inside the bracket by safeguarded Newton.
Boundary optima are flagged, never silently returned as interior values,
and datasets with fewer than two equal spacers are rejected with a typed
error so experiment harnesses can count them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .likelihood import (
    pair_conditional_loglik, triple_conditional_loglik, triple_conditional_score
)

__all__ = [
    "EstimateResult",
    "InsufficientDataError",
    "estimate_rho_pair",
    "estimate_rho_triple",
    "estimate_theta_moment",
    "negbin_p_mle",
    "pair_closed_form",
    "TRIPLE_BRACKET_LOW",
]

# triple search: bracket lower end (the upper end is 50 / (T + T')), grid
# size over the bracket, and the root-finder's tolerance and iteration cap
TRIPLE_BRACKET_LOW = 1e-8
TRIPLE_GRID_POINTS = 201
TRIPLE_TOL = 1e-9
TRIPLE_MAX_ITER = 100

_UNIT_GRID = np.linspace(0.0, 1.0, TRIPLE_GRID_POINTS)


class InsufficientDataError(ValueError):
    """Fewer than two equal spacers: the conditional likelihood is empty."""


@dataclass(frozen=True)
class EstimateResult:
    rho_hat: float
    loglik: float
    method: str
    boundary: bool
    diagnostics: Mapping = field(default_factory=dict)


def pair_closed_form(m, d, T):
    """The pair MLE: p* = (1 + d/(2(m-1)))^{-1} and rho* = -log(p*)/T, with
    d = 0 giving the exact boundary value rho* = 0.  Returns (p*, rho*) and
    broadcasts over arrays; every m must be >= 2."""
    p_star = 1.0 / (1.0 + d / (2.0 * (m - 1)))
    return p_star, np.where(d == 0, 0.0, -np.log(p_star) / T)  # -log(1) / T is -0.0


def estimate_rho_pair(m: int, d: int, T: float) -> EstimateResult:
    """Closed-form MLE from a two-leaf sample, see :func:`pair_closed_form`."""
    if m < 2:
        raise InsufficientDataError("pair estimator requires m >= 2")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not T > 0:
        raise ValueError("T must be positive")
    p_star, rho_star = pair_closed_form(m, d, T)
    rho_star = float(rho_star)
    boundary = d == 0
    loglik = (
        pair_conditional_loglik(m, d, rho_star, T) if rho_star > 0 else 0.0
    )  # at rho = 0 every gap is empty with probability 1
    return EstimateResult(
        rho_hat=rho_star,
        loglik=loglik,
        method="pair-closed-form",
        boundary=boundary,
        diagnostics={"m": m, "d": d, "p_star": p_star},
    )


def negbin_p_mle(m: int, d: int) -> float:
    """MLE of p when d is modeled as NegBin(2(m-1), p); algebraically
    identical to the pair estimator's p*."""
    if m < 2:
        raise InsufficientDataError("requires m >= 2")
    r = 2 * (m - 1)
    return r / (r + d)


def estimate_rho_triple(
    m: int,
    d1: int,
    d2: int,
    d3: int,
    d4: int,
    T: float,
    T_prime: float,
) -> EstimateResult:
    """Numeric MLE from a three-leaf sample.

    The conditional log-likelihood is evaluated in one array call on a
    201-point grid over [1e-8, 50/(T+T')].  The two grid cells around the
    best grid point bracket the maximum, and the estimate is the root of
    the closed-form score inside them.  The grid bracket needs no
    unimodality; ``diagnostics["multimodal_suspect"]`` reports whether the
    grid log-likelihood has more than one local maximum."""
    if m < 2:
        raise InsufficientDataError("triple estimator requires m >= 2")
    if not (T >= T_prime > 0):
        raise ValueError("need T >= T_prime > 0")
    if all(d == 0 for d in (d1, d2, d3, d4)):
        return EstimateResult(
            rho_hat=0.0,
            loglik=0.0,
            method="triple-numeric",
            boundary=True,
            diagnostics={"m": m, "d": (d1, d2, d3, d4)},
        )
    stats = (m, d1, d2, d3, d4)
    lower, upper = TRIPLE_BRACKET_LOW, 50.0 / (T + T_prime)
    if not lower < upper < math.inf:
        raise ValueError("T + T_prime is out of range for the search bracket")
    grid = lower + (upper - lower) * _UNIT_GRID
    ll = triple_conditional_loglik(*stats, grid, T, T_prime)
    k = int(np.argmax(ll))
    rho_hat = _score_root(
        lambda rho: triple_conditional_score(*stats, rho, T, T_prime),
        float(grid[max(k - 1, 0)]),
        float(grid[min(k + 1, TRIPLE_GRID_POINTS - 1)]),
        float(grid[k]),
    )
    value = triple_conditional_loglik(*stats, rho_hat, T, T_prime)
    if value < ll[k]:  # the root is a lesser stationary point: keep the grid's best
        rho_hat, value = float(grid[k]), float(ll[k])
    # local maxima of the grid log-likelihood, its two ends included
    rises, falls = ll[1:] > ll[:-1], ll[1:] < ll[:-1]
    peaks = np.count_nonzero(rises[:-1] & falls[1:]) + falls[0] + rises[-1]
    return EstimateResult(
        rho_hat=rho_hat,
        loglik=value,
        method="triple-numeric",
        boundary=rho_hat - lower <= TRIPLE_TOL or upper - rho_hat <= TRIPLE_TOL,
        diagnostics={
            "m": m,
            "d": (d1, d2, d3, d4),
            "multimodal_suspect": bool(peaks > 1),
            "grid_argmax": float(grid[k]),
        },
    )


def _score_root(
    score: Callable[[float], tuple[float, float]], a: float, b: float, x: float
) -> float:
    """Root of a score that falls through zero on [a, b].

    ``score`` returns the score and its derivative.  Newton steps start
    from x; a step is replaced by bisection of the bracket when the
    log-likelihood is not concave or the step leaves the bracket, and the
    search stops when a step is within TRIPLE_TOL relative.  Without a
    sign change it returns the end the log-likelihood rises toward: a when
    the score at a is <= 0, else b."""
    if not score(a)[0] > 0:
        return a
    if not score(b)[0] < 0:
        return b
    if not a < x < b:
        x = 0.5 * (a + b)
    for _ in range(TRIPLE_MAX_ITER):
        s, h = score(x)
        if s > 0:
            a = x
        elif s < 0:
            b = x
        else:
            return x
        x_new = x - s / h if h < 0 else 0.5 * (a + b)
        if not a < x_new < b:
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= TRIPLE_TOL * x:
            return x_new
        x = x_new
    return x


def estimate_theta_moment(rho_hat: float, arrays: Mapping[str, Sequence]) -> float:
    """Moment estimate of the gain rate: rho_hat times the mean array
    length over leaves (the equilibrium mean length is theta/rho)."""
    if not rho_hat > 0:
        raise ValueError("rho_hat must be positive")
    if not arrays:
        return 0.0
    mean_len = sum(len(a) for a in arrays.values()) / len(arrays)
    return rho_hat * mean_len

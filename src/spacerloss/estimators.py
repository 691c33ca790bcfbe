"""Loss-rate estimation from equal-spacer statistics.

The pair estimator has a closed form; the triple estimator maximizes the
conditional log-likelihood numerically with a golden-section search.
Boundary optima are flagged, never silently returned as interior values,
and datasets with fewer than two equal spacers are rejected with a typed
error so experiment harnesses can count them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .likelihood import pair_conditional_loglik, triple_conditional_loglik

__all__ = [
    "EstimateResult",
    "InsufficientDataError",
    "estimate_rho_pair",
    "estimate_rho_triple",
    "estimate_theta_moment",
    "negbin_p_mle",
    "maximize_scalar",
    "TRIPLE_BRACKET_LOW",
]

# triple search: bracket lower end (the upper end is 50 / (T + T')) and tolerance
TRIPLE_BRACKET_LOW = 1e-8
TRIPLE_TOL = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class InsufficientDataError(ValueError):
    """Fewer than two equal spacers: the conditional likelihood is empty."""


@dataclass(frozen=True)
class EstimateResult:
    rho_hat: float
    loglik: float
    method: str
    boundary: bool
    diagnostics: Mapping = field(default_factory=dict)


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


def estimate_rho_pair(m: int, d: int, T: float) -> EstimateResult:
    """Closed-form MLE from a two-leaf sample: p* = (1 + d/(2(m-1)))^{-1},
    rho* = -log(p*)/T.  d = 0 gives the exact boundary value rho* = 0."""
    if m < 2:
        raise InsufficientDataError("pair estimator requires m >= 2")
    if d < 0:
        raise ValueError("d must be nonnegative")
    if not T > 0:
        raise ValueError("T must be positive")
    p_star = 1.0 / (1.0 + d / (2.0 * (m - 1)))
    rho_star = -math.log(p_star) / T
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
    """Numeric MLE from a three-leaf sample via golden-section search on
    the conditional log-likelihood over [1e-8, 50/(T+T')]."""
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

    def objective(rho: float) -> float:
        return triple_conditional_loglik(m, d1, d2, d3, d4, rho, T, T_prime)

    lower, upper = TRIPLE_BRACKET_LOW, 50.0 / (T + T_prime)
    rho_hat, value, boundary = maximize_scalar(objective, lower, upper, TRIPLE_TOL)
    # coarse-grid cross-check flags multimodality symptoms in diagnostics
    grid_best = max(
        (lower + k * (upper - lower) / 200 for k in range(201)), key=objective
    )
    suspect = abs(grid_best - rho_hat) > max(10 * TRIPLE_TOL, (upper - lower) / 150)
    return EstimateResult(
        rho_hat=rho_hat,
        loglik=value,
        method="triple-numeric",
        boundary=boundary,
        diagnostics={
            "m": m,
            "d": (d1, d2, d3, d4),
            "multimodal_suspect": suspect,
            "grid_argmax": grid_best,
        },
    )


def estimate_theta_moment(rho_hat: float, arrays: Mapping[str, Sequence]) -> float:
    """Moment estimate of the gain rate: rho_hat times the mean array
    length over leaves (the equilibrium mean length is theta/rho)."""
    if not rho_hat > 0:
        raise ValueError("rho_hat must be positive")
    if not arrays:
        return 0.0
    mean_len = sum(len(a) for a in arrays.values()) / len(arrays)
    return rho_hat * mean_len

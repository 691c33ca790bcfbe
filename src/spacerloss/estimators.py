"""Loss-rate estimation from equal-spacer statistics.

The pair estimator has a closed form; the triple estimator brackets the
maximum of the conditional log-likelihood on a grid and solves for the
root of its closed-form score inside the bracket by safeguarded Newton,
which stops a row as soon as its Newton step is within TRIPLE_TOL
relative, before any bisection fallback.  Both estimate a batch of rows
at once and return one :class:`Fit`: :func:`pair_mle` and
:func:`triple_mle`, with :func:`estimate_rho_pair` and
:func:`estimate_rho_triple` as their one-row views.  Boundary optima are
flagged, never silently returned as interior values.  Input goes
through :mod:`spacerloss.likelihood`'s checkers: M < 2 in any row raises
:class:`InsufficientDataError` (re-exported here), so experiment
harnesses can count such datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .likelihood import (
    InsufficientDataError, _check_stats, _check_times, pair_conditional_loglik,
    triple_conditional_loglik, triple_score_unchecked,
)

__all__ = [
    "EstimateResult",
    "InsufficientDataError",
    "estimate_rho_pair",
    "estimate_rho_triple",
    "estimate_theta_moment",
    "Fit",
    "negbin_p_mle",
    "pair_mle",
    "theta_moment",
    "triple_mle",
    "TRIPLE_BRACKET_LOW",
]

# triple search: bracket lower end (the upper end is 50 / (T + T')), grid
# size over the bracket, rows per grid evaluation (which bounds the grid's
# memory), and the root-finder's tolerance and iteration cap
TRIPLE_BRACKET_LOW = 1e-8
TRIPLE_GRID_POINTS = 201
TRIPLE_GRID_CHUNK = 64
TRIPLE_TOL = 1e-9
TRIPLE_MAX_ITER = 100

_UNIT_GRID = np.linspace(0.0, 1.0, TRIPLE_GRID_POINTS)


@dataclass(frozen=True)
class EstimateResult:
    rho_hat: float
    loglik: float
    method: str
    boundary: bool
    diagnostics: Mapping = field(default_factory=dict)


class Fit(NamedTuple):
    """The MLEs of a batch, one entry per row; see :func:`pair_mle` and
    :func:`triple_mle`."""

    rho_hat: np.ndarray
    loglik: np.ndarray
    boundary: np.ndarray
    multimodal_suspect: np.ndarray
    grid_argmax: np.ndarray

    @classmethod
    def at_zero(cls, boundary) -> Fit:
        """Every estimate 0 with log-likelihood 0, none suspect and no grid."""
        rows = len(boundary)
        return cls(np.zeros(rows), np.zeros(rows), boundary, np.zeros(rows, dtype=bool),
                   np.full(rows, np.nan))

    def first_row(self, method: str, diagnostics: Mapping) -> EstimateResult:
        """The first row as an :class:`EstimateResult`."""
        return EstimateResult(float(self.rho_hat[0]), float(self.loglik[0]), method,
                              bool(self.boundary[0]), diagnostics)


def pair_mle(m, d, T) -> Fit:
    """Closed-form MLEs from B two-leaf samples at once; ``m``, ``d`` and
    ``T`` broadcast to (B,).  The estimate is rho* = -log(p*)/T with p*
    from :func:`negbin_p_mle`.  A row with d = 0 is a boundary one, with
    the exact value 0 and log-likelihood 0 (at rho = 0 every gap is empty
    with probability 1).  A pair has no grid: no row is
    ``multimodal_suspect`` and every ``grid_argmax`` is NaN."""
    m, d, T = np.broadcast_arrays(*np.atleast_1d(m, d, T))
    _check_stats(m, (d,))
    _check_times(None, T)
    fit = Fit.at_zero(d == 0)
    live = np.flatnonzero(d)
    if not live.size:
        return fit
    m, d, T = m[live], d[live], T[live]
    with np.errstate(over="ignore"):  # an infinite estimate fails the range check
        rho_hat = -np.log(negbin_p_mle(m, d)) / T
    if not np.all((rho_hat > 0) & (rho_hat < math.inf)):
        raise ValueError("T is out of range for the pair estimate")
    fit.rho_hat[live] = rho_hat
    fit.loglik[live] = pair_conditional_loglik(m, d, rho_hat, T)
    return fit


def estimate_rho_pair(m: int, d: int, T: float) -> EstimateResult:
    """Closed-form MLE from a two-leaf sample: the one-row view of
    :func:`pair_mle`, with p* in ``diagnostics``."""
    return pair_mle(m, d, T).first_row(
        "pair-closed-form", {"m": m, "d": d, "p_star": negbin_p_mle(m, d)}
    )


def negbin_p_mle(m, d):
    """MLE of p when d is modeled as NegBin(2(m-1), p), which is the pair
    estimator's p* = (1 + d/(2(m-1)))^{-1}; broadcasts over arrays."""
    _check_stats(m, ())
    return 1.0 / (1.0 + d / (2.0 * (m - 1)))


def triple_mle(m, d, T, T_prime) -> Fit:
    """Numeric MLEs from B three-leaf samples at once.

    ``m``, ``T`` and ``T_prime`` broadcast to (B,) and ``d`` is (B x 4),
    the statistics D1..D4 per row.  For each row the conditional
    log-likelihood is evaluated on a 201-point grid over
    [1e-8, 50/(T+T')], in chunks of TRIPLE_GRID_CHUNK rows.  The two grid
    cells around the best grid point bracket the maximum, and the
    estimate is the root of the closed-form score inside them, found by
    safeguarded Newton steps taken by all unconverged rows together: a
    row bisects where the log-likelihood is not concave or its step leaves
    the bracket, and stops once a step (a Newton step is tested before
    bisection can replace it) is within TRIPLE_TOL relative.  The
    grid bracket needs no unimodality; ``multimodal_suspect`` reports
    whether the grid log-likelihood has more than one local maximum.
    A row whose statistics are all zero gets the boundary estimate 0 with
    log-likelihood 0, no suspicion and a NaN ``grid_argmax``.  Every
    row's result is that of the row alone."""
    d = np.asarray(d)
    if d.ndim != 2 or d.shape[1] != 4:
        raise ValueError("d must hold D1..D4 in the columns of a 2-d array")
    m, T, T_prime = np.broadcast_arrays(m, T, T_prime, np.empty(d.shape[:1]))[:3]
    _check_stats(m, (d,))
    _check_times(None, T, T_prime)
    fit = Fit.at_zero(np.ones(len(d), dtype=bool))
    live = np.flatnonzero(d.any(axis=1))
    if not live.size:
        return fit
    m, d, T, T_prime = m[live], d[live].T, T[live], T_prime[live]
    with np.errstate(over="ignore"):  # an infinite end fails the range check
        lower, upper = TRIPLE_BRACKET_LOW, 50.0 / (T + T_prime)
    if not np.all((lower < upper) & (upper < math.inf)):
        raise ValueError("T + T_prime is out of range for the search bracket")
    # per row: the best grid index, its log-likelihood and the number of
    # local maxima of the grid log-likelihood, its two ends included
    k = np.empty(live.size, dtype=np.intp)
    best = np.empty(live.size)
    peaks = np.empty(live.size, dtype=np.intp)
    for start in range(0, live.size, TRIPLE_GRID_CHUNK):
        c = slice(start, start + TRIPLE_GRID_CHUNK)
        col = np.s_[c, None]
        grid = lower + (upper[col] - lower) * _UNIT_GRID
        ll = triple_conditional_loglik(
            m[col], *(x[col] for x in d), grid, T[col], T_prime[col]
        )
        k[c] = np.argmax(ll, axis=1)
        best[c] = np.take_along_axis(ll, k[c, None], axis=1)[:, 0]
        rises, falls = ll[:, 1:] > ll[:, :-1], ll[:, 1:] < ll[:, :-1]
        peaks[c] = np.count_nonzero(rises[:, :-1] & falls[:, 1:], axis=1)
        peaks[c] += falls[:, 0] + rises[:, -1]
    def grid_point(j):  # per row, column j of its grid
        return lower + (upper - lower) * _UNIT_GRID[j]

    at = grid_point(k)
    lo = grid_point(np.maximum(k - 1, 0))
    hi = grid_point(np.minimum(k + 1, TRIPLE_GRID_POINTS - 1))
    s_lo, s_hi = triple_score_unchecked(m, *d, np.stack([lo, hi]), T, T_prime)[0]
    rho_hat = np.where(s_lo > 0, hi, lo)  # no sign change: the end the likelihood rises to
    # safeguarded Newton on the active rows, those whose score falls
    # through zero in their bracket [a, b]
    act = np.flatnonzero((s_lo > 0) & (s_hi < 0))
    am, ad, aT, aTp = m[act], d[:, act], T[act], T_prime[act]
    a, b, x = lo[act], hi[act], at[act]
    x = np.where((a < x) & (x < b), x, 0.5 * (a + b))
    for _ in range(TRIPLE_MAX_ITER):
        if not act.size:
            break
        s, h = triple_score_unchecked(am, *ad, x, aT, aTp)
        a, b = np.where(s > 0, x, a), np.where(s < 0, x, b)
        mid = 0.5 * (a + b)
        x_new = mid.copy()
        newton = h < 0  # the division runs on these rows only
        x_new[newton] = x[newton] - s[newton] / h[newton]
        # a converged step may round onto the bracket end just set: it
        # stops the row before the bisection fallback can replace it
        near = np.abs(x_new - x) <= TRIPLE_TOL * x
        outside = ~(near | ((a < x_new) & (x_new < b)))
        x_new[outside] = mid[outside]
        exact = ~((s > 0) | (s < 0))  # a zero score, or NaN: stop at x
        done = exact | (np.abs(x_new - x) <= TRIPLE_TOL * x)
        rho_hat[act[done]] = np.where(exact, x, x_new)[done]
        keep = ~done
        act, am, ad, aT, aTp = act[keep], am[keep], ad[:, keep], aT[keep], aTp[keep]
        a, b, x = a[keep], b[keep], x_new[keep]
    rho_hat[act] = x
    value = triple_conditional_loglik(m, *d, rho_hat, T, T_prime)
    worse = value < best  # the root is a lesser stationary point: keep the grid's best
    rho_hat[worse], value[worse] = at[worse], best[worse]
    fit.rho_hat[live] = rho_hat
    fit.loglik[live] = value
    fit.boundary[live] = (rho_hat - lower <= TRIPLE_TOL) | (upper - rho_hat <= TRIPLE_TOL)
    fit.multimodal_suspect[live] = peaks > 1
    fit.grid_argmax[live] = at
    return fit


def estimate_rho_triple(
    m: int,
    d1: int,
    d2: int,
    d3: int,
    d4: int,
    T: float,
    T_prime: float,
) -> EstimateResult:
    """Numeric MLE from a three-leaf sample: the one-row view of
    :func:`triple_mle`, with ``multimodal_suspect`` and ``grid_argmax`` in
    ``diagnostics`` unless every statistic is zero."""
    fit = triple_mle(m, [(d1, d2, d3, d4)], T, T_prime)
    diagnostics = {"m": m, "d": (d1, d2, d3, d4)}
    if any((d1, d2, d3, d4)):
        diagnostics.update(
            multimodal_suspect=bool(fit.multimodal_suspect[0]),
            grid_argmax=float(fit.grid_argmax[0]),
        )
    return fit.first_row("triple-numeric", diagnostics)


def theta_moment(rho_hat, spacers, n_arrays: int) -> np.ndarray:
    """Moment estimates of the gain rate of a batch of replicates of
    ``n_arrays`` arrays holding ``spacers`` spacers in all: rho_hat times
    the mean array length (the equilibrium mean length is theta/rho)."""
    if not np.all(np.asarray(rho_hat) > 0):
        raise ValueError("rho_hat must be positive")
    return rho_hat * (np.asarray(spacers) / n_arrays)


def estimate_theta_moment(rho_hat: float, arrays: Mapping[str, Sequence]) -> float:
    """The one-row view of :func:`theta_moment`; no arrays estimate 0."""
    theta = theta_moment(rho_hat, sum(len(a) for a in arrays.values()), len(arrays) or 1)
    return float(theta) if arrays else 0.0

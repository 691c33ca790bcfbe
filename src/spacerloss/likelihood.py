"""Exact equal-spacer-gap probability laws and log-likelihoods.

All pmfs are computed in log space with log-gamma binomial/multinomial
coefficients, so counts up to 1e6 are handled without overflow.  The
count arguments of :func:`pair_gap_pmf`, :func:`triple_gap_pmf` and
:meth:`GeneralGapLaw.logpmf_array` broadcast over numpy arrays.

Gap counts follow the "unshared" convention throughout: a gap value a
is the number of spacers strictly between two consecutive equal spacers
(the bounding equal spacers are not counted), so a = 0 for adjacent
equal spacers.

The general-n law (:class:`GeneralGapLaw`) reads the probabilities of
all 2^n exact leaf subsets off the root's table of the one post-order
pass, :func:`spacerloss.tree.fate_probs`, and stores their logs indexed
by leaf mask - 1; :meth:`GeneralGapLaw.logpmf` visits only the nonzero
counts of a gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Mapping

import numpy as np

# ``p_exact_subset`` is not called here; the benchmark's call counter
# wraps it under this module's name
from .tree import UltrametricTree, fate_probs, mask_subset, p_exact_subset, subset_mask

__all__ = [
    "GeneralGapLaw",
    "pair_gap_pmf",
    "pair_gap_logpmf",
    "pair_sampling_logpmf",
    "die_probs_pair",
    "die_probs_triple",
    "triple_gap_pmf",
    "triple_gap_logpmf",
    "general_gap_logpmf",
    "pair_conditional_loglik",
    "triple_conditional_loglik",
    "triple_conditional_score",
]

# beyond this, e^{-rho T} underflows; log-space terms stay finite
MAX_RHO_T = 700.0


def _check_times(rho, T, T_prime=None) -> None:
    """Checks of the loss rate and the times, ``T_prime`` being None for a
    pair; every argument may be an array."""
    if not np.all(np.asarray(rho) > 0):
        raise ValueError("rho must be positive")
    if not np.all(np.asarray(T) > 0):
        raise ValueError("T must be positive")
    if T_prime is not None:
        if not np.all(np.asarray(T_prime) > 0):
            raise ValueError("T_prime must be positive")
        if np.any(np.asarray(T) < T_prime):
            raise ValueError("T must be >= T_prime")


def _check_stats(m, ds, rho, T, T_prime=None) -> None:
    """The checks of the conditional log-likelihoods and the triple score:
    m >= 2 and nonnegative statistics, then :func:`_check_times`."""
    if np.any(np.asarray(m) < 2):
        raise ValueError("need at least 2 equal spacers")
    if any(np.any(np.asarray(d) < 0) for d in ds):
        raise ValueError("statistics must be nonnegative")
    _check_times(rho, T, T_prime)


def _exp_neg(rho: float, T: float) -> float:
    return math.exp(-min(rho * T, MAX_RHO_T))


def _xlogy(x, y):
    """x log y, with 0 log y = 0 even where y = 0 (a = 1 - e^{-rho T}
    underflows to 0 once rho T is subnormal), and x log 0 = -inf without
    a warning."""
    with np.errstate(divide="ignore"):
        return x * np.log(np.where(x == 0, 1.0, y))


def _log_factorial(k):
    """log k! of nonnegative integer counts of any shape: ``math.lgamma``
    of each distinct value, indexed back."""
    k = np.asarray(k)
    values, inverse = np.unique(k, return_inverse=True)
    return np.array([math.lgamma(v + 1) for v in values.tolist()])[inverse.reshape(k.shape)]


# -- two leaves --------------------------------------------------------


def pair_gap_logpmf(a, b, rho: float, T: float):
    """log P(A=a, B=b): C(a+b, a) * (p / (2-p)) * x^(a+b), p = e^{-rho T}."""
    _check_times(rho, T)
    a = np.asarray(a)
    b = np.asarray(b)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("counts must be nonnegative")
    p = _exp_neg(rho, T)
    s = a + b
    if p >= 1.0:  # rho * T below float resolution: all mass at (0, 0)
        out = np.where(s == 0, 0.0, -np.inf)
        return out if out.ndim else float(out)
    log_2mp = math.log(2.0 - p)
    x = (1.0 - p) / (2.0 - p)
    out = (
        _log_factorial(s)
        - _log_factorial(a)
        - _log_factorial(b)
        + (-rho * T - log_2mp)
        + _xlogy(s, x)
    )
    return out if out.ndim else float(out)


def pair_gap_pmf(a, b, rho: float, T: float):
    out = np.exp(pair_gap_logpmf(a, b, rho, T))
    return out if isinstance(out, np.ndarray) else float(out)


def die_probs_pair(rho: float, T: float) -> tuple[float, float, float, float]:
    """Exact-fate probabilities (p1..p4) of a root spacer on a cherry:
    kept in leaf 1 only, leaf 2 only, neither, both."""
    _check_times(rho, T)
    p = _exp_neg(rho, T)
    return (p * (1.0 - p), p * (1.0 - p), (1.0 - p) ** 2, p * p)


def pair_sampling_logpmf(v, w, theta: float, rho: float, T: float) -> float:
    """Log-probability of the first m equal-spacer gap cumulative counts.

    ``v[i]`` (``w[i]``) is the number of unshared spacers preceding the
    (i+1)-th equal spacer in the first (second) leaf; both sequences are
    nondecreasing with nonnegative entries.  The first-segment term is the
    double convolution of the gap law with two Poisson counts of mean
    theta/rho * (1 - e^{-rho T}); later segments factorize over the gap
    law.
    """
    _check_times(rho, T)
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    v = list(v)
    w = list(w)
    if len(v) != len(w) or not v:
        raise ValueError("v and w must be nonempty and of equal length")
    if any(x < 0 for x in (v[0], w[0])):
        raise ValueError("counts must be nonnegative")
    if any(x2 < x1 for x1, x2 in zip(v, v[1:])) or any(
        x2 < x1 for x1, x2 in zip(w, w[1:])
    ):
        raise ValueError("v and w must be nondecreasing")
    z = theta / rho * (1.0 - _exp_neg(rho, T))
    aa, bb = np.meshgrid(np.arange(v[0] + 1), np.arange(w[0] + 1), indexing="ij")
    terms = (
        pair_gap_logpmf(aa, bb, rho, T)
        + _poisson_logpmf(v[0] - aa, z)
        + _poisson_logpmf(w[0] - bb, z)
    )
    top = terms.max()  # -inf when every term is: no shift to subtract
    total = float(top if top == -np.inf else top + math.log(np.exp(terms - top).sum()))
    for i in range(1, len(v)):
        total += float(pair_gap_logpmf(v[i] - v[i - 1], w[i] - w[i - 1], rho, T))
    return total


def _poisson_logpmf(k, mean: float):
    k = np.asarray(k)
    if mean == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    return _xlogy(k, mean) - mean - _log_factorial(k)


def pair_conditional_loglik(m, d, rho, T):
    """Conditional log-likelihood of the interior gaps given m equal
    spacers: (m-1) log(p/(2-p)) + d log((1-p)/(2-p)) with p = e^{-rho T}.
    Every argument broadcasts over numpy arrays; scalar arguments give a
    float."""
    rho = np.asarray(rho, dtype=float)
    _check_stats(m, (d,), rho, T)
    rho_T = rho * T
    p = np.exp(-np.minimum(rho_T, MAX_RHO_T))
    log_2mp = np.log(2.0 - p)
    with np.errstate(divide="ignore"):  # p = 1 below float resolution: log 0
        term_x = np.log1p(-p) - log_2mp
    total = (m - 1) * (-rho_T - log_2mp) + d * np.where(d == 0, 0.0, term_x)
    return total if total.ndim else float(total)


# -- three leaves ------------------------------------------------------


def die_probs_triple(rho: float, T: float, T_prime: float) -> tuple[float, ...]:
    """Exact-fate probabilities (q1..q8) of a root spacer on the 3-leaf
    topology: kept in {1}, {2}, {3}, {1,2}, {1,3}, {2,3}, none, all."""
    _check_times(rho, T, T_prime)
    pT = _exp_neg(rho, T)
    pTp = _exp_neg(rho, T_prime)
    q1 = pT * (1.0 - pTp) * (1.0 - pT)
    q3 = pT * (1.0 - 2.0 * pT + pT * pTp)
    q4 = pT * pTp * (1.0 - pT)
    q5 = pT * pT * (1.0 - pTp)
    q7 = (1.0 - pT) * (1.0 - 2.0 * pT + pT * pTp)
    q8 = pT * pT * pTp
    return (q1, q1, q3, q4, q5, q5, q7, q8)


def triple_gap_logpmf(a, b, c, d, e, f, rho: float, T: float, T_prime: float):
    """log P of one interior-gap count tuple: multinomial times the
    per-class factors q_i/(1-q7) with final factor q8/(1-q7)."""
    counts = [np.asarray(x) for x in (a, b, c, d, e, f)]
    for x in counts:
        if np.any(x < 0):
            raise ValueError("counts must be nonnegative")
    q = die_probs_triple(rho, T, T_prime)
    denom = 1.0 - q[6]
    g = [qi / denom for qi in q[:6]]
    s = sum(counts)
    out = _log_factorial(s) + math.log(q[7] / denom)
    for x, gi in zip(counts, g):
        out = out - _log_factorial(x) + _xlogy(x, gi)
    return out if out.ndim else float(out)


def triple_gap_pmf(a, b, c, d, e, f, rho: float, T: float, T_prime: float):
    out = np.exp(triple_gap_logpmf(a, b, c, d, e, f, rho, T, T_prime))
    return out if isinstance(out, np.ndarray) else float(out)


def triple_conditional_loglik(m, d1, d2, d3, d4, rho, T, T_prime):
    """Conditional log-likelihood of the interior gaps given m equal
    spacers, as a function of the four sufficient statistics.  Every
    argument broadcasts over numpy arrays; scalar arguments give a float.

    With pT = e^{-rho T} and pTp = e^{-rho T'}, the statistics count
    spacers of probability (1-pT)(1-pTp), 1-2pT+pT pTp, pTp(1-pT) and
    pT(1-pTp), each over r = 3-pTp-pT(2-pTp).  These are written with
    ``expm1`` and as sums of nonnegative terms, as in
    :func:`triple_conditional_score`, so they keep full relative
    precision as rho T -> 0."""
    rho = np.asarray(rho, dtype=float)
    _check_stats(m, (d1, d2, d3, d4), rho, T, T_prime)
    log_pT = np.maximum(rho * -T, -MAX_RHO_T)
    log_pTp = np.maximum(rho * -T_prime, -MAX_RHO_T)
    a, ap = -np.expm1(log_pT), -np.expm1(log_pTp)  # 1 - pT, 1 - pTp
    both = np.exp(log_pT + log_pTp)  # pT pTp
    c2 = a * a - both * np.expm1(rho * (T_prime - T))  # 1 - 2pT + pT pTp
    r = ap + 2.0 * a + both
    total = (
        rho * (-(m - 1) * (T + T_prime))
        + d3 * log_pTp
        + d4 * log_pT
        + _xlogy(d1 + d3, a)
        + _xlogy(d1 + d4, ap)
        + _xlogy(d2, c2)
        - (m - 1 + d1 + d2 + d3 + d4) * np.log(r)
    )
    return total if total.ndim else float(total)


def triple_conditional_score(m, d1, d2, d3, d4, rho, T, T_prime):
    """The score and the curvature, d/d rho and d^2/d rho^2 of
    :func:`triple_conditional_loglik`, in closed form and in the same
    terms.  Every argument broadcasts over numpy arrays; scalar arguments
    give a pair of floats."""
    rho = np.asarray(rho, dtype=float)
    _check_stats(m, (d1, d2, d3, d4), rho, T, T_prime)
    score, curvature = triple_score_unchecked(m, d1, d2, d3, d4, rho, T, T_prime)
    if np.ndim(score) == 0:
        return float(score), float(curvature)
    return score, curvature


def triple_score_unchecked(m, d1, d2, d3, d4, rho, T, T_prime):
    """:func:`triple_conditional_score` without its argument checks, for
    callers that have checked them: arrays in, arrays out."""
    u, up = np.minimum(rho * T, MAX_RHO_T), np.minimum(rho * T_prime, MAX_RHO_T)
    pT, pTp = np.exp(-u), np.exp(-up)
    a, ap = -np.expm1(-u), -np.expm1(-up)  # 1 - pT, 1 - pTp
    # e = d/drho log(1 - pT), with de = -e (e + T); likewise ep for T'
    e, ep = T / np.expm1(u), T_prime / np.expm1(up)
    c2 = a * a - pT * pTp * np.expm1(rho * (T_prime - T))  # 1 - 2pT + pT pTp
    dc2 = pT * ((T + T_prime) * ap + T - T_prime)
    ddc2 = pT * ((T + T_prime) * T_prime * pTp - T * ((T + T_prime) * ap + T - T_prime))
    r = ap + 2.0 * a + pT * pTp  # 3 - pTp - pT (2 - pTp)
    dr = T_prime * pTp * a + T * pT * (1.0 + ap)
    ddr = T * T_prime * pT * pTp * 2.0 - T_prime * T_prime * pTp * a - T * T * pT * (1.0 + ap)
    n = m - 1 + d1 + d2 + d3 + d4
    g2, gr = dc2 / c2, dr / r
    score = (
        -(m - 1) * (T + T_prime)
        + d1 * (e + ep)
        + d2 * g2
        + d3 * (e - T_prime)
        + d4 * (ep - T)
        - n * gr
    )
    de, dep = -e * (e + T), -ep * (ep + T_prime)
    curvature = (
        d1 * (de + dep)
        + d2 * (ddc2 / c2 - g2 * g2)
        + d3 * de
        + d4 * dep
        - n * (ddr / r - gr * gr)
    )
    return score, curvature


# -- general n ---------------------------------------------------------


@dataclass(frozen=True)
class GeneralGapLaw:
    """Exact-subset survival probabilities for the general-n gap law.

    ``log_p_subset[mask - 1]`` is the log-probability that a root spacer
    survives to exactly the nonempty proper leaf subset of ``mask``
    (leaf-bit order of :mod:`spacerloss.tree`), and ``subsets[mask - 1]``,
    computed on first use, is that subset.  ``log_p_root`` is log p(r)
    and ``neg_rho_lambda`` is -rho * (total tree length).

    The table is the root's of :func:`~spacerloss.tree.fate_probs` and
    holds 2^n - 2 doubles for n leaves.
    """

    tree: UltrametricTree
    rho: float
    log_p_subset: np.ndarray = field(init=False, compare=False)
    log_p_root: float = field(init=False)
    neg_rho_lambda: float = field(init=False)

    def __post_init__(self):
        masks, table = fate_probs(self.tree, self.rho)
        probs = np.empty(1 << len(self.tree.leaves))
        probs[masks[self.tree.root]] = table[self.tree.root]
        with np.errstate(divide="ignore"):
            log_p = np.log(probs[1:-1])
        log_p.flags.writeable = False
        # p(r) as the sum over surviving subsets, not 1 - probs[0], which
        # cancels to 0 once rho * height passes about 37
        p_root = float(probs[1:].sum())
        if not p_root > 0:
            raise ValueError(
                f"no root spacer survives to a leaf in double precision at rho={self.rho}"
            )
        object.__setattr__(self, "log_p_subset", log_p)
        object.__setattr__(self, "log_p_root", math.log(p_root))
        # the root's own length, which a Newick root may carry, is no branch
        lam = sum(x for v, x in enumerate(self.tree.length) if v != self.tree.root)
        object.__setattr__(self, "neg_rho_lambda", -self.rho * lam)

    @cached_property
    def subsets(self) -> tuple[frozenset, ...]:
        leaves = self.tree.leaves
        return tuple(mask_subset(leaves, mask) for mask in range(1, len(self.log_p_subset) + 1))

    def logpmf(self, counts: Mapping) -> float:
        """Log-probability of one interior-gap count vector, keyed by leaf
        subset (absent keys count 0).  Only the nonzero counts are
        visited, so a gap costs O(nonzero * n)."""
        leaves = self.tree.leaves
        labels = set(leaves)
        seen = set()
        s = 0
        out = self.neg_rho_lambda
        for key, val in counts.items():
            mask = subset_mask(leaves, key) if set(key) <= labels else 0
            if not 0 < mask <= len(self.log_p_subset):
                raise ValueError(f"{set(key)} is not a nonempty proper leaf subset")
            if isinstance(val, bool) or not isinstance(val, Integral):
                raise ValueError(f"count {val!r} of {set(key)} is not an integer")
            if val < 0:
                raise ValueError("counts must be nonnegative")
            if mask in seen:
                raise ValueError(f"leaf subset {sorted(set(key))} is given more than once")
            seen.add(mask)
            if val:
                s += val
                out += val * self.log_p_subset[mask - 1] - math.lgamma(val + 1)
        return float(out + math.lgamma(s + 1) - (1 + s) * self.log_p_root)

    def logpmf_array(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized logpmf; ``counts`` has one column per subset, column
        ``mask - 1`` for the subset of ``mask``."""
        counts = np.asarray(counts)
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        s = counts.sum(axis=-1)
        out = (
            -(1 + s) * self.log_p_root
            + self.neg_rho_lambda
            + _log_factorial(s)
            - _log_factorial(counts).sum(axis=-1)
        )
        with np.errstate(invalid="ignore"):
            contrib = np.where(counts > 0, counts * self.log_p_subset, 0.0)
        return out + contrib.sum(axis=-1)


def general_gap_logpmf(tree: UltrametricTree, rho: float, counts: Mapping) -> float:
    """Log-probability of one interior-gap count vector on an arbitrary
    ultrametric tree; ``counts`` maps leaf subsets to gap counts."""
    return GeneralGapLaw(tree, rho).logpmf(counts)

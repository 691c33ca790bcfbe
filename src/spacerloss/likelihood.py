"""Exact equal-spacer-gap probability laws and log-likelihoods.

All pmfs are computed in log space with log-gamma binomial/multinomial
coefficients, so counts up to 1e6 are handled without overflow.  The
count arguments of :func:`pair_gap_pmf`, :func:`triple_gap_pmf` and
:meth:`GeneralGapLaw.logpmf_array` broadcast over numpy arrays.

Gap counts follow the "unshared" convention throughout: a gap value a
is the number of spacers strictly between two consecutive equal spacers
(the bounding equal spacers are not counted), so a = 0 for adjacent
equal spacers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .equal_spacers import mask_subset, subset_mask
from .tree import UltrametricTree, p_exact_subset, spanning_length, survival

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
]

# beyond this, e^{-rho T} underflows; log-space terms stay finite
MAX_RHO_T = 700.0


def _check_rate_time(rho: float, T: float, name: str = "T") -> None:
    if not rho > 0:
        raise ValueError("rho must be positive")
    if not T > 0:
        raise ValueError(f"{name} must be positive")


def _exp_neg(rho: float, T: float) -> float:
    return math.exp(-min(rho * T, MAX_RHO_T))


# -- two leaves --------------------------------------------------------


def pair_gap_logpmf(a, b, rho: float, T: float):
    """log P(A=a, B=b): C(a+b, a) * (p / (2-p)) * x^(a+b), p = e^{-rho T}."""
    _check_rate_time(rho, T)
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
        gammaln(s + 1)
        - gammaln(a + 1)
        - gammaln(b + 1)
        + (-rho * T - log_2mp)
        + xlogy(s, x)
    )
    return out if out.ndim else float(out)


def pair_gap_pmf(a, b, rho: float, T: float):
    out = np.exp(pair_gap_logpmf(a, b, rho, T))
    return out if isinstance(out, np.ndarray) else float(out)


def die_probs_pair(rho: float, T: float) -> tuple[float, float, float, float]:
    """Exact-fate probabilities (p1..p4) of a root spacer on a cherry:
    kept in leaf 1 only, leaf 2 only, neither, both."""
    _check_rate_time(rho, T)
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
    _check_rate_time(rho, T)
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
    total = float(logsumexp(terms))
    for i in range(1, len(v)):
        total += float(pair_gap_logpmf(v[i] - v[i - 1], w[i] - w[i - 1], rho, T))
    return total


def _poisson_logpmf(k, mean: float):
    k = np.asarray(k)
    if mean == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    return xlogy(k, mean) - mean - gammaln(k + 1)


def pair_conditional_loglik(m: int, d: int, rho: float, T: float) -> float:
    """Conditional log-likelihood of the interior gaps given m equal
    spacers: (m-1) log(p/(2-p)) + d log((1-p)/(2-p))."""
    if m < 2:
        raise ValueError("need at least 2 equal spacers")
    if d < 0:
        raise ValueError("d must be nonnegative")
    _check_rate_time(rho, T)
    p = _exp_neg(rho, T)
    log_2mp = math.log(2.0 - p)
    term_p = -rho * T - log_2mp
    term_x = (math.log1p(-p) - log_2mp) if p < 1.0 else -math.inf
    return (m - 1) * term_p + (d * term_x if d else 0.0)


# -- three leaves ------------------------------------------------------


def die_probs_triple(rho: float, T: float, T_prime: float) -> tuple[float, ...]:
    """Exact-fate probabilities (q1..q8) of a root spacer on the 3-leaf
    topology: kept in {1}, {2}, {3}, {1,2}, {1,3}, {2,3}, none, all."""
    _check_rate_time(rho, T)
    _check_rate_time(rho, T_prime, "T_prime")
    if T < T_prime:
        raise ValueError("T must be >= T_prime")
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
    out = gammaln(s + 1) + math.log(q[7] / denom)
    for x, gi in zip(counts, g):
        out = out - gammaln(x + 1) + xlogy(x, gi)
    return out if out.ndim else float(out)


def triple_gap_pmf(a, b, c, d, e, f, rho: float, T: float, T_prime: float):
    out = np.exp(triple_gap_logpmf(a, b, c, d, e, f, rho, T, T_prime))
    return out if isinstance(out, np.ndarray) else float(out)


def triple_conditional_loglik(
    m: int,
    d1: int,
    d2: int,
    d3: int,
    d4: int,
    rho: float,
    T: float,
    T_prime: float,
) -> float:
    """Conditional log-likelihood of the interior gaps given m equal
    spacers, as a function of the four sufficient statistics."""
    if m < 2:
        raise ValueError("need at least 2 equal spacers")
    for d in (d1, d2, d3, d4):
        if d < 0:
            raise ValueError("statistics must be nonnegative")
    _check_rate_time(rho, T)
    _check_rate_time(rho, T_prime, "T_prime")
    if T < T_prime:
        raise ValueError("T must be >= T_prime")
    pT = _exp_neg(rho, T)
    pTp = _exp_neg(rho, T_prime)
    r = 3.0 - pTp - pT * (2.0 - pTp)
    total = -(m - 1) * rho * (T + T_prime)
    total += xlogy(d1, (1.0 - pT) * (1.0 - pTp))
    total += xlogy(d2, 1.0 - 2.0 * pT + pT * pTp)
    total += xlogy(d3, pTp * (1.0 - pT))
    total += xlogy(d4, pT * (1.0 - pTp))
    total -= (m - 1 + d1 + d2 + d3 + d4) * math.log(r)
    return float(total)


# -- general n ---------------------------------------------------------


@dataclass(frozen=True)
class GeneralGapLaw:
    """Per-subset survival probabilities for the general-n gap law.

    ``subsets[mask - 1]`` is the nonempty proper leaf subset of ``mask``
    (see :mod:`spacerloss.equal_spacers`); ``log_p_subset[i]`` is the
    log-probability that a root spacer survives to exactly
    ``subsets[i]``; ``log_p_root`` is log p(r) and ``neg_rho_lambda`` is
    -rho * (total tree length).
    """

    tree: UltrametricTree
    rho: float
    subsets: tuple[frozenset, ...] = field(init=False)
    log_p_subset: tuple[float, ...] = field(init=False)
    log_p_root: float = field(init=False)
    neg_rho_lambda: float = field(init=False)

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        leaves = self.tree.leaves
        table = survival(self.tree, self.rho)
        subsets = tuple(mask_subset(leaves, mask) for mask in range(1, 2 ** len(leaves) - 1))
        probs = [p_exact_subset(self.tree, self.rho, self.tree.root, K, table) for K in subsets]
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(
            self, "log_p_subset", tuple(math.log(pk) if pk > 0 else -math.inf for pk in probs)
        )
        object.__setattr__(self, "log_p_root", math.log(table.p[self.tree.root]))
        object.__setattr__(
            self,
            "neg_rho_lambda",
            -self.rho * spanning_length(self.tree, self.tree.root, leaves),
        )

    def logpmf(self, counts: Mapping) -> float:
        """Log-probability of one interior-gap count vector, keyed by leaf
        subset (absent keys count 0)."""
        leaves = self.tree.leaves
        vec = np.zeros(len(self.subsets), dtype=np.int64)
        for key, val in counts.items():
            mask = subset_mask(leaves, key) if set(key) <= set(leaves) else 0
            if not 0 < mask <= len(self.subsets):
                raise ValueError(f"{set(key)} is not a nonempty proper leaf subset")
            if val < 0:
                raise ValueError("counts must be nonnegative")
            vec[mask - 1] = val
        return float(self.logpmf_array(vec[None, :])[0])

    def logpmf_array(self, counts: np.ndarray) -> np.ndarray:
        """Vectorized logpmf; ``counts`` has one column per subset in
        ``self.subsets`` order."""
        counts = np.asarray(counts)
        s = counts.sum(axis=-1)
        out = (
            -(1 + s) * self.log_p_root
            + self.neg_rho_lambda
            + gammaln(s + 1)
            - gammaln(counts + 1).sum(axis=-1)
        )
        logp = np.asarray(self.log_p_subset)
        with np.errstate(invalid="ignore"):
            contrib = np.where(counts > 0, counts * logp, 0.0)
        return out + contrib.sum(axis=-1)


def general_gap_logpmf(tree: UltrametricTree, rho: float, counts: Mapping) -> float:
    """Log-probability of one interior-gap count vector on an arbitrary
    ultrametric tree; ``counts`` maps leaf subsets to gap counts."""
    return GeneralGapLaw(tree, rho).logpmf(counts)

"""Monte Carlo validation of the simulator against the exact gap laws.

:func:`sample_gaps` runs blocks of replicates under ``replicate-fig1``'s
block rule and reads off their fate masks the first interior gap of each
replicate and its spacers gained below the root.  :func:`run_validation`
compares those samples with the exact-subset gap law of the tree,
:class:`~spacerloss.likelihood.GeneralGapLaw`, whose two- and three-leaf
cases are the paper's pair and triple laws (chi-square), and with the
new spacers' Poisson means, :func:`~spacerloss.tree.new_spacer_means` (z-scores).

Only the first interior gap of each replicate is recorded: pooling a
random number of gaps per replicate is length-biased, because replicates
with more equal spacers have shorter gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import likelihood
from .equal_spacers import interior_totals
from .process import BLOCK, ModelParams, seeded_blocks, simulate_block
from .tree import UltrametricTree, new_spacer_means, parse_newick, subset_mask

__all__ = ["GapSample", "chi2_sf", "chisquare_from_counts", "run_validation", "sample_gaps"]


@dataclass(frozen=True)
class GapSample:
    """Simulated first-gap and new-spacer counts.

    ``classes`` lists the nonempty proper leaf subsets ordered by size,
    then by label.  ``first_gaps`` maps a tuple of first-interior-gap
    counts, one per class, to the number of replicates with at least two
    equal spacers that showed it.  ``new_counts[K]`` totals, over all
    replicates, the spacers gained below the root and held by exactly the
    leaves of K.
    """

    classes: tuple[frozenset, ...]
    first_gaps: dict[tuple[int, ...], int]
    new_counts: dict[frozenset, int]


def sample_gaps(tree: UltrametricTree, params: ModelParams, trials: int, seed: int) -> GapSample:
    """The :class:`GapSample` of ``trials`` replicates, block k seeded by ``mix_seed(seed, k)``."""
    leaves, n = tree.leaves, len(tree.leaves)
    classes = tuple(
        frozenset(K) for size in range(1, n) for K in combinations(leaves, size)
    )
    class_masks = [subset_mask(leaves, K) for K in classes]
    first_gaps, new_counts = [], np.zeros(1 << n, np.int64)
    for rng, count in seeded_blocks(seed, (), trials):
        block = simulate_block(tree, np.tile(tree.length, (BLOCK, 1)), params, rng)
        # every equal spacer is a root spacer; with the fates past a row's
        # second equal spacer zeroed, its interior totals are its first gap
        fates = block.fates(tree.root)[:count]
        equal = fates == (1 << n) - 1
        fates[np.cumsum(equal, axis=1) - equal >= 2] = 0
        m, totals = interior_totals(fates, n)
        first_gaps.append(totals[m >= 2][:, class_masks])
        # a spacer gained below the root never reaches every leaf
        for v in tree.preorder()[1:]:
            new_counts += np.bincount(block.fates(v)[:count].ravel(), minlength=1 << n)
    keys, counts = np.unique(np.concatenate(first_gaps), axis=0, return_counts=True)
    first = dict(zip(map(tuple, keys.tolist()), counts.tolist()))
    return GapSample(classes, first, {K: int(new_counts[k]) for K, k in zip(classes, class_masks)})


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with an integer ``df`` >= 1: Q(df/2, z) with
    z = x/2, for integer df the finite sum of z^k e^-z / Gamma(k+1) over
    k = df/2 - 1, df/2 - 2, ... down to 0 or 1/2, plus erfc(sqrt z) for odd df."""
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    z = x / 2.0
    log_z, ks = math.log(z), np.arange(df // 2) + df % 2 / 2
    head = math.erfc(math.sqrt(z)) if df % 2 else 0.0
    return head + math.fsum(math.exp(k * log_z - z - math.lgamma(k + 1)) for k in ks.tolist())


def chisquare_from_counts(observed: dict, probs: dict, total: int, min_expected=5.0):
    """Chi-square of the first-gap counts of ``total`` replicates with M >= 2
    against model probabilities, pooling low-expectation cells."""
    keys = sorted(probs, key=lambda k: -probs[k])
    obs, exp = [], []
    pool_e = 0.0
    for k in keys:
        e = probs[k] * total
        if e >= min_expected:
            obs.append(observed.get(k, 0))
            exp.append(e)
        else:
            pool_e += e
    pool_o = total - sum(obs)  # the pooled cells and every key outside probs
    pool_e += max(total - sum(exp) - pool_e, 0.0)
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    if len(exp) < 2:  # no degrees of freedom: the p-value would be NaN
        raise ValueError(
            f"{total} trials had M >= 2 and their first gaps fell into fewer than two cells "
            f"of expected count >= {min_expected:g}, too few for a chi-square; "
            "raise rho*T, --trials or theta/rho"
        )
    exp = np.asarray(exp, dtype=float)
    exp *= total / exp.sum()
    chi2 = float(((np.asarray(obs, dtype=float) - exp) ** 2 / exp).sum())
    return chi2, chi2_sf(chi2, len(exp) - 1)


def run_validation(rho, theta, T, T_prime, trials, seed=0):
    """Simulate a cherry of depth T (or, with ``T_prime``, a three-leaf
    tree with a cherry of depth T_prime) and compare against the analytic
    gap laws; returns a list of (name, statistic, p_value) lines."""
    if not T > 0:
        raise ValueError("T must be positive")
    if T_prime is not None and not T_prime > 0:
        raise ValueError("Tprime must be positive")
    params = ModelParams(theta=theta, rho=rho)
    if T_prime is None:
        tree = parse_newick(f"(1:{T!r},2:{T!r});")
    elif T - T_prime <= 0:
        raise ValueError("need T > Tprime for a three-leaf tree")
    else:
        tree = parse_newick(f"((1:{T_prime!r},2:{T_prime!r}):{T - T_prime!r},3:{T!r});")
    sample = sample_gaps(tree, params, trials, seed)
    gaps = sample.first_gaps
    # the observed keys and the likely grid [0, w)^k of at most 4096 keys, so
    # that pooling is honest: w is 64 for a pair, 4 for a triple
    cmax, k = max((max(key) for key in gaps), default=0) + 1, len(sample.classes)
    w = min(cmax, max(w for w in range(1, 4097) if w**k <= 4096))
    keys = list(dict.fromkeys([*gaps, *product(range(w), repeat=k)]))
    counts = np.zeros((len(keys), (1 << len(tree.leaves)) - 2), np.int64)
    counts[:, [subset_mask(tree.leaves, K) - 1 for K in sample.classes]] = keys
    law = likelihood.GeneralGapLaw(tree, rho)
    probs = dict(zip(keys, np.exp(law.logpmf_array(counts)).tolist()))
    title = f"{'pair' if T_prime is None else 'triple'} gap pmf chi-square"
    chi2, p = chisquare_from_counts(gaps, probs, sum(gaps.values()))
    report = [(title, chi2, p)]
    means = new_spacer_means(tree, theta, rho)
    for K in sample.classes:
        count = sample.new_counts[K]
        mean = count / trials
        lam = float(means[subset_mask(tree.leaves, K)])
        if T_prime is None:
            name = f"new-spacer mean leaf {min(K)}"
        else:
            name = "new-spacer mean {%s}" % ",".join(sorted(K))
        if lam == 0.0:
            report.append((name + " (must be exactly 0)", float(mean), 1.0 if count == 0 else 0.0))
        else:
            zscore = (mean - lam) / math.sqrt(lam / trials)
            report.append((name, zscore, math.erfc(abs(zscore) / math.sqrt(2.0))))
    return report

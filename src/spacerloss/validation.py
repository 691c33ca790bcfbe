"""Monte Carlo validation of the simulator against the exact gap laws.

:func:`sample_gaps` runs the simulator once per seed and records, per
replicate, the first interior gap between equal spacers and the spacers
gained below the root.  :func:`run_validation` compares those samples
with the pair or triple gap law (chi-square) and with the Poisson means
of the new spacers (z-scores).

Only the first interior gap of each replicate is recorded: pooling a
random number of gaps per replicate is length-biased, because replicates
with more equal spacers have shorter gaps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

import numpy as np
from scipy import stats as sps

from . import likelihood
from .equal_spacers import leaf_masks, mask_gaps, subset_mask
from .process import ModelParams, mix_seed, simulate_tree
from .tree import UltrametricTree, parse_newick, poisson_mean_new

__all__ = ["GapSample", "chisquare_from_counts", "run_validation", "sample_gaps"]


@dataclass(frozen=True)
class GapSample:
    """Simulated first-gap and new-spacer counts.

    ``classes`` lists the nonempty proper leaf subsets ordered by size,
    then by label.  ``first_gaps`` maps a tuple of first-interior-gap
    counts, one per class, to the number of replicates that showed it;
    ``n_gaps`` is the number of replicates with at least two equal
    spacers.  ``new_counts[K]`` totals, over all replicates, the spacers
    gained below the root and held by exactly the leaves of K.
    """

    classes: tuple[frozenset, ...]
    first_gaps: dict[tuple[int, ...], int]
    n_gaps: int
    new_counts: dict[frozenset, int]


def sample_gaps(tree: UltrametricTree, params: ModelParams, seeds: Iterable[int]) -> GapSample:
    """Simulate one replicate per seed and collect a :class:`GapSample`."""
    leaves = tree.leaves
    classes = tuple(
        frozenset(K) for size in range(1, len(leaves)) for K in combinations(leaves, size)
    )
    class_masks = tuple(subset_mask(leaves, K) for K in classes)
    first_gaps: Counter = Counter()
    new_counts: Counter = Counter()
    for seed in seeds:
        sim = simulate_tree(tree, params, seed)
        masks = leaf_masks(sim.arrays)
        m, gaps = mask_gaps(sim.arrays, masks)
        if m >= 2:
            first_gaps[tuple(gaps[k][1] if k in gaps else 0 for k in class_masks)] += 1
        root = set(sim.root_array)
        # a spacer gained below the root never reaches every leaf
        new_counts.update(k for s, k in masks.items() if s not in root)
    new_totals = {K: new_counts[k] for K, k in zip(classes, class_masks)}
    return GapSample(classes, dict(first_gaps), sum(first_gaps.values()), new_totals)


def chisquare_from_counts(observed: dict, probs: dict, total: int, min_expected=5.0):
    """Chi-square of the first-gap counts of ``total`` replicates with M >= 2
    against model probabilities, pooling low-expectation cells."""
    keys = sorted(probs, key=lambda k: -probs[k])
    obs, exp = [], []
    pool_o, pool_e = 0.0, 0.0
    for k in keys:
        e = probs[k] * total
        o = observed.get(k, 0)
        if e >= min_expected:
            obs.append(o)
            exp.append(e)
        else:
            pool_o += o
            pool_e += e
    leftover_o = total - sum(obs) - pool_o
    pool_o += leftover_o
    pool_e += max(total - sum(exp) - pool_e, 0.0)
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    if len(exp) < 2:  # no degrees of freedom: the p-value would be NaN
        raise ValueError(
            f"{total} trials had M >= 2, too few for a chi-square; raise --trials or theta/rho"
        )
    exp = np.asarray(exp, dtype=float)
    exp *= total / exp.sum()
    chi2, p = sps.chisquare(np.asarray(obs, dtype=float), exp)
    return float(chi2), float(p)


def run_validation(rho, theta, T, T_prime, trials, seed=0):
    """Simulate a cherry of depth T (or, with ``T_prime``, a three-leaf
    tree with a cherry of depth T_prime) and compare against the analytic
    gap laws; returns a list of (name, statistic, p_value) lines."""
    params = ModelParams(theta=theta, rho=rho)
    if T_prime is None:
        tree = parse_newick(f"(1:{T!r},2:{T!r});")
    elif T - T_prime <= 0:
        raise ValueError("need T > Tprime for a three-leaf tree")
    else:
        tree = parse_newick(f"((1:{T_prime!r},2:{T_prime!r}):{T - T_prime!r},3:{T!r});")
    sample = sample_gaps(tree, params, (mix_seed(seed, rep) for rep in range(trials)))
    gaps = sample.first_gaps
    cmax = max((max(k) for k in gaps), default=0) + 1
    if T_prime is None:
        probs = {
            (a, b): likelihood.pair_gap_pmf(a, b, rho, T)
            for a in range(cmax)
            for b in range(cmax)
        }
        title = "pair gap pmf chi-square"
    else:
        probs = {k: likelihood.triple_gap_pmf(*k, rho, T, T_prime) for k in gaps}
        # add high-probability tuples not observed so pooling is honest
        for key in product(range(min(cmax, 4)), repeat=6):
            probs.setdefault(key, likelihood.triple_gap_pmf(*key, rho, T, T_prime))
        title = "triple gap pmf chi-square"
    chi2, p = chisquare_from_counts(gaps, probs, sample.n_gaps)
    report = [(title, chi2, p)]
    for K in sample.classes:
        count = sample.new_counts[K]
        mean = count / trials
        lam = poisson_mean_new(tree, theta, rho, K)
        if T_prime is None:
            name = f"new-spacer mean leaf {min(K)}"
        else:
            name = "new-spacer mean {%s}" % ",".join(sorted(K))
        if lam == 0.0:
            report.append((name + " (must be exactly 0)", float(mean), 1.0 if count == 0 else 0.0))
        else:
            zscore = (mean - lam) / math.sqrt(lam / trials)
            report.append((name, zscore, float(2.0 * sps.norm.sf(abs(zscore)))))
    return report

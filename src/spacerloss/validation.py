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
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

import numpy as np
from scipy import stats as sps

from . import likelihood
from .equal_spacers import gap_decomposition
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
    first_gaps: dict[tuple[int, ...], int] = {}
    n_gaps = 0
    new_counts = dict.fromkeys(classes, 0)
    for seed in seeds:
        sim = simulate_tree(tree, params, seed)
        gd = gap_decomposition(sim.arrays)
        if gd.m >= 2:
            key = tuple(gd.counts.get(K, (0,) * gd.m)[1] for K in classes)
            first_gaps[key] = first_gaps.get(key, 0) + 1
            n_gaps += 1
        root = set(sim.root_array)
        member: dict[int, list[str]] = {}
        for leaf in leaves:
            for s in sim.arrays[leaf]:
                if s not in root:
                    member.setdefault(s, []).append(leaf)
        # a spacer gained below the root never reaches every leaf
        for holders in member.values():
            new_counts[frozenset(holders)] += 1
    return GapSample(classes, first_gaps, n_gaps, new_counts)


def chisquare_from_counts(observed: dict, probs: dict, total: int, min_expected=5.0):
    """Chi-square of observed category counts against model probabilities,
    pooling low-expectation cells."""
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

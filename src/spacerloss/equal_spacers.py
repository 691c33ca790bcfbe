"""Equal-spacer positions, gap decompositions and sufficient statistics.

Positions are 1-based, counted from the leader end.  A spacer is "equal"
when it appears in every sampled array; the gap decomposition counts, for
each segment between consecutive equal spacers, the spacers present in
exactly each proper leaf subset.  Membership is one pass,
:func:`leaf_masks`: bit i of a spacer's mask is the i-th leaf label in
sorted order (``UltrametricTree.leaves``).  A spacer held by exactly a
proper subset K is counted once, in the gap of its first holder by label.

Statistics for estimation are taken over interior gaps only (between the
first and last equal spacer); the leader-side segment mixes old and new
spacers and is excluded.  Datasets with fewer than two equal spacers
yield absent statistics (``None``), never silent zeros.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Mapping, Sequence

__all__ = [
    "GapDecomposition",
    "PairStats",
    "TripleStats",
    "equal_indices",
    "gap_decomposition",
    "pair_stats",
    "triple_stats",
]

Arrays = Mapping[str, Sequence[int]]


def leaf_masks(arrays: Arrays) -> dict[int, int]:
    """Map each spacer to the mask of the leaves holding it; reject repeats within an array."""
    masks: dict[int, int] = {}
    for i, lab in enumerate(sorted(arrays)):
        for s in arrays[lab]:
            mask = masks.get(s, 0)
            if mask >> i & 1:
                raise ValueError(f"duplicate spacer {s} in array {lab!r}")
            masks[s] = mask | 1 << i
    return masks


def subset_mask(leaves: Sequence[str], K) -> int:
    """Mask of the leaf subset K of the sorted ``leaves``; ValueError for an unknown label."""
    return sum(1 << leaves.index(k) for k in set(K))


def mask_subset(leaves: Sequence[str], mask: int) -> frozenset:
    """The leaf subset of ``mask``; inverse of :func:`subset_mask`."""
    return frozenset(lab for i, lab in enumerate(leaves) if mask >> i & 1)


def equal_indices(arrays: Arrays, K, L=None) -> dict[str, list[int]]:
    """Positions, per leaf of K, of the spacers present in all of K and in
    none of L \\ K (1-based, increasing)."""
    L = set(arrays) if L is None else set(L)
    K = set(K)
    if not K:
        raise ValueError("K must be nonempty")
    for k in K:
        if k not in L:
            raise KeyError(f"unknown leaf label {k!r}")
    for k in L:
        if k not in arrays:
            raise KeyError(f"no array for leaf {k!r}")
    leaves, masks = sorted(arrays), leaf_masks(arrays)
    want, care = subset_mask(leaves, K), subset_mask(leaves, L)
    return {
        k: [i + 1 for i, s in enumerate(arrays[k]) if masks[s] & care == want]
        for k in sorted(K)
    }


@dataclass(frozen=True)
class GapDecomposition:
    """Counts of exact-subset spacers in the gaps between equal spacers.

    ``m`` is the number of spacers shared by all leaves.  ``counts[K][i]``
    is the number of spacers present in exactly the proper subset K lying
    in gap i of the first leaf of K: gap 0 precedes the first equal spacer
    and gap i (1 <= i <= m-1) lies between equal spacers i and i+1.
    Spacers trailing the last equal spacer are not counted.
    """

    m: int
    counts: Mapping[frozenset, tuple[int, ...]]


def mask_gaps(arrays: Arrays, masks: Mapping[int, int]) -> tuple[int, dict[int, list[int]]]:
    """m and the per-gap counts of :class:`GapDecomposition`, keyed by leaf mask."""
    full = (1 << len(arrays)) - 1
    m = sum(1 for mask in masks.values() if mask == full)
    counts: dict[int, list[int]] = defaultdict(lambda: [0] * m)
    for i, lab in enumerate(sorted(arrays)):
        gap = 0
        for s in arrays[lab]:
            if gap == m:
                break  # the rest trails the last equal spacer
            mask = masks[s]
            if mask == full:
                gap += 1
            elif not mask & ((1 << i) - 1):  # no earlier label holds s
                counts[mask][gap] += 1
    return m, counts


def gap_decomposition(arrays: Arrays) -> GapDecomposition:
    """Decompose the arrays into per-gap exact-subset counts."""
    if len(arrays) < 2:
        raise ValueError("need at least 2 leaf arrays")
    m, counts = mask_gaps(arrays, leaf_masks(arrays))
    leaves = sorted(arrays)
    return GapDecomposition(m, {mask_subset(leaves, k): tuple(v) for k, v in counts.items()})


@dataclass(frozen=True)
class PairStats:
    """Sufficient statistics (M, D) for a two-leaf sample.

    ``v[i]`` (``w[i]``) counts the unshared spacers preceding the (i+1)-th
    equal spacer in the first (second) leaf by label order, so consecutive
    differences are the per-gap unshared counts.  D = V_M - V_1 + W_M - W_1
    sums the interior gaps; absent when M < 2.
    """

    m: int
    v: tuple[int, ...]
    w: tuple[int, ...]
    d: int | None


def pair_stats(arrays: Arrays) -> PairStats:
    if len(arrays) != 2:
        raise ValueError("pair_stats requires exactly 2 leaf arrays")
    gd = gap_decomposition(arrays)
    l1, l2 = sorted(arrays)
    # every unshared spacer of a pair is held by one leaf only
    v = tuple(accumulate(gd.counts.get(frozenset({l1}), (0,) * gd.m)))
    w = tuple(accumulate(gd.counts.get(frozenset({l2}), (0,) * gd.m)))
    d = (v[-1] - v[0]) + (w[-1] - w[0]) if gd.m >= 2 else None
    return PairStats(m=gd.m, v=v, w=w, d=d)


@dataclass(frozen=True)
class TripleStats:
    """Sufficient statistics (M, D1..D4) for a three-leaf sample.

    With cherry leaves f1, f2 and outgroup f3, the sums run over interior
    gaps i = 1..M-1:
      D1 = sum F_i^{f1} + F_i^{f2}, D2 = sum F_i^{f3},
      D3 = sum F_i^{f1,f2},         D4 = sum F_i^{f1,f3} + F_i^{f2,f3}.
    Absent (all None) when M < 2.
    """

    m: int
    d1: int | None
    d2: int | None
    d3: int | None
    d4: int | None


def triple_stats(arrays: Arrays, cherry: tuple[str, str]) -> TripleStats:
    """Compute (M, D1..D4); ``cherry`` names the two closest leaves and
    must come from the tree topology, never from the arrays."""
    if len(arrays) != 3:
        raise ValueError("triple_stats requires exactly 3 leaf arrays")
    f1, f2 = cherry
    (f3,) = set(arrays) - {f1, f2}
    gd = gap_decomposition(arrays)
    if gd.m < 2:
        return TripleStats(m=gd.m, d1=None, d2=None, d3=None, d4=None)

    def interior(K) -> int:
        return sum(gd.counts.get(frozenset(K), (0,) * gd.m)[1:])

    return TripleStats(
        m=gd.m,
        d1=interior({f1}) + interior({f2}),
        d2=interior({f3}),
        d3=interior({f1, f2}),
        d4=interior({f1, f3}) + interior({f2, f3}),
    )

"""Equal-spacer positions, gap decompositions and sufficient statistics.

Positions are 1-based, counted from the leader end.  A spacer is "equal"
when it appears in every sampled array; the gap decomposition counts, for
each segment between consecutive equal spacers, the spacers present in
exactly each proper leaf subset.  A spacer held by exactly a proper
subset K is counted once, in the gap of its first holder by label.

One columnar kernel, :func:`token_statistics`, runs on the arrays of a
whole file for ``stats``; the functions taking one replicate's arrays are
its one-row views.  Its leaf masks are uint64s: at most 64 arrays.

Statistics for estimation are taken over interior gaps only (between the
first and last equal spacer); the leader-side segment mixes old and new
spacers and is excluded.  Datasets with fewer than two equal spacers
yield absent statistics (``None``), never silent zeros.

:func:`interior_totals` computes the interior totals of a whole
block of simulated replicates at once from the leaf masks of its root
spacers (``Block.fates(tree.root)``, see :class:`spacerloss.process.Block`).
That is exact under the ordered independent loss model: a spacer gained
below the root never reaches every leaf, so every equal spacer is a root
spacer, and gains sit at the leader end of every array, before the first
equal spacer, in gap 0.

Both kernels return ``(m, totals)`` first, and every D, of a file or of a
block, is :func:`interior_statistics` of those totals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Mapping, Sequence

import numpy as np

from .tree import mask_subset, subset_mask

__all__ = [
    "GapDecomposition",
    "PairStats",
    "TripleStats",
    "duplicate_error",
    "equal_indices",
    "gap_decomposition",
    "interior_statistics",
    "interior_totals",
    "pair_stats",
    "token_statistics",
    "triple_stats",
]

Arrays = Mapping[str, Sequence[int]]


def token_statistics(tokens: np.ndarray, starts: np.ndarray, n: int):
    """Membership, gaps and interior totals of replicates of ``n`` arrays each.

    ``tokens`` holds int64 spacer tokens in (replicate, leaf, position)
    order, the leaves of a replicate in label order; array j starts at
    ``starts[j]`` and may be empty.  Its leaf bit is j % n, the rank of its
    label.  Returns ``(m, totals, mask, gap, repeat)``:

    - ``m``, the equal spacers of each replicate;
    - ``totals`` (replicates x 2^n), each replicate's :func:`interior_totals`,
      with column 0 at 0: a file holds no spacer that every array lost;
    - ``mask``, per row, the uint64 mask of the leaves holding its token;
    - ``gap``, per row, its gap where :class:`GapDecomposition` counts it
      (held by a proper subset, in its first holder, before the last
      equal spacer), and -1 elsewhere;
    - ``repeat``, the first row whose token is already earlier in its
      array, or -1.  Where there is one, the other outputs mean nothing.
    """
    m, rep, mask, gap, repeat = _memberships(tokens, starts, n)
    key = (rep << n | mask.astype(np.intp))[gap >= 1]  # the rows in gaps 1..m-1
    return m, np.bincount(key, minlength=len(m) << n).reshape(-1, 1 << n), mask, gap, repeat


def _memberships(tokens: np.ndarray, starts: np.ndarray, n: int):
    """:func:`token_statistics` with each row's replicate for the 2^n totals: n up to 64."""
    if n > 64:
        raise ValueError("leaf masks hold at most 64 arrays")
    rows = len(tokens)
    lengths = np.concatenate((starts[1:], [rows])) - starts  # np.diff costs more
    run = np.arange(len(starts)).repeat(lengths)
    rep = run // n
    # stable: a token's rows stay in (leaf, position) order, so the first
    # is its first holder and a repeat within an array follows the original
    order = np.lexsort((tokens, rep))
    t, r, sorted_run = tokens[order], rep[order], run[order]
    head = np.ones(rows, dtype=bool)
    head[1:] = (t[1:] != t[:-1]) | (r[1:] != r[:-1])
    again = (sorted_run[1:] == sorted_run[:-1]) & ~head[1:]
    repeat = int(order[1:][again].min()) if again.any() else -1
    mask, first_holder = np.empty(rows, dtype=np.uint64), np.empty(rows, dtype=bool)
    if rows:
        heads = head.nonzero()[0]
        held = np.bitwise_or.reduceat(np.uint64(1) << (sorted_run % n).astype(np.uint64), heads)
        mask[order] = held.repeat(np.concatenate((heads[1:], [rows])) - heads)
    first_holder[order] = head
    equal = mask == ~np.uint64(0) >> np.uint64(64 - n)
    seen = np.zeros(rows + 1, dtype=np.intp)  # equal rows before each row
    equal.cumsum(out=seen[1:])
    m = seen[(starts + lengths)[::n]] - seen[starts[::n]]  # in each first array
    gap = seen[:-1] - seen[starts][run]
    return m, rep, mask, np.where(first_holder & ~equal & (gap < m[rep]), gap, -1), repeat


def duplicate_error(tokens, starts, labels, row: int) -> ValueError:
    """The error for :func:`token_statistics`' ``repeat`` row; ``labels`` name the arrays."""
    j = np.searchsorted(starts, row, side="right") - 1  # past empty arrays
    return ValueError(f"duplicate spacer {tokens[row]} in array {labels[j]!r}")


def _one_row(arrays: Arrays, kernel=_memberships):
    """One replicate's sorted labels, array starts and ``kernel``'s outputs but ``repeat``."""
    leaves = sorted(arrays)
    cols = [arrays[lab] for lab in leaves]
    tokens = np.array(list(chain.from_iterable(cols)), dtype=np.int64)
    starts = np.array(list(accumulate(map(len, cols), initial=0))[:-1], dtype=np.intp)
    m, extra, mask, gap, repeat = kernel(tokens, starts, len(leaves))
    if repeat >= 0:
        raise duplicate_error(tokens, starts, leaves, repeat)
    return leaves, starts, int(m[0]), extra, mask, gap


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
    leaves, starts, _, _, mask, _ = _one_row(arrays)
    hit = (mask & np.uint64(subset_mask(leaves, L))) == np.uint64(subset_mask(leaves, K))
    ends = np.concatenate((starts[1:], [len(mask)]))
    return {
        k: (hit[a:b].nonzero()[0] + 1).tolist()
        for k, a, b in zip(leaves, starts, ends) if k in K
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


def gap_decomposition(arrays: Arrays) -> GapDecomposition:
    """Decompose the arrays into per-gap exact-subset counts."""
    if len(arrays) < 2:
        raise ValueError("need at least 2 leaf arrays")
    leaves, _, m, _, mask, gap = _one_row(arrays)
    counts: dict[int, list[int]] = {}  # per mask, in order of the first counted row
    for k, g in zip(mask[gap >= 0].tolist(), gap[gap >= 0].tolist()):
        counts.setdefault(k, [0] * m)[g] += 1
    return GapDecomposition(m, {mask_subset(leaves, k): tuple(v) for k, v in counts.items()})


def interior_totals(fates: np.ndarray, n_leaves: int) -> tuple[np.ndarray, np.ndarray]:
    """M and the interior-gap totals of a block, from root fate masks.

    ``fates`` (B x root spacers) holds each root spacer's leaf mask in
    root order, which is the order in every leaf.  Returns ``m`` (B,), the
    equal spacers per row, and ``totals`` (B x 2^n_leaves), where
    ``totals[b, k]`` counts the spacers of row b held by exactly leaf
    mask k strictly between its first and last equal spacer: the sum over
    gaps 1..m-1 of :class:`GapDecomposition` ``counts``.  Column 0 counts
    the spacers lost from every leaf and column 2^n - 1 is 0.
    """
    rows, width = fates.shape
    equal = fates == (1 << n_leaves) - 1
    # equal spacers up to and including each column; a root holds far
    # fewer than 2^31 spacers
    seen = np.cumsum(equal, axis=1, dtype=np.int32)
    m = seen[:, -1] if width else np.zeros(rows, np.int32)
    interior = (seen >= 1) & (seen < m[:, None]) & ~equal
    totals = [np.count_nonzero(interior & (fates == k), axis=1) for k in range(1 << n_leaves)]
    return m, np.stack(totals, axis=1)


def interior_statistics(totals, outgroup=None) -> np.ndarray:
    """D of a pair, or D1..D4 of a triple stacked in the last axis (see
    :class:`TripleStats`), from ``totals[..., k]``, the interior spacers held
    by exactly leaf mask k (see :func:`interior_totals`); ``outgroup`` is a
    triple's outgroup leaf bit, one for all rows or one per row."""
    t = np.asarray(totals)
    if outgroup is None:
        return t[..., 1] + t[..., 2]
    f3 = np.broadcast_to(np.left_shift(1, outgroup), t.shape[:-1])[..., None]  # its mask
    d2, d3 = (np.take_along_axis(t, k, axis=-1)[..., 0] for k in (f3, 7 ^ f3))  # 7 ^ f3: the cherry
    # D1 and D4: the one-leaf and two-leaf totals but the outgroup's and the cherry's
    return np.stack([t[..., [1, 2, 4]].sum(-1) - d2, d2, d3, t[..., [3, 5, 6]].sum(-1) - d3], -1)


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
    _, _, m, totals, mask, gap = _one_row(arrays, token_statistics)
    # every unshared spacer of a pair is held by one leaf only: mask 1 or 2
    v, w = (
        tuple(accumulate(np.bincount(gap[(mask == k) & (gap >= 0)], minlength=m).tolist()))
        for k in (1, 2)
    )
    d = int(interior_statistics(totals[0])) if m >= 2 else None
    return PairStats(m=m, v=v, w=w, d=d)


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
    (f3,) = set(arrays) - set(cherry)  # the cherry is two distinct leaves of the three
    leaves, _, m, totals, _, _ = _one_row(arrays, token_statistics)
    if m < 2:
        return TripleStats(m=m, d1=None, d2=None, d3=None, d4=None)
    d1, d2, d3, d4 = interior_statistics(totals[0], leaves.index(f3)).tolist()
    return TripleStats(m=m, d1=d1, d2=d2, d3=d3, d4=d4)

"""Ultrametric binary trees and the tree-geometric quantities behind the
equal-spacer likelihoods.

A tree is stored as parallel tuples indexed by node id.  Node ids are
assigned deterministically at construction time, so the simulator's
tokens, which carry the node id of their origin, are reproducible.  Instances are immutable and safe to share
between threads.

Conventions
-----------
* branch lengths are in coalescent time units; rates are per unit length
* leaf bits: ``tree.leaves`` is the tuple of leaf labels in sorted string
  order, and bit i of a leaf mask stands for ``leaves[i]``.
  ``tree.below[v]`` is the mask of the leaves under node v;
  :func:`subset_mask` and :func:`mask_subset` convert between label
  subsets and masks.  Every mask in the package (equal-spacer counts,
  the general-n law, validation) uses this order
* child order is normalized by smallest descendant leaf label (the lowest
  leaf bit), so ``to_newick`` is canonical
* ultrametricity is checked with relative tolerance 1e-9 and violations
  are rejected, never repaired
* one sampler, :func:`coalescent_block`, draws every Kingman tree, a
  block at a time; :func:`sample_coalescent` is its one-row view
* :func:`fate_probs` gives every exact-subset probability the package
  uses; :func:`p_exact_subset` walks one subset, any n, as the reference
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

ULTRAMETRIC_RTOL = 1e-9

__all__ = [
    "UltrametricTree",
    "SurvivalTable",
    "TreeError",
    "NewickError",
    "parse_newick",
    "to_newick",
    "newick_lines",
    "sample_coalescent",
    "coalescent_epochs",
    "coalescent_block",
    "coalescent_tree",
    "subset_mask",
    "mask_subset",
    "mrca",
    "spanning_length",
    "survival",
    "p_exact_subset",
    "fate_probs",
    "new_spacer_means",
    "poisson_mean_new",
]


class TreeError(ValueError):
    """Invalid tree structure or invalid query against a tree."""


class NewickError(TreeError):
    """Malformed Newick input; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def subset_mask(leaves: Sequence[str], K: Iterable[str]) -> int:
    """Mask of the leaf subset K of the sorted ``leaves``; TreeError for an unknown label."""
    mask = 0
    for k in K:
        i = bisect_left(leaves, k)
        if i == len(leaves) or leaves[i] != k:
            raise TreeError(f"unknown leaf label {k!r}")
        mask |= 1 << i
    return mask


def mask_subset(leaves: Sequence[str], mask: int) -> frozenset:
    """The leaf subset of ``mask``; inverse of :func:`subset_mask`."""
    return frozenset(lab for i, lab in enumerate(leaves) if mask >> i & 1)


@dataclass(frozen=True)
class UltrametricTree:
    """Rooted binary ultrametric tree with branch lengths.

    ``parent[i]`` is -1 for the root; ``length[i]`` is the branch length
    above node ``i`` (0.0 for the root, unused).  ``label[i]`` is the leaf
    label or '' for internal nodes.  ``leaves``, ``below`` (see the module
    conventions) and ``height``, the common root-to-leaf distance, are
    derived once by :meth:`build`.
    """

    parent: tuple[int, ...]
    length: tuple[float, ...]
    children: tuple[tuple[int, ...], ...]
    label: tuple[str, ...]
    root: int
    leaf_ids: Mapping[str, int] = field(repr=False)
    leaves: tuple[str, ...]
    below: tuple[int, ...] = field(repr=False)
    height: float

    @staticmethod
    def build(parent: list[int], length: list[float], label: list[str]) -> "UltrametricTree":
        """Assemble and validate a tree from parent/length/label lists."""
        n = len(parent)
        roots = [i for i in range(n) if parent[i] < 0]
        if len(roots) != 1:
            raise TreeError(f"tree must have exactly one root, found {len(roots)}")
        root = roots[0]
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            if i != root:
                children[parent[i]].append(i)
        for i in range(n):
            if label[i]:
                if children[i]:
                    raise TreeError(f"labeled node {label[i]!r} has children")
            elif len(children[i]) != 2:
                raise TreeError(
                    f"internal node {i} has {len(children[i])} children, tree must be binary"
                )
        for i in range(n):
            if i == root:
                continue
            if not (length[i] > 0.0 and math.isfinite(length[i])):
                raise TreeError(f"branch length above node {i} must be positive and finite")
        leaves = sorted(l for l in label if l)
        if len(set(leaves)) != len(leaves):
            raise TreeError("leaf labels must be unique")
        leaf_ids = {label[i]: i for i in range(n) if label[i]}

        # parents precede children in ``order``: depths accumulate forward,
        # leaf masks backward, and children sort by their lowest leaf bit,
        # which is their smallest leaf label
        bit = {lab: 1 << i for i, lab in enumerate(leaves)}
        below = [bit.get(lab, 0) for lab in label]
        depth = [0.0] * n
        order = [root]
        for i in order:
            order.extend(children[i])
            if i != root:
                depth[i] = depth[parent[i]] + length[i]
        for i in reversed(order):
            if children[i]:
                children[i].sort(key=lambda c: below[c] & -below[c])
                below[i] = below[children[i][0]] | below[children[i][1]]

        height = max(depth[leaf_ids[lab]] for lab in leaves)
        for lab in leaves:
            d = depth[leaf_ids[lab]]
            if abs(d - height) > ULTRAMETRIC_RTOL * max(height, 1.0):
                raise TreeError(
                    f"tree is not ultrametric: leaf {lab!r} at depth {d!r}, others at {height!r}"
                )
        return UltrametricTree(
            parent=tuple(parent),
            length=tuple(length),
            children=tuple(tuple(c) for c in children),
            label=tuple(label),
            root=root,
            leaf_ids=leaf_ids,
            leaves=tuple(leaves),
            below=tuple(below),
            height=height,
        )

    # -- basic queries -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    def is_leaf(self, v: int) -> bool:
        return bool(self.label[v])

    def preorder(self) -> list[int]:
        order, stack = [], [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        return order

    def postorder(self) -> list[int]:
        return self.preorder()[::-1]

    def leaves_below(self, v: int) -> frozenset[str]:
        return mask_subset(self.leaves, self.below[v])

    def cherry(self) -> tuple[str, str]:
        """For a 3-leaf tree, the two leaves below the non-root internal node."""
        if len(self.leaves) != 3:
            raise TreeError("cherry() is defined for 3-leaf trees")
        inner = max(self.children[self.root], key=lambda c: self.below[c].bit_count())
        f1, f2 = (lab for i, lab in enumerate(self.leaves) if self.below[inner] >> i & 1)
        return f1, f2


# -- Newick I/O --------------------------------------------------------


def parse_newick(text: str) -> UltrametricTree:
    """Parse a rooted binary Newick string with branch lengths.

    All non-root edges must carry a branch length; the string must end
    with ';'.  Raises :class:`NewickError` with the offending position.
    """
    s = text.strip()
    if not s.endswith(";"):
        raise NewickError("Newick string must end with ';'", len(s))
    s = s[:-1]
    parent: list[int] = []
    length: list[float | None] = []  # None until a ':length' is read
    label: list[str] = []

    def new_node() -> int:
        parent.append(-1)
        length.append(None)
        label.append("")
        return len(parent) - 1

    # iterative descent: ``open_nodes`` holds [node, children so far] for
    # every internal node whose closing ')' is still ahead; node ids are
    # assigned in order of appearance, as a recursive descent would
    open_nodes: list[list[int]] = []
    pos = 0
    root = node = new_node()
    while True:
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_nodes.append([node, 0])
            node = new_node()
            continue
        start = pos
        while pos < len(s) and s[pos] not in "():,;":
            pos += 1
        name = s[start:pos].strip()
        if not name:
            raise NewickError("empty leaf label", start)
        label[node] = name
        # close clades until one is followed by a sibling or the tree ends
        while True:
            if pos < len(s) and s[pos] == ":":
                pos += 1
                start = pos
                while pos < len(s) and s[pos] not in "(),:;":
                    pos += 1
                try:
                    length[node] = float(s[start:pos])
                except ValueError:
                    raise NewickError(f"invalid branch length {s[start:pos]!r}", start) from None
            if not open_nodes:
                break
            frame = open_nodes[-1]
            parent[node] = frame[0]
            frame[1] += 1
            if pos >= len(s):
                raise NewickError("unbalanced parenthesis", pos)
            if s[pos] == ",":
                pos += 1
                node = new_node()
                break
            if s[pos] != ")":
                raise NewickError(f"unexpected character {s[pos]!r}", pos)
            pos += 1
            open_nodes.pop()
            if frame[1] != 2:
                raise NewickError(f"non-binary vertex with {frame[1]} children", pos)
            node = frame[0]
        if not open_nodes:
            break
    if pos != len(s):
        raise NewickError(f"trailing characters {s[pos:]!r}", pos)
    for i in range(len(parent)):
        if length[i] is None:
            if i != root:
                raise NewickError(f"missing branch length above node {i}", len(s))
            length[i] = 0.0
    return UltrametricTree.build(parent, length, label)


def _newick_template(tree: UltrametricTree) -> str:
    """The walk of :func:`to_newick`: a format string whose field ``v``
    writes the length above node v with 12 significant digits."""
    # labels are literal text of the format string
    text = [lab.replace("{", "{{").replace("}", "}}") for lab in tree.label]
    for v in tree.postorder():
        if not text[v]:  # internal nodes ('') are filled in here
            a, b = tree.children[v]
            text[v] = f"({text[a]}:{{{a}:.12g}},{text[b]}:{{{b}:.12g}})"
            text[a] = text[b] = ""  # free subtree text once it is embedded
    return text[tree.root] + ";"


def to_newick(tree: UltrametricTree) -> str:
    """Canonical Newick serialization (children ordered by smallest leaf
    label, branch lengths with 12 significant digits)."""
    return _newick_template(tree).format(*tree.length)


def newick_lines(tree: UltrametricTree, lengths) -> list[str]:
    """:func:`to_newick` of the topology of ``tree`` with row b's branch
    lengths ``lengths[b]`` (rows x nodes, indexed by node id), one line per
    row, from one walk."""
    template = _newick_template(tree)
    return [template.format(*row) for row in np.asarray(lengths, dtype=float).tolist()]


# -- Kingman coalescent ------------------------------------------------


def coalescent_epochs(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """The (rows x n-1) epoch durations of ``rows`` Kingman coalescent trees
    with ``n`` leaves, in one call: epoch e (k = n - e lines) lasts
    Exp(k(k-1)/2)."""
    ks = np.arange(n, 1, -1)
    return rng.exponential(1.0, (rows, n - 1)) / (ks * (ks - 1) / 2.0)


def coalescent_block(n: int, rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``rows`` Kingman coalescent trees with ``n`` leaves at once.

    Returns (parent, length), two (rows x 2n-1) arrays: leaves 0..n-1 are
    labelled '1'..'n' (see :func:`coalescent_tree`), merger e makes node
    n + e, the root's parent is -1 and its length 0.  So a row's parent
    array is its labelled ranked topology.  One call draws every epoch
    (:func:`coalescent_epochs`), and one the merging pair of each epoch,
    a uniform pair of the k active lines.
    """
    if n < 2:
        raise TreeError("coalescent sample size must be >= 2")
    epochs = coalescent_epochs(n, rows, rng)
    ks = np.arange(n, 1, -1)
    # an ordered pair of distinct positions: i among k, j among the other k - 1
    i, j = rng.integers(0, ks[:, None] - (0, 1), (rows, n - 1, 2)).transpose(2, 1, 0)
    # ``active`` holds the lines of each row in any order, position major:
    # position p of row r is active[p * rows + r]
    r = np.arange(rows)
    i, j = i * rows + r, (j + (j >= i)) * rows + r
    active = np.repeat(np.arange(n), rows)
    children = []  # the two lines of each merger, in merger order
    for e, (ie, je) in enumerate(zip(i, j)):
        children += active[ie], active[je]
        # the merged node takes position i and the last line (position
        # k - 1, k = n - e) position j: positions below k - 1 hold the rest
        active[ie] = n + e
        active[je] = active[(n - e - 1) * rows : (n - e) * rows]
    r = r[:, None]
    parent = np.full((rows, 2 * n - 1), -1, dtype=np.int64)
    parent[r, np.array(children).T] = np.repeat(np.arange(n, 2 * n - 1), 2)
    depth = np.zeros((rows, 2 * n - 1))
    depth[:, n:] = np.cumsum(epochs, axis=1)
    # the root's parent -1 is the root itself: its length is 0
    length = depth[r, parent] - depth
    return parent, length


def coalescent_tree(parent, length) -> UltrametricTree:
    """The labelled tree of one row of :func:`coalescent_block`: node
    i < n is leaf ``str(i + 1)``, the other nodes are its mergers."""
    n = (len(parent) + 1) // 2
    labels = [str(i + 1) for i in range(n)] + [""] * (n - 1)
    return UltrametricTree.build(parent.tolist(), length.tolist(), labels)


def sample_coalescent(n: int, seed=None) -> UltrametricTree:
    """Sample a Kingman coalescent tree with ``n`` leaves (labels '1'..'n'):
    the one-row view of :func:`coalescent_block`.  ``seed`` may be an
    int, a SeedSequence, or a Generator."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    parent, length = coalescent_block(n, 1, rng)
    return coalescent_tree(parent[0], length[0])


# -- tree-geometric quantities ----------------------------------------


def _leaf_mask(tree: UltrametricTree, K: Iterable[str]) -> int:
    mask = subset_mask(tree.leaves, K)
    if not mask:
        raise TreeError("leaf subset must be nonempty")
    return mask


def mrca(tree: UltrametricTree, K: Iterable[str]) -> int:
    """Most recent common ancestor (node id) of the leaf subset ``K``."""
    k = _leaf_mask(tree, K)
    w = tree.leaf_ids[tree.leaves[(k & -k).bit_length() - 1]]
    while tree.below[w] & k != k:
        w = tree.parent[w]
    return w


def _span(tree: UltrametricTree, v: int, k: int) -> tuple[list[int], list[int]]:
    """The nodes below ``v`` whose parent edge lies on a path from ``v`` to a
    leaf of mask ``k``, and the roots of the subtrees hanging off those
    paths.  Raises if ``v`` is not ancestral to all of k."""
    missing = k & ~tree.below[v]
    if missing:
        lab = tree.leaves[(missing & -missing).bit_length() - 1]
        raise TreeError(f"vertex {v} is not ancestral to leaf {lab!r}")
    inside, hanging, stack = [], [], [v]
    while stack:
        for c in tree.children[stack.pop()]:
            if tree.below[c] & k:
                inside.append(c)
                stack.append(c)
            else:
                hanging.append(c)
    return inside, hanging


def spanning_length(tree: UltrametricTree, v: int, K: Iterable[str]) -> float:
    """Total edge length of the subtree spanning ``v`` and the leaves of K."""
    inside, _ = _span(tree, v, _leaf_mask(tree, K))
    return sum(tree.length[w] for w in inside)


@dataclass(frozen=True)
class SurvivalTable:
    """Per-vertex survival probabilities for loss rate ``rho``.

    ``p[v]`` is the probability that a spacer present at vertex ``v``
    survives to at least one leaf above ``v``.
    """

    rho: float
    p: tuple[float, ...]


def survival(tree: UltrametricTree, rho: float) -> SurvivalTable:
    """Evaluate the survival recursion at every vertex by post-order
    traversal: a leaf has p = 1; along an edge of length d the value decays
    by e^{-rho d}; children combine as p = 1 - (1-p1)(1-p2).

    The product is summed in log space, p = -expm1(sum log1p(-p_c e^{-rho d})),
    so a rare survival keeps its relative precision instead of rounding
    to 0 once rho times the height passes about 37."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    p = [1.0] * tree.n_nodes
    for v in tree.postorder():
        if not tree.is_leaf(v):
            log_lost = 0.0
            for c in tree.children[v]:
                reach = p[c] * math.exp(-rho * tree.length[c])
                # reach rounds to 1 when rho * length underflows
                log_lost += math.log1p(-reach) if reach < 1.0 else -math.inf
            p[v] = -math.expm1(log_lost)
    return SurvivalTable(rho=rho, p=tuple(p))


def p_exact_subset(
    tree: UltrametricTree,
    rho: float,
    v: int,
    K: Iterable[str],
    table: SurvivalTable | None = None,
) -> float:
    """Probability that a spacer present at vertex ``v`` survives to exactly
    the leaves of ``K`` among the leaves above ``v``.

    Product of survival along the whole spanning subtree of K (from v) and,
    for each subtree hanging off it, the total-loss probability of that
    subtree.
    """
    if table is None:
        table = survival(tree, rho)
    elif table.rho != rho:
        raise ValueError("survival table was computed for a different rho")
    inside, hanging = _span(tree, v, _leaf_mask(tree, K))
    prob = math.exp(-rho * sum(tree.length[w] for w in inside))
    for c in hanging:
        prob *= 1.0 - table.p[c] * math.exp(-rho * tree.length[c])
    return prob


def fate_probs(tree: UltrametricTree, rho: float) -> tuple[dict, dict]:
    """``probs[v][i]`` is the probability that a spacer present at node v
    survives to exactly the leaves of mask ``masks[v][i]`` below v (mask 0:
    to none), the value of :func:`p_exact_subset` from v, for every v.

    One post-order pass: a leaf holds {0: 0, own bit: 1}; the edge of
    length l above a child scales its table by e = e^{-rho l} and puts the
    mass 1 - s e lost on it at mask 0, s being the child's survival by the
    recursion of :func:`survival`; a parent takes the outer product of its
    children's scaled tables, whose disjoint masks OR together, so node v
    holds 2^(leaves below v) entries."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    masks, probs, surv = {}, {}, [1.0] * tree.n_nodes
    for v in tree.postorder():
        if tree.is_leaf(v):
            masks[v], probs[v] = np.array([0, tree.below[v]], np.int64), np.array([0.0, 1.0])
            continue
        a, b = tree.children[v]
        ea, eb = math.exp(-rho * tree.length[a]), math.exp(-rho * tree.length[b])
        reach_a, reach_b = surv[a] * ea, surv[b] * eb
        pa, pb = probs[a] * ea, probs[b] * eb
        pa[0], pb[0] = 1.0 - reach_a, 1.0 - reach_b
        # a reach rounds to 1 when rho * length underflows
        log_lost = math.log1p(-reach_a) if reach_a < 1.0 else -math.inf
        log_lost += math.log1p(-reach_b) if reach_b < 1.0 else -math.inf
        surv[v] = -math.expm1(log_lost)
        masks[v] = np.bitwise_or.outer(masks[b], masks[a]).ravel()
        probs[v] = np.multiply.outer(pb, pa).ravel()
    return masks, probs


def new_spacer_means(tree: UltrametricTree, theta: float, rho: float) -> np.ndarray:
    """``means[mask]``, for all 2^n masks (0: no leaf), is the mean of the
    Poisson count of spacers gained below the root that survive to exactly
    the leaves of ``mask``: theta/rho times the sum over non-root nodes v of
    the mass 1 - e^{-rho l} gained and kept on the edge above v times v's
    :func:`fate_probs` entry.  A mask that is not within the leaves below
    some non-root node, the full mask among them, has mean 0."""
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    masks, probs = fate_probs(tree, rho)
    means = np.zeros(1 << len(tree.leaves))
    for v in tree.postorder()[:-1]:  # the deeper nodes of a root path first
        means[masks[v]] += (1.0 - math.exp(-rho * tree.length[v])) * probs[v]
    return theta / rho * means


def poisson_mean_new(tree: UltrametricTree, theta: float, rho: float, K: Iterable[str]) -> float:
    """Mean of the Poisson count of post-root spacers shared by exactly K:
    the one-subset view of :func:`new_spacer_means`."""
    return float(new_spacer_means(tree, theta, rho)[_leaf_mask(tree, K)])

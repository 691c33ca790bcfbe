"""Ultrametric binary trees and the tree-geometric quantities behind the
equal-spacer likelihoods.

A tree is stored as parallel tuples indexed by node id.  Node ids are
assigned deterministically at construction time, so seeding simulations
by node id is reproducible.  Instances are immutable and safe to share
between threads.

Conventions
-----------
* branch lengths are in coalescent time units; rates are per unit length
* child order is normalized by smallest descendant leaf label, so
  ``to_newick`` is canonical
* ultrametricity is checked with relative tolerance 1e-9 and violations
  are rejected, never repaired
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

ULTRAMETRIC_RTOL = 1e-9

__all__ = [
    "UltrametricTree",
    "SurvivalTable",
    "TreeError",
    "NewickError",
    "parse_newick",
    "to_newick",
    "sample_coalescent",
    "mrca",
    "spanning_length",
    "survival",
    "p_exact_subset",
    "poisson_mean_new",
]


class TreeError(ValueError):
    """Invalid tree structure or invalid query against a tree."""


class NewickError(TreeError):
    """Malformed Newick input; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class UltrametricTree:
    """Rooted binary ultrametric tree with branch lengths.

    ``parent[i]`` is -1 for the root; ``length[i]`` is the branch length
    above node ``i`` (0.0 for the root, unused).  ``label[i]`` is the leaf
    label or '' for internal nodes.
    """

    parent: tuple[int, ...]
    length: tuple[float, ...]
    children: tuple[tuple[int, ...], ...]
    label: tuple[str, ...]
    root: int
    leaf_ids: Mapping[str, int] = field(repr=False)

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
        labels = [l for l in label if l]
        if len(set(labels)) != len(labels):
            raise TreeError("leaf labels must be unique")

        # normalize child order by smallest descendant leaf label; parents
        # precede children in ``order``, so reversing it visits children first
        min_label = ["" for _ in range(n)]
        order = [root]
        for i in order:
            order.extend(children[i])
        for i in reversed(order):
            min_label[i] = label[i] or min(min_label[c] for c in children[i])
        for i in range(n):
            children[i].sort(key=lambda c: min_label[c])

        tree = UltrametricTree(
            parent=tuple(parent),
            length=tuple(length),
            children=tuple(tuple(c) for c in children),
            label=tuple(label),
            root=root,
            leaf_ids={label[i]: i for i in range(n) if label[i]},
        )
        depths = tree.leaf_depths()
        dmax = max(depths.values())
        for lab, d in depths.items():
            if abs(d - dmax) > ULTRAMETRIC_RTOL * max(dmax, 1.0):
                raise TreeError(
                    f"tree is not ultrametric: leaf {lab!r} at depth {d!r}, others at {dmax!r}"
                )
        return tree

    # -- basic queries -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(self.leaf_ids))

    def is_leaf(self, v: int) -> bool:
        return bool(self.label[v])

    def leaf_depths(self) -> dict[str, float]:
        depth = [0.0] * self.n_nodes
        out = {}
        for v in self.preorder():
            if v != self.root:
                depth[v] = depth[self.parent[v]] + self.length[v]
            if self.label[v]:
                out[self.label[v]] = depth[v]
        return out

    @property
    def height(self) -> float:
        """Root-to-leaf distance (the common depth of all leaves)."""
        return max(self.leaf_depths().values())

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
        out, stack = [], [v]
        while stack:
            w = stack.pop()
            if self.label[w]:
                out.append(self.label[w])
            stack.extend(self.children[w])
        return frozenset(out)

    def _leaf_nodes(self, K: Iterable[str]) -> list[int]:
        ids = []
        for lab in K:
            if lab not in self.leaf_ids:
                raise TreeError(f"unknown leaf label {lab!r}")
            ids.append(self.leaf_ids[lab])
        if not ids:
            raise TreeError("leaf subset must be nonempty")
        return ids

    def path_to_root(self, v: int) -> list[int]:
        path = [v]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return path

    def cherry(self) -> tuple[str, str]:
        """For a 3-leaf tree, the two leaves below the non-root internal node."""
        if len(self.leaf_ids) != 3:
            raise TreeError("cherry() is defined for 3-leaf trees")
        for v in range(self.n_nodes):
            if v != self.root and not self.label[v]:
                pair = sorted(self.leaves_below(v))
                return pair[0], pair[1]
        raise TreeError("no internal vertex found")  # pragma: no cover


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
    length: list[float] = []
    label: list[str] = []

    def new_node() -> int:
        parent.append(-1)
        length.append(0.0)
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
        if i != root and length[i] == 0.0:
            raise NewickError(f"missing branch length above node {i}", len(s))
    return UltrametricTree.build(parent, length, label)


def _fmt_len(x: float) -> str:
    return f"{x:.12g}"


def to_newick(tree: UltrametricTree) -> str:
    """Canonical Newick serialization (children ordered by smallest leaf
    label, branch lengths with 12 significant digits)."""

    text = list(tree.label)  # internal nodes ('') are filled in below
    for v in tree.postorder():
        if not text[v]:
            a, b = tree.children[v]
            text[v] = f"({text[a]}:{_fmt_len(tree.length[a])},{text[b]}:{_fmt_len(tree.length[b])})"
            text[a] = text[b] = ""  # free subtree text once it is embedded
    return text[tree.root] + ";"


# -- Kingman coalescent ------------------------------------------------


def sample_coalescent(n: int, seed=None) -> UltrametricTree:
    """Sample a Kingman coalescent tree with ``n`` leaves (labels '1'..'n').

    With k active lines the waiting time to the next merger is
    Exp(k(k-1)/2) and a uniform random pair merges.  ``seed`` may be an
    int, a SeedSequence, or a Generator.
    """
    if n < 2:
        raise TreeError("coalescent sample size must be >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n_nodes = 2 * n - 1
    parent = [-1] * n_nodes
    length = [0.0] * n_nodes
    label = [""] * n_nodes
    depth = [0.0] * n_nodes
    for i in range(n):
        label[i] = str(i + 1)
    active = list(range(n))
    t = 0.0
    nxt = n
    while len(active) > 1:
        k = len(active)
        t += rng.exponential(1.0) / (k * (k - 1) / 2.0)
        i, j = rng.choice(k, size=2, replace=False)
        a, b = active[int(i)], active[int(j)]
        depth[nxt] = t
        for c in (a, b):
            parent[c] = nxt
            length[c] = t - depth[c]
        active = [x for x in active if x not in (a, b)] + [nxt]
        nxt += 1
    # depths were measured upward from the leaves; build() checks ultrametricity
    return UltrametricTree.build(parent, length, label)


# -- tree-geometric quantities ----------------------------------------


def mrca(tree: UltrametricTree, K: Iterable[str]) -> int:
    """Most recent common ancestor (node id) of the leaf subset ``K``."""
    ids = tree._leaf_nodes(K)
    common = set(tree.path_to_root(ids[0]))
    for v in ids[1:]:
        common &= set(tree.path_to_root(v))
    # deepest common ancestor = first along any member's path to the root
    for w in tree.path_to_root(ids[0]):
        if w in common:
            return w
    raise TreeError("disconnected tree")  # pragma: no cover


def _spanning_nodes(tree: UltrametricTree, v: int, K: Iterable[str]) -> set[int]:
    """Nodes whose parent edge lies on some path from ``v`` up to a leaf of
    ``K``, plus ``v`` itself.  Raises if ``v`` is not ancestral to all of K."""
    nodes = {v}
    for leaf in tree._leaf_nodes(K):
        path = []
        w = leaf
        while w != v:
            path.append(w)
            w = tree.parent[w]
            if w < 0:
                raise TreeError(f"vertex {v} is not ancestral to leaf {tree.label[leaf]!r}")
        nodes.update(path)
    return nodes


def spanning_length(tree: UltrametricTree, v: int, K: Iterable[str]) -> float:
    """Total edge length of the subtree spanning ``v`` and the leaves of K."""
    nodes = _spanning_nodes(tree, v, K)
    return sum(tree.length[w] for w in nodes if w != v)


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
    by e^{-rho d}; children combine as p = 1 - (1-p1)(1-p2)."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    p = [1.0] * tree.n_nodes
    for v in tree.postorder():
        if not tree.is_leaf(v):
            prod = 1.0
            for c in tree.children[v]:
                prod *= 1.0 - p[c] * math.exp(-rho * tree.length[c])
            p[v] = 1.0 - prod
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
    nodes = _spanning_nodes(tree, v, K)
    span = sum(tree.length[w] for w in nodes if w != v)
    prob = math.exp(-rho * span)
    for w in nodes:
        for c in tree.children[w]:
            if c not in nodes:
                prob *= 1.0 - table.p[c] * math.exp(-rho * tree.length[c])
    return prob


def poisson_mean_new(
    tree: UltrametricTree,
    theta: float,
    rho: float,
    K: Iterable[str],
    table: SurvivalTable | None = None,
) -> float:
    """Mean of the Poisson count of post-root spacers shared by exactly K.

    Sum over all vertices w on the path from the root (exclusive) down to
    the MRCA of K (inclusive, even when it is a leaf) of the gained-and-
    surviving mass on the edge above w times the exact-subset survival
    probability from w.
    """
    if theta < 0:
        raise ValueError("theta must be nonnegative")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if table is None:
        table = survival(tree, rho)
    K = list(K)
    v_K = mrca(tree, K)
    total = 0.0
    w = v_K
    while w != tree.root:
        total += (1.0 - math.exp(-rho * tree.length[w])) * p_exact_subset(
            tree, rho, w, K, table
        )
        w = tree.parent[w]
    return theta / rho * total

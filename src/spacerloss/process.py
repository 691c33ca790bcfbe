"""Forward simulation of the ordered independent loss model.

Spacer arrays are tuples of opaque integer tokens, leader end first.
One kernel, :func:`simulate_block`, evolves a block of B replicates on
one tree topology with per-row branch lengths.  Each node holds its
spacers as columns in array order, grouped by origin: the spacers gained
on the edge above it, then those of its parent.  Column j of every row
is the same token, ``(origin node << 40) | index``; a (B x columns)
boolean mask says which rows hold it.  Every draw goes through
:func:`_edge_step`: per edge, each spacer survives a Bernoulli draw with
probability e^{-rho l} and the surviving gains are a Poisson count.  The
root array is the end of an infinitely long edge from an empty array.

A block draws from one generator, edge by edge in preorder, so its
result is a function of (tree, branch lengths, params, generator state).
:func:`simulate_tree` is the one-row view with a generator seeded by
``seed``; jobs that run many replicates share one block rule,
:func:`seeded_blocks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .tree import UltrametricTree

__all__ = [
    "ModelParams", "LeafArrays", "Block", "simulate_block", "simulate_line",
    "equilibrium_root", "simulate_tree", "splitmix64", "mix_seed", "BLOCK", "seeded_blocks",
    "MAX_NODES",
]

# token = (origin node << _TOKEN_SHIFT) | index; simulate_line's caller
# supplies its own tokens
_TOKEN_SHIFT = 40
# node ids below this keep a token within int64
MAX_NODES = 1 << (63 - _TOKEN_SHIFT)

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step; the documented mixing function behind all
    per-replicate seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix_seed(seed: int, *indices: int) -> int:
    """Derive a subsidiary seed from (seed, *indices)."""
    out = splitmix64(seed & _MASK)
    for idx in indices:
        out = splitmix64(out ^ (idx & _MASK))
    return out


BLOCK = 512  # rows per block of the jobs that run many replicates


def seeded_blocks(seed: int, keys: tuple[int, ...], total: int, rows: int = BLOCK):
    """Yield (rng seeded by mix_seed(seed, *keys, k), rows kept) per block k
    of ``rows`` rows out of ``total``."""
    for k, start in enumerate(range(0, total, rows)):
        yield np.random.default_rng(mix_seed(seed, *keys, k)), min(rows, total - start)


@dataclass(frozen=True)
class ModelParams:
    """Gain rate ``theta`` and per-spacer loss rate ``rho`` (per unit
    branch length)."""

    theta: float
    rho: float

    def __post_init__(self):
        if self.theta < 0 or not math.isfinite(self.theta):
            raise ValueError("theta must be nonnegative and finite")
        if not (self.rho > 0 and math.isfinite(self.rho)):
            raise ValueError("rho must be positive and finite")
        if not math.isfinite(self.theta / self.rho):  # the mean root array length
            raise ValueError("theta / rho must be finite")


@dataclass(frozen=True)
class LeafArrays:
    """Simulated spacer arrays at the leaves of a tree.

    ``root_array`` is retained so callers can separate old (root) spacers
    from spacers gained along the tree.
    """

    arrays: Mapping[str, tuple[int, ...]]
    tree: UltrametricTree
    seed: int
    root_array: tuple[int, ...]


def _edge_step(
    rng: np.random.Generator, alive: np.ndarray, keep: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One edge for every row of a block: the only place survival and gains
    are drawn.

    ``alive`` (B x columns) marks the spacers at the top of the edge,
    ``keep`` (B,) is e^{-rho l} and ``gain`` (B,) is theta/rho (1 - keep),
    the mean count of spacers gained on the edge that survive to its end.
    Each spacer survives independently with probability ``keep``; the
    relative order of the gains carries no information, because their
    tokens are fresh, so only their count is drawn.  Returns the
    surviving mask and the gain counts.
    """
    survived = alive & (rng.random(alive.shape) < keep[:, None])
    # the same draws either way; a scalar mean skips numpy's check of an
    # array of means, which costs more than a one-row draw itself
    n_new = rng.poisson(gain[0], 1) if len(gain) == 1 else rng.poisson(gain)
    return survived, n_new


@dataclass(frozen=True)
class Block:
    """Leaf arrays of the B rows of :func:`simulate_block`.

    ``tokens[leaf]`` lists, in array order, the tokens that row may hold
    at that leaf, and ``alive[leaf]`` (B x len(tokens)) says which it
    does.  ``n_root`` (B,) counts each row's root spacers, whose tokens
    are ``(root << 40) | i`` for i < n_root; they are the last max(n_root)
    columns of every leaf, in root order.
    """

    tree: UltrametricTree
    tokens: Mapping[str, np.ndarray]
    alive: Mapping[str, np.ndarray]
    n_root: np.ndarray

    def arrays(self, row: int) -> dict[str, tuple[int, ...]]:
        """The leaf arrays of one row as token tuples."""
        return {
            leaf: tuple(self.tokens[leaf][self.alive[leaf][row]].tolist())
            for leaf in self.tree.leaves
        }

    def fates(self, node: int) -> np.ndarray:
        """(B x gains) leaf masks of the spacers gained above ``node`` (at the
        root: the root array) in array order, with the leaf bits of
        :mod:`spacerloss.tree`, in the smallest unsigned dtype that holds them;
        0 marks a spacer lost from every leaf or a column past the row's gains."""
        n = len(self.tree.leaves)
        if n > 64:
            raise ValueError("fate masks hold at most 64 leaves")
        dtype = np.min_scalar_type((1 << n) - 1)
        fates = 0
        for bit, leaf in enumerate(self.tree.leaves):
            if self.tree.below[node] >> bit & 1:  # node's gains: one run of columns
                origin = self.tokens[leaf] >> _TOKEN_SHIFT == node
                start = origin.argmax() if origin.size else 0
                run = self.alive[leaf][:, start:start + np.count_nonzero(origin)]
                fates = fates | run.astype(dtype) << bit
        return fates


def simulate_block(
    tree: UltrametricTree, lengths, params: ModelParams, rng: np.random.Generator
) -> Block:
    """Run B replicates of the ordered independent loss model on the
    topology of ``tree``, row b with branch lengths ``lengths[b]`` (B x
    nodes, indexed by node id; the root's column is ignored).

    Edges are drawn in preorder.  A tree of more than :data:`MAX_NODES`
    nodes is rejected, since its tokens would not fit an int64.
    """
    if tree.n_nodes > MAX_NODES:
        raise ValueError(f"a tree of {tree.n_nodes} nodes has more than the {MAX_NODES} allowed")
    keep = np.exp(-params.rho * np.asarray(lengths, dtype=float))
    if keep.ndim != 2 or keep.shape[0] < 1 or keep.shape[1] != tree.n_nodes:
        raise ValueError("lengths must be a (rows x nodes) array with at least one row")
    keep[:, tree.root] = 0.0  # the root array: an infinitely long edge from nothing
    gain = params.theta / params.rho * (1.0 - keep)
    rows = keep.shape[0]
    # node -> (tokens, alive); the root's parent, -1, holds an empty array
    state = {-1: (np.zeros(0, np.int64), np.zeros((rows, 0), bool))}
    tokens_at, alive_at = {}, {}
    for v in tree.preorder():
        tokens, alive = state[tree.parent[v]]
        survived, n_new = _edge_step(rng, alive, keep[:, v], gain[:, v])
        fresh = np.arange(max(n_new.tolist()))
        tokens = np.concatenate(((v << _TOKEN_SHIFT) + fresh, tokens))
        alive = np.concatenate((fresh < n_new[:, None], survived), axis=1)
        if v == tree.root:
            n_root = n_new
        if tree.is_leaf(v):
            tokens_at[tree.label[v]], alive_at[tree.label[v]] = tokens, alive
        else:
            state[v] = tokens, alive
    return Block(tree=tree, tokens=tokens_at, alive=alive_at, n_root=n_root)


def simulate_line(
    initial: tuple[int, ...], params: ModelParams, duration: float, seed: int
) -> tuple[int, ...]:
    """Evolve a single array for ``duration`` time units.

    Each initial spacer survives independently with probability
    e^{-rho * duration}; surviving new spacers, numbered on from the
    largest initial token, are prepended at the leader end.
    Deterministic given ``seed``.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    keep = math.exp(-params.rho * duration)
    survived, n_new = _edge_step(
        np.random.default_rng(seed),
        np.ones((1, len(initial)), bool),
        np.array([keep]),
        np.array([params.theta / params.rho * (1.0 - keep)]),
    )
    base = (max(initial) + 1) if initial else 0
    kept = (s for s, k in zip(initial, survived[0].tolist()) if k)
    return tuple(range(base, base + int(n_new[0]))) + tuple(kept)


def equilibrium_root(params: ModelParams, seed: int) -> tuple[int, ...]:
    """Stationary array: Poi(theta/rho) fresh spacers, the gains of an
    infinitely long edge."""
    return simulate_line((), params, math.inf, seed)


def simulate_tree(tree: UltrametricTree, params: ModelParams, seed: int) -> LeafArrays:
    """Run the ordered independent loss model along ``tree``.

    The root is initialized at equilibrium; each edge evolves the parent
    array independently.  The one-row view of :func:`simulate_block`,
    deterministic given (tree, params, seed).
    """
    block = simulate_block(
        tree, np.array([tree.length]), params, np.random.default_rng(seed)
    )
    base = tree.root << _TOKEN_SHIFT
    return LeafArrays(
        arrays=block.arrays(0), tree=tree, seed=seed,
        root_array=tuple(range(base, base + int(block.n_root[0]))),
    )

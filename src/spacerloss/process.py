"""Forward simulation of the ordered independent loss model.

Spacer arrays are tuples of opaque integer tokens, leader end first.
Per-edge randomness is drawn from a generator seeded by (seed, node id),
and fresh tokens are allocated from a per-edge block (node id in the high
bits), so results do not depend on traversal order and subtrees below a
branch point may be simulated concurrently.  Callers that run many
replicates derive each replicate's seed with :func:`mix_seed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .tree import UltrametricTree

__all__ = [
    "ModelParams", "LeafArrays", "simulate_line", "equilibrium_root", "simulate_tree",
    "splitmix64", "mix_seed",
]

# token = (block_id << _TOKEN_SHIFT) | index; block 0 is reserved for
# caller-supplied arrays in simulate_line
_TOKEN_SHIFT = 40

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


def _edge_rng(seed: int, node_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, node_id)))


def _evolve(
    array: tuple[int, ...],
    params: ModelParams,
    duration: float,
    rng: np.random.Generator,
    token_base: int,
) -> tuple[int, ...]:
    """One edge of the process: independent survival of existing spacers
    plus gained-and-surviving spacers prepended at the leader end.

    The count of surviving gains is Poisson with mean
    theta/rho * (1 - e^{-rho * duration}); their relative order carries no
    information because tokens are fresh and unique, so they are emitted
    as consecutive tokens from the edge's block.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    keep_p = math.exp(-params.rho * duration)
    survivors = tuple(s for s, keep in zip(array, rng.random(len(array)) < keep_p) if keep)
    n_new = int(rng.poisson(params.theta / params.rho * (1.0 - keep_p)))
    return tuple(range(token_base, token_base + n_new)) + survivors


def simulate_line(
    initial: tuple[int, ...], params: ModelParams, duration: float, seed: int
) -> tuple[int, ...]:
    """Evolve a single array for ``duration`` time units.

    Each initial spacer survives independently with probability
    e^{-rho * duration}; surviving new spacers are prepended at the leader
    end.  Deterministic given ``seed``.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    base = (max(initial) + 1) if initial else 0
    return _evolve(tuple(initial), params, duration, rng, base)


def equilibrium_root(params: ModelParams, seed: int) -> tuple[int, ...]:
    """Stationary array: Poi(theta/rho) fresh spacers."""
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    n = int(rng.poisson(params.theta / params.rho))
    return tuple(range(n))


def simulate_tree(tree: UltrametricTree, params: ModelParams, seed: int) -> LeafArrays:
    """Run the ordered independent loss model along ``tree``.

    The root is initialized at equilibrium; each edge evolves the parent
    array independently.  Deterministic given (tree, params, seed).
    """
    root_rng = _edge_rng(seed, tree.root)
    n_root = int(root_rng.poisson(params.theta / params.rho))
    base = tree.root << _TOKEN_SHIFT
    state: dict[int, tuple[int, ...]] = {
        tree.root: tuple(range(base, base + n_root))
    }
    arrays: dict[str, tuple[int, ...]] = {}
    for v in tree.preorder():
        if v == tree.root:
            continue
        arr = _evolve(
            state[tree.parent[v]],
            params,
            tree.length[v],
            _edge_rng(seed, v),
            v << _TOKEN_SHIFT,
        )
        if tree.is_leaf(v):
            arrays[tree.label[v]] = arr
        else:
            state[v] = arr
    return LeafArrays(arrays=arrays, tree=tree, seed=seed, root_array=state[tree.root])

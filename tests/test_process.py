import math
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacerloss import process, validation
from spacerloss.likelihood import pair_gap_pmf, triple_gap_pmf
from spacerloss.equal_spacers import (
    gap_decomposition,
    interior_totals,
    pair_stats,
    token_statistics,
    triple_stats,
)
from spacerloss.process import (
    MAX_NODES,
    ModelParams,
    equilibrium_root,
    simulate_block,
    simulate_line,
    simulate_tree,
)
from spacerloss.tree import (
    coalescent_block,
    coalescent_tree,
    parse_newick,
    sample_coalescent,
    subset_mask,
    to_newick,
)
from spacerloss.validation import chi2_sf, chisquare_from_counts, run_validation, sample_gaps

PARAMS = ModelParams(theta=10.0, rho=0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(theta=-1.0, rho=0.5)
    with pytest.raises(ValueError):
        ModelParams(theta=1.0, rho=0.0)
    with pytest.raises(ValueError):
        ModelParams(theta=math.inf, rho=0.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 200), st.floats(0.01, 3.0))
def test_line_preserves_relative_order(seed, n0, duration):
    initial = tuple(range(n0))
    out = simulate_line(initial, PARAMS, duration, seed)
    survivors = [s for s in out if s < n0]
    assert survivors == sorted(survivors)
    # new spacers sit at the leader end, before every survivor
    n_new = len(out) - len(survivors)
    assert all(s >= n0 for s in out[:n_new])
    assert out[n_new:] == tuple(survivors)


def test_line_is_deterministic():
    initial = tuple(range(50))
    assert simulate_line(initial, PARAMS, 1.0, 3) == simulate_line(initial, PARAMS, 1.0, 3)
    assert simulate_line(initial, PARAMS, 1.0, 3) != simulate_line(initial, PARAMS, 1.0, 4)


def test_line_zero_duration_is_identity():
    initial = tuple(range(30))
    assert simulate_line(initial, PARAMS, 0.0, 9) == initial


def test_equilibrium_root_mean_length():
    lens = [len(equilibrium_root(PARAMS, s)) for s in range(4000)]
    mean = PARAMS.theta / PARAMS.rho
    z = (np.mean(lens) - mean) / math.sqrt(mean / len(lens))
    assert abs(z) < 4.0


def test_stationarity_of_length():
    # after evolving an equilibrium array, length is still Poi(theta/rho)
    lens = []
    for s in range(4000):
        arr = equilibrium_root(PARAMS, s)
        lens.append(len(simulate_line(arr, PARAMS, 0.7, s + 10**6)))
    mean = PARAMS.theta / PARAMS.rho
    z = (np.mean(lens) - mean) / math.sqrt(mean / len(lens))
    assert abs(z) < 4.0


def test_survival_probability_of_single_spacer():
    rho, duration = 0.8, 1.1
    params = ModelParams(theta=0.0, rho=rho)
    kept = sum(
        bool(simulate_line((7,), params, duration, s)) for s in range(4000)
    )
    p = math.exp(-rho * duration)
    z = (kept / 4000 - p) / math.sqrt(p * (1 - p) / 4000)
    assert abs(z) < 4.0


def test_tree_simulation_is_deterministic():
    t = parse_newick("((1:0.5,2:0.5):0.5,3:1);")
    a = simulate_tree(t, PARAMS, 11)
    b = simulate_tree(t, PARAMS, 11)
    assert a.arrays == b.arrays and a.root_array == b.root_array
    c = simulate_tree(t, PARAMS, 12)
    assert a.arrays != c.arrays


def test_tree_simulation_token_blocks_do_not_collide():
    t = sample_coalescent(4, 5)
    sim = simulate_tree(t, ModelParams(theta=50.0, rho=0.5), 5)
    for leaf, arr in sim.arrays.items():
        assert len(set(arr)) == len(arr)
    root = set(sim.root_array)
    # a token shared between leaves is either a root spacer or was gained
    # on a shared ancestral edge; unique per-edge blocks make this testable
    all_tokens = set().union(*(set(a) for a in sim.arrays.values()))
    assert all(tok >= 0 for tok in all_tokens)


def test_leaf_marginal_matches_single_line():
    # each leaf of a cherry is marginally one line run for time T
    t = parse_newick("(1:1,2:1);")
    lens = []
    for s in range(4000):
        lens.append(len(simulate_tree(t, PARAMS, s).arrays["1"]))
    mean = PARAMS.theta / PARAMS.rho
    z = (np.mean(lens) - mean) / math.sqrt(mean / len(lens))
    assert abs(z) < 4.0


def test_shared_fraction_matches_survival():
    # a root spacer appears in a depth-T leaf with probability e^{-rho T}
    t = parse_newick("(1:1,2:1);")
    present = total = 0
    for s in range(3000):
        sim = simulate_tree(t, PARAMS, s)
        leaf1 = set(sim.arrays["1"])
        total += len(sim.root_array)
        present += sum(1 for tok in sim.root_array if tok in leaf1)
    p = math.exp(-PARAMS.rho * 1.0)
    z = (present / total - p) / math.sqrt(p * (1 - p) / total)
    assert abs(z) < 4.0


def _random_block(n, rows, theta, rho, seed):
    """A block on an n-leaf coalescent topology, each row's branch lengths
    scaled by its own factor."""
    rng = np.random.default_rng(seed)
    tree = sample_coalescent(n, rng)
    lengths = np.array(tree.length) * rng.uniform(0.05, 3.0, (rows, 1))
    return simulate_block(tree, lengths, ModelParams(theta=theta, rho=rho), rng)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8), st.integers(1, 12), st.floats(0.0, 60.0), st.floats(0.05, 4.0),
    st.integers(0, 2**32),
)
def test_block_statistics_match_each_rows_tokens(n, rows, theta, rho, seed):
    block = _random_block(n, rows, theta, rho, seed)
    tree, leaves = block.tree, block.tree.leaves
    fates = block.fates(tree.root)
    m, totals = interior_totals(fates, n)
    # sample_gaps' first gap: the interior totals once the fates past a
    # row's second equal spacer are zeroed
    equal = fates == 2**n - 1
    fates[np.cumsum(equal, axis=1) - equal >= 2] = 0
    first = interior_totals(fates, n)[1]
    # the whole block's own token columns, by row, leaf and position; an
    # empty array is a run of length 0
    r, c = np.nonzero(np.concatenate([block.alive[leaf] for leaf in leaves], axis=1))
    leaf_of = np.repeat(np.arange(n), [len(block.tokens[leaf]) for leaf in leaves])
    tokens = np.concatenate([block.tokens[leaf] for leaf in leaves])[c]
    lengths = np.bincount(r * n + leaf_of[c], minlength=rows * n)
    starts = np.cumsum(lengths) - lengths
    m_tokens, mask, gap, repeat = token_statistics(tokens, starts, n)
    assert repeat == -1
    assert m_tokens.tolist() == m.tolist()
    # the file form's interior totals: rows counted in gaps 1..m-1, by mask
    row = np.repeat(np.arange(rows), lengths.reshape(rows, n).sum(axis=1))
    mask = mask.astype(np.int64)

    def by_mask(sel):
        return np.bincount(row[sel] * 2**n + mask[sel], minlength=rows * 2**n).reshape(rows, -1)

    assert (by_mask(gap >= 1)[:, 1:] == totals[:, 1:]).all()
    assert (by_mask(gap == 1)[:, 1:] == first[:, 1:]).all()
    # a token's first holder is the lowest leaf bit of its mask
    own = 1 << np.repeat(np.tile(np.arange(n), rows), lengths)
    once = (mask & (own - 1)) == 0
    new = {v: block.fates(v) for v in range(tree.n_nodes) if v != tree.root}
    for b in range(rows):
        arrays = block.arrays(b)
        gd = gap_decomposition(arrays)
        # the tokens of node v's gains are (v << 40) | i
        gained = once & (row == b) & (tokens >> 40 != tree.root)
        assert Counter(k for v, f in new.items() for k in f[b].tolist() if k) == Counter(
            mask[gained].tolist()
        )
        assert m[b] == gd.m
        interior = {subset_mask(leaves, K): sum(c[1:]) for K, c in gd.counts.items()}
        assert {k: int(totals[b, k]) for k in range(1, 2**n - 1) if totals[b, k]} == {
            k: c for k, c in interior.items() if c
        }
        assert totals[b, -1] == 0
        if n == 2:
            ps = pair_stats(arrays)
            d = int(totals[b, 1] + totals[b, 2])
            assert (ps.m, ps.d) == (m[b], d if m[b] >= 2 else None)
        if n == 3 and m[b] >= 2:
            f1, f2 = block.tree.cherry()
            ts = triple_stats(arrays, (f1, f2))
            b1, b2 = (1 << leaves.index(f) for f in (f1, f2))
            b3 = 7 ^ b1 ^ b2
            assert (ts.d1, ts.d2, ts.d3, ts.d4) == (
                totals[b, b1] + totals[b, b2],
                totals[b, b3],
                totals[b, b1 | b2],
                totals[b, b1 | b3] + totals[b, b2 | b3],
            )
        # gains sit at the leader end, root spacers after them in root order
        for arr in arrays.values():
            tail = [s for s in arr if s >> 40 == tree.root]
            assert arr[len(arr) - len(tail):] == tuple(tail) == tuple(sorted(tail))
            assert set(tail) <= {(tree.root << 40) | i for i in range(block.n_root[b])}


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32), st.integers(0, 2**63))
def test_simulate_tree_is_the_one_row_block(n, tree_seed, seed):
    tree = sample_coalescent(n, tree_seed)
    params = ModelParams(theta=20.0, rho=0.7)
    sim = simulate_tree(tree, params, seed)
    block = simulate_block(tree, [tree.length], params, np.random.default_rng(seed))
    assert sim.arrays == block.arrays(0)
    assert sim.root_array == tuple((tree.root << 40) | i for i in range(block.n_root[0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**63))
def test_sample_coalescent_is_the_one_row_block(n, seed):
    parent, length = coalescent_block(n, 1, np.random.default_rng(seed))
    assert to_newick(sample_coalescent(n, seed)) == to_newick(coalescent_tree(parent[0], length[0]))


def test_empty_and_fully_lost_blocks():
    tree = parse_newick("((1:1,2:1):1,3:2);")
    lengths = np.tile(tree.length, (5, 1))
    empty = simulate_block(tree, lengths, ModelParams(theta=0.0, rho=1.0), np.random.default_rng(0))
    assert all(empty.fates(v).shape == (5, 0) for v in range(tree.n_nodes))
    m, totals = interior_totals(empty.fates(tree.root), 3)
    assert m.tolist() == [0] * 5 and not totals.any()
    lost = simulate_block(tree, lengths, ModelParams(theta=1e8, rho=1e6), np.random.default_rng(0))
    assert lost.n_root.min() > 0
    assert not lost.fates(tree.root).any()
    assert all(s >> 40 != tree.root for arr in lost.arrays(0).values() for s in arr)


def test_block_rejects_misshapen_lengths():
    tree = parse_newick("(1:1,2:1);")
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="rows x nodes"):
        simulate_block(tree, np.ones((0, 3)), PARAMS, rng)
    with pytest.raises(ValueError, match="rows x nodes"):
        simulate_block(tree, np.ones((2, 2)), PARAMS, rng)


def test_block_rejects_a_tree_beyond_the_token_node_ids():
    # only the node count is read before the rejection: no tree is built
    tree = SimpleNamespace(n_nodes=MAX_NODES + 1)
    with pytest.raises(ValueError, match=f"more than the {MAX_NODES} allowed"):
        simulate_block(tree, np.ones((1, 1)), PARAMS, np.random.default_rng(0))


@pytest.mark.parametrize("T_prime, seed", [(None, 4), (0.4, 3)])
def test_validation_chisquare_is_the_papers_pair_and_triple_law(T_prime, seed):
    # the same sample and support as run_validation: the observed keys and
    # the grid [0, w)^k, w = 64 for the pair's 2 classes and 4 for the
    # triple's 6; the law is the paper's instead of GeneralGapLaw
    rho, theta, T, trials = 0.8, 60.0, 1.2, 3000
    if T_prime is None:
        tree = parse_newick(f"(1:{T!r},2:{T!r});")
    else:
        tree = parse_newick(f"((1:{T_prime!r},2:{T_prime!r}):{T - T_prime!r},3:{T!r});")
    gaps = sample_gaps(tree, ModelParams(theta=theta, rho=rho), trials, seed).first_gaps
    k = len(next(iter(gaps)))
    w = min(max(max(key) for key in gaps) + 1, 64 if k == 2 else 4)
    keys = sorted(set(gaps) | set(product(range(w), repeat=k)))
    counts = np.array(keys).T
    if T_prime is None:
        pmf = pair_gap_pmf(*counts, rho, T)
    else:
        pmf = triple_gap_pmf(*counts, rho, T, T_prime)
    want, _ = chisquare_from_counts(gaps, dict(zip(keys, pmf.tolist())), sum(gaps.values()))
    title, got, _ = run_validation(rho, theta, T, T_prime, trials, seed)[0]
    assert title == f"{'pair' if T_prime is None else 'triple'} gap pmf chi-square"
    assert got == pytest.approx(want, rel=1e-12)


def test_validation_detects_a_doubled_loss_rate_on_one_edge(monkeypatch):
    # survival is simulated edge by edge, never sampled from the law, so a
    # wrong loss rate on one edge of the cherry must fail the checks
    edge_step = process._edge_step
    calls = []

    def doubled_on_leaf_1(rng, alive, keep, gain):
        calls.append(None)
        if len(calls) % 3 == 2:  # preorder per block: root, leaf 1, leaf 2
            keep = keep**2
        return edge_step(rng, alive, keep, gain)

    monkeypatch.setattr(process, "_edge_step", doubled_on_leaf_1)
    report = run_validation(1.0, 100.0, 1.0, None, 5000, 17)
    assert len(calls) == 3 * math.ceil(5000 / 512)
    assert min(p for _, _, p in report) < 1e-4
    monkeypatch.undo()
    assert min(p for _, _, p in run_validation(1.0, 100.0, 1.0, None, 5000, 17)) >= 1e-4


def test_chi2_sf_matches_scipy_for_df_to_4200_and_p_to_1e_300():
    from scipy.stats import chi2

    rng = np.random.default_rng(26)
    df = np.concatenate([np.arange(1, 11), rng.integers(1, 4201, 3000)])
    # p log-uniform in (1e-300, 1), and some in the far left tail where p ~ 1
    q = np.concatenate([
        10.0 ** -rng.uniform(0, 300, len(df) - 100), 1 - 10.0 ** -rng.uniform(0, 16, 100)
    ])
    x = chi2.isf(q, df)
    want = chi2.sf(x, df)
    keep = want >= 1e-300
    assert keep.sum() > 2900
    got = np.array([chi2_sf(xi, di) for xi, di in zip(x[keep].tolist(), df[keep].tolist())])
    assert np.all(np.abs(got - want[keep]) <= 1e-10 * want[keep])


@pytest.mark.parametrize("df", [1, 2, 3, 4095])
def test_chi2_sf_at_zero_and_infinity(df):
    assert chi2_sf(0.0, df) == 1.0
    assert chi2_sf(math.inf, df) == 0.0


def test_validation_normal_p_is_twice_scipys_normal_tail(monkeypatch):
    # the new-spacer p-values of a passing run and, with the model means
    # shifted, of failing runs whose z-scores reach far into the tails
    from scipy.stats import norm

    means = validation.new_spacer_means
    pairs = []
    for scale in (1.0, 1.1, 1.5, 3.0):
        monkeypatch.setattr(
            validation, "new_spacer_means", lambda *args, s=scale: s * means(*args)
        )
        for T_prime in (None, 0.4):
            report = run_validation(1.0, 100.0, 1.0, T_prime, 1000, 5)
            pairs += [(z, p) for name, z, p in report[1:] if "exactly 0" not in name]
    z, p = np.array(pairs).T
    want = 2.0 * norm.sf(np.abs(z))
    assert np.abs(z).max() > 30
    tail = want >= 1e-300
    assert np.all(np.abs(p[tail] - want[tail]) <= 1e-11 * want[tail])
    assert np.all(p[~tail] < 1e-290)

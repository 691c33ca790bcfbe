import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from spacerloss.tree import (
    NewickError,
    TreeError,
    UltrametricTree,
    coalescent_block,
    coalescent_tree,
    fate_probs,
    mask_subset,
    mrca,
    new_spacer_means,
    newick_lines,
    p_exact_subset,
    parse_newick,
    poisson_mean_new,
    sample_coalescent,
    spanning_length,
    subset_mask,
    survival,
    to_newick,
)

CHERRY = "(1:1,2:1);"
TRIPLE = "((1:0.5,2:0.5):0.5,3:1);"


def test_parse_cherry():
    t = parse_newick(CHERRY)
    assert t.leaves == ("1", "2")
    assert t.height == 1.0


def test_parse_rejects_missing_semicolon():
    with pytest.raises(NewickError):
        parse_newick("(1:1,2:1)")


def test_parse_rejects_nonbinary():
    with pytest.raises(NewickError):
        parse_newick("(1:1,2:1,3:1);")


def test_parse_rejects_missing_branch_length():
    with pytest.raises(NewickError):
        parse_newick("(1:1,2);")


def test_parse_rejects_zero_branch_length_as_nonpositive():
    # an explicit zero is a length, not a missing one
    with pytest.raises(TreeError, match="branch length above node 2 must be positive"):
        parse_newick("((1:0,2:0):1,3:1);")


def test_parse_rejects_bad_branch_length():
    with pytest.raises(NewickError):
        parse_newick("(1:abc,2:1);")


def test_parse_rejects_unbalanced():
    with pytest.raises(NewickError):
        parse_newick("((1:1,2:1);")


def test_rejects_non_ultrametric():
    with pytest.raises(TreeError, match="ultrametric"):
        parse_newick("(1:1,2:2);")


def test_rejects_duplicate_labels():
    with pytest.raises(TreeError):
        parse_newick("(1:1,1:1);")


def test_canonical_newick_is_order_invariant():
    a = parse_newick("((2:0.5,1:0.5):0.5,3:1);")
    b = parse_newick("(3:1,(1:0.5,2:0.5):0.5);")
    assert to_newick(a) == to_newick(b)


def test_roundtrip_triple():
    t = parse_newick(TRIPLE)
    assert to_newick(parse_newick(to_newick(t))) == to_newick(t)


def test_cherry_detection():
    assert parse_newick(TRIPLE).cherry() == ("1", "2")
    assert parse_newick("((2:0.3,3:0.3):0.7,1:1);").cherry() == ("2", "3")


def test_mrca_and_spanning_length():
    t = parse_newick(TRIPLE)
    v12 = mrca(t, ["1", "2"])
    assert t.leaves_below(v12) == frozenset({"1", "2"})
    assert mrca(t, ["1", "2", "3"]) == t.root
    assert spanning_length(t, t.root, ["1", "2", "3"]) == pytest.approx(2.5)
    assert spanning_length(t, v12, ["1", "2"]) == pytest.approx(1.0)
    assert spanning_length(t, t.root, ["3"]) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_coalescent_roundtrips_and_is_ultrametric(seed, n):
    t = sample_coalescent(n, seed)
    assert set(t.leaves) == {str(i + 1) for i in range(n)}
    assert to_newick(parse_newick(to_newick(t))) == to_newick(t)


def test_coalescent_determinism():
    assert to_newick(sample_coalescent(5, 42)) == to_newick(sample_coalescent(5, 42))
    assert to_newick(sample_coalescent(5, 42)) != to_newick(sample_coalescent(5, 43))


def test_coalescent_pair_height_is_standard_exponential():
    heights = [sample_coalescent(2, s).height for s in range(2000)]
    assert sps.kstest(heights, "expon").pvalue > 1e-4


def _coalescent_rows(n, rows, seed):
    return coalescent_block(n, rows, np.random.default_rng(seed))


def _reference_block(n, rows, seed):
    """:func:`coalescent_block` row by row with Python lists, from the same
    draws: merger e joins positions i and j (skipping i) of the active
    lines, puts its node at position i and the last line at position j."""
    rng = np.random.default_rng(seed)
    ks = np.arange(n, 1, -1)
    epochs = rng.exponential(1.0, (rows, n - 1)) / (ks * (ks - 1) / 2.0)
    picks = rng.integers(0, np.stack((ks, ks - 1), axis=1), (rows, n - 1, 2))
    parents, lengths = [], []
    for durations, pairs in zip(epochs.tolist(), picks.tolist()):
        parent, depth, active = [-1] * (2 * n - 1), [0.0] * n, list(range(n))
        for e, (i, j) in enumerate(pairs):
            j += j >= i
            parent[active[i]] = parent[active[j]] = n + e
            depth.append(depth[-1] + durations[e])
            active[i] = n + e
            active[j] = active[-1]
            active.pop()
        parents.append(parent)
        lengths.append([depth[p] - depth[v] if p >= 0 else 0.0 for v, p in enumerate(parent)])
    return parents, lengths


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 9), st.integers(1, 9), st.integers(0, 2**63))
def test_coalescent_block_matches_the_row_by_row_reference(n, rows, seed):
    parent, length = _coalescent_rows(n, rows, seed)
    want_parent, want_length = _reference_block(n, rows, seed)
    assert parent.tolist() == want_parent
    assert length.tolist() == want_length  # same sums in the same order: equal bits


@pytest.mark.parametrize("n", [1, 0])
def test_coalescent_needs_two_leaves(n):
    with pytest.raises(TreeError, match="must be >= 2"):
        sample_coalescent(n, 0)


def test_coalescent_block_rows_are_trees():
    parent, length = _coalescent_rows(5, 50, 3)
    for par, lens in zip(parent, length):
        # build() checks the tree is binary, rooted at the last node and ultrametric
        t = coalescent_tree(par, lens)
        assert t.root == 8 and t.leaves == ("1", "2", "3", "4", "5")
        assert [t.parent[v] > v for v in range(8)] == [True] * 8  # mergers in order


def test_coalescent_block_triple_cherries_and_epochs():
    parent, length = _coalescent_rows(3, 6000, 11)
    # the first merger makes node 3, whose children are the cherry
    cherry = [tuple(np.flatnonzero(row[:3] == 3).tolist()) for row in parent]
    counts = [cherry.count(pair) for pair in [(0, 1), (0, 2), (1, 2)]]
    assert sum(counts) == 6000
    assert sps.chisquare(counts).pvalue > 1e-3
    # the epoch of 3 lines is a cherry leaf's edge, that of 2 the cherry's edge
    first, second = length[np.arange(6000), [c[0] for c in cherry]], length[:, 3]
    for sample, mean in ((first, 1 / 3), (second, 1.0)):
        assert abs(sample.mean() - mean) < 4 * mean / math.sqrt(len(sample))


def test_coalescent_block_labelled_ranked_topologies_are_uniform():
    parent, _ = _coalescent_rows(4, 6000, 5)
    _, counts = np.unique(parent, axis=0, return_counts=True)
    # 6 x 3 x 1 ranked mergers of 4 labelled leaves
    assert len(counts) == 18
    assert sps.chisquare(counts).pvalue > 1e-3


@pytest.mark.parametrize("text", [TRIPLE, "((a{0}:1,b}:1):2,(c:2.5,{d:2.5):0.5);"])
def test_newick_lines_fill_the_to_newick_walk_per_row(text):
    t = parse_newick(text)
    lengths = np.array([t.length, [x * 1.0000001 for x in t.length]])
    first, second = newick_lines(t, lengths)
    assert first == to_newick(t)
    assert second == to_newick(UltrametricTree.build(list(t.parent), lengths[1].tolist(), list(t.label)))


def test_survival_matches_hand_recursion():
    # ((1:0.5,2:0.5):0.5,3:1), rho = 0.8, values from the recursion by hand
    t = parse_newick(TRIPLE)
    table = survival(t, 0.8)
    cherry_node = mrca(t, ["1", "2"])
    assert table.p[cherry_node] == pytest.approx(0.891311127954057, abs=1e-12)
    assert table.p[t.root] == pytest.approx(0.7783349276867645, abs=1e-12)
    for leaf in t.leaves:
        assert table.p[t.leaf_ids[leaf]] == 1.0


def test_survival_keeps_precision_when_survival_is_rare():
    # 1 - (1 - e^{-50})^2 rounds to 0; the exact value is 2e^{-50} - e^{-100}
    t = parse_newick("(1:1,2:1);")
    want = 2.0 * math.exp(-50.0) - math.exp(-100.0)
    assert survival(t, 50.0).p[t.root] == pytest.approx(want, rel=1e-12, abs=0.0)
    # rho * length below the double precision of 1: nothing is lost
    assert survival(t, 1e-20).p[t.root] == 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.05, 5.0))
def test_exact_subset_probabilities_partition_unity(seed, rho):
    t = sample_coalescent(5, seed)
    table = survival(t, rho)
    leaves = t.leaves
    total = 1.0 - table.p[t.root]  # lost everywhere
    for mask in range(1, 2 ** len(leaves)):
        K = [l for i, l in enumerate(leaves) if mask >> i & 1]
        total += p_exact_subset(t, rho, t.root, K, table)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_poisson_mean_new_pair_closed_form():
    # a cherry of depth T: mean count of new spacers in one leaf is
    # theta/rho (1 - e^{-rho T})
    theta, rho, T = 7.0, 1.3, 0.9
    t = parse_newick(f"(1:{T},2:{T});")
    want = theta / rho * (1.0 - math.exp(-rho * T))
    assert poisson_mean_new(t, theta, rho, ["1"]) == pytest.approx(want, rel=1e-12)
    assert poisson_mean_new(t, theta, rho, ["1", "2"]) == 0.0


def test_poisson_mean_new_triple_closed_forms():
    theta, rho, T, Tp = 5.0, 0.7, 1.0, 0.4
    t = parse_newick(f"((1:{Tp},2:{Tp}):{T - Tp},3:{T});")
    pT, pTp = math.exp(-rho * T), math.exp(-rho * Tp)
    # outgroup leaf: gained on its pendant edge, lost toward the cherry side
    want3 = theta / rho * (1.0 - pT)
    assert poisson_mean_new(t, theta, rho, ["3"]) == pytest.approx(want3, rel=1e-12)
    # cherry pair: gained on the internal edge, kept in both cherry leaves;
    # absence from the outgroup is automatic for post-root spacers
    want12 = theta / rho * (1.0 - pT / pTp) * pTp * pTp
    assert poisson_mean_new(t, theta, rho, ["1", "2"]) == pytest.approx(want12, rel=1e-12)
    # leaf-outgroup pairs are impossible: no edge is ancestral to exactly them
    assert poisson_mean_new(t, theta, rho, ["1", "3"]) == 0.0
    assert poisson_mean_new(t, theta, rho, ["2", "3"]) == 0.0


def test_poisson_mean_new_cherry_leaf():
    theta, rho, T, Tp = 5.0, 0.7, 1.0, 0.4
    t = parse_newick(f"((1:{Tp},2:{Tp}):{T - Tp},3:{T});")
    pT, pTp = math.exp(-rho * T), math.exp(-rho * Tp)
    # pendant-edge gains (present in this leaf only by construction) plus
    # internal-edge gains kept here and lost toward the sibling
    want = theta / rho * (
        (1.0 - pTp) + (1.0 - pT / pTp) * pTp * (1.0 - pTp)
    )
    assert poisson_mean_new(t, theta, rho, ["1"]) == pytest.approx(want, rel=1e-12)


# -- mask geometry against parent-pointer path walks --------------------

# string order differs from numeric order ("10" < "9") and from case order
LABELS = ("1", "2", "9", "10", "11", "100", "a", "B", "b", "Z")


@st.composite
def ultrametric_trees(draw, max_leaves=9):
    """Random binary ultrametric trees of 2 to ``max_leaves`` (at most 10)
    leaves with shuffled node ids."""
    n = draw(st.integers(2, max_leaves))
    labels = draw(st.permutations(LABELS))[:n]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(2 * n - 1).tolist()
    parent, length, label = [-1] * (2 * n - 1), [0.0] * (2 * n - 1), [""] * (2 * n - 1)
    age = [0.0] * (2 * n - 1)
    active = ids[:n]
    for v, lab in zip(active, labels):
        label[v] = lab
    t = 0.0
    for p in ids[n:]:
        t += float(rng.exponential())
        i, j = rng.choice(len(active), size=2, replace=False)
        pair = (active[i], active[j])
        age[p] = t
        for c in pair:
            parent[c] = p
            length[c] = t - age[c]
        active = [x for x in active if x not in pair] + [p]
    return UltrametricTree.build(parent, length, label)


def ref_path(t, v):
    path = [v]
    while t.parent[path[-1]] >= 0:
        path.append(t.parent[path[-1]])
    return path


def ref_children(t, v):
    return [c for c in range(t.n_nodes) if t.parent[c] == v]


def ref_leaves_below(t, v):
    return frozenset(lab for lab, i in t.leaf_ids.items() if v in ref_path(t, i))


def ref_mrca(t, K):
    paths = [ref_path(t, t.leaf_ids[k]) for k in K]
    return next(w for w in paths[0] if all(w in p for p in paths))


def ref_span(t, v, K):
    nodes = set()
    for k in K:
        path = ref_path(t, t.leaf_ids[k])
        nodes.update(path[: path.index(v)])
    return nodes


def ref_p_exact(t, rho, v, K, table):
    nodes = ref_span(t, v, K)
    prob = math.exp(-rho * sum(t.length[w] for w in nodes))
    for w in nodes | {v}:
        for c in ref_children(t, w):
            if c not in nodes:
                prob *= 1.0 - table.p[c] * math.exp(-rho * t.length[c])
    return prob


def ref_newick(t, v):
    if t.label[v]:
        return t.label[v]
    kids = sorted(ref_children(t, v), key=lambda c: min(ref_leaves_below(t, c)))
    return "(%s)" % ",".join(f"{ref_newick(t, c)}:{t.length[c]:.12g}" for c in kids)


@settings(max_examples=40, deadline=None)
@given(ultrametric_trees(), st.floats(0.05, 5.0))
def test_mask_geometry_matches_path_walks(t, rho):
    leaves = sorted(t.leaf_ids)
    assert t.leaves == tuple(leaves)
    depths = []
    for v in t.leaf_ids.values():
        d = 0.0
        for w in reversed(ref_path(t, v)[:-1]):
            d += t.length[w]
        depths.append(d)
    assert t.height == max(depths)
    for v in range(t.n_nodes):
        assert t.leaves_below(v) == ref_leaves_below(t, v)
    if len(leaves) == 3:
        inner = next(v for v in range(t.n_nodes) if v != t.root and not t.label[v])
        assert t.cherry() == tuple(sorted(ref_leaves_below(t, inner)))
    assert to_newick(t) == ref_newick(t, t.root) + ";"

    table = survival(t, rho)
    for size in range(1, len(leaves) + 1):
        for K in combinations(leaves, size):
            v = mrca(t, K)
            assert v == ref_mrca(t, K)
            for w in (v, t.root):
                assert spanning_length(t, w, K) == pytest.approx(
                    sum(t.length[x] for x in ref_span(t, w, K)), rel=1e-12
                )
                assert p_exact_subset(t, rho, w, K, table) == pytest.approx(
                    ref_p_exact(t, rho, w, K, table), rel=1e-12
                )
            want = sum(
                (1.0 - math.exp(-rho * t.length[w])) * ref_p_exact(t, rho, w, K, table)
                for w in ref_path(t, v)[:-1]
            )
            assert poisson_mean_new(t, 2.0, rho, K) == pytest.approx(
                2.0 / rho * want, rel=1e-12, abs=1e-300
            )
            outside = [k for k in leaves if k not in K]
            if outside:
                with pytest.raises(TreeError, match="not ancestral"):
                    spanning_length(t, t.leaf_ids[outside[0]], K)


@settings(max_examples=30, deadline=None)
@given(ultrametric_trees(), st.floats(0.05, 5.0))
def test_fate_tables_match_subset_walks_from_every_node(t, rho):
    table = survival(t, rho)
    masks, probs = fate_probs(t, rho)
    for v in range(t.n_nodes):
        below = t.below[v]
        # each subset of the leaves below v once, mask 0 included
        assert sorted(masks[v].tolist()) == [k for k in range(below + 1) if k & below == k]
        assert math.fsum(probs[v].tolist()) == pytest.approx(1.0, abs=1e-12)
        for k, p in zip(masks[v].tolist(), probs[v].tolist()):
            if k:
                want = p_exact_subset(t, rho, v, mask_subset(t.leaves, k), table)
                assert p == pytest.approx(want, rel=1e-12, abs=0.0)


@settings(max_examples=30, deadline=None)
@given(ultrametric_trees())
def test_new_spacer_means_match_path_walks_where_survival_is_rare(t):
    # at rho * height = 50 a spacer gained at the root survives with
    # probability about e^{-50}: every mean is a product of rare factors
    theta, rho = 3.0, 50.0 / t.height
    table = survival(t, rho)
    means = new_spacer_means(t, theta, rho)
    full = (1 << len(t.leaves)) - 1
    assert means.shape == (full + 1,)
    assert means[full] == 0.0
    for k in range(1, full):
        K = mask_subset(t.leaves, k)
        want = sum(
            (1.0 - math.exp(-rho * t.length[w])) * ref_p_exact(t, rho, w, K, table)
            for w in ref_path(t, ref_mrca(t, K))[:-1]
        )
        assert means[k] == pytest.approx(theta / rho * want, rel=1e-12, abs=1e-300)
        assert poisson_mean_new(t, theta, rho, K) == means[k]


# the module's input checks that no other test reaches, each through its
# public entry point: (call, exception type, message)
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: subset_mask(("1", "2"), ["3"]), TreeError,
                 "unknown leaf label '3'", id="subset-mask-unknown-label"),
    pytest.param(lambda: UltrametricTree.build([-1, -1], [0.0, 0.0], ["1", "2"]), TreeError,
                 "tree must have exactly one root, found 2", id="build-two-roots"),
    pytest.param(lambda: UltrametricTree.build([-1, 0, 0], [0.0, 1.0, 1.0], ["r", "1", "2"]),
                 TreeError, "labeled node 'r' has children", id="build-labelled-internal-node"),
    pytest.param(lambda: UltrametricTree.build([-1, 0], [0.0, 1.0], ["", "1"]), TreeError,
                 "internal node 0 has 1 children, tree must be binary",
                 id="build-one-child-node"),
    pytest.param(lambda: parse_newick(CHERRY).cherry(), TreeError,
                 "cherry() is defined for 3-leaf trees", id="cherry-of-a-pair"),
    pytest.param(lambda: parse_newick("(:1,2:1);"), NewickError,
                 "empty leaf label (at position 1)", id="newick-empty-label"),
    pytest.param(lambda: parse_newick("(1:1;2:1);"), NewickError,
                 "unexpected character ';' (at position 4)", id="newick-unexpected-character"),
    pytest.param(lambda: parse_newick("(1:1,2:1)x;"), NewickError,
                 "trailing characters 'x' (at position 9)", id="newick-trailing-characters"),
    pytest.param(lambda: mrca(parse_newick(TRIPLE), []), TreeError,
                 "leaf subset must be nonempty", id="mrca-empty-subset"),
    pytest.param(lambda: survival(parse_newick(TRIPLE), 0.0), ValueError,
                 "rho must be positive", id="survival-rho-0"),
    pytest.param(lambda: fate_probs(parse_newick(TRIPLE), 0.0), ValueError,
                 "rho must be positive", id="fate-probs-rho-0"),
    # without a table, p_exact_subset builds its own survival
    pytest.param(lambda: p_exact_subset(parse_newick(TRIPLE), 0.0, 0, {"1"}), ValueError,
                 "rho must be positive", id="p-exact-subset-own-table"),
    pytest.param(
        lambda: p_exact_subset(
            parse_newick(TRIPLE), 2.0, 0, {"1"}, survival(parse_newick(TRIPLE), 1.0)
        ),
        ValueError, "survival table was computed for a different rho",
        id="p-exact-subset-other-rho-table",
    ),
    pytest.param(lambda: new_spacer_means(parse_newick(TRIPLE), -1.0, 1.0), ValueError,
                 "theta must be nonnegative", id="new-spacer-means-negative-theta"),
])
def test_input_checks_raise_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and exc.value.args == (message,)

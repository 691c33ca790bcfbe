from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacerloss.equal_spacers import (
    equal_indices,
    gap_decomposition,
    interior_statistics,
    pair_stats,
    triple_stats,
)
from spacerloss.process import ModelParams, simulate_tree
from spacerloss.tree import parse_newick


def test_equal_indices_pair():
    arrays = {"1": [10, 5, 7, 3], "2": [5, 9, 3]}
    idx = equal_indices(arrays, ["1", "2"])
    assert idx == {"1": [2, 4], "2": [1, 3]}


def test_equal_indices_exact_subset():
    arrays = {"1": [10, 5, 7, 3], "2": [5, 9, 3], "3": [5, 10]}
    # spacer 5 is in all three; spacer 10 is in exactly {1, 3}
    idx = equal_indices(arrays, ["1", "3"], L=arrays)
    assert idx == {"1": [1], "3": [2]}


def test_equal_indices_unknown_label():
    with pytest.raises(KeyError):
        equal_indices({"1": [1], "2": [1]}, ["1", "9"])


def test_gap_decomposition_pair():
    # equal spacers 5 and 3; one unshared (7) between them in leaf 1
    arrays = {"1": [10, 5, 7, 3], "2": [5, 9, 3]}
    gd = gap_decomposition(arrays)
    assert gd.m == 2
    assert gd.counts[frozenset({"1"})] == (1, 1)
    assert gd.counts[frozenset({"2"})] == (0, 1)


def test_gap_decomposition_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        gap_decomposition({"1": [1, 2, 1], "2": [1]})


def test_gap_decomposition_ignores_trailing():
    # spacer 9 sits after the last equal spacer and is not counted
    arrays = {"1": [5, 3, 9], "2": [5, 3]}
    gd = gap_decomposition(arrays)
    assert gd.m == 2
    assert gd.counts == {}


def test_pair_stats_identical_arrays():
    st_ = pair_stats({"1": [4, 2, 9], "2": [4, 2, 9]})
    assert st_.m == 3 and st_.d == 0
    assert st_.v == (0, 0, 0) and st_.w == (0, 0, 0)


def test_pair_stats_counts_unshared_only():
    # leaf 1: [10, 5, 7, 3], leaf 2: [5, 9, 3]; one unshared spacer sits
    # between the equal spacers in each leaf
    st_ = pair_stats({"1": [10, 5, 7, 3], "2": [5, 9, 3]})
    assert st_.m == 2
    assert st_.v == (1, 2) and st_.w == (0, 1)
    assert st_.d == 2


def test_pair_stats_single_equal_spacer():
    st_ = pair_stats({"1": [1, 2], "2": [3, 2]})
    assert st_.m == 1 and st_.d is None


def test_pair_stats_requires_two_arrays():
    with pytest.raises(ValueError):
        pair_stats({"1": [1]})


def test_triple_stats_worked_example():
    # equal spacers 1 and 2; between them: one private to each cherry
    # leaf (D1 = 2), two private to the outgroup (D2 = 2)
    arrays = {
        "1": [1, 7, 2],
        "2": [1, 8, 2],
        "3": [1, 5, 6, 2],
    }
    st_ = triple_stats(arrays, ("1", "2"))
    assert (st_.m, st_.d1, st_.d2, st_.d3, st_.d4) == (2, 2, 2, 0, 0)


def test_triple_stats_cherry_assignment_matters():
    arrays = {"1": [1, 7, 2], "2": [1, 2], "3": [1, 7, 2]}
    # 7 is in exactly {1, 3}: cherry-crossing under cherry (1,2)
    st_a = triple_stats(arrays, ("1", "2"))
    assert (st_a.d1, st_a.d2, st_a.d3, st_a.d4) == (0, 0, 0, 1)
    # but a cherry-pair spacer under cherry (1, 3)
    st_b = triple_stats(arrays, ("1", "3"))
    assert (st_b.d1, st_b.d2, st_b.d3, st_b.d4) == (0, 0, 1, 0)


def test_triple_stats_insufficient():
    st_ = triple_stats({"1": [1], "2": [2], "3": [3]}, ("1", "2"))
    assert st_.m == 0 and st_.d1 is None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_gap_identity_on_simulated_triples(seed):
    # interior gap counts over all proper subsets equal D1 + D2 + D3 + D4
    t = parse_newick("((1:0.5,2:0.5):0.5,3:1);")
    sim = simulate_tree(t, ModelParams(theta=20.0, rho=0.7), seed)
    gd = gap_decomposition(sim.arrays)
    st_ = triple_stats(sim.arrays, t.cherry())
    if gd.m < 2:
        assert st_.d1 is None
        return
    interior_total = sum(sum(c[1:]) for c in gd.counts.values())
    assert interior_total == st_.d1 + st_.d2 + st_.d3 + st_.d4


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_pair_d_equals_interior_gap_total(seed):
    t = parse_newick("(1:1,2:1);")
    sim = simulate_tree(t, ModelParams(theta=20.0, rho=0.7), seed)
    gd = gap_decomposition(sim.arrays)
    st_ = pair_stats(sim.arrays)
    if st_.m < 2:
        return
    interior_total = sum(sum(c[1:]) for c in gd.counts.values())
    assert st_.d == interior_total
    # consecutive v/w differences are the per-gap unshared counts
    assert st_.d == (st_.v[-1] - st_.v[0]) + (st_.w[-1] - st_.w[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_stats_invariant_under_leaf_relabeling(seed):
    # swapping the two cherry labels leaves every statistic unchanged
    t = parse_newick("((1:0.5,2:0.5):0.5,3:1);")
    sim = simulate_tree(t, ModelParams(theta=20.0, rho=0.7), seed)
    swapped = {"1": sim.arrays["2"], "2": sim.arrays["1"], "3": sim.arrays["3"]}
    a = triple_stats(sim.arrays, ("1", "2"))
    b = triple_stats(swapped, ("1", "2"))
    assert (a.m, a.d1, a.d2, a.d3, a.d4) == (b.m, b.d1, b.d2, b.d3, b.d4)


# -- brute-force reference, written from the definitions ----------------


def _exact_subset_tokens(arrays, K, L):
    """Tokens held by every leaf of K and by no leaf of L \\ K."""
    tokens = set.intersection(*(set(arrays[k]) for k in K))
    for other in set(L) - set(K):
        tokens -= set(arrays[other])
    return tokens


def _reference_decomposition(arrays):
    labels = sorted(arrays)
    equal = _exact_subset_tokens(arrays, labels, labels)
    m = len(equal)
    counts = {}
    for size in range(1, len(labels)):
        for K in combinations(labels, size):
            row = [0] * m
            first = arrays[K[0]]  # the first holder by label
            for s in _exact_subset_tokens(arrays, K, labels):
                gap = sum(1 for t in first[: first.index(s)] if t in equal)
                if gap < m:
                    row[gap] += 1
            if any(row):
                counts[frozenset(K)] = tuple(row)
    return m, counts


def _reference_pair(arrays):
    m, _ = _reference_decomposition(arrays)
    equal = _exact_subset_tokens(arrays, list(arrays), list(arrays))
    before = []
    for lab in sorted(arrays):
        arr = arrays[lab]
        # unshared spacers preceding each equal spacer, in array order
        before.append(tuple(
            sum(1 for t in arr[:i] if t not in equal) for i, s in enumerate(arr) if s in equal
        ))
    v, w = before
    d = (v[-1] - v[0]) + (w[-1] - w[0]) if m >= 2 else None
    return m, v, w, d


def _reference_triple(arrays, cherry):
    m, counts = _reference_decomposition(arrays)
    if m < 2:
        return m, None, None, None, None
    f1, f2 = cherry
    (f3,) = set(arrays) - {f1, f2}

    def interior(*K):
        return sum(counts.get(frozenset(K), (0,) * m)[1:])

    return (
        m,
        interior(f1) + interior(f2),
        interior(f3),
        interior(f1, f2),
        interior(f1, f3) + interior(f2, f3),
    )


def _reference_repeat(arrays):
    """The error message for the first spacer repeated within an array, by
    label, then position, or None."""
    for lab in sorted(arrays):
        seen = set()
        for s in arrays[lab]:
            if s in seen:
                return f"duplicate spacer {s} in array {lab!r}"
            seen.add(s)
    return None


@st.composite
def _leaf_arrays(draw, labels=None):
    """2-6 arrays, in shuffled label order (or the given labels), each
    holding about 3/4 of a token pool in a shared or its own order; arrays
    may be empty, and a few tokens may be repeated within an array."""
    if labels is None:
        # labels chosen so that string order differs from numeric order
        labels = draw(st.permutations(["1", "2", "10", "a", "B", "x3"]))[: draw(st.integers(2, 6))]
    pool = list(range(draw(st.integers(0, 12))))
    shared_order = draw(st.booleans())
    arrays = {}
    for lab in labels:
        order = pool if shared_order else draw(st.permutations(pool))
        keep = draw(st.lists(st.integers(0, 3), min_size=len(pool), max_size=len(pool)))
        arrays[lab] = [s for s, k in zip(order, keep) if k]
    # (array, token index, insertion point) of each repeat
    repeats = st.tuples(st.sampled_from(list(labels)), st.integers(0, 99), st.integers(0, 99))
    for lab, i, j in draw(st.lists(repeats, max_size=2)):
        arr = arrays[lab]
        if arr:
            arr.insert(j % (len(arr) + 1), arr[i % len(arr)])
    return arrays


@settings(max_examples=400, deadline=None)
@given(_leaf_arrays(), st.data())
def test_membership_pass_matches_reference(arrays, data):
    labels = list(arrays)
    K = data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    L = data.draw(st.sets(st.sampled_from(labels))) | set(K)
    cherry = tuple(data.draw(st.permutations(labels))[:2])
    repeat = _reference_repeat(arrays)
    if repeat is not None:
        views = [lambda: gap_decomposition(arrays), lambda: equal_indices(arrays, K, L)]
        if len(arrays) == 2:
            views.append(lambda: pair_stats(arrays))
        if len(arrays) == 3:
            views.append(lambda: triple_stats(arrays, cherry))
        for view in views:
            with pytest.raises(ValueError) as exc:
                view()
            assert str(exc.value) == repeat
        return
    gd = gap_decomposition(arrays)
    assert (gd.m, gd.counts) == _reference_decomposition(arrays)
    want = _exact_subset_tokens(arrays, K, L)
    assert equal_indices(arrays, K, L) == {
        k: [i + 1 for i, s in enumerate(arrays[k]) if s in want] for k in sorted(K)
    }
    if len(arrays) == 2:
        st_ = pair_stats(arrays)
        assert (st_.m, st_.v, st_.w, st_.d) == _reference_pair(arrays)
    if len(arrays) == 3:
        st_ = triple_stats(arrays, cherry)
        assert (st_.m, st_.d1, st_.d2, st_.d3, st_.d4) == _reference_triple(arrays, cherry)


def test_interior_statistics_takes_one_outgroup_bit_per_row():
    rng = np.random.default_rng(5)
    totals = rng.integers(0, 50, (30, 8))
    outgroup = rng.integers(0, 3, 30)
    want = []
    for row, o in zip(totals, outgroup.tolist()):
        f3 = 1 << o
        c1, c2 = (1 << b for b in range(3) if b != o)
        want.append([row[c1] + row[c2], row[f3], row[c1 | c2], row[c1 | f3] + row[c2 | f3]])
    assert interior_statistics(totals, outgroup).tolist() == want
    # one bit for all rows, and one row with its own bit
    assert interior_statistics(totals, 1).tolist() == interior_statistics(
        totals, np.ones(30, dtype=int)
    ).tolist()
    assert [interior_statistics(row, o).tolist() for row, o in zip(totals, outgroup)] == want


def test_views_of_any_number_of_arrays_take_up_to_64():
    # gap_decomposition and equal_indices skip the interior totals, which
    # would hold 2^64 counts here; spacer 7 is held by all arrays but "00"
    arrays = {f"{i:02d}": [1, 7, 2, 100 + i, 3] if i else [1, 2, 100, 3] for i in range(64)}
    gd = gap_decomposition(arrays)
    assert gd.m == 3
    assert gd.counts[frozenset(arrays) - {"00"}] == (0, 1, 0)
    assert gd.counts[frozenset({"05"})] == (0, 0, 1)
    assert equal_indices(arrays, set(arrays) - {"00"})["63"] == [2]
    arrays["64"] = [1, 2, 3]
    with pytest.raises(ValueError, match="leaf masks hold at most 64 arrays"):
        gap_decomposition(arrays)


# the module's input checks that no other test reaches, each through its
# public entry point: (call, exception type, message)
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: equal_indices({"1": [1], "2": [1]}, []), ValueError,
                 "K must be nonempty", id="equal-indices-empty-k"),
    pytest.param(lambda: equal_indices({"1": [1], "2": [1]}, ["1"], L=["1", "2", "3"]), KeyError,
                 "no array for leaf '3'", id="equal-indices-label-without-array"),
    pytest.param(lambda: gap_decomposition({"1": [1, 2]}), ValueError,
                 "need at least 2 leaf arrays", id="gap-decomposition-one-array"),
    pytest.param(lambda: triple_stats({"1": [1], "2": [1]}, ("1", "2")), ValueError,
                 "triple_stats requires exactly 3 leaf arrays", id="triple-stats-two-arrays"),
])
def test_input_checks_raise_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and exc.value.args == (message,)

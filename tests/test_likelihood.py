import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln, logsumexp, xlogy

from spacerloss.likelihood import (
    MAX_RHO_T,
    GeneralGapLaw,
    _log_factorial,
    die_probs_pair,
    die_probs_triple,
    general_gap_logpmf,
    pair_conditional_loglik,
    pair_gap_logpmf,
    pair_gap_pmf,
    pair_sampling_logpmf,
    triple_conditional_loglik,
    triple_conditional_score,
    triple_gap_logpmf,
    triple_gap_pmf,
)
from spacerloss.tree import (
    fate_probs,
    mask_subset,
    p_exact_subset,
    parse_newick,
    sample_coalescent,
    spanning_length,
    survival,
)
from test_tree import ultrametric_trees

LN2 = math.log(2.0)

# exact rational values at e^{-rho T} = 1/2, computed by hand
PAIR_ORACLE = {
    (0, 0): 1 / 3,
    (1, 0): 1 / 9,
    (1, 1): 2 / 27,
    (2, 1): 1 / 27,
    (3, 2): 10 / 729,
}


def test_pair_pmf_matches_hand_values():
    for (a, b), want in PAIR_ORACLE.items():
        assert pair_gap_pmf(a, b, LN2, 1.0) == pytest.approx(want, rel=1e-12)


def test_pair_pmf_symmetry_and_broadcast():
    a = np.arange(6)
    b = np.arange(6)[::-1]
    lhs = pair_gap_pmf(a, b, 0.7, 1.3)
    rhs = pair_gap_pmf(b, a, 0.7, 1.3)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-14)
    assert lhs.shape == (6,)


def test_pair_pmf_rejects_negative_counts():
    with pytest.raises(ValueError):
        pair_gap_logpmf(-1, 0, 1.0, 1.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.05, 4.0), st.integers(0, 30))
def test_pair_marginal_is_geometric(rho, T, a):
    # sum over b of the joint law gives P(A = a) = p (1-p)^a
    p = math.exp(-rho * T)
    bs = np.arange(0, 2000)
    marginal = pair_gap_pmf(a, bs, rho, T).sum()
    assert marginal == pytest.approx(p * (1 - p) ** a, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 6.0), st.floats(0.05, 4.0))
def test_pair_die_probs_sum_to_one(rho, T):
    assert sum(die_probs_pair(rho, T)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 6.0), st.floats(0.5, 4.0), st.floats(0.05, 0.5))
def test_triple_die_probs_sum_to_one(rho, T, Tp):
    assert sum(die_probs_triple(rho, T, Tp)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rho", [0.05, 0.7, 3.0])
def test_die_probs_are_the_root_fate_table(rho):
    # the closed forms against the one pass, in their class order
    T, Tp = 1.3, 0.4
    cases = [
        (f"(1:{T},2:{T});", die_probs_pair(rho, T), [1, 2, 0, 3]),
        (f"((1:{Tp},2:{Tp}):{T - Tp},3:{T});", die_probs_triple(rho, T, Tp),
         [1, 2, 4, 3, 5, 6, 0, 7]),
    ]
    for newick, closed, order in cases:
        t = parse_newick(newick)
        masks, probs = fate_probs(t, rho)
        table = dict(zip(masks[t.root].tolist(), probs[t.root].tolist()))
        np.testing.assert_allclose(closed, [table[k] for k in order], rtol=1e-12, atol=0)


def test_triple_die_probs_reject_bad_times():
    with pytest.raises(ValueError):
        die_probs_triple(1.0, 0.5, 1.0)


def test_triple_pmf_matches_hand_values():
    # T = 1, T' = 1/2, rho = ln 2: e^{-rho T} = 1/2, e^{-rho T'} = 2^{-1/2}
    zero = triple_gap_pmf(0, 0, 0, 0, 0, 0, LN2, 1.0, 0.5)
    assert zero == pytest.approx(0.21473723385459292, rel=1e-12)
    val = triple_gap_pmf(1, 0, 2, 0, 0, 1, LN2, 1.0, 0.5)
    assert val == pytest.approx(0.0009400839704753977, rel=1e-12)


def test_triple_pmf_cherry_symmetry():
    # classes {f1} and {f2} are exchangeable, as are {f1,f3} and {f2,f3}
    args = (LN2, 1.0, 0.5)
    assert triple_gap_pmf(2, 1, 0, 0, 3, 1, *args) == pytest.approx(
        triple_gap_pmf(1, 2, 0, 0, 1, 3, *args), rel=1e-12
    )


def test_pair_sampling_logpmf_hand_value():
    # brute-force convolution oracle for v = (1, 2), w = (0, 1)
    got = pair_sampling_logpmf((1, 2), (0, 1), theta=2.0, rho=1.0, T=1.0)
    assert got == pytest.approx(-6.210496886581531, rel=1e-12)


def test_pair_sampling_logpmf_zero_theta_reduces_to_gap_law():
    # no gains: the first segment is a plain gap-law draw
    v, w = (2, 3, 3), (1, 1, 4)
    rho, T = 0.8, 1.2
    want = (
        pair_gap_logpmf(2, 1, rho, T)
        + pair_gap_logpmf(1, 0, rho, T)
        + pair_gap_logpmf(0, 3, rho, T)
    )
    got = pair_sampling_logpmf(v, w, theta=0.0, rho=rho, T=T)
    assert got == pytest.approx(want, rel=1e-12)


def _pair_sampling_logpmf_with_scipy(v, w, theta, rho, T):
    # the double convolution of pair_sampling_logpmf, on scipy's functions
    p = math.exp(-rho * T)

    def gap(a, b):
        s = a + b
        return (gammaln(s + 1) - gammaln(a + 1) - gammaln(b + 1) - rho * T
                - math.log(2 - p) + xlogy(s, (1 - p) / (2 - p)))

    def poisson(k, mean):
        return xlogy(k, mean) - mean - gammaln(k + 1)

    z = theta / rho * (1 - p)
    aa, bb = np.meshgrid(np.arange(v[0] + 1), np.arange(w[0] + 1), indexing="ij")
    first = logsumexp(gap(aa, bb) + poisson(v[0] - aa, z) + poisson(w[0] - bb, z))
    return float(first + sum(gap(np.diff(v), np.diff(w))))


def test_pair_sampling_logpmf_matches_a_scipy_logsumexp_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = np.cumsum(rng.integers(0, 40, rng.integers(1, 5)))
        w = np.cumsum(rng.integers(0, 40, len(v)))
        theta, rho, T = rng.uniform(0.1, 200), 10.0 ** rng.uniform(-2, 1), rng.uniform(0.05, 3)
        got = pair_sampling_logpmf(v.tolist(), w.tolist(), theta, rho, T)
        assert got == pytest.approx(_pair_sampling_logpmf_with_scipy(v, w, theta, rho, T),
                                    rel=1e-12, abs=1e-12)


def test_pair_sampling_logpmf_is_minus_inf_without_warning_when_every_term_is():
    # no gains and rho * T below float resolution: every gap and every gain
    # count is 0 with probability 1, so v[0] > 0 cannot happen
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pair_sampling_logpmf((2, 3), (0, 1), theta=0.0, rho=1.0, T=1e-320) == -math.inf


@pytest.mark.parametrize("k", [
    np.array(0), np.array(1_000_000), np.arange(0, 1_000_001, 997),
    np.random.default_rng(3).integers(0, 1_000_001, (40, 7)), np.zeros((0, 3), np.int64),
], ids=["0d-zero", "0d-1e6", "1d", "2d", "empty"])
def test_log_factorial_matches_gammaln(k):
    got = _log_factorial(k)
    assert np.shape(got) == k.shape
    assert np.all(np.abs(got - gammaln(k + 1)) <= 4e-15 * np.maximum(gammaln(k + 1), 1.0))


def test_pair_sampling_logpmf_rejects_decreasing():
    with pytest.raises(ValueError):
        pair_sampling_logpmf((2, 1), (0, 0), 1.0, 1.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 40),
    st.integers(0, 60),
    st.floats(0.05, 3.0),
    st.floats(0.05, 3.0),
    st.floats(0.3, 3.0),
)
def test_pair_conditional_loglik_rho_profile_matches_gap_law(m, d, rho1, rho2, T):
    # the conditional log-likelihood drops only rho-free binomial terms,
    # so differences across rho match any gap split of d
    want = float(
        pair_gap_logpmf(d, 0, rho1, T)
        + (m - 2) * pair_gap_logpmf(0, 0, rho1, T)
        - pair_gap_logpmf(d, 0, rho2, T)
        - (m - 2) * pair_gap_logpmf(0, 0, rho2, T)
    )
    got = pair_conditional_loglik(m, d, rho1, T) - pair_conditional_loglik(m, d, rho2, T)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    # arrays broadcast element by element, also past the clip of rho T at
    # 700 and below float resolution (p = 1); scalars give a float
    rows = [(m, d, rho1), (m, 0, rho2), (2, d + 1, 800.0 / T), (m, d + 1, 1e-300), (m, 0, 1e-300)]
    one_by_one = [pair_conditional_loglik(*row, T) for row in rows]
    assert all(type(x) is float for x in one_by_one)
    got = pair_conditional_loglik(*(np.array(col) for col in zip(*rows)), T)
    assert got.tolist() == one_by_one


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 30),
    st.tuples(*(st.integers(0, 10) for _ in range(4))),
    st.floats(0.05, 3.0),
    st.floats(0.05, 3.0),
)
def test_triple_conditional_loglik_rho_profile_matches_gap_law(m, ds, rho1, rho2):
    d1, d2, d3, d4 = ds
    T, Tp = 1.4, 0.6
    # realize the statistics as one gap plus m-2 empty gaps
    def full(rho):
        return float(
            triple_gap_logpmf(d1, 0, d2, d3, d4, 0, rho, T, Tp)
            + (m - 2) * triple_gap_logpmf(0, 0, 0, 0, 0, 0, rho, T, Tp)
        )

    want = full(rho1) - full(rho2)
    got = triple_conditional_loglik(m, d1, d2, d3, d4, rho1, T, Tp) - (
        triple_conditional_loglik(m, d1, d2, d3, d4, rho2, T, Tp)
    )
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 300),
    st.tuples(*(st.integers(0, 500) for _ in range(4))),
    st.floats(0.1, 4.0),
    st.floats(0.05, 1.0),
    st.lists(st.floats(1e-8, 100.0), min_size=1, max_size=20),
)
def test_triple_conditional_loglik_broadcasts_over_rho(m, ds, T, share, rhos):
    Tp = share * T
    got = triple_conditional_loglik(m, *ds, np.array(rhos), T, Tp)
    assert isinstance(got, np.ndarray) and got.shape == (len(rhos),)
    want = [triple_conditional_loglik(m, *ds, rho, T, Tp) for rho in rhos]
    assert all(isinstance(x, float) for x in want)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(2, 300),
        st.tuples(*(st.integers(0, 500) for _ in range(4))),
        st.floats(0.1, 4.0),
        st.floats(0.05, 1.0),
        st.floats(1e-8, 100.0),
    ),
    min_size=1, max_size=20,
))
def test_triple_score_and_loglik_broadcast_over_every_argument(rows):
    # one row per element: m, D1..D4, rho, T and T' all vary
    m, ds, T, share, rho = (np.array(col) for col in zip(*rows))
    Tp = share * T
    score, curvature = triple_conditional_score(m, *ds.T, rho, T, Tp)
    loglik = triple_conditional_loglik(m, *ds.T, rho, T, Tp)
    assert score.shape == curvature.shape == loglik.shape == (len(rows),)
    for i, (mi, di, Ti, _, ri) in enumerate(rows):
        want = triple_conditional_score(mi, *di, ri, Ti, float(Tp[i]))
        assert all(isinstance(x, float) for x in want)
        assert (score[i], curvature[i]) == want
        assert loglik[i] == triple_conditional_loglik(mi, *di, ri, Ti, float(Tp[i]))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 300),
    st.tuples(*(st.integers(0, 500) for _ in range(4))),
    st.floats(0.1, 4.0),
    st.floats(0.05, 1.0),
    st.floats(0.01, 10.0),
)
def test_triple_score_matches_central_difference(m, ds, T, share, rho):
    Tp = share * T
    h = 1e-5 * rho

    def loglik(x):
        return triple_conditional_loglik(m, *ds, x, T, Tp)

    def score(x):
        return triple_conditional_score(m, *ds, x, T, Tp)

    numeric = (loglik(rho + h) - loglik(rho - h)) / (2.0 * h)
    # every term of the score is a count times at most T + T' + 1/rho,
    # and every term of the curvature one times at most (T + T' + 1/rho)^2
    scale = (m - 1 + sum(ds)) * (T + Tp + 1.0 / rho)
    assert abs(score(rho)[0] - numeric) <= 1e-6 * scale
    numeric = (score(rho + h)[0] - score(rho - h)[0]) / (2.0 * h)
    assert abs(score(rho)[1] - numeric) <= 1e-6 * scale * (T + Tp + 1.0 / rho)


def test_triple_score_rejects_what_the_loglik_rejects():
    for args in [(1, 0, 0, 0, 0, 1.0, 1.0, 0.5), (5, -1, 0, 0, 0, 1.0, 1.0, 0.5),
                 (5, 1, 0, 0, 0, 0.0, 1.0, 0.5), (5, 1, 0, 0, 0, 1.0, 0.5, 1.0)]:
        with pytest.raises(ValueError):
            triple_conditional_loglik(*args)
        with pytest.raises(ValueError):
            triple_conditional_score(*args)
    with pytest.raises(ValueError, match="rho must be positive"):
        triple_conditional_loglik(5, 1, 0, 0, 0, np.array([1.0, -1.0]), 1.0, 0.5)
    # array arguments are checked element by element
    two = np.array([1.0, 1.0])
    for args, message in [
        ((np.array([5, 1]), 1, 0, 0, 0, two, 1.0, 0.5), "at least 2 equal spacers"),
        ((5, np.array([1, -1]), 0, 0, 0, two, 1.0, 0.5), "nonnegative"),
        ((5, 1, 0, 0, 0, two, np.array([1.0, 0.0]), 0.0), "T must be positive"),
        ((5, 1, 0, 0, 0, two, 1.0, np.array([0.5, 0.0])), "T_prime must be positive"),
        ((5, 1, 0, 0, 0, two, np.array([1.0, 0.4]), 0.5), "T must be >= T_prime"),
    ]:
        for f in (triple_conditional_loglik, triple_conditional_score):
            with pytest.raises(ValueError, match=message):
                f(*args)


def _triple_loglik_with_scipy_xlogy(m, d1, d2, d3, d4, rho, T, T_prime):
    # the terms of triple_conditional_loglik, with scipy's xlogy
    log_pT = np.maximum(rho * -T, -MAX_RHO_T)
    log_pTp = np.maximum(rho * -T_prime, -MAX_RHO_T)
    a, ap = -np.expm1(log_pT), -np.expm1(log_pTp)
    both = np.exp(log_pT + log_pTp)
    c2 = a * a - both * np.expm1(rho * (T_prime - T))
    return (
        rho * (-(m - 1) * (T + T_prime))
        + d3 * log_pTp
        + d4 * log_pT
        + xlogy(d1 + d3, a)
        + xlogy(d1 + d4, ap)
        + xlogy(d2, c2)
        - (m - 1 + d1 + d2 + d3 + d4) * np.log(ap + 2.0 * a + both)
    )


def test_triple_loglik_keeps_xlogy_values_and_its_zero_convention():
    rng = np.random.default_rng(12)
    rows = 20000
    m = rng.integers(2, 300, rows)
    # about 40% of the statistics are zero
    d = rng.integers(0, 500, (4, rows)) * (rng.random((4, rows)) < 0.6)
    rho = 10.0 ** rng.uniform(-8, 2, rows)
    T = 10.0 ** rng.uniform(-2, 1, rows)
    Tp = T * rng.uniform(0.01, 1.0, rows)
    # 1 - e^{-rho T} underflows to 0 at subnormal times
    m[:3], d[:, :3] = 3, [[0, 1, 0], [0, 0, 2], [0, 0, 0], [0, 0, 0]]
    rho[:3], T[:3], Tp[:3] = 1e-8, 1e-317, 1e-317
    got = triple_conditional_loglik(m, *d, rho, T, Tp)
    want = _triple_loglik_with_scipy_xlogy(m, *d, rho, T, Tp)
    assert list(got[:3]) == list(want[:3]) == [0.0, -math.inf, -math.inf]
    assert np.all(np.abs(got[3:] - want[3:]) <= 4 * np.spacing(np.abs(want[3:])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert triple_conditional_loglik(3, 0, 0, 0, 0, 1e-8, 1e-317, 1e-317) == 0.0


def test_general_law_matches_pair_small_grid():
    rho, T = 0.9, 1.1
    law = GeneralGapLaw(parse_newick(f"(1:{T},2:{T});"), rho)
    for a in range(5):
        for b in range(5):
            want = float(pair_gap_logpmf(a, b, rho, T))
            got = law.logpmf({frozenset({"1"}): a, frozenset({"2"}): b})
            assert got == pytest.approx(want, rel=1e-12)


def test_general_law_matches_triple_point():
    rho, T, Tp = LN2, 1.0, 0.5
    t = parse_newick(f"((1:{Tp},2:{Tp}):{T - Tp},3:{T});")
    counts = {
        frozenset({"1"}): 1,
        frozenset({"3"}): 2,
        frozenset({"2", "3"}): 1,
    }
    want = float(triple_gap_logpmf(1, 0, 2, 0, 0, 1, rho, T, Tp))
    assert general_gap_logpmf(t, rho, counts) == pytest.approx(want, rel=1e-12)


def test_general_law_rejects_full_subset():
    law = GeneralGapLaw(parse_newick("(1:1,2:1);"), 1.0)
    for key in ({"1", "2"}, {"1", "9"}, set()):
        with pytest.raises(ValueError):
            law.logpmf({frozenset(key): 1})


def test_general_law_leaves_out_a_length_on_the_root():
    # the root of "(1:1,2:1):5;" stores 5, which is no branch of the tree
    law, bare = (GeneralGapLaw(parse_newick(s), 0.7) for s in ("(1:1,2:1):5;", "(1:1,2:1);"))
    assert law.neg_rho_lambda == bare.neg_rho_lambda == -0.7 * 2
    counts = {frozenset({"1"}): 2, frozenset({"2"}): 1}
    assert law.logpmf(counts) == bare.logpmf(counts)
    assert law.logpmf(counts) == pytest.approx(pair_gap_logpmf(2, 1, 0.7, 1.0), rel=1e-12)


def test_general_law_array_matches_scalar():
    law = GeneralGapLaw(parse_newick("((1:0.5,2:0.5):0.5,3:1);"), 0.8)
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 5, size=(20, len(law.subsets)))
    vec = law.logpmf_array(counts)
    for row, want in zip(counts, vec):
        got = law.logpmf(dict(zip(law.subsets, (int(x) for x in row))))
        assert got == pytest.approx(float(want), rel=1e-12)


def test_general_law_array_rejects_negative_counts():
    # a negative count gave a NaN row with a RuntimeWarning
    law = GeneralGapLaw(parse_newick("((1:0.5,2:0.5):0.5,3:1);"), 0.8)
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        law.logpmf_array(np.array([[1, 0, 2, 0, 0, 0], [0, -1, 0, 0, 0, 0]]))


def test_general_law_rejects_non_integer_counts():
    law = GeneralGapLaw(parse_newick("((1:0.5,2:0.5):0.5,3:1);"), 0.8)
    for val in (1.5, 2.0, True, np.True_, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="not an integer"):
            law.logpmf({frozenset({"1"}): val})
    with pytest.raises(ValueError, match="nonnegative"):
        law.logpmf({frozenset({"1"}): -1})
    assert law.logpmf({frozenset({"1"}): np.int64(2)}) == law.logpmf({frozenset({"1"}): 2})


def test_general_law_rejects_repeated_subset():
    law = GeneralGapLaw(parse_newick("((1:0.5,2:0.5):0.5,3:1);"), 0.8)
    with pytest.raises(ValueError, match="more than once") as info:
        law.logpmf({("1", "2"): 2, ("2", "1"): 3})
    assert "['1', '2']" in str(info.value)
    assert law.logpmf({("1", "2"): 5}) == pytest.approx(-9.479, abs=1e-3)


def test_general_law_keeps_rare_root_survival():
    # at rho T = 50, 1 - P(lost everywhere) rounds to 0 in double precision
    rho, T = 50.0, 1.0
    law = GeneralGapLaw(parse_newick(f"(1:{T},2:{T});"), rho)
    for a, b in [(0, 0), (3, 1), (0, 7)]:
        want = float(pair_gap_logpmf(a, b, rho, T))
        got = law.logpmf({frozenset({"1"}): a, frozenset({"2"}): b})
        assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="no root spacer survives"):
        GeneralGapLaw(parse_newick(f"(1:{T},2:{T});"), 1000.0)


def independent_logpmf(t, rho, counts, p_root):
    """log of multinomial * prod_K (p_K / p_r)^c_K * e^{-rho L} / p_r, with
    p_K from :func:`p_exact_subset` and L the total tree length."""
    table = survival(t, rho)
    log_pr = math.log(p_root)
    s = sum(counts.values())
    out = math.lgamma(s + 1) - rho * spanning_length(t, t.root, t.leaves) - log_pr
    for K, c in counts.items():
        p_k = p_exact_subset(t, rho, t.root, K, table)
        out += c * (math.log(p_k) - log_pr) - math.lgamma(c + 1)
    return out


def check_law_against_walks(t, rho, counts):
    """Every entry of the one-pass table against the per-subset walks, and
    ``logpmf`` on ``counts`` against :func:`independent_logpmf`."""
    leaves = t.leaves
    full = (1 << len(leaves)) - 1
    table = survival(t, rho)
    masks, node_probs = fate_probs(t, rho)
    probs = np.zeros(full + 1)
    probs[masks[t.root]] = node_probs[t.root]
    assert probs.shape == (full + 1,)
    assert probs[0] == pytest.approx(1.0 - table.p[t.root], rel=1e-12)
    assert probs[full] == pytest.approx(
        math.exp(-rho * spanning_length(t, t.root, leaves)), rel=1e-12
    )
    want = [p_exact_subset(t, rho, t.root, mask_subset(leaves, k), table) for k in range(1, full)]
    np.testing.assert_allclose(probs[1:full], want, rtol=1e-12, atol=0)
    assert probs.sum() == pytest.approx(1.0, rel=1e-12)

    # root survival from the walks over every surviving subset; the
    # recursion's 1 - prod loses all digits when survival is rare
    p_root = math.fsum(want) + probs[full]
    law = GeneralGapLaw(t, rho)
    assert law.log_p_root == pytest.approx(math.log(p_root), rel=1e-12)
    assert law.logpmf(counts) == pytest.approx(
        independent_logpmf(t, rho, counts, p_root), rel=1e-12
    )
    vec = np.zeros(full - 1, dtype=np.int64)
    for K, c in counts.items():
        vec[law.subsets.index(frozenset(K))] = c
    assert float(law.logpmf_array(vec)) == pytest.approx(law.logpmf(counts), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(ultrametric_trees(max_leaves=10), st.floats(0.05, 5.0), st.data())
def test_general_law_matches_subset_walks(t, rho, data):
    leaves = t.leaves
    masks = data.draw(
        st.lists(st.integers(1, 2 ** len(leaves) - 2), max_size=6, unique=True)
    )
    counts = {}
    for k in masks:
        # keys as label tuples in any order
        K = data.draw(st.permutations(sorted(mask_subset(leaves, k))))
        counts[tuple(K)] = data.draw(st.integers(1, 40))
    check_law_against_walks(t, rho, counts)


def test_general_law_fourteen_leaves():
    t = sample_coalescent(14, 7)
    rho = 0.6
    counts = {frozenset({"3"}): 4, frozenset({"1", "5", "9"}): 2, tuple(t.leaves[:13]): 1}
    check_law_against_walks(t, rho, counts)
    assert GeneralGapLaw(t, rho) == GeneralGapLaw(t, rho)


def test_extreme_rates_stay_finite():
    # deep in the tails log-space evaluation must not overflow
    assert math.isfinite(pair_gap_logpmf(500, 500, 3.0, 2.0))
    assert math.isfinite(triple_gap_logpmf(100, 100, 100, 100, 100, 100, 2.0, 2.0, 1.0))
    assert pair_gap_pmf(0, 0, 1e-12, 1e-6) == pytest.approx(1.0, abs=1e-6)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spacerloss.likelihood import (
    GeneralGapLaw,
    die_probs_pair,
    die_probs_triple,
    general_gap_logpmf,
    pair_conditional_loglik,
    pair_gap_logpmf,
    pair_gap_pmf,
    pair_sampling_logpmf,
    triple_conditional_loglik,
    triple_gap_logpmf,
    triple_gap_pmf,
)
from spacerloss.tree import parse_newick

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


def test_general_law_array_matches_scalar():
    law = GeneralGapLaw(parse_newick("((1:0.5,2:0.5):0.5,3:1);"), 0.8)
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 5, size=(20, len(law.subsets)))
    vec = law.logpmf_array(counts)
    for row, want in zip(counts, vec):
        got = law.logpmf(dict(zip(law.subsets, (int(x) for x in row))))
        assert got == pytest.approx(float(want), rel=1e-12)


def test_extreme_rates_stay_finite():
    # deep in the tails log-space evaluation must not overflow
    assert math.isfinite(pair_gap_logpmf(500, 500, 3.0, 2.0))
    assert math.isfinite(triple_gap_logpmf(100, 100, 100, 100, 100, 100, 2.0, 2.0, 1.0))
    assert pair_gap_pmf(0, 0, 1e-12, 1e-6) == pytest.approx(1.0, abs=1e-6)

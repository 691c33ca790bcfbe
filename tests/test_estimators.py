import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from golden_section import maximize_scalar
from spacerloss import estimators
from spacerloss.estimators import (
    TRIPLE_BRACKET_LOW,
    InsufficientDataError,
    estimate_rho_pair,
    estimate_rho_triple,
    estimate_theta_moment,
    negbin_p_mle,
    pair_mle,
    theta_moment,
    triple_mle,
)
from spacerloss.likelihood import (
    pair_conditional_loglik, triple_conditional_loglik, triple_conditional_score,
    triple_score_unchecked,
)


def test_maximize_scalar_parabola():
    x, val, boundary = maximize_scalar(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, 1e-10)
    assert x == pytest.approx(2.0, abs=1e-8)
    assert val == pytest.approx(0.0, abs=1e-15)
    assert not boundary


def test_maximize_scalar_flags_boundary():
    x, _, boundary = maximize_scalar(lambda x: -x, 0.0, 5.0, 1e-10)
    assert x == pytest.approx(0.0, abs=1e-8)
    assert boundary


def test_maximize_scalar_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        maximize_scalar(lambda x: float("nan"), 0.0, 1.0, 1e-6)


def test_pair_estimator_hand_value():
    # m = 5, d = 7, T = 1.3: p* = 8/15, checked against a ternary search
    res = estimate_rho_pair(5, 7, 1.3)
    assert res.rho_hat == pytest.approx(0.4835451226325955, rel=1e-12)
    assert res.method == "pair-closed-form"
    assert not res.boundary


def test_pair_estimator_boundary_at_zero_d():
    res = estimate_rho_pair(10, 0, 1.0)
    assert res.rho_hat == 0.0
    assert res.boundary


def test_pair_estimator_boundary_is_positive_zero():
    # -log(1) / T is -0.0, which would print as "-0"
    assert f"{estimate_rho_pair(5, 0, 1.0).rho_hat:.12g}" == "0"


def test_pair_estimator_rejects_insufficient():
    with pytest.raises(InsufficientDataError):
        estimate_rho_pair(1, 0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 500), st.integers(0, 2000), st.floats(0.05, 5.0))
def test_pair_estimator_negbin_identity(m, d, T):
    res = estimate_rho_pair(m, d, T)
    assert math.exp(-res.rho_hat * T) == pytest.approx(negbin_p_mle(m, d), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200), st.integers(1, 500), st.floats(0.1, 3.0), st.floats(1.5, 8.0))
def test_pair_estimator_scales_with_time(m, d, T, c):
    # the estimate depends on T only through the product rho T
    a = estimate_rho_pair(m, d, T).rho_hat
    b = estimate_rho_pair(m, d, c * T).rho_hat
    assert a == pytest.approx(c * b, rel=1e-12)


def test_pair_estimate_is_argmax_of_conditional_loglik():
    m, d, T = 12, 30, 0.8
    res = estimate_rho_pair(m, d, T)
    best = res.rho_hat
    for eps in (1e-4, 1e-2, 0.1):
        assert pair_conditional_loglik(m, d, best, T) > pair_conditional_loglik(
            m, d, best + eps, T
        )
        assert pair_conditional_loglik(m, d, best, T) > pair_conditional_loglik(
            m, d, best * (1 - eps), T
        )


def test_triple_estimator_boundary_all_zero():
    res = estimate_rho_triple(8, 0, 0, 0, 0, 1.0, 0.5)
    assert res.rho_hat == 0.0
    assert res.boundary


def test_triple_estimator_rejects_insufficient():
    with pytest.raises(InsufficientDataError):
        estimate_rho_triple(1, 0, 0, 0, 0, 1.0, 0.5)


def test_triple_estimator_rejects_bad_times():
    with pytest.raises(ValueError):
        estimate_rho_triple(5, 1, 1, 1, 1, 0.5, 1.0)


def test_triple_estimate_is_local_max():
    m, ds, T, Tp = 30, (8, 5, 3, 2), 1.0, 0.5
    res = estimate_rho_triple(m, *ds, T, Tp)
    best = res.rho_hat
    assert not res.boundary
    for eps in (1e-3, 1e-2, 0.1):
        assert triple_conditional_loglik(m, *ds, best, T, Tp) >= triple_conditional_loglik(
            m, *ds, best * (1 + eps), T, Tp
        )
        assert triple_conditional_loglik(m, *ds, best, T, Tp) >= triple_conditional_loglik(
            m, *ds, best * (1 - eps), T, Tp
        )


@pytest.mark.parametrize("c", [1e-30, 1e-3, 1e3])
def test_triple_estimator_scales_with_time(c):
    # the estimate depends on the times only through rho T and rho T',
    # and the search stays finite for tiny times
    m, ds, T, Tp = 30, (8, 5, 3, 2), 1.0, 0.5
    a = estimate_rho_triple(m, *ds, T, Tp).rho_hat
    assert estimate_rho_triple(m, *ds, c * T, c * Tp).rho_hat == pytest.approx(a / c, rel=1e-8)


def test_triple_estimator_consistency_coarse():
    # with lots of data the estimate should sit near the truth: feed the
    # expected statistics directly
    rho, T, Tp = 0.8, 1.0, 0.5
    from spacerloss.likelihood import die_probs_triple

    q = die_probs_triple(rho, T, Tp)
    m = 10_000
    scale = (m - 1) / q[7]
    ds = (
        round(scale * (q[0] + q[1])),
        round(scale * q[2]),
        round(scale * q[3]),
        round(scale * (q[4] + q[5])),
    )
    res = estimate_rho_triple(m, *ds, T, Tp)
    assert res.rho_hat == pytest.approx(rho, rel=0.01)


# random triple statistics: m, D1..D4 (some zero), T, and T' as a share of T
triple_samples = st.tuples(
    st.integers(2, 300),
    st.tuples(*(st.one_of(st.just(0), st.integers(1, 500)) for _ in range(4))).filter(any),
    st.floats(0.1, 4.0),
    st.floats(0.05, 1.0),
)


@settings(max_examples=60, deadline=None)
@given(triple_samples)
def test_triple_estimate_beats_dense_grid(sample):
    m, ds, T, share = sample
    Tp = share * T
    res = estimate_rho_triple(m, *ds, T, Tp)
    grid = np.linspace(TRIPLE_BRACKET_LOW, 50.0 / (T + Tp), 20_001)
    assert res.loglik == triple_conditional_loglik(m, *ds, res.rho_hat, T, Tp)
    assert res.loglik >= triple_conditional_loglik(m, *ds, grid, T, Tp).max() - 1e-9


@settings(max_examples=40, deadline=None)
@given(triple_samples)
def test_triple_estimate_matches_golden_section(sample):
    m, ds, T, share = sample
    Tp = share * T
    res = estimate_rho_triple(m, *ds, T, Tp)
    ref, _, _ = maximize_scalar(
        lambda rho: triple_conditional_loglik(m, *ds, rho, T, Tp),
        TRIPLE_BRACKET_LOW, 50.0 / (T + Tp), 1e-12,
    )
    assert res.rho_hat == pytest.approx(ref, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(triple_samples)
def test_triple_interior_estimate_is_score_root(sample):
    m, ds, T, share = sample
    Tp = share * T
    res = estimate_rho_triple(m, *ds, T, Tp)
    assume(not res.boundary)
    cell = (50.0 / (T + Tp) - TRIPLE_BRACKET_LOW) / 200
    assert abs(res.diagnostics["grid_argmax"] - res.rho_hat) <= cell

    def score(rho):
        return triple_conditional_score(m, *ds, rho, T, Tp)[0]

    # the score changes sign across rho_hat and is near zero there,
    # measured against its size a small step away
    h = max(0.01 * res.rho_hat, 1e-6)
    left, right = score(res.rho_hat - h), score(res.rho_hat + h)
    assert left > 0 > right
    assert abs(score(res.rho_hat)) <= 1e-3 * min(left, -right)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 500), st.floats(0.1, 4.0), st.floats(0.05, 1.0))
def test_triple_estimator_all_zero_is_boundary_zero(m, T, share):
    res = estimate_rho_triple(m, 0, 0, 0, 0, T, share * T)
    assert res.rho_hat == 0.0
    assert res.boundary


# rows for batches: random statistics (a quarter all zero), T = T', tiny
# times, and a row whose estimate sits at the upper end of the bracket
triple_rows = st.one_of(
    triple_samples,
    st.tuples(st.integers(2, 300), st.just((0, 0, 0, 0)), st.floats(0.1, 4.0), st.just(1.0)),
    st.tuples(st.integers(2, 300), triple_samples.map(lambda s: s[1]),
              st.just(0.6e-30), st.just(2 / 3)),
    st.tuples(st.integers(2, 5), st.just((10_000, 0, 0, 0)), st.just(1.0), st.just(0.01)),
)


def _fit_in_parts(mle, rows, rnd):
    """Shuffle ``rows`` and fit them with ``mle`` in one batch, then in two
    parts cut at random; pairs each row of the shuffled list, taken twice,
    with its fitted values."""
    rnd.shuffle(rows)
    cut = rnd.randrange(len(rows) + 1)
    got = []
    for part in (rows, rows[:cut], rows[cut:]):
        if part:
            got.extend(zip(*mle(*(list(col) for col in zip(*part)))))
    return zip(rows + rows, got)


@settings(max_examples=40, deadline=None)
@given(st.lists(triple_rows, min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_triple_mle_rows_match_the_one_row_view(rows, rnd):
    # whatever else is in its batch, a row's result is that of the row alone
    rows = [(m, ds, T, share * T) for m, ds, T, share in rows]
    for (m, ds, T, Tp), fit in _fit_in_parts(triple_mle, rows, rnd):
        one = estimate_rho_triple(m, *ds, T, Tp)
        rho_hat, loglik, boundary, suspect, grid_argmax = fit
        assert (rho_hat, loglik, boundary) == (one.rho_hat, one.loglik, one.boundary)
        assert suspect == one.diagnostics.get("multimodal_suspect", False)
        if any(ds):
            assert grid_argmax == one.diagnostics["grid_argmax"]
        else:
            assert (rho_hat, boundary, math.isnan(grid_argmax)) == (0.0, True, True)


# rows for pair batches: random statistics (some with d = 0), and tiny times
pair_rows = st.tuples(
    st.integers(2, 500),
    st.one_of(st.integers(0, 2000), st.just(0)),
    st.one_of(st.floats(0.05, 5.0), st.just(0.6e-300)),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(pair_rows, min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_pair_mle_rows_match_the_one_row_view(rows, rnd):
    for (m, d, T), fit in _fit_in_parts(pair_mle, rows, rnd):
        one = estimate_rho_pair(m, d, T)
        rho_hat, loglik, boundary, suspect, grid_argmax = fit
        assert (rho_hat, loglik, boundary) == (one.rho_hat, one.loglik, one.boundary)
        assert (boundary, suspect, math.isnan(grid_argmax)) == (d == 0, False, True)
        if d == 0:
            assert (rho_hat, loglik) == (0.0, 0.0)
        else:
            assert loglik == pair_conditional_loglik(m, d, rho_hat, T)


def test_triple_newton_stops_at_a_root_on_the_bracket_end(monkeypatch):
    # on this row a converged Newton step rounds onto the bracket end its
    # score has just set; a stop rule that counts it as leaving the bracket
    # bisects about 30 times back to the same root (40 score evaluations)
    calls = []

    def counting(*args):
        calls.append(args)
        return triple_score_unchecked(*args)

    monkeypatch.setattr(estimators, "triple_score_unchecked", counting)
    m, ds, T, Tp = 62, (0, 5, 9, 4), 0.19087051773381514, 0.030409292876516638
    res = estimate_rho_triple(m, *ds, T, Tp)
    assert len(calls) <= 12
    assert not res.boundary
    assert triple_conditional_score(m, *ds, res.rho_hat, T, Tp)[0] == pytest.approx(0, abs=1e-6)


def test_triple_mle_upper_bracket_end():
    res = estimate_rho_triple(2, 10_000, 0, 0, 0, 1.0, 0.01)
    assert res.boundary and res.rho_hat == pytest.approx(50.0 / 1.01, rel=1e-12)


def test_triple_mle_checks_every_row():
    ok = (5, (1, 1, 1, 1), 1.0, 0.5)
    for bad, error, message in [
        ((1, (1, 1, 1, 1), 1.0, 0.5), InsufficientDataError, "m >= 2"),
        ((5, (1, 1, 1, 1), 0.5, 1.0), ValueError, "T must be >= T_prime"),
        ((5, (1, -1, 1, 1), 1.0, 0.5), ValueError, "nonnegative"),
        ((5, (1, 1, 1, 1), 1e-320, 1e-320), ValueError, "out of range"),
        ((5, (1, 1, 1, 1), 1e308, 1e308), ValueError, "out of range"),
    ]:
        batch = [ok] * 70 + [bad]  # the bad row in the second grid chunk
        with pytest.raises(error, match=message):
            triple_mle(*(list(col) for col in zip(*batch)))
        with pytest.raises(error, match=message):
            estimate_rho_triple(bad[0], *bad[1], *bad[2:])


def test_theta_moment():
    arrays = {"1": tuple(range(90)), "2": tuple(range(110))}
    assert estimate_theta_moment(0.5, arrays) == pytest.approx(50.0)
    assert estimate_theta_moment(1.0, {}) == 0.0
    with pytest.raises(ValueError):
        estimate_theta_moment(0.0, arrays)


def test_theta_moment_rows_are_the_one_row_view():
    rho_hat = np.array([0.5, 1.3, 2.0 / 3.0])
    spacers = np.array([200, 37, 1001])
    arrays = [{"a": range(k // 2), "b": range(k - k // 2)} for k in spacers.tolist()]
    assert theta_moment(rho_hat, spacers, 2).tolist() == [
        estimate_theta_moment(r, a) for r, a in zip(rho_hat.tolist(), arrays)
    ]
    with pytest.raises(ValueError, match="rho_hat must be positive"):
        theta_moment([1.0, 0.0], [3, 4], 2)


M_BELOW_2 = "need at least 2 equal spacers (m >= 2)"


# the module's input checks that no other test reaches, and M < 2 into
# every estimator and conditional log-likelihood, each through its public
# entry point: (call, exception type, message)
@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: pair_mle(5, -1, 1.0), ValueError, "counts must be nonnegative",
                 id="pair-negative-d"),
    pytest.param(lambda: triple_mle(5, [1, 1, 1, 1], 1.0, 0.5), ValueError,
                 "d must hold D1..D4 in the columns of a 2-d array", id="triple-d-not-b-by-4"),
    pytest.param(lambda: negbin_p_mle(1, 3), InsufficientDataError, M_BELOW_2,
                 id="negbin-m-1"),
    pytest.param(lambda: pair_mle([5, 1], [3, 3], 1.0), InsufficientDataError, M_BELOW_2,
                 id="pair-m-1"),
    pytest.param(lambda: triple_mle([1], [[1, 1, 1, 1]], 1.0, 0.5), InsufficientDataError,
                 M_BELOW_2, id="triple-m-1"),
    pytest.param(lambda: pair_conditional_loglik(1, 3, 1.0, 1.0), InsufficientDataError,
                 M_BELOW_2, id="pair-loglik-m-1"),
    pytest.param(lambda: triple_conditional_loglik(1, 1, 1, 1, 1, 1.0, 1.0, 0.5),
                 InsufficientDataError, M_BELOW_2, id="triple-loglik-m-1"),
    pytest.param(lambda: triple_conditional_score(0, 1, 1, 1, 1, 1.0, 1.0, 0.5),
                 InsufficientDataError, M_BELOW_2, id="triple-score-m-0"),
])
def test_input_checks_raise_their_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and exc.value.args == (message,)


def test_insufficient_data_error_is_one_class():
    import spacerloss
    from spacerloss import likelihood

    assert spacerloss.InsufficientDataError is estimators.InsufficientDataError
    assert estimators.InsufficientDataError is likelihood.InsufficientDataError

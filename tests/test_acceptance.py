"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with -s or check captured output).

Criteria
  1 analytic pmf normalization (pair and triple), 9 settings, < 5 s
  2 simulator vs pair gap law, 1e5 cherry replicates, chi-square at 1%
  3 simulator vs triple gap law and first-segment Poisson means
  4 general-n law reduces to the pair/triple laws; subset partition
  5 closed-form loss-rate MLE vs independent numeric maximization
  6 coalescent recovery experiment at desk scale, < 10 min
  7 expected equal-spacer count under the coalescent
  8 byte-identical experiment output across reruns, rows independent of
    the replicate count
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy.special import gammaln, logsumexp

import spacerloss as sl
from golden_section import maximize_scalar
from spacerloss.cli import ExperimentConfig, run_fig_experiment
from spacerloss.process import mix_seed
from spacerloss.validation import chisquare_from_counts, sample_gaps

SEED = 20260823
LN2 = math.log(2.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: normalization ----------------------------------------


def _pair_total_mass(p_target: float) -> float:
    rho, T = 1.0, -math.log(p_target)
    p = math.exp(-rho * T)
    two_x = 2.0 * (1.0 - p) / (2.0 - p)
    # tail of the total-count marginal is exactly (2x)^(S+1)
    S = int(math.ceil(math.log(1e-12) / math.log(two_x)))
    a = np.arange(S + 1)
    aa, bb = np.meshgrid(a, a, indexing="ij")
    mask = aa + bb <= S
    grid = sl.pair_gap_pmf(aa[mask], bb[mask], rho, T).sum()
    return float(grid + two_x ** (S + 1))


def _logconv(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.empty(len(u))
    for s in range(len(u)):
        out[s] = logsumexp(u[: s + 1] + v[s::-1])
    return out


def _triple_total_mass(pT: float, pTp: float, s_cross_check: int = 4) -> float:
    rho, T, Tp = 1.0, -math.log(pT), -math.log(pTp)
    zeros = (0,) * 6
    log_zero = sl.triple_gap_logpmf(*zeros, rho, T, Tp)
    # per-class weight of one count, read off the pmf itself
    log_g = np.array(
        [
            sl.triple_gap_logpmf(*(int(i == j) for j in range(6)), rho, T, Tp) - log_zero
            for i in range(6)
        ]
    )
    pi = float(np.exp(log_g).sum())
    # exact geometric tail: sum_{s > S} e^{log_zero} pi^s
    S = int(
        math.ceil(
            (math.log(1e-12) + math.log1p(-pi) - log_zero) / math.log(pi)
        )
    )
    a = np.arange(S + 1)
    series = [g * a - gammaln(a + 1) for g in log_g]
    conv = series[0]
    for nxt in series[1:]:
        conv = _logconv(conv, nxt)
    by_total = conv + gammaln(a + 1) + log_zero
    # cross-check: the factored sum equals brute-force pmf enumeration
    small = 0.0
    for s in range(s_cross_check + 1):
        for c1 in range(s + 1):
            for c2 in range(s - c1 + 1):
                for c3 in range(s - c1 - c2 + 1):
                    for c4 in range(s - c1 - c2 - c3 + 1):
                        for c5 in range(s - c1 - c2 - c3 - c4 + 1):
                            c6 = s - c1 - c2 - c3 - c4 - c5
                            small += sl.triple_gap_pmf(c1, c2, c3, c4, c5, c6, rho, T, Tp)
    assert abs(small - np.exp(logsumexp(by_total[: s_cross_check + 1]))) < 1e-12
    tail = math.exp(log_zero) * pi ** (S + 1) / (1.0 - pi)
    return float(np.exp(logsumexp(by_total)) + tail)


def test_criterion_1_pmf_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.1, 0.5, 0.9):
        worst = max(worst, abs(_pair_total_mass(p) - 1.0))
    for pT, pTp in ((0.1, 0.9), (0.5, 0.5), (0.5, 0.9), (0.9, 0.9), (0.5, 0.7), (0.9, 0.95)):
        worst = max(worst, abs(_triple_total_mass(pT, pTp) - 1.0))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-9 and elapsed < 5.0,
        f"pair+triple pmf total mass within {worst:.2e} of 1 over 9 settings "
        f"({elapsed:.2f} s)",
    )


# -- criterion 2: simulator vs pair gap law ----------------------------


def test_criterion_2_pair_simulator_agreement():
    t0 = time.perf_counter()
    rho, T = LN2, 1.0  # e^{-rho T} = 0.5
    theta = 100.0 * rho
    tree = sl.parse_newick(f"(1:{T},2:{T});")
    params = sl.ModelParams(theta=theta, rho=rho)
    # one gap per replicate, keyed (leaf 1, leaf 2)
    sample = sample_gaps(tree, params, 100_000, mix_seed(SEED, 2))
    joint = sample.first_gaps
    n_gaps = sum(joint.values())
    marg: dict = {}
    for (a, _), count in joint.items():
        marg[a] = marg.get(a, 0) + count
    amax = max(max(a, b) for a, b in joint) + 2
    probs = {
        (a, b): sl.pair_gap_pmf(a, b, rho, T)
        for a in range(amax)
        for b in range(amax)
    }
    _, p_joint = chisquare_from_counts(joint, probs, n_gaps)
    p_half = 0.5
    geom = {a: p_half * (1 - p_half) ** a for a in range(amax)}
    _, p_marg = chisquare_from_counts(marg, geom, n_gaps)
    elapsed = time.perf_counter() - t0
    report(
        2,
        p_joint >= 0.01 and p_marg >= 0.01 and elapsed < 120.0,
        f"1e5 cherry replicates: joint gap chi-square p={p_joint:.3f}, "
        f"geometric marginal p={p_marg:.3f} ({elapsed:.1f} s)",
    )


# -- criterion 3: simulator vs triple gap law --------------------------

CLASSES = [
    frozenset({"1"}),
    frozenset({"2"}),
    frozenset({"3"}),
    frozenset({"1", "2"}),
    frozenset({"1", "3"}),
    frozenset({"2", "3"}),
]


def test_criterion_3_triple_simulator_agreement():
    t0 = time.perf_counter()
    rho, T, Tp = LN2, 1.0, 0.5
    theta = 100.0 * rho
    tree = sl.parse_newick(f"((1:{Tp},2:{Tp}):{T - Tp},3:{T});")
    params = sl.ModelParams(theta=theta, rho=rho)
    n_rep = 100_000
    # first interior gap only, one count per class in CLASSES order
    sample = sample_gaps(tree, params, n_rep, mix_seed(SEED, 3))
    assert sample.classes == tuple(CLASSES)
    gaps, class_totals = sample.first_gaps, sample.new_counts
    n_gaps = sum(gaps.values())

    probs = {k: sl.triple_gap_pmf(*k, rho, T, Tp) for k in gaps}
    for c1 in range(3):
        for c2 in range(3):
            for c3 in range(3):
                for c4 in range(3):
                    key = (c1, c2, c3, 0, c4, 0)
                    probs.setdefault(key, sl.triple_gap_pmf(*key, rho, T, Tp))
    _, p_gaps = chisquare_from_counts(gaps, probs, n_gaps)

    pT, pTp = math.exp(-rho * T), math.exp(-rho * Tp)
    k = theta / rho
    means = {
        frozenset({"1"}): k * (1 - pTp) * (1 + pTp - pT),
        frozenset({"2"}): k * (1 - pTp) * (1 + pTp - pT),
        frozenset({"3"}): k * (1 - pT),
        frozenset({"1", "2"}): k * (1 - pT / pTp) * pTp * pTp,
    }
    z_worst = 0.0
    for K, lam in means.items():
        z = (class_totals[K] / n_rep - lam) / math.sqrt(lam / n_rep)
        z_worst = max(z_worst, abs(z))
    crossing = class_totals[frozenset({"1", "3"})] + class_totals[frozenset({"2", "3"})]
    elapsed = time.perf_counter() - t0
    report(
        3,
        p_gaps >= 0.01 and z_worst <= 3.0 and crossing == 0,
        f"1e5 triple replicates: gap chi-square p={p_gaps:.3f}, worst new-spacer "
        f"mean z={z_worst:.2f}, cherry-crossing new spacers={crossing} "
        f"({elapsed:.1f} s)",
    )


# -- criterion 4: general-n reduction ----------------------------------


def test_criterion_4_general_law_reduction():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(5):
        rho = float(rng.uniform(0.1, 2.5))
        T = float(rng.uniform(0.3, 2.0))
        Tp = T * float(rng.uniform(0.2, 0.9))
        # pair reduction on the full grid of counts <= 8
        law2 = sl.GeneralGapLaw(sl.parse_newick(f"(1:{T},2:{T});"), rho)
        grid = np.arange(9)
        aa, bb = np.meshgrid(grid, grid, indexing="ij")
        counts2 = np.zeros((81, 2), dtype=np.int64)
        order = {K: i for i, K in enumerate(law2.subsets)}
        counts2[:, order[frozenset({"1"})]] = aa.ravel()
        counts2[:, order[frozenset({"2"})]] = bb.ravel()
        got = np.exp(law2.logpmf_array(counts2))
        want = sl.pair_gap_pmf(aa.ravel(), bb.ravel(), rho, T)
        worst = max(worst, float(np.abs(got - want).max()))
        # triple reduction on the full grid of counts <= 8
        t3 = sl.parse_newick(f"((1:{Tp},2:{Tp}):{T - Tp},3:{T});")
        law3 = sl.GeneralGapLaw(t3, rho)
        mesh = np.meshgrid(*(grid,) * 6, indexing="ij")
        cols = [m.ravel() for m in mesh]
        order3 = {K: i for i, K in enumerate(law3.subsets)}
        counts3 = np.zeros((len(cols[0]), len(law3.subsets)), dtype=np.int64)
        for col, K in zip(cols, CLASSES):
            counts3[:, order3[K]] = col
        got3 = np.exp(law3.logpmf_array(counts3))
        want3 = sl.triple_gap_pmf(*cols, rho, T, Tp)
        worst = max(worst, float(np.abs(got3 - want3).max()))
    # subset survival probabilities partition unity on random 5-leaf trees
    worst_part = 0.0
    for k in range(5):
        tree = sl.sample_coalescent(5, SEED + k)
        rho = float(rng.uniform(0.1, 2.5))
        table = sl.survival(tree, rho)
        leaves = tree.leaves
        total = 1.0 - table.p[tree.root]
        for mask in range(1, 2 ** len(leaves) - 1):
            K = [l for i, l in enumerate(leaves) if mask >> i & 1]
            total += sl.p_exact_subset(tree, rho, tree.root, K, table)
        lam = sl.spanning_length(tree, tree.root, leaves)
        total += math.exp(-rho * lam)
        worst_part = max(worst_part, abs(total - 1.0))
    report(
        4,
        worst <= 1e-12 and worst_part <= 1e-12,
        f"general law vs pair/triple max |diff| = {worst:.2e} on full grids; "
        f"5-leaf subset partition off by at most {worst_part:.2e}",
    )


# -- criterion 5: closed-form MLE vs numeric maximization --------------


def _numeric_argmax(m: int, d: int, T: float) -> float:
    def f(rho: float) -> float:
        return sl.pair_conditional_loglik(m, d, rho, T)

    if d == 0:
        return 0.0  # objective is strictly decreasing in rho
    x, _, _ = maximize_scalar(f, 1e-9, 60.0 / T, 1e-10)
    for _ in range(3):  # parabolic polish
        h = 1e-5 * (1.0 + x)
        f0, fm, fp = f(x), f(x - h), f(x + h)
        denom = fm - 2.0 * f0 + fp
        if denom < 0:
            x += 0.5 * h * (fm - fp) / denom
    return x


def test_criterion_5_closed_form_mle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    worst_id = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 300))
        d = int(rng.integers(0, 1000))
        T = float(rng.uniform(0.1, 4.0))
        res = sl.estimate_rho_pair(m, d, T)
        worst = max(worst, abs(res.rho_hat - _numeric_argmax(m, d, T)))
        worst_id = max(
            worst_id, abs(math.exp(-res.rho_hat * T) - sl.negbin_p_mle(m, d))
        )
    report(
        5,
        worst <= 1e-7 and worst_id <= 1e-12,
        f"closed form vs numeric argmax max |diff| = {worst:.2e} over 100 draws; "
        f"negative-binomial p identity off by {worst_id:.2e}",
    )


# -- criterion 6: recovery experiment at desk scale --------------------


def _check_recovery(summary, rho_grid):
    ok = True
    lines = []
    for rho in rho_grid:
        q = summary[rho]["quantiles"]
        med, q25, q75 = q[0.5], q[0.25], q[0.75]
        good = 0.85 <= med <= 1.15 and q25 <= 1.0 <= q75
        ok = ok and good
        lines.append(f"rho={rho}: median={med:.3f} IQR=[{q25:.3f},{q75:.3f}]")
    return ok, "; ".join(lines)


def test_criterion_6_recovery_experiment(tmp_path):
    t0 = time.perf_counter()
    cfg2 = ExperimentConfig(
        n=2, rho_grid=(0.25, 0.5, 1.0, 2.0), replicates=1000, seed=SEED,
        out=str(tmp_path / "n2.csv"),
    )
    _, summary2 = run_fig_experiment(cfg2)
    ok2, txt2 = _check_recovery(summary2, cfg2.rho_grid)
    cfg3 = ExperimentConfig(
        n=3, rho_grid=(0.5, 1.0, 2.0), replicates=1000, seed=SEED,
        out=str(tmp_path / "n3.csv"),
    )
    _, summary3 = run_fig_experiment(cfg3)
    ok3, txt3 = _check_recovery(summary3, cfg3.rho_grid)
    elapsed = time.perf_counter() - t0
    report(
        6,
        ok2 and ok3 and elapsed < 600.0,
        f"n=2 [{txt2}] | n=3 [{txt3}] ({elapsed:.0f} s)",
    )


# -- criterion 7: expected equal-spacer count --------------------------


def _mean_m(n: int, theta: float, rho: float, reps: int):
    ms = np.empty(reps)
    params = sl.ModelParams(theta=theta, rho=rho)
    for rep in range(reps):
        t = sl.sample_coalescent(n, mix_seed(SEED, 7, n, rep, 0))
        sim = sl.simulate_tree(t, params, mix_seed(SEED, 7, n, rep, 1))
        shared = set.intersection(*(set(a) for a in sim.arrays.values()))
        ms[rep] = len(shared)
    return float(ms.mean()), float(ms.std(ddof=1) / math.sqrt(reps))


def test_criterion_7_pair_moment():
    rho = 0.5
    mean, se = _mean_m(2, 100.0 * rho, rho, 10_000)
    want = 100.0 * rho / (rho * (1 + 2 * rho))
    z = (mean - want) / se
    report(7, abs(z) <= 3.0, f"n=2 mean M = {mean:.2f} vs {want:.2f} (z = {z:.2f})")


def test_criterion_7_triple_moment():
    # Only root spacers can be shared by all three leaves: a spacer gained
    # below the root reaches at most two of them.  The root holds
    # Poi(theta/rho) spacers, and each survives the whole tree with
    # probability e^{-rho L}, L = 3 T3 + 2 T2 the total branch length, with
    # T3 ~ Exp(3) and T2 ~ Exp(1) the coalescent epochs.  So
    #   E[M] = theta/rho * E[e^{-3 rho T3}] * E[e^{-2 rho T2}]
    #        = theta/rho * 3/(3 + 3 rho) * 1/(1 + 2 rho).
    # As rho -> 0 this tends to theta/rho, the mean array length, as it must
    # when nothing is lost; theta/(rho (1+2 rho)(2+2 rho)) tends to half of
    # that, because it drops the factor 2 from 3/(3+3 rho) = 2/(2+2 rho).
    rho = 0.5
    theta = 100.0 * rho
    mean, se = _mean_m(3, theta, rho, 10_000)
    want = theta / rho * (3 / (3 + 3 * rho)) * (1 / (1 + 2 * rho))
    z = (mean - want) / se
    report(7, abs(z) <= 3.0, f"n=3 mean M = {mean:.2f} vs {want:.2f} (z = {z:.2f})")


# -- criterion 8: determinism -------------------------------------------


def _run_experiment_cli(out: str, replicates: int = 100) -> tuple[bytes, bytes]:
    proc = subprocess.run(
        [
            sys.executable, "-m", "spacerloss.cli", "replicate-fig1",
            "--n", "2", "--rho-grid", "0.25,0.5,1,2", "--replicates", str(replicates),
            "--seed", str(SEED), "--out", out,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, "rb") as fh:
        main_bytes = fh.read()
    with open(out + ".summary.csv", "rb") as fh:
        summary_bytes = fh.read()
    return main_bytes, summary_bytes


def _rows_by_rho(main_bytes: bytes) -> dict:
    rows: dict = {}
    for line in main_bytes.decode().splitlines()[1:]:
        rows.setdefault(line.split(",", 1)[0], []).append(line)
    return rows


def test_criterion_8_determinism(tmp_path):
    a = _run_experiment_cli(str(tmp_path / "a.csv"))
    b = _run_experiment_cli(str(tmp_path / "b.csv"))
    c = _run_experiment_cli(str(tmp_path / "c.csv"))
    long_rows = _rows_by_rho(_run_experiment_cli(str(tmp_path / "d.csv"), 1000)[0])
    prefix = all(
        long_rows[rho][: len(rows)] == rows for rho, rows in _rows_by_rho(a[0]).items()
    )
    report(
        8,
        a == b == c and prefix,
        "results and summary CSVs byte-identical across reruns; the rows of "
        "--replicates 100 are the first rows of --replicates 1000",
    )

import contextlib
import csv
import io
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from reference_arrays import read_arrays as reference_read_arrays
from test_equal_spacers import (
    _leaf_arrays, _reference_pair, _reference_repeat, _reference_triple,
)

import spacerloss
from spacerloss import cli
from spacerloss.cli import ExperimentConfig, main
from spacerloss.equal_spacers import interior_totals, pair_stats, triple_stats
from spacerloss.estimators import (
    estimate_rho_pair, estimate_rho_triple, estimate_theta_moment, pair_mle, triple_mle
)
from spacerloss.process import (
    BLOCK, ModelParams, mix_seed, seeded_blocks, simulate_block, splitmix64,
)
from spacerloss.tree import UltrametricTree, coalescent_block, parse_newick, to_newick

CHERRY = "(1:1.0,2:1.0);"
TRIPLE = "((1:0.5,2:0.5):0.5,3:1.0);"


def run_cli(*argv):
    return main(list(argv))


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_splitmix64_reference_values():
    # reference sequence for seed 1234567 from the published algorithm
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) != splitmix64(2)
    assert 0 <= mix_seed(42, 3, 7) < 2**64


def test_simulate_stats_estimate_roundtrip_pair(tmp_path):
    tree = tmp_path / "tree.nwk"
    write(tree, CHERRY)
    arrays = tmp_path / "arrays.csv"
    stats = tmp_path / "stats.csv"
    est = tmp_path / "est.csv"
    assert run_cli(
        "simulate", "--tree", str(tree), "--theta", "50", "--rho", "0.5",
        "--replicates", "5", "--seed", "7", "--out", str(arrays),
    ) == 0
    rows = read_rows(arrays)
    assert rows[0] == ["replicate", "leaf", "position", "spacer"]
    assert os.path.exists(str(arrays) + ".trees")
    assert run_cli("stats", "--arrays", str(arrays), "--out", str(stats)) == 0
    srows = read_rows(stats)
    assert srows[0] == ["replicate", "M", "D"]
    assert len(srows) == 6
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1.0",
        "--arrays", str(arrays), "--out", str(est),
    ) == 0
    erows = read_rows(est)
    assert erows[0] == [
        "replicate", "rho_hat", "theta_hat", "loglik", "boundary", "skipped_reason"
    ]
    done = [r for r in erows[1:] if not r[5]]
    assert done, "expected at least one estimable replicate"
    for r in done:
        assert float(r[1]) >= 0.0
        assert r[2] != ""


def test_simulate_stats_estimate_roundtrip_triple(tmp_path):
    tree = tmp_path / "tree.nwk"
    write(tree, TRIPLE)
    arrays = tmp_path / "arrays.csv"
    stats = tmp_path / "stats.csv"
    est = tmp_path / "est.csv"
    run_cli(
        "simulate", "--tree", str(tree), "--theta", "80", "--rho", "0.8",
        "--replicates", "4", "--seed", "3", "--out", str(arrays),
    )
    assert run_cli(
        "stats", "--arrays", str(arrays), "--trees", str(arrays) + ".trees",
        "--out", str(stats),
    ) == 0
    assert read_rows(stats)[0] == ["replicate", "M", "D1", "D2", "D3", "D4"]
    assert run_cli(
        "estimate", "--stats", str(stats), "--trees", str(arrays) + ".trees",
        "--out", str(est),
    ) == 0
    assert len(read_rows(est)) == 5


def test_estimate_triple_rows_match_the_one_row_estimator(tmp_path):
    arrays, stats, est = (tmp_path / f for f in ("arrays.csv", "stats.csv", "est.csv"))
    trees = str(arrays) + ".trees"
    assert run_cli(
        "simulate", "--tree", "coalescent:3", "--theta", "12", "--rho", "1",
        "--replicates", "40", "--seed", "6", "--out", str(arrays),
    ) == 0
    assert run_cli("stats", "--arrays", str(arrays), "--trees", trees, "--out", str(stats)) == 0
    assert run_cli(
        "estimate", "--stats", str(stats), "--trees", trees, "--arrays", str(arrays),
        "--out", str(est),
    ) == 0
    with open(trees) as fh:
        tree_list = [parse_newick(ln) for ln in fh.read().splitlines()]
    kinds = set()
    for (rep, m, *ds), row in zip(read_rows(stats)[1:], read_rows(est)[1:]):
        assert row[0] == rep
        if ds[0] == "" or int(m) < 2:
            assert row[1:] == ["", "", "", "", "M<2"]
            kinds.add("skipped")
            continue
        t = tree_list[int(rep) - 1]
        res = estimate_rho_triple(
            int(m), *map(int, ds), t.height, t.length[t.leaf_ids[t.cherry()[0]]]
        )
        assert row[1:5:2] == [f"{res.rho_hat:.12g}", f"{res.loglik:.12g}"]
        assert row[4:] == [str(res.boundary).lower(), ""]
        assert (row[2] == "") == (res.rho_hat == 0)
        kinds.add("boundary" if res.boundary else "interior")
    assert kinds == {"skipped", "boundary", "interior"}


PAIR_STATS = ("replicate,M,D", ["1,5,0", "2,4,3", "3,1,", "4,6,2"], ["--T", "1"])
TRIPLE_STATS = (
    "replicate,M,D1,D2,D3,D4", ["1,5,0,0,0,0", "2,4,3,1,0,2", "3,1,,,,", "4,6,2,0,1,0"],
    ["--T", "1", "--Tprime", "0.4"],
)


@pytest.mark.parametrize("stats_file, flip_suspect", [
    (PAIR_STATS, False), (TRIPLE_STATS, False), (TRIPLE_STATS, True),
])
def test_estimate_reports_its_flags_on_stderr(
    tmp_path, monkeypatch, capsys, stats_file, flip_suspect
):
    # replicate 1 is a boundary estimate (all D = 0) and replicate 3 is skipped
    header, rows, times = stats_file
    stats = tmp_path / "stats.csv"
    write(stats, "\n".join([header] + rows) + "\n")
    if flip_suspect:  # the triple estimator's flags reach the line unchanged
        monkeypatch.setattr(cli, "triple_mle", lambda *args: triple_mle(*args)._replace(
            multimodal_suspect=np.ones(3, dtype=bool)
        ))
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--stats", str(stats), *times, "--out", str(out)) == 0
    assert capsys.readouterr() == (
        "", f"{stats}: of 3 used replicates, 1 boundary, {3 * flip_suspect} multimodal_suspect\n"
    )


def test_pair_estimate_rejects_tprime(tmp_path, capsys):
    header, rows, _ = PAIR_STATS
    stats = tmp_path / "stats.csv"
    write(stats, "\n".join([header] + rows) + "\n")
    out = tmp_path / "est.csv"
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1", "--Tprime", "2", "--out", str(out),
    ) == 2
    assert capsys.readouterr().err == "error: --Tprime applies to triple statistics only\n"
    assert not out.exists()


def test_stats_triple_without_trees_fails(tmp_path, capsys):
    tree = tmp_path / "tree.nwk"
    write(tree, TRIPLE)
    arrays = tmp_path / "arrays.csv"
    run_cli(
        "simulate", "--tree", str(tree), "--theta", "10", "--rho", "1",
        "--replicates", "1", "--seed", "0", "--out", str(arrays),
    )
    assert run_cli("stats", "--arrays", str(arrays), "--out", str(tmp_path / "s.csv")) == 2
    assert "three-leaf stats need --trees for the cherry" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_stats_leaf_mismatch_writes_no_file(tmp_path, capsys):
    arrays = tmp_path / "arrays.csv"
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", "30", "--rho", "1",
        "--replicates", "3", "--seed", "2", "--out", str(arrays),
    ) == 0
    trees = tmp_path / "trees.nwk"
    write(trees, "(1:1,2:1);\n(1:1,3:1);\n(1:1,2:1);\n")
    out = tmp_path / "s.csv"
    assert run_cli("stats", "--arrays", str(arrays), "--trees", str(trees), "--out", str(out)) == 2
    assert "leaf mismatch between files at replicate 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "repeat_at, mismatch_at, message",
    [(2, 3, "duplicate spacer 4 in array '2'"),
     (3, 2, "leaf mismatch between files at replicate 2"),
     (2, 2, "leaf mismatch between files at replicate 2"),
     (0, 3, "replicate numbers start at 1, found 0")],
)
def test_stats_reports_the_first_failing_replicate(
    tmp_path, capsys, repeat_at, mismatch_at, message
):
    # replicates 0 (only when it holds the repeat), 1, 2 and 3; the checks
    # of one replicate run in the order tree, leaves, repeated spacer
    reps = sorted({repeat_at, 1, 2, 3})
    rows = []
    for rep in reps:
        second = [5, 4, 6, 4] if rep == repeat_at else [5, 4, 6]
        rows += [[rep, "1", i, t] for i, t in enumerate([5, 6], 1)]
        rows += [[rep, "2", i, t] for i, t in enumerate(second, 1)]
    arrays = tmp_path / "arrays.csv"
    _write_arrays(arrays, rows, [False] * len(rows), "\n")
    trees = tmp_path / "trees.nwk"
    write(trees, "".join(
        "(1:1,3:1);\n" if rep == mismatch_at else "(1:1,2:1);\n" for rep in range(1, 4)
    ))
    out = tmp_path / "s.csv"
    assert run_cli("stats", "--arrays", str(arrays), "--trees", str(trees), "--out", str(out)) == 2
    # a leaf mismatch goes on to name the arrays file and both label lists,
    # and a reader's error starts with it
    detail = f": {arrays} has leaves ['1', '2'], its tree ['1', '3']" if "leaf" in message else ""
    head = f"{arrays}: " if message.startswith("replicate numbers") else ""
    assert capsys.readouterr().err == f"error: {head}{message}{detail}\n"
    assert not out.exists()


def block_rule_replicates(source, params, replicates, seed):
    """(tree, leaf arrays) of each replicate of ``simulate``, rebuilt from
    the block rule: block k of max(1, 3 * BLOCK // nodes) rows draws from
    the generator seeded by (seed, 0, k); a coalescent:N block (``source``
    is N) samples all its trees with one ``coalescent_block`` call, then
    runs one ``simulate_block`` per labelled ranked topology in order of
    first appearance.  A fixed tree (``source`` is the tree) is one topology."""
    fixed = source if isinstance(source, UltrametricTree) else None
    nodes = fixed.n_nodes if fixed else 2 * source - 1
    labels = list(fixed.label) if fixed else [str(i + 1) for i in range(source)] + [""] * (source - 1)
    rows = max(1, 3 * BLOCK // nodes)
    out = []
    for rng, kept in seeded_blocks(seed, (0,), replicates, rows):
        if fixed:
            parent, length = np.tile(fixed.parent, (kept, 1)), np.tile(fixed.length, (kept, 1))
        else:
            parent, length = coalescent_block(source, kept, rng)
        groups = {}  # parent array -> its rows, in order of first appearance
        for b in range(kept):
            groups.setdefault(tuple(parent[b].tolist()), []).append(b)
        block = [None] * kept
        for par, members in groups.items():
            topology = UltrametricTree.build(list(par), length[members[0]].tolist(), labels)
            sim = simulate_block(topology, length[members], params, rng)
            for i, b in enumerate(members):
                t = UltrametricTree.build(list(par), length[b].tolist(), labels)
                block[b] = (t, sim.arrays(i))
        out.extend(block)
    return out


def arrays_csv(replicates):
    """What ``csv.writer`` writes for the arrays of (tree, leaf arrays)
    replicates numbered from 1: by replicate, leaf and position."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["replicate", "leaf", "position", "spacer"])
    for rep, (t, arrays_) in enumerate(replicates, start=1):
        for leaf in t.leaves:
            writer.writerows([rep, leaf, pos, token] for pos, token in enumerate(arrays_[leaf], 1))
    return buf.getvalue()


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


FOUR_LEAVES = "((1:0.5,2:0.5):0.5,(3:0.25,4:0.25):0.75);"


@pytest.mark.parametrize("source", [2, 3, 4, 5, 6, FOUR_LEAVES])
def test_simulate_rows_follow_the_block_rule(tmp_path, source):
    if isinstance(source, int):
        tree_arg = f"coalescent:{source}"
    else:
        tree_arg = str(tmp_path / "tree.nwk")
        write(tree_arg, source)
        source = parse_newick(source)
    arrays = tmp_path / "a.csv"
    params = ModelParams(theta=6.0, rho=1.0)
    # 320 rows span two blocks from coalescent:3 on and three at coalescent:6
    assert run_cli(
        "simulate", "--tree", tree_arg, "--theta", "6", "--rho", "1",
        "--replicates", "320", "--seed", "4", "--out", str(arrays),
    ) == 0
    want = block_rule_replicates(source, params, 320, 4)
    lines = read_lines(str(arrays) + ".trees")
    assert lines == [to_newick(t) for t, _ in want]
    assert all(to_newick(parse_newick(line)) == line for line in lines)
    with open(arrays, newline="") as fh:
        assert fh.read() == arrays_csv(want)


def test_simulate_is_deterministic_and_full_blocks_keep_their_rows(tmp_path):
    def run(name, replicates):
        out = tmp_path / name
        assert run_cli(
            "simulate", "--tree", "coalescent:2", "--theta", "8", "--rho", "1",
            "--replicates", str(replicates), "--seed", "9", "--out", str(out),
        ) == 0
        with open(out, "rb") as fh, open(str(out) + ".trees", "rb") as th:
            return fh.read(), th.read()

    full = run("a.csv", 512)
    assert run("b.csv", 512) == full
    arrays, trees = run("c.csv", 600)
    assert trees.splitlines()[:512] == full[1].splitlines()
    rows = arrays.splitlines(keepends=True)
    assert b"".join(r for r in rows if r[:1].isdigit() and int(r.split(b",")[0]) <= 512) \
        == full[0].split(b"\r\n", 1)[1]
    assert any(r[:1].isdigit() and int(r.split(b",")[0]) > 512 for r in rows)


def test_simulate_quotes_a_leaf_label_as_csv_does(tmp_path):
    label_tree = '(q"t:1,u:1);'
    write(tmp_path / "tree.nwk", label_tree)
    arrays = tmp_path / "a.csv"
    assert run_cli(
        "simulate", "--tree", str(tmp_path / "tree.nwk"), "--theta", "40", "--rho", "1",
        "--replicates", "5", "--seed", "2", "--out", str(arrays),
    ) == 0
    want = block_rule_replicates(parse_newick(label_tree), ModelParams(40.0, 1.0), 5, 2)
    with open(arrays, newline="") as fh:
        text = fh.read()
    assert text == arrays_csv(want) and '"q""t"' in text
    stats = tmp_path / "s.csv"
    trees = str(arrays) + ".trees"
    assert run_cli("stats", "--arrays", str(arrays), "--trees", trees, "--out", str(stats)) == 0
    assert [row[:2] for row in read_rows(stats)[1:]] == [
        [str(rep), str(pair_stats(a).m)] for rep, (_, a) in enumerate(want, start=1)
    ]


@pytest.mark.parametrize("replicates", ["0", "-3"])
def test_simulate_rejects_a_replicate_count_below_one(tmp_path, capsys, replicates):
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", "5", "--rho", "1",
        "--replicates", replicates, "--out", str(tmp_path / "a.csv"),
    ) == 2
    assert capsys.readouterr().err == "error: replicate count must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


@st.composite
def pair_runs(draw):
    """(theta, rho): rho log-uniform on [1e-2, 1e3] and theta up to 1e3,
    with at most 300 root spacers expected."""
    rho = 10.0 ** draw(st.floats(-2.0, 3.0))
    return draw(st.floats(0.0, min(1e3, 300 * rho))), rho


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(pair_runs(), st.integers(1, 4), st.integers(0, 2**32))
@example((0.0, 1.0), 3, 0)  # every array is empty
@example((1.0, 1.0), 50, 3)  # some replicates have one empty leaf
@example((1e3, 1e3), 4, 1)  # rho T passes MAX_RHO_T
@example((100.0, 1.0), 4, 2)  # every replicate estimable
def test_simulate_stats_estimate_roundtrip_coalescent(
    tmp_path_factory, n, run, replicates, seed
):
    theta, rho = run
    tmp = tmp_path_factory.mktemp("roundtrip")
    arrays, stats, est = (tmp / f for f in ("arrays.csv", "stats.csv", "est.csv"))
    trees = str(arrays) + ".trees"
    assert run_cli(
        "simulate", "--tree", f"coalescent:{n}", "--theta", repr(theta), "--rho", repr(rho),
        "--replicates", str(replicates), "--seed", str(seed), "--out", str(arrays),
    ) == 0
    # each replicate rebuilt in memory by the block rule of the cli
    # docstring; the trees file keeps 12 significant digits of each length
    reps = {
        rep: (arrays_, parse_newick(to_newick(t)))
        for rep, (t, arrays_) in enumerate(
            block_rule_replicates(n, ModelParams(theta=theta, rho=rho), replicates, seed), start=1
        )
    }
    # the arrays file cannot hold an empty array: a replicate whose leaves
    # are all empty is absent, and one empty leaf fails stats
    present = [rep for rep, (a, _) in reps.items() if any(a.values())]
    code = run_cli("stats", "--arrays", str(arrays), "--trees", trees, "--out", str(stats))
    if not present or not all(all(reps[rep][0].values()) for rep in present):
        assert code == 2 and not stats.exists()
        return
    assert code == 0
    assert run_cli(
        "estimate", "--stats", str(stats), "--trees", trees, "--arrays", str(arrays),
        "--out", str(est),
    ) == 0
    want_stats, want_est = [], []
    for rep in present:
        a, t = reps[rep]
        if n == 2:
            ps = pair_stats(a)
            ds = (ps.d,)
        else:
            ps = triple_stats(a, t.cherry())
            ds = (ps.d1, ps.d2, ps.d3, ps.d4)
        want_stats.append([str(rep), str(ps.m)] + ["" if d is None else str(d) for d in ds])
        if ds[0] is None:
            want_est.append([str(rep), "", "", "", "", "M<2"])
            continue
        if n == 2:
            res = estimate_rho_pair(ps.m, ps.d, t.height)
        else:
            res = estimate_rho_triple(ps.m, *ds, t.height, t.length[t.leaf_ids[t.cherry()[0]]])
        theta_hat = estimate_theta_moment(res.rho_hat, a) if res.rho_hat > 0 else None
        want_est.append([
            str(rep), f"{res.rho_hat:.12g}", "" if theta_hat is None else f"{theta_hat:.12g}",
            f"{res.loglik:.12g}", str(res.boundary).lower(), "",
        ])
    assert read_rows(stats)[1:] == want_stats
    assert read_rows(est)[1:] == want_est


def test_simulate_coalescent_source(tmp_path):
    arrays = tmp_path / "arrays.csv"
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", "30", "--rho", "1",
        "--replicates", "3", "--seed", "1", "--out", str(arrays),
    ) == 0
    with open(str(arrays) + ".trees") as fh:
        trees = [ln for ln in fh if ln.strip()]
    assert len(trees) == 3
    assert len(set(trees)) > 1  # coalescent trees vary by replicate


def test_missing_tree_file_exit_code(tmp_path):
    assert run_cli(
        "simulate", "--tree", str(tmp_path / "nope.nwk"), "--theta", "1",
        "--rho", "1", "--replicates", "1", "--seed", "0",
        "--out", str(tmp_path / "a.csv"),
    ) == 2


def test_malformed_newick_exit_code(tmp_path, capsys):
    tree = tmp_path / "bad.nwk"
    write(tree, "(1:1,2:2,3:3")
    assert run_cli(
        "simulate", "--tree", str(tree), "--theta", "1", "--rho", "1",
        "--replicates", "1", "--seed", "0", "--out", str(tmp_path / "a.csv"),
    ) == 2
    err = capsys.readouterr().err
    assert err == f"error: {tree}: Newick string must end with ';' (at position 12)\n"


def test_validate_pair_passes():
    assert run_cli(
        "validate", "--rho", "0.6931471805599453", "--theta", "69.3",
        "--T", "1.0", "--trials", "2000", "--seed", "5",
    ) == 0


def test_validate_triple_reports_each_check(capsys):
    assert run_cli(
        "validate", "--rho", "0.693", "--theta", "69.3", "--T", "1",
        "--Tprime", "0.5", "--trials", "1000", "--seed", "3",
    ) == 0
    names = [ln.split(": statistic=")[0] for ln in capsys.readouterr().out.splitlines()]
    assert names == [
        "triple gap pmf chi-square",
        "new-spacer mean {1}",
        "new-spacer mean {2}",
        "new-spacer mean {3}",
        "new-spacer mean {1,2}",
        "new-spacer mean {1,3} (must be exactly 0)",
        "new-spacer mean {2,3} (must be exactly 0)",
    ]


@pytest.mark.xfail(
    strict=True,
    reason="the pair gap law assumes an unbounded run of root spacers, but the "
    "root holds Poi(theta/rho); at theta/rho ~ 13 the finite run shortens the gaps",
)
def test_validate_passes_a_correct_simulator_at_small_theta_over_rho():
    assert run_cli(
        "validate", "--rho", "1.5", "--theta", "20", "--T", "0.7",
        "--trials", "3000", "--seed", "11",
    ) == 0


def test_validate_rejects_tiny_trials():
    assert run_cli(
        "validate", "--rho", "1", "--theta", "10", "--T", "1", "--trials", "10",
    ) == 2


def test_validate_without_chisquare_cells_fails(capsys):
    # no replicate has two equal spacers: the chi-square has no cells, and
    # its NaN p-value used to pass with exit 0
    assert run_cli(
        "validate", "--rho", "2", "--theta", "5", "--T", "1", "--Tprime", "0.9",
        "--trials", "2000", "--seed", "0",
    ) == 2
    err = capsys.readouterr().err
    assert "0 trials had M >= 2" in err
    assert "--trials" in err


@pytest.mark.parametrize(
    "times, message",
    [(("--T", "0"), "T must be positive"),
     (("--T", "1", "--Tprime", "0"), "Tprime must be positive")],
)
def test_validate_rejects_zero_times(capsys, times, message):
    assert run_cli(
        "validate", "--rho", "1", "--theta", "10", *times, "--trials", "1000",
    ) == 2
    assert f"error: {message}\n" == capsys.readouterr().err


@pytest.mark.parametrize("params, used", [
    (("--rho", "1", "--theta", "10", "--T", "1e-320"), 998),
    (("--rho", "1e-320", "--theta", "1e-320", "--T", "0.7"), 251),
])
def test_validate_names_rho_t_when_the_first_gaps_fill_one_cell(capsys, params, used):
    # rho*T underflows, so every first gap is 0: more trials would not help,
    # and the message blamed only --trials and theta/rho
    assert run_cli("validate", *params, "--trials", "1000") == 2
    assert capsys.readouterr().err == (
        f"error: {used} trials had M >= 2 and their first gaps fell into fewer than two "
        "cells of expected count >= 5, too few for a chi-square; "
        "raise rho*T, --trials or theta/rho\n"
    )


# exit-2 branches of main that no other test reaches: (argv, files written
# to the working directory first, stderr)
ARRAYS_BAD_HEADER = "replicate,leaf,pos,spacer\n1,1,1,7\n"
STATS_PAIR, STATS_TRIPLE = "replicate,M,D\n1,3,2\n", "replicate,M,D1,D2,D3,D4\n1,3,1,0,0,1\n"


@pytest.mark.parametrize("argv, files, err", [
    (["stats", "--arrays", "a.csv", "--out", "o.csv"], {"a.csv": ARRAYS_BAD_HEADER},
     "unexpected arrays header in a.csv: ['replicate', 'leaf', 'pos', 'spacer']"),
    (["estimate", "--stats", "st.csv", "--T", "1", "--out", "o.csv"],
     {"st.csv": "replicate,M\n1,3\n"}, "unrecognized stats header in st.csv: ['replicate', 'M']"),
    (["estimate", "--stats", "st.csv", "--out", "o.csv"], {"st.csv": STATS_PAIR},
     "need --trees or --T"),
    (["estimate", "--stats", "st.csv", "--T", "1", "--out", "o.csv"], {"st.csv": STATS_TRIPLE},
     "need --trees or --T and --Tprime"),
    (["simulate", "--tree", "coalescent:x", "--theta", "1", "--rho", "1", "--out", "o.csv"], {},
     "invalid tree source 'coalescent:x'"),
    (["simulate", "--tree", "coalescent:1", "--theta", "1", "--rho", "1", "--out", "o.csv"], {},
     "coalescent sample size must be >= 2"),
    (["replicate-fig1", "--n", "2", "--replicates", "0", "--out", "o.csv"], {},
     "replicate count must be >= 1"),
    (["validate", "--rho", "1", "--theta", "10", "--T", "1", "--Tprime", "1", "--trials", "1000"],
     {}, "need T > Tprime for a three-leaf tree"),
    # replicate numbers below 1, where no trees file is read: these ran
    # with exit 0 while the check was made only on looking up a tree
    (["estimate", "--stats", "st.csv", "--T", "1", "--out", "o.csv"],
     {"st.csv": "replicate,M,D\n1,3,2\n0,3,2\n-5,4,1\n"},
     "st.csv, line 3: replicate numbers start at 1, found 0"),
    (["estimate", "--stats", "st.csv", "--T", "1", "--Tprime", "0.5", "--out", "o.csv"],
     {"st.csv": "replicate,M,D1,D2,D3,D4\n-1,1,,,,\n"},
     "st.csv, line 2: replicate numbers start at 1, found -1"),
    (["stats", "--arrays", "a.csv", "--out", "o.csv"],
     {"a.csv": "replicate,leaf,position,spacer\n0,1,1,5\n0,2,1,5\n"},
     "a.csv: replicate numbers start at 1, found 0"),
    (["estimate", "--stats", "st.csv", "--T", "1", "--arrays", "a.csv", "--out", "o.csv"],
     {"st.csv": STATS_PAIR,
      "a.csv": "replicate,leaf,position,spacer\n1,1,1,5\n1,2,1,5\n-3,1,1,7\n-3,2,1,7\n"},
     "a.csv: replicate numbers start at 1, found -3"),
    # one checker per condition: the estimators' messages are the
    # likelihood checkers', and a doubly bad simulate reports its output
    (["estimate", "--stats", "st.csv", "--T", "1", "--out", "o.csv"],
     {"st.csv": "replicate,M,D\n1,3,-2\n"}, "counts must be nonnegative"),
    (["estimate", "--stats", "st.csv", "--T", "1", "--Tprime", "0.5", "--out", "o.csv"],
     {"st.csv": "replicate,M,D1,D2,D3,D4\n1,3,1,-1,0,1\n"}, "counts must be nonnegative"),
    (["estimate", "--stats", "st.csv", "--T", "0.5", "--Tprime", "1", "--out", "o.csv"],
     {"st.csv": STATS_TRIPLE}, "T must be >= T_prime"),
    (["estimate", "--stats", "st.csv", "--T", "1", "--Tprime", "0", "--out", "o.csv"],
     {"st.csv": STATS_TRIPLE}, "T_prime must be positive"),
    (["simulate", "--tree", "coalescent:1", "--theta", "1", "--rho", "1",
      "--out", "nodir/x.csv"], {}, "cannot write nodir/x.csv: No such file or directory"),
], ids=[
    "arrays-header", "stats-header", "pair-without-times", "triple-without-tprime",
    "coalescent-x", "coalescent-1", "fig1-no-replicates", "validate-tprime-equals-t",
    "pair-stats-replicate-0", "triple-stats-replicate-minus-1", "arrays-replicate-0",
    "estimate-arrays-replicate-minus-3", "pair-negative-d", "triple-negative-d",
    "triple-t-below-tprime", "triple-tprime-0", "coalescent-1-into-missing-directory",
])
def test_input_errors_exit_2_with_their_message(tmp_path, monkeypatch, capsys, argv, files, err):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        write(tmp_path / name, text)
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def _raise_from_simulate_block(monkeypatch):
    def failing(*args):
        raise FileNotFoundError(2, "No such file or directory", "elsewhere.csv")

    monkeypatch.setattr(cli, "simulate_block", failing)


def _raise_from_loadtxt(monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("injected loadtxt failure")

    monkeypatch.setattr(np, "loadtxt", failing)


# exit-2 paths of the file layer that no input reaches by itself, each with
# a failure injected: (injection, argv, files, stderr)
@pytest.mark.parametrize("inject, argv, files, err", [
    # an OSError naming a file other than the outputs' temporaries passes
    # through _committed unchanged
    (_raise_from_simulate_block,
     ["simulate", "--tree", "coalescent:2", "--theta", "1", "--rho", "1", "--out", "o.csv"], {},
     "[Errno 2] No such file or directory: 'elsewhere.csv'"),
    # numpy rejects a file whose rows all look valid: its own message
    (_raise_from_loadtxt, ["stats", "--arrays", "a.csv", "--out", "o.csv"],
     {"a.csv": "replicate,leaf,position,spacer\n1,1,1,5\n1,2,1,5\n"},
     "a.csv: injected loadtxt failure"),
], ids=["committed-reraises-other-file", "arrays-numpy-fallback-message"])
def test_injected_failures_exit_2_with_their_message(
    tmp_path, monkeypatch, capsys, inject, argv, files, err
):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        write(tmp_path / name, text)
    inject(monkeypatch)
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_main_builds_the_parser_once(tmp_path, capsys):
    cli.build_parser.cache_clear()
    missing = tmp_path / "none.csv"
    assert run_cli("validate", "--rho", "1", "--theta", "10", "--T", "1", "--trials", "10") == 2
    assert run_cli("stats", "--arrays", str(missing), "--out", str(tmp_path / "o.csv")) == 2
    assert capsys.readouterr().err == (
        "error: need at least 1000 trials\n"
        f"error: [Errno 2] No such file or directory: '{missing}'\n"
    )
    # each parse holds its own command's options and no other's
    parser = cli.build_parser()
    first = parser.parse_args(["stats", "--arrays", "a.csv", "--out", "o.csv"])
    second = parser.parse_args(["validate", "--rho", "1", "--theta", "10", "--T", "1",
                                "--trials", "1000"])
    assert vars(first) == {"command": "stats", "arrays": "a.csv", "trees": None, "out": "o.csv",
                           "func": cli.cmd_stats}
    assert vars(second) == {"command": "validate", "rho": 1.0, "theta": 10.0, "T": 1.0,
                            "Tprime": None, "trials": 1000, "seed": 0, "func": cli.cmd_validate}
    assert cli.build_parser.cache_info().misses == 1


def test_estimate_rejects_moments_method(tmp_path):
    stats = tmp_path / "stats.csv"
    write(stats, "replicate,M,D\n1,5,3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "estimate", "--stats", str(stats), "--T", "1", "--method", "moments",
            "--out", str(tmp_path / "e.csv"),
        )
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "bad_row",
    ["1,1", "1,1,x,5", "1,1,1,", "1,A,1,5,99", "1,B,1,99999999999999999999",
     "1,B,1,9223372036854775808", "1,B,1,-9223372036854775809", "1,A,1,2.5", "1,A,1,1e3",
     "1,A,1,inf", "1.5,A,1,5", "1,A,1.0,5"],
)
def test_stats_rejects_malformed_arrays_row(tmp_path, capsys, bad_row):
    arrays = tmp_path / "arrays.csv"
    # the blank line counts: the message names the line in the file
    write(arrays, f"replicate,leaf,position,spacer\n1,1,1,5\n\n{bad_row}\n")
    assert run_cli("stats", "--arrays", str(arrays), "--out", str(tmp_path / "s.csv")) == 2
    assert f"{arrays}, line 4: expected integers" in capsys.readouterr().err


def test_arrays_float_fallback_is_rejected(tmp_path, monkeypatch):
    """numpy 1.23-1.26 read "2.5" in an int64 field as 2 and only warn;
    the reader turns that warning into the line message even where
    warnings are otherwise ignored."""
    arrays = tmp_path / "arrays.csv"
    write(arrays, "replicate,leaf,position,spacer\n1,A,1,5\n1,A,2,2.5\n")

    def loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([(1, "A", 1, 5), (1, "A", 2, 2)], dtype=cli._ARRAYS_DTYPE)

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(cli.CliError, match=r", line 3: expected integers"):
            cli._read_arrays(str(arrays))


def _read_arrays_as_tuples(path):
    """{replicate: {leaf: tokens}} rebuilt from the columnar reader's runs,
    which must come in (replicate, leaf label) order."""
    tokens, starts, replicate, leaf = cli._read_arrays(path)
    runs = list(zip(replicate.tolist(), leaf))
    assert runs == sorted(set(runs))
    ends = starts[1:].tolist() + [len(tokens)]
    out = {}
    for (rep, label), start, end in zip(runs, starts.tolist(), ends):
        out.setdefault(rep, {})[label] = tuple(tokens[start:end].tolist())
    return out


def test_arrays_tokens_are_int64(tmp_path):
    arrays = tmp_path / "arrays.csv"
    write(arrays, f"replicate,leaf,position,spacer\n1,A,1,{-2**63}\n1,A,2,{2**63 - 1}\n")
    assert _read_arrays_as_tuples(str(arrays)) == {1: {"A": (-2**63, 2**63 - 1)}}


LABELS = ("1", "2", "a,b", " lead", 'q"t')  # a quoted comma, a leading space, a quote


@st.composite
def arrays_files(draw):
    """(rows, blank-line flags): the rows of a valid arrays file whose
    (replicate, leaf) groups interleave, each in position order."""
    groups = draw(st.dictionaries(
        st.tuples(st.integers(1, 4), st.sampled_from(LABELS)),
        st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=5, unique=True),
        min_size=1, max_size=8,
    ))
    # the order in which groups take their next row; each keeps its own order
    turns = draw(st.permutations([key for key, tokens in groups.items() for _ in tokens]))
    rows, taken = [], dict.fromkeys(groups, 0)
    for rep, leaf in turns:
        taken[rep, leaf] += 1
        rows.append([rep, leaf, taken[rep, leaf], groups[rep, leaf][taken[rep, leaf] - 1]])
    return rows, draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))


def _write_arrays(path, rows, blanks, lineterminator):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(["replicate", "leaf", "position", "spacer"])
        for row, blank in zip(rows, blanks):
            if blank:
                fh.write(lineterminator)
            writer.writerow(row)


@settings(max_examples=60, deadline=None)
@given(arrays_files(), st.sampled_from(["\n", "\r\n"]), st.data())
def test_columnar_reader_matches_the_row_by_row_reader(
    tmp_path_factory, file, lineterminator, data
):
    rows, blanks = file
    path = str(tmp_path_factory.mktemp("arrays") / "arrays.csv")
    _write_arrays(path, rows, blanks, lineterminator)
    assert _read_arrays_as_tuples(path) == reference_read_arrays(path)
    # wrong positions: both stop at the same replicate and leaf
    wrong = st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3, unique=True)
    for i in data.draw(wrong):
        rows[i][2] = data.draw(st.integers(-3, 8).filter(lambda p: p != rows[i][2]))
    _write_arrays(path, rows, blanks, lineterminator)
    with pytest.raises(cli.CliError, match="non-contiguous positions") as want:
        reference_read_arrays(path)
    with pytest.raises(cli.CliError) as got:
        cli._read_arrays(path)
    assert str(got.value) == str(want.value)


# a triple's labels go into Newick too, which cannot hold a comma
PAIR_LABELS = ("1", "2", "10", "a,b", 'q"t', " lead")
TRIPLE_LABELS = ("1", "2", "10", "B", 'q"t')


@st.composite
def stats_inputs(draw):
    """(n, {replicate: leaf arrays}, {replicate: cherry}, file rows): 2 or
    3 nonempty arrays per replicate, label sets differing between
    replicates, and the rows of all groups interleaved."""
    n = draw(st.sampled_from([2, 3]))
    replicates, cherries = {}, {}
    for rep in draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True)):
        labels = draw(st.permutations(PAIR_LABELS if n == 2 else TRIPLE_LABELS))[:n]
        arrays = draw(_leaf_arrays(labels))
        for i, lab in enumerate(labels):  # the arrays CSV cannot hold an empty array
            arrays[lab] = arrays[lab] or [100 + i]
        replicates[rep], cherries[rep] = arrays, tuple(labels[:2])
    # the order in which groups take their next row; each keeps its own order
    turns = draw(st.permutations([
        (rep, lab) for rep, arrays in replicates.items() for lab, arr in arrays.items() for _ in arr
    ]))
    rows, taken = [], {}
    for rep, lab in turns:
        taken[rep, lab] = taken.get((rep, lab), 0) + 1
        rows.append([rep, lab, taken[rep, lab], replicates[rep][lab][taken[rep, lab] - 1]])
    return n, replicates, cherries, rows


@settings(max_examples=60, deadline=None)
@given(stats_inputs())
def test_stats_rows_match_the_reference(tmp_path_factory, inputs):
    n, replicates, cherries, rows = inputs
    tmp = tmp_path_factory.mktemp("stats")
    arrays, trees, out = tmp / "arrays.csv", tmp / "trees.nwk", tmp / "stats.csv"
    _write_arrays(arrays, rows, [False] * len(rows), "\r\n")
    argv = ["stats", "--arrays", str(arrays), "--out", str(out)]
    if n == 3:
        lines = []
        for rep in range(1, max(replicates) + 1):
            f1, f2 = cherries.get(rep, ("1", "2"))
            (f3,) = set(replicates.get(rep, ("1", "2", "10"))) - {f1, f2}
            lines.append(f"(({f1}:0.5,{f2}:0.5):0.5,{f3}:1);\n")
        write(trees, "".join(lines))
        argv += ["--trees", str(trees)]
    want, error = [], None
    for rep in sorted(replicates):
        a = replicates[rep]
        error = _reference_repeat(a)
        if error is not None:  # a replicate-by-replicate pass stops at the first repeat
            break
        if n == 2:
            m, _, _, d = _reference_pair(a)
            ds = [d]
        else:
            m, *ds = _reference_triple(a, cherries[rep])
        want.append([str(rep), str(m)] + ["" if d is None else str(d) for d in ds])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    if error is not None:
        assert (code, err.getvalue()) == (2, f"error: {error}\n")
        assert not out.exists()
    else:
        assert code == 0
        header = ["replicate", "M", "D"] if n == 2 else ["replicate", "M", "D1", "D2", "D3", "D4"]
        assert read_rows(out) == [header] + want


# statistics are empty exactly when M < 2: not when M >= 2, never only some;
# a row of four fields is read under the pair header, so it has one too many
@pytest.mark.parametrize(
    "bad_row",
    ["1,5", "1,x,3", "1,5,abc", "1,5,", "1,5,,1,2,3", "1,1,,1,2,3", "1,5,3,77",
     # integers to Python's int, not to the int64 rule of both CSVs
     "1,1_0,3", "1,5,\u0663"],
)
def test_estimate_rejects_malformed_stats_row(tmp_path, capsys, bad_row):
    stats = tmp_path / "stats.csv"
    header = "replicate,M,D" if bad_row.count(",") < 4 else "replicate,M,D1,D2,D3,D4"
    write(stats, f"{header}\n{bad_row}\n")
    out = tmp_path / "e.csv"
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1", "--Tprime", "0.5", "--out", str(out),
    ) == 2
    assert f"{stats}, line 2: expected integers" in capsys.readouterr().err
    assert not out.exists()


# 1e-317 overflows the estimates to inf; inf makes them 0, unflagged
@pytest.mark.parametrize("T", ["1e-317", "inf"])
def test_pair_estimate_rejects_a_time_out_of_range(tmp_path, capsys, T):
    stats = tmp_path / "stats.csv"
    write(stats, "replicate,M,D\n1,5,0\n2,4,3\n3,1,\n")
    out = tmp_path / "e.csv"
    assert run_cli("estimate", "--stats", str(stats), "--T", T, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: T is out of range for the pair estimate\n"
    assert not out.exists()


@pytest.mark.parametrize("header, row", [
    ("replicate,M,D", "1,5,9223372036854775808"),
    ("replicate,M,D1,D2,D3,D4", "1,5,1,9223372036854775808,0,1"),
])
def test_estimate_rejects_a_count_beyond_int64(tmp_path, capsys, header, row):
    stats = tmp_path / "stats.csv"
    write(stats, f"{header}\n{row}\n")
    out = tmp_path / "e.csv"
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1", "--Tprime", "0.5", "--out", str(out),
    ) == 2
    got = ", ".join(f"{k}={v!r}" for k, v in zip(header.split(","), row.split(",")))
    assert capsys.readouterr().err == f"error: {stats}, line 2: expected integers, got {got}\n"
    assert not out.exists()


def test_one_line_trees_file_serves_a_huge_replicate_number(tmp_path):
    # the trees are looked up per replicate, not listed up to the largest
    rep = 2**62
    arrays, stats, tree = tmp_path / "a.csv", tmp_path / "s.csv", tmp_path / "t.nwk"
    write(arrays, "replicate,leaf,position,spacer\n" + "".join(
        f"{rep},{leaf},{pos},{token}\n"
        for leaf, tokens in (("1", (5, 6, 7)), ("2", (5, 8, 7)))
        for pos, token in enumerate(tokens, start=1)
    ))
    write(tree, CHERRY + "\n")
    assert run_cli("stats", "--arrays", str(arrays), "--trees", str(tree), "--out", str(stats)) == 0
    assert read_rows(stats) == [["replicate", "M", "D"], [str(rep), "2", "2"]]
    out = tmp_path / "e.csv"
    assert run_cli("estimate", "--stats", str(stats), "--trees", str(tree), "--out", str(out)) == 0
    assert read_rows(out)[1][0] == str(rep)


@pytest.mark.parametrize("n", ["4194305", "99999999999"])
def test_simulate_rejects_a_coalescent_beyond_the_token_node_ids(tmp_path, capsys, n):
    # 2n - 1 nodes must be at most 2^23; rejected before any node is allocated
    out = tmp_path / "a.csv"
    assert run_cli(
        "simulate", "--tree", f"coalescent:{n}", "--theta", "1", "--rho", "1", "--out", str(out),
    ) == 2
    assert capsys.readouterr().err == "error: coalescent sample size must be <= 4194304\n"
    assert not out.exists()


def test_failed_simulate_leaves_no_files(tmp_path, monkeypatch):
    # theta / rho overflows: rejected before any draw, with no warning
    out = tmp_path / "a.csv"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "spacerloss.cli", "simulate",
         "--tree", "coalescent:2", "--theta", "1e300", "--rho", "1e-300",
         "--replicates", "2", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: theta / rho must be finite\n"
    # a failure after the outputs are opened removes their temporary files
    def failing(*args):
        raise ValueError("simulation failed")

    monkeypatch.setattr(cli, "simulate_block", failing)
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", "1", "--rho", "1",
        "--out", str(out), "--trees-out", str(tmp_path / "t.nwk"),
    ) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--tree", "coalescent:2", "--theta", "10", "--rho", "1", "--out", "big.csv"],
        ["replicate-fig1", "--n", "2", "--rho-grid", "1", "--replicates", "5", "--out", "f.csv"],
        ["validate", "--rho", "1", "--theta", "10", "--T", "1", "--trials", "1000"],
    ],
    ids=["simulate", "replicate-fig1", "validate"],
)
@pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array", ""])
def test_memory_error_exits_2_and_leaves_no_files(tmp_path, monkeypatch, capsys, argv, message):
    from spacerloss import validation

    def failing(*args):
        raise MemoryError(message)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "simulate_block", failing)
    monkeypatch.setattr(validation, "simulate_block", failing)
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message or 'out of memory'}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trees_out", ["a.csv", "./sub/../a.csv"])
def test_simulate_rejects_one_path_for_both_outputs(tmp_path, monkeypatch, capsys, trees_out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", "5", "--rho", "1",
        "--replicates", "2", "--seed", "1", "--out", "a.csv", "--trees-out", trees_out,
    ) == 2
    assert capsys.readouterr().err == "error: --out and --trees-out name the same file: a.csv\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize(
    "argv, out, blocked",
    [
        (["simulate", "--tree", "coalescent:2", "--theta", "10", "--rho", "1",
          "--replicates", "3", "--out", "a.csv", "--trees-out", "blocked"], "a.csv", "blocked"),
        (["replicate-fig1", "--n", "2", "--rho-grid", "1", "--replicates", "5",
          "--out", "f.csv"], "f.csv", "f.csv.summary.csv"),
    ],
    ids=["simulate", "replicate-fig1"],
)
def test_an_output_that_is_a_directory_leaves_every_output_as_it_was(
    tmp_path, monkeypatch, capsys, argv, out, blocked, existing
):
    # the run completes, but its second output cannot replace a directory:
    # neither output is created or replaced
    monkeypatch.chdir(tmp_path)
    (tmp_path / blocked).mkdir()
    if existing:
        (tmp_path / out).write_bytes(b"kept\r\n")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {blocked}: it is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([blocked] + [out] * existing)
    assert list((tmp_path / blocked).iterdir()) == []
    if existing:
        assert (tmp_path / out).read_bytes() == b"kept\r\n"


# every command that writes files takes them from one argument list: the
# inputs a small run of each needs, written to the working directory
OUTPUT_RUNS = {
    "simulate": ["simulate", "--tree", "coalescent:2", "--theta", "5", "--rho", "1"],
    "stats": ["stats", "--arrays", "a.csv"],
    "estimate": ["estimate", "--stats", "st.csv", "--T", "1"],
}


def _write_output_run_inputs(directory):
    write(directory / "a.csv", "replicate,leaf,position,spacer\n1,1,1,7\n1,2,1,7\n")
    write(directory / "st.csv", "replicate,M,D\n1,1,\n")
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("command", ["stats", "estimate"])
def test_stats_and_estimate_do_not_write_over_a_directory(tmp_path, monkeypatch, capsys, command):
    # the output is refused as simulate's is, and no temporary is left beside it
    monkeypatch.chdir(tmp_path)
    inputs = _write_output_run_inputs(tmp_path)
    (tmp_path / "d").mkdir()
    assert run_cli(*OUTPUT_RUNS[command], "--out", "d") == 2
    assert capsys.readouterr().err == "error: cannot write d: it is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + ["d"])
    assert list((tmp_path / "d").iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "stats", "estimate"])
def test_an_output_in_a_missing_directory_is_named_as_given(
    tmp_path, monkeypatch, capsys, command
):
    # simulate named its temporary, nodir/x.csv.<pid>.tmp
    monkeypatch.chdir(tmp_path)
    inputs = _write_output_run_inputs(tmp_path)
    assert run_cli(*OUTPUT_RUNS[command], "--out", "nodir/x.csv") == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write nodir/x.csv: No such file or directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("command, named", [
    ("simulate", "x.csv or x.csv.trees"), ("stats", "x.csv"), ("estimate", "x.csv"),
])
def test_a_failed_write_names_the_outputs(tmp_path, monkeypatch, capsys, command, named):
    # a write error carries no file name: the message names the destinations
    monkeypatch.chdir(tmp_path)
    inputs = _write_output_run_inputs(tmp_path)

    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    real_open = open

    def opening(path, mode="r", **kwargs):
        handle = real_open(path, mode, **kwargs)
        if mode != "x":
            return handle
        handle.close()  # the temporary exists, as it would, but takes nothing
        return Full()

    monkeypatch.setattr(cli, "open", opening, raising=False)
    assert run_cli(*OUTPUT_RUNS[command], "--out", "x.csv") == 2
    assert capsys.readouterr().err == f"error: cannot write {named}: No space left on device\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("command", ["stats", "estimate"])
def test_a_bad_trees_line_names_its_file_and_line(tmp_path, capsys, command):
    arrays, stats = tmp_path / "a.csv", tmp_path / "st.csv"
    write(arrays, "replicate,leaf,position,spacer\n1,1,1,7\n1,2,1,7\n2,1,1,8\n2,2,1,8\n")
    write(stats, "replicate,M,D\n1,1,\n2,1,\n")
    trees = tmp_path / "t.nwk"
    # line 1 is blank; line 3 lacks its ';'
    write(trees, f"\n{CHERRY}\n(1:1,2:1)\n")
    inputs = ["--arrays", str(arrays)] if command == "stats" else ["--stats", str(stats)]
    out = tmp_path / "out.csv"
    assert run_cli(command, *inputs, "--trees", str(trees), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"error: {trees}, line 3: Newick string must end with ';' (at position 9)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["stats", "estimate"])
def test_a_bad_trees_file_is_reported_after_the_arrays_checks(tmp_path, capsys, command):
    # replicate 2 has one array: stats rejects its leaf count, and estimate
    # --arrays finds replicate 3 missing, before either reads the trees file
    arrays, stats = tmp_path / "a.csv", tmp_path / "st.csv"
    write(arrays, "replicate,leaf,position,spacer\n1,1,1,7\n1,2,1,7\n2,1,1,8\n")
    write(stats, "replicate,M,D\n1,1,\n3,1,\n")
    trees = tmp_path / "t.nwk"
    write(trees, "(1:1,2:1)\n")
    inputs = ["--arrays", str(arrays)] if command == "stats" else [
        "--stats", str(stats), "--arrays", str(arrays)
    ]
    out = tmp_path / "out.csv"
    assert run_cli(command, *inputs, "--trees", str(trees), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: " + (
        "stats requires 2 or 3 leaves per replicate, found {1, 2}" if command == "stats"
        else f"replicate 3 is missing from {arrays}"
    ) + "\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["arrays", "stats", "trees", "simulate"])
def test_undecodable_bytes_name_their_file(tmp_path, capsys, bad):
    files = {
        "arrays": b"replicate,leaf,position,spacer\n1,1,1,7\n1,2,1,7\n",
        "stats": b"replicate,M,D\n1,1,\n",
        "trees": CHERRY.encode() + b"\n",
    }
    if bad in ("arrays", "stats"):
        files[bad] = files[bad].replace(b"1,", b"\xff,", 1)
    else:  # simulate reads a trees file's one Newick string as its tree
        files["trees"] = b"(\xff:1,2:1);\n"
    paths = {name: tmp_path / f"{name}.txt" for name in files}
    for name, data in files.items():
        paths[name].write_bytes(data)
    out = tmp_path / "out.csv"
    if bad == "stats":
        argv = ["estimate", "--stats", str(paths["stats"]), "--trees", str(paths["trees"])]
    elif bad == "simulate":
        argv = ["simulate", "--tree", str(paths["trees"]), "--theta", "1", "--rho", "1"]
    else:
        argv = ["stats", "--arrays", str(paths["arrays"]), "--trees", str(paths["trees"])]
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    named = paths["trees" if bad == "simulate" else bad]
    assert err.startswith(f"error: {named}: ") and "can't decode byte 0xff" in err
    assert not out.exists()


def test_stats_rejects_arrays_without_replicates(tmp_path, capsys):
    arrays = tmp_path / "arrays.csv"
    write(arrays, "replicate,leaf,position,spacer\n")
    tree = tmp_path / "tree.nwk"
    write(tree, CHERRY + "\n")
    assert run_cli(
        "stats", "--arrays", str(arrays), "--trees", str(tree), "--out", str(tmp_path / "s.csv"),
    ) == 2
    assert f"{arrays} has no replicates" in capsys.readouterr().err


def test_fig1_rejects_repeated_rho(tmp_path, capsys):
    assert run_cli(
        "replicate-fig1", "--n", "2", "--rho-grid", "1,1.0", "--replicates", "20",
        "--out", str(tmp_path / "f.csv"),
    ) == 2
    assert "rho grid values must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def _simulate_pair_files(tmp_path):
    arrays = tmp_path / "arrays.csv"
    stats = tmp_path / "stats.csv"
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", "50", "--rho", "0.5",
        "--replicates", "3", "--seed", "1", "--out", str(arrays),
    ) == 0
    assert run_cli(
        "stats", "--arrays", str(arrays), "--trees", str(arrays) + ".trees",
        "--out", str(stats),
    ) == 0
    return arrays, stats


def test_estimate_picks_trees_by_replicate_number(tmp_path):
    arrays, stats = _simulate_pair_files(tmp_path)
    trees = str(arrays) + ".trees"
    rows = read_rows(stats)
    gapped = tmp_path / "gapped.csv"
    write(gapped, "\n".join(",".join(r) for r in [rows[0]] + rows[2:]) + "\n")
    full, part = tmp_path / "full.csv", tmp_path / "part.csv"
    assert run_cli("estimate", "--stats", str(stats), "--trees", trees, "--out", str(full)) == 0
    assert run_cli("estimate", "--stats", str(gapped), "--trees", trees, "--out", str(part)) == 0
    assert read_rows(part)[1:] == read_rows(full)[2:]
    # replicate 2 is estimated on the second tree, not on the first
    _, m, d = rows[2]
    with open(trees) as fh:
        T = parse_newick(fh.read().splitlines()[1]).height
    assert read_rows(part)[1][:2] == ["2", f"{estimate_rho_pair(int(m), int(d), T).rho_hat:.12g}"]


def test_one_line_trees_file_is_parsed_once(tmp_path, monkeypatch):
    tree = tmp_path / "tree.nwk"
    write(tree, CHERRY + "\n")
    arrays, stats = tmp_path / "arrays.csv", tmp_path / "stats.csv"
    assert run_cli(
        "simulate", "--tree", str(tree), "--theta", "30", "--rho", "1",
        "--replicates", "50", "--seed", "8", "--out", str(arrays),
    ) == 0
    assert run_cli("stats", "--arrays", str(arrays), "--out", str(stats)) == 0
    # the companion file repeats the tree on 50 lines
    many, one = tmp_path / "many.csv", tmp_path / "one.csv"
    trees = str(arrays) + ".trees"
    assert run_cli("estimate", "--stats", str(stats), "--trees", trees, "--out", str(many)) == 0
    calls = []

    def counting(text):
        calls.append(text)
        return parse_newick(text)

    monkeypatch.setattr(cli, "parse_newick", counting)
    assert run_cli("estimate", "--stats", str(stats), "--trees", str(tree), "--out", str(one)) == 0
    assert len(calls) == 1
    assert one.read_bytes() == many.read_bytes()


def test_estimate_rejects_replicate_zero(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    write(stats, "replicate,M,D\n0,5,3\n")
    tree = tmp_path / "tree.nwk"
    write(tree, CHERRY + "\n")
    assert run_cli(
        "estimate", "--stats", str(stats), "--trees", str(tree),
        "--out", str(tmp_path / "e.csv"),
    ) == 2
    assert "replicate numbers start at 1, found 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "stats_text, tree, kind, n_leaves",
    [("replicate,M,D\n1,5,3\n", TRIPLE, "pair", 3),
     ("replicate,M,D1,D2,D3,D4\n1,5,3,1,1,1\n", CHERRY, "triple", 2)],
)
def test_estimate_rejects_tree_with_wrong_leaf_count(
    tmp_path, capsys, stats_text, tree, kind, n_leaves
):
    stats = tmp_path / "stats.csv"
    write(stats, stats_text)
    trees = tmp_path / "tree.nwk"
    write(trees, tree + "\n")
    assert run_cli(
        "estimate", "--stats", str(stats), "--trees", str(trees),
        "--out", str(tmp_path / "e.csv"),
    ) == 2
    err = capsys.readouterr().err
    assert f"replicate 1: {kind} statistics" in err
    assert f"its tree has {n_leaves} leaves" in err


def test_fig1_pair_boundary_writes_no_negative_zero(tmp_path):
    # low gain gives many D = 0 replicates, whose estimate is exactly 0
    out = tmp_path / "fig1.csv"
    assert run_cli(
        "replicate-fig1", "--n", "2", "--rho-grid", "1", "--theta-factor", "5",
        "--replicates", "2000", "--seed", "3", "--out", str(out),
    ) == 0
    rows = read_rows(out)
    assert any(r[2:] == ["0", "0", "false"] for r in rows[1:])
    fields = [f for path in (out, str(out) + ".summary.csv") for r in read_rows(path) for f in r]
    assert "-0" not in fields


def test_estimate_missing_replicate_in_arrays(tmp_path, capsys):
    arrays, stats = _simulate_pair_files(tmp_path)
    rows = read_rows(arrays)
    partial = tmp_path / "partial.csv"
    write(partial, "\n".join(",".join(r) for r in rows if r[0] != "2") + "\n")
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1", "--arrays", str(partial),
        "--out", str(tmp_path / "e.csv"),
    ) == 2
    assert f"replicate 2 is missing from {partial}" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("first_row", ["1,5,0", "1,5,2", "1,1,"])
def test_estimate_checks_every_replicate_against_the_arrays(tmp_path, capsys, first_row):
    # replicate 1's estimate is 0 (D = 0), positive, or skipped (M < 2):
    # its arrays are missing all the same
    arrays, stats, out = tmp_path / "arrays.csv", tmp_path / "stats.csv", tmp_path / "e.csv"
    write(arrays, "replicate,leaf,position,spacer\n2,1,1,5\n2,2,1,5\n")
    write(stats, f"replicate,M,D\n{first_row}\n2,5,3\n")
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1", "--arrays", str(arrays), "--out", str(out),
    ) == 2
    assert capsys.readouterr().err == f"error: replicate 1 is missing from {arrays}\n"
    assert not out.exists()


# each exited 0 with a wrong theta_hat, or with the arrays unchecked
# against --trees, before estimate read the arrays' runs
@pytest.mark.parametrize("stats_text, arrays_rows, tree, message", [
    # one leaf: theta_hat was rho_hat x 4 / 1
    ("replicate,M,D\n1,3,2\n", {"1": (5, 6, 7, 8)}, None,
     "replicate 1 has 1 arrays in {arrays}, but pair statistics need 2"),
    ("replicate,M,D\n1,3,2\n", {k: (5, 6, 7, 8) for k in "1234"}, None,
     "replicate 1 has 4 arrays in {arrays}, but pair statistics need 2"),
    # stats rejects the same two files
    ("replicate,M,D\n1,3,2\n", {"a": (5, 6, 7), "b": (5, 6, 8, 7)}, CHERRY,
     "leaf mismatch between files at replicate 1: {arrays} has leaves ['a', 'b'], "
     "its tree ['1', '2']"),
    # theta_hat was averaged over two leaves
    ("replicate,M,D1,D2,D3,D4\n1,3,1,0,0,1\n", {"1": (5, 6, 7), "2": (5, 6, 7)},
     "((1:0.5,2:0.5):0.5,3:1);",
     "replicate 1 has 2 arrays in {arrays}, but triple statistics need 3"),
], ids=["one-leaf", "four-leaves", "labels-not-the-trees", "triple-on-two-leaves"])
def test_estimate_rejects_arrays_that_do_not_fit_the_statistics(
    tmp_path, capsys, stats_text, arrays_rows, tree, message
):
    stats, arrays, out = tmp_path / "stats.csv", tmp_path / "arrays.csv", tmp_path / "e.csv"
    write(stats, stats_text)
    write(arrays, "replicate,leaf,position,spacer\n" + "".join(
        f"1,{leaf},{pos},{token}\n"
        for leaf, tokens in arrays_rows.items() for pos, token in enumerate(tokens, 1)
    ))
    times = ["--T", "1"]
    if tree is not None:
        write(tmp_path / "t.nwk", tree + "\n")
        times = ["--trees", str(tmp_path / "t.nwk")]
    assert run_cli(
        "estimate", "--stats", str(stats), *times, "--arrays", str(arrays), "--out", str(out),
    ) == 2
    assert capsys.readouterr().err == f"error: {message.format(arrays=arrays)}\n"
    assert not out.exists()


@pytest.mark.parametrize("stats_text, tree, times", [
    # --T 5 was dropped: rho_hat 0.405 from the tree's T = 1, not 0.0811
    ("replicate,M,D\n1,3,2\n", CHERRY, ["--T", "5"]),
    ("replicate,M,D1,D2,D3,D4\n1,3,1,0,0,1\n", TRIPLE, ["--Tprime", "0.2"]),
    ("replicate,M,D1,D2,D3,D4\n1,3,1,0,0,1\n", TRIPLE, ["--T", "2", "--Tprime", "0.2"]),
], ids=["pair-T", "triple-Tprime", "triple-T-Tprime"])
def test_estimate_rejects_times_given_with_trees(tmp_path, capsys, stats_text, tree, times):
    stats, trees, out = tmp_path / "stats.csv", tmp_path / "t.nwk", tmp_path / "e.csv"
    write(stats, stats_text)
    write(trees, tree + "\n")
    assert run_cli(
        "estimate", "--stats", str(stats), "--trees", str(trees), *times, "--out", str(out),
    ) == 2
    assert capsys.readouterr().err == (
        f"error: --T and --Tprime cannot be given with --trees {trees}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("times", ["trees", "T"])
def test_estimate_rejects_a_repeated_replicate(tmp_path, capsys, times):
    # exited 0 with two rows for replicate 1: rho_hat 0.405465108108, then 0
    stats, trees, out = tmp_path / "stats.csv", tmp_path / "t.nwk", tmp_path / "e.csv"
    write(stats, "replicate,M,D\n1,3,2\n\n1,5,0\n")
    write(trees, CHERRY + "\n")
    argv = ["--trees", str(trees)] if times == "trees" else ["--T", "1"]
    assert run_cli("estimate", "--stats", str(stats), *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: {stats}, line 4: replicate 1 already has a row on line 2\n"
    )
    assert not out.exists()


# the fuzz test's edits: times, fields and trees lines
FUZZ_TIMES = ["nan", "inf", "0", "-1", "1e-317", "0.5", "1", "2"]
FUZZ_FIELDS = ["", "0", "-1", "1", "2", "7", "9", "x", "1.5", "9223372036854775808", "1_0", " 2"]
FUZZ_TREES = [
    CHERRY, TRIPLE, "(a:1,b:1);", "(1:1,2:1)", "((1:0,2:0):1,3:1);", "(1:1,2:2);",
    "(1:1,(2:0.5,3:0.5):0.5);", "(1:1,2:1,3:1);", "(1:1e308,2:1e308);", "",
]


def _fuzz_lines(rng, lines, kind):
    """``lines`` (a header first) with up to two random edits of one of its
    rows: deleted, repeated, a field or a tree replaced, a field added or,
    in an arrays file, every row of one (replicate, leaf) deleted or
    relabelled."""
    lines = list(lines)
    for _ in range(rng.randrange(3)):
        if len(lines) < 2:
            break
        i = rng.randrange(1, len(lines))
        edit = rng.choice(["delete", "repeat", "field", "extra"] + ["leaf"] * (kind == "arrays"))
        if edit == "delete":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif kind == "trees" and edit in ("field", "extra"):
            lines[i] = rng.choice(FUZZ_TREES)
        elif edit == "field":
            cells = lines[i].split(",")
            cells[rng.randrange(len(cells))] = rng.choice(FUZZ_FIELDS)
            lines[i] = ",".join(cells)
        elif edit == "extra":
            lines[i] += ",1"
        else:  # one (replicate, leaf)'s rows, deleted or relabelled
            rep, leaf = lines[i].split(",")[:2]
            head, label = f"{rep},{leaf},", rng.choice([None, "9", "a"])
            lines = [
                ln if not ln.startswith(head) else f"{rep},{label},{ln[len(head):]}"
                for ln in lines if label or not ln.startswith(head)
            ]
    return lines


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The arrays, trees and stats lines of small coalescent:2 and
    coalescent:3 runs."""
    tmp = tmp_path_factory.mktemp("fuzz")
    inputs = {}
    for n in (2, 3):
        arrays, stats = tmp / f"a{n}.csv", tmp / f"st{n}.csv"
        assert run_cli(
            "simulate", "--tree", f"coalescent:{n}", "--theta", "12", "--rho", "1",
            "--replicates", "4", "--seed", "5", "--out", str(arrays),
        ) == 0
        assert run_cli(
            "stats", "--arrays", str(arrays), "--trees", f"{arrays}.trees", "--out", str(stats),
        ) == 0
        inputs[n] = {
            kind: read_lines(path)
            for kind, path in (("arrays", arrays), ("trees", f"{arrays}.trees"), ("stats", stats))
        }
    return inputs


def _stats_rows_read_back(arrays, trees):
    """The rows of ``pair_stats`` or ``triple_stats`` on the arrays file
    read back, each triple's cherry from its line of the trees file."""
    by_rep = {}
    for rep, leaf, _, token in filter(None, read_rows(arrays)[1:]):
        by_rep.setdefault(int(rep), {}).setdefault(leaf, []).append(int(token))
    lines = [ln.strip() for ln in read_lines(trees) if ln.strip()]
    rows = []
    for rep, leaf_arrays in sorted(by_rep.items()):
        if len(leaf_arrays) == 2:
            s = pair_stats(leaf_arrays)
            ds = [s.d]
        else:
            cherry = parse_newick(lines[0 if len(lines) == 1 else rep - 1]).cherry()
            s = triple_stats(leaf_arrays, cherry)
            ds = [s.d1, s.d2, s.d3, s.d4]
        rows.append([str(rep), str(s.m)] + ["" if d is None else str(d) for d in ds])
    return rows


def test_stats_and_estimate_exit_0_or_2_on_fuzzed_input(tmp_path, capsys, fuzz_inputs):
    # no exception escapes main, an exit 2 leaves no file and says why, each
    # stats row is the one-replicate kernel's on the files read back, and
    # each theta_hat is rho_hat x spacers / n over its replicate's n arrays
    rng = random.Random(20240517)
    estimated = summarized = 0
    for case in range(200):
        n = rng.choice((2, 3))
        files = {kind: tmp_path / f"{case}.{kind}" for kind in fuzz_inputs[n]}
        for kind, lines in fuzz_inputs[n].items():
            edited = _fuzz_lines(rng, lines, kind) if rng.random() < 0.4 else lines
            write(files[kind], "\n".join(edited) + "\n")
        trees = ["--trees", str(files["trees"])] if rng.random() < 0.5 else []
        arrays = ["--arrays", str(files["arrays"])] if rng.random() < 0.8 else []
        if rng.random() < 0.3:
            argv = ["stats", "--arrays", str(files["arrays"]), *trees]
        else:
            argv = ["estimate", "--stats", str(files["stats"]), *trees, *arrays]
            # mostly times where the statistics need them, an edited one at times
            if not (trees and rng.random() < 0.8):
                argv += ["--T", rng.choice(FUZZ_TIMES) if rng.random() < 0.3 else "1.5"]
            if n == 3 and not trees or rng.random() < 0.1:
                argv += ["--Tprime", rng.choice(FUZZ_TIMES) if rng.random() < 0.3 else "0.5"]
        out = tmp_path / f"{case}.out.csv"
        code = run_cli(*argv, "--out", str(out))
        err = capsys.readouterr().err
        assert code in (0, 2), argv
        if code == 2:
            assert err.startswith("error: ") and not out.exists(), (argv, err)
            continue
        if argv[0] == "stats":
            want = _stats_rows_read_back(files["arrays"], files["trees"])
            assert read_rows(out)[1:] == want, argv
            summarized += 1
            continue
        if not arrays:
            continue
        estimated += 1
        rows = read_rows(files["arrays"])[1:]
        for row in read_rows(out)[1:]:
            rep, rho_hat, theta_hat = int(row[0]), row[1], row[2]
            assert (theta_hat != "") == (rho_hat not in ("", "0")), (argv, row)
            if theta_hat:
                spacers = sum(1 for r in rows if r and int(r[0]) == rep)
                assert float(theta_hat) == pytest.approx(float(rho_hat) * spacers / n, rel=1e-10)
    assert estimated >= 40 and summarized >= 20  # the theta_hat and stats checks ran


# the fuzz test's numbers for theta, rho, times and rho grid values
FUZZ_NUMBERS = ["nan", "inf", "-1", "0", "1e-320", "0.5", "1", "3"]


def _accepted_ratio(theta: str, rho: str) -> float:
    """theta / rho where :class:`ModelParams` accepts the pair, else 0."""
    theta, rho = float(theta), float(rho)
    ok = 0 <= theta < math.inf and 0 < rho < math.inf and theta / rho < math.inf
    return theta / rho if ok else 0.0


def _fuzz_run_argv(rng, command):
    """One argument list of ``command`` (simulate, validate or
    replicate-fig1), each value an ordinary one or, at times, one of
    FUZZ_NUMBERS or the option's own edge values; None where theta / rho
    would be accepted above 100, which sets the number of root spacers and
    so the memory a run takes."""
    def pick(ordinary, edges=FUZZ_NUMBERS):
        return rng.choice(edges) if rng.random() < 0.35 else ordinary

    counts = ["-1", "0", "1"]  # replicate and trial counts are ints
    if command == "replicate-fig1":
        grid_values = FUZZ_NUMBERS + ["1e300", ",", "1,1"]
        grid = ",".join(pick("1", grid_values) for _ in range(rng.randint(1, 2)))
        factor = pick("10")
        if _accepted_ratio(factor, "1") > 100:
            return None
        return [
            # "=": argparse takes a grid such as "-1,1" for an option
            command, "--n", rng.choice(["2", "3"]), "--rho-grid=" + grid,
            "--theta-factor", factor, "--replicates", pick("5", counts),
            "--seed", "3", "--out", "o.csv",
        ]
    theta, rho = pick("50"), pick("1", FUZZ_NUMBERS + ["1e300"])
    if _accepted_ratio(theta, rho) > 100:
        return None
    if command == "simulate":
        tree = rng.choice(["coalescent:2", "coalescent:3", "tree.nwk"])
        if rng.random() < 0.35:
            tree = rng.choice(["coalescent:0", "coalescent:x", "coalescent:4194305"])
        return [
            command, "--tree", tree, "--theta", theta, "--rho", rho,
            "--replicates", pick("5", counts), "--seed", "3", "--out", "o.csv",
        ]
    tprime = ["--Tprime", pick("0.5")] if rng.random() < 0.5 else []
    return [
        command, "--rho", rho, "--theta", theta, "--T", pick("1"), *tprime,
        "--trials", pick("1000", counts + ["999"]), "--seed", "3",
    ]


def test_simulate_validate_and_fig1_exit_0_2_or_3_on_fuzzed_numbers(
    tmp_path, monkeypatch, capsys
):
    # no exception escapes main, exit 3 is validate's alone, and an exit 2
    # says why and leaves no output; huge sizes reach only the checks that
    # reject them
    monkeypatch.chdir(tmp_path)
    rng = random.Random(20261020)
    write(tmp_path / "tree.nwk", TRIPLE + "\n")
    codes = []
    for command in ["simulate", "validate", "replicate-fig1"] * 12:
        argv = None
        while argv is None:
            argv = _fuzz_run_argv(rng, command)
        code = run_cli(*argv)
        out, err = capsys.readouterr()
        assert code in ((0, 2, 3) if command == "validate" else (0, 2)), argv
        outputs = sorted(p.name for p in tmp_path.iterdir() if p.name != "tree.nwk")
        if code == 2:
            assert err.startswith("error: ") and outputs == [], (argv, err)
        elif command != "validate":
            second = "o.csv.trees" if command == "simulate" else "o.csv.summary.csv"
            assert outputs == ["o.csv", second], argv
            for name in outputs:
                os.remove(name)
        codes.append(code)
    assert codes.count(0) >= 3 and codes.count(2) >= 3  # both ways out were taken


def test_simulate_on_deep_caterpillar(tmp_path):
    # 2000 leaves, one per level: far deeper than the recursion limit
    canonical = reordered = "(1:1,2:1)"
    for k in range(3, 2001):
        canonical = f"({canonical}:1,{k}:{k - 1})"
        reordered = f"({k}:{k - 1},{reordered}:1)"
    canonical += ";"
    tree = parse_newick(reordered + ";")
    assert len(tree.leaves) == 2000 and tree.height == 1999.0
    assert to_newick(tree) == canonical
    assert to_newick(parse_newick(canonical)) == canonical
    path = tmp_path / "caterpillar.nwk"
    write(path, canonical)
    assert run_cli(
        "simulate", "--tree", str(path), "--theta", "1", "--rho", "1",
        "--replicates", "3", "--seed", "0", "--out", str(tmp_path / "a.csv"),
    ) == 0
    # one row per block: three blocks of the one topology
    assert read_lines(tmp_path / "a.csv.trees") == [canonical] * 3


def test_package_exports_resolve():
    assert [name for name in spacerloss.__all__ if not hasattr(spacerloss, name)] == []


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, rho_grid=(1.0,), replicates=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=2, rho_grid=(-1.0,), replicates=10, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(n=2, rho_grid=(0.5, 1.0, 0.5), replicates=10, seed=0)
    # NaN and inf pass a test of r <= 0, and two NaNs count as distinct
    for grid in [(math.inf,), (math.nan,), (math.nan, math.nan), (1.0, -math.inf)]:
        with pytest.raises(ValueError, match="rho grid values must be positive and finite"):
            ExperimentConfig(n=2, rho_grid=grid, replicates=10, seed=0)
    for factor in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="theta factor must be nonnegative and finite"):
            ExperimentConfig(n=2, rho_grid=(1.0,), replicates=10, seed=0, theta_factor=factor)
    # each is finite, their product theta is not
    with pytest.raises(
        ValueError, match=r"theta = theta factor 100 x rho grid value 1e\+307 is not finite"
    ):
        ExperimentConfig(n=2, rho_grid=(1.0, 1e307), replicates=10, seed=0)


def _run_fig1(tmp_path, name, *argv):
    out = tmp_path / name
    proc = subprocess.run(
        [
            sys.executable, "-m", "spacerloss.cli", "replicate-fig1", *argv,
            "--seed", "9", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return read_rows(out)


@pytest.mark.parametrize("n", ["2", "3"])
def test_fig1_rows_do_not_depend_on_replicate_count(tmp_path, n):
    # 100 replicates estimate 100 rows of the first block, 1000 all 512
    grid = ("--n", n, "--rho-grid", "0.5,1")
    a = _run_fig1(tmp_path, "a.csv", *grid, "--replicates", "100")
    b = _run_fig1(tmp_path, "b.csv", *grid, "--replicates", "1000")
    assert a[0] == ["rho", "replicate", "rho_hat", "ratio", "skipped"]
    for rho in ("0.5", "1"):
        rows_a = [r for r in a[1:] if r[0] == rho]
        rows_b = [r for r in b[1:] if r[0] == rho]
        assert len(rows_a) == 100 and len(rows_b) == 1000
        assert rows_a == rows_b[:100]


@pytest.mark.parametrize(
    "argv",
    [
        # every root is empty
        ("--n", "2", "--rho-grid", "1", "--theta-factor", "0", "--replicates", "20"),
        # every spacer is lost
        ("--n", "3", "--rho-grid", "1e6", "--replicates", "20"),
    ],
)
def test_fig1_blocks_without_equal_spacers_are_skipped(tmp_path, capsys, argv):
    out = tmp_path / "fig1.csv"
    assert run_cli("replicate-fig1", *argv, "--seed", "4", "--out", str(out)) == 0
    assert "all 20 replicates skipped" in capsys.readouterr().out
    rows = read_rows(out)
    assert len(rows) == 21 and all(r[2:] == ["", "", "true"] for r in rows[1:])
    summary = read_rows(str(out) + ".summary.csv")
    assert summary[1][-2:] == ["0", "20"]


@pytest.mark.parametrize("n", [2, 3])
def test_fig1_block_estimates_each_rows_token_statistics(monkeypatch, n):
    rho, count = 0.8, 200
    sim, epochs = cli._coalescent_block(n, rho, 30.0, np.random.default_rng(5))
    T = epochs.sum(axis=1)
    calls = []
    mle = {2: pair_mle, 3: triple_mle}[n]

    def recording(*args):
        calls.append(args)
        return mle(*args)

    monkeypatch.setattr(cli, mle.__name__, recording)
    rho_hat, boundary, suspect = cli._fig1_block(n, rho, 30.0, np.random.default_rng(5), count)
    assert rho_hat.shape == boundary.shape == suspect.shape == (count,)
    expected = []  # (m, D or D1..D4, T[, T']) of each estimated row, in row order
    for b in range(count):
        arrays = sim.arrays(b)
        res = None
        if n == 2:
            st = pair_stats(arrays)
            if st.d is not None:
                expected.append((st.m, st.d, T[b]))
                res = estimate_rho_pair(*expected[-1])
        else:
            st = triple_stats(arrays, ("1", "2"))
            if st.d1 is not None:
                expected.append((st.m, st.d1, st.d2, st.d3, st.d4, T[b], epochs[b, 0]))
                res = estimate_rho_triple(*expected[-1])
        if res is None:
            assert math.isnan(rho_hat[b]) and not boundary[b] and not suspect[b]
        else:
            assert math.isclose(rho_hat[b], res.rho_hat, rel_tol=1e-12, abs_tol=0.0)
            assert boundary[b] == res.boundary
            assert suspect[b] == res.diagnostics.get("multimodal_suspect", False)
    # one batched call for the whole block
    [(m, d, *times)] = calls
    want = np.array(expected)
    k = want.shape[1] - 1 - len(times)  # statistics per row
    assert np.array_equal(m, want[:, 0]) and np.array_equal(np.reshape(d, (-1, k)), want[:, 1:1 + k])
    assert np.array_equal(np.column_stack(times), want[:, 1 + k:])
    assert not np.isnan(rho_hat).all()


def test_fig1_reports_estimator_diagnostics(tmp_path, capsys):
    # low gain gives many pair boundaries (D = 0) among the used replicates
    out = tmp_path / "fig1.csv"
    assert run_cli(
        "replicate-fig1", "--n", "2", "--rho-grid", "1,1e6", "--theta-factor", "5",
        "--replicates", "300", "--seed", "3", "--out", str(out),
    ) == 0
    captured = capsys.readouterr()
    rows = [r for r in read_rows(out)[1:] if r[0] == "1"]
    used = sum(r[4] == "false" for r in rows)
    zero = sum(r[2] == "0" for r in rows)
    assert 0 < zero < used
    assert captured.err.splitlines() == [
        f"rho=1: of {used} used replicates, {zero} boundary, 0 multimodal_suspect",
        "rho=1000000: of 0 used replicates, 0 boundary, 0 multimodal_suspect",
    ]
    assert "boundary" not in captured.out


def test_fig1_triple_diagnostics_count_the_estimators_flags(monkeypatch, capsys, tmp_path):
    flags = []

    def recording(*args):
        fit = triple_mle(*args)
        flags.append((fit.boundary.sum(), fit.multimodal_suspect.sum(), len(fit.rho_hat)))
        return fit

    monkeypatch.setattr(cli, "triple_mle", recording)
    assert run_cli(
        "replicate-fig1", "--n", "3", "--rho-grid", "2", "--theta-factor", "3",
        "--replicates", "600", "--seed", "1", "--out", str(tmp_path / "fig1.csv"),
    ) == 0
    boundary, suspect, used = (sum(int(f[i]) for f in flags) for i in range(3))
    assert len(flags) == 2 and boundary > 0
    assert capsys.readouterr().err == (
        f"rho=2: of {used} used replicates, {boundary} boundary, {suspect} multimodal_suspect\n"
    )


def test_fig1_block_mean_equal_spacers_match_the_coalescent():
    # the root holds Poi(theta/rho) spacers; each reaches every leaf with
    # probability e^{-rho L}, L the total branch length: E[e^{-2 rho T2}] =
    # 1/(1+2 rho) and E[e^{-3 rho T3}] = 3/(3+3 rho)
    rho, theta_factor = 0.5, 100.0
    for n, factor in ((2, 1 / (1 + 2 * rho)), (3, 3 / (3 + 3 * rho) / (1 + 2 * rho))):
        ms = np.concatenate([
            interior_totals(sim.fates(sim.tree.root), n)[0]
            for sim, _ in (
                cli._coalescent_block(n, rho, theta_factor, np.random.default_rng(k))
                for k in range(10)
            )
        ])
        want = theta_factor * factor
        z = (ms.mean() - want) / (ms.std(ddof=1) / math.sqrt(len(ms)))
        assert abs(z) < 4.0, (n, ms.mean(), want)


_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy or of a scipy module raises
from spacerloss.cli import main

steps = [
    ["simulate", "--tree", "coalescent:{n}", "--theta", "20", "--rho", "1",
     "--replicates", "30", "--seed", "1", "--out", "a{n}.csv"],
    ["stats", "--arrays", "a{n}.csv", "--trees", "a{n}.csv.trees", "--out", "s{n}.csv"],
    ["estimate", "--stats", "s{n}.csv", "--trees", "a{n}.csv.trees", "--arrays", "a{n}.csv",
     "--out", "e{n}.csv"],
    ["replicate-fig1", "--n", "{n}", "--rho-grid", "0.5,2", "--replicates", "100",
     "--out", "f{n}.csv"],
]
validate = {
    2: ["validate", "--rho", "1", "--theta", "100", "--T", "0.5", "--trials", "1000",
        "--seed", "2"],
    3: ["validate", "--rho", "0.693", "--theta", "69.3", "--T", "1", "--Tprime", "0.5",
        "--trials", "1000", "--seed", "3"],
}
for n in (2, 3):
    for step in steps + [validate[n]]:
        argv = [arg.format(n=n) for arg in step]
        assert main(argv) == 0, argv
print("ok")
"""


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is the tests' oracle, not a runtime dependency: with its import
    # made to fail, all five commands, a pair and a triple validate among
    # them, exit 0
    package_root = os.path.dirname(os.path.dirname(spacerloss.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-c", _NO_SCIPY_RUN],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
    assert "Warning" not in proc.stderr

import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spacerloss
from spacerloss import cli
from spacerloss.cli import ExperimentConfig, main
from spacerloss.equal_spacers import interior_totals, pair_stats, triple_stats
from spacerloss.estimators import (
    estimate_rho_pair, estimate_rho_triple, estimate_theta_moment, triple_mle
)
from spacerloss.process import ModelParams, mix_seed, simulate_tree, splitmix64
from spacerloss.tree import parse_newick, sample_coalescent, to_newick

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


@st.composite
def pair_runs(draw):
    """(theta, rho): rho log-uniform on [1e-2, 1e3] and theta up to 1e3,
    with at most 300 root spacers expected."""
    rho = 10.0 ** draw(st.floats(-2.0, 3.0))
    return draw(st.floats(0.0, min(1e3, 300 * rho))), rho


@settings(max_examples=40, deadline=None)
@given(pair_runs(), st.integers(1, 4), st.integers(0, 2**32))
@example((0.0, 1.0), 3, 0)  # every array is empty
@example((1.0, 1.0), 50, 3)  # some replicates have one empty leaf
@example((1e3, 1e3), 4, 1)  # rho T passes MAX_RHO_T
@example((100.0, 1.0), 4, 2)  # every replicate estimable
def test_simulate_stats_estimate_roundtrip_coalescent_pair(
    tmp_path_factory, run, replicates, seed
):
    theta, rho = run
    tmp = tmp_path_factory.mktemp("roundtrip")
    arrays, stats, est = (tmp / f for f in ("arrays.csv", "stats.csv", "est.csv"))
    trees = str(arrays) + ".trees"
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", repr(theta), "--rho", repr(rho),
        "--replicates", str(replicates), "--seed", str(seed), "--out", str(arrays),
    ) == 0
    # each replicate rebuilt in memory as the cli docstring seeds it; the
    # trees file keeps 12 significant digits of each branch length
    reps = {}
    for rep in range(1, replicates + 1):
        t = sample_coalescent(2, mix_seed(seed, 1, rep))
        sim = simulate_tree(t, ModelParams(theta=theta, rho=rho), mix_seed(seed, 0, rep))
        reps[rep] = (sim.arrays, parse_newick(to_newick(t)).height)
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
        a, T = reps[rep]
        ps = pair_stats(a)
        want_stats.append([str(rep), str(ps.m), "" if ps.d is None else str(ps.d)])
        if ps.d is None:
            want_est.append([str(rep), "", "", "", "", "M<2"])
            continue
        res = estimate_rho_pair(ps.m, ps.d, T)
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


def test_malformed_newick_exit_code(tmp_path):
    tree = tmp_path / "bad.nwk"
    write(tree, "(1:1,2:2,3:3")
    assert run_cli(
        "simulate", "--tree", str(tree), "--theta", "1", "--rho", "1",
        "--replicates", "1", "--seed", "0", "--out", str(tmp_path / "a.csv"),
    ) == 2


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


def test_estimate_rejects_moments_method(tmp_path):
    stats = tmp_path / "stats.csv"
    write(stats, "replicate,M,D\n1,5,3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "estimate", "--stats", str(stats), "--T", "1", "--method", "moments",
            "--out", str(tmp_path / "e.csv"),
        )
    assert exc.value.code == 2


@pytest.mark.parametrize("bad_row", ["1,1", "1,1,x,5", "1,1,1,"])
def test_stats_rejects_malformed_arrays_row(tmp_path, capsys, bad_row):
    arrays = tmp_path / "arrays.csv"
    write(arrays, f"replicate,leaf,position,spacer\n1,1,1,5\n{bad_row}\n")
    assert run_cli("stats", "--arrays", str(arrays), "--out", str(tmp_path / "s.csv")) == 2
    assert f"{arrays}, line 3: expected integers" in capsys.readouterr().err


# statistics are empty exactly when M < 2: not when M >= 2, never only some
@pytest.mark.parametrize(
    "bad_row", ["1,5", "1,x,3", "1,5,abc", "1,5,", "1,5,,1,2,3", "1,1,,1,2,3"]
)
def test_estimate_rejects_malformed_stats_row(tmp_path, capsys, bad_row):
    stats = tmp_path / "stats.csv"
    header = "replicate,M,D" if bad_row.count(",") < 3 else "replicate,M,D1,D2,D3,D4"
    write(stats, f"{header}\n{bad_row}\n")
    out = tmp_path / "e.csv"
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1", "--Tprime", "0.5", "--out", str(out),
    ) == 2
    assert f"{stats}, line 2: expected integers" in capsys.readouterr().err
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

    monkeypatch.setattr(cli, "simulate_tree", failing)
    assert run_cli(
        "simulate", "--tree", "coalescent:2", "--theta", "1", "--rho", "1",
        "--out", str(out), "--trees-out", str(tmp_path / "t.nwk"),
    ) == 2
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
        "--replicates", "1", "--seed", "0", "--out", str(tmp_path / "a.csv"),
    ) == 0


def test_package_exports_resolve():
    assert [name for name in spacerloss.__all__ if not hasattr(spacerloss, name)] == []


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(n=4, rho_grid=(1.0,), replicates=10, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(n=2, rho_grid=(-1.0,), replicates=10, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(n=2, rho_grid=(0.5, 1.0, 0.5), replicates=10, seed=0)


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

    def recording(*args):
        calls.append(args)
        return triple_mle(*args)

    monkeypatch.setattr(cli, "triple_mle", recording)
    rho_hat, boundary, suspect = cli._fig1_block(n, rho, 30.0, np.random.default_rng(5), count)
    assert rho_hat.shape == boundary.shape == suspect.shape == (count,)
    expected = []  # (m, D1..D4, T, T') of each estimated row, in row order
    for b in range(count):
        arrays = sim.arrays(b)
        if n == 2:
            st = pair_stats(arrays)
            res = None if st.d is None else estimate_rho_pair(st.m, st.d, T[b])
        else:
            st = triple_stats(arrays, ("1", "2"))
            res = None
            if st.d1 is not None:
                expected.append((st.m, st.d1, st.d2, st.d3, st.d4, T[b], epochs[b, 0]))
                res = estimate_rho_triple(*expected[-1])
        if res is None:
            assert math.isnan(rho_hat[b]) and not boundary[b] and not suspect[b]
        else:
            assert math.isclose(rho_hat[b], res.rho_hat, rel_tol=1e-12, abs_tol=0.0)
            assert boundary[b] == res.boundary
            assert suspect[b] == res.diagnostics.get("multimodal_suspect", False)
    if n == 2:
        assert calls == []
    else:
        # one batched call for the whole block
        [(m, d, T_arg, Tp_arg)] = calls
        want = np.array(expected)
        assert np.array_equal(m, want[:, 0]) and np.array_equal(d, want[:, 1:5])
        assert np.array_equal(T_arg, want[:, 5]) and np.array_equal(Tp_arg, want[:, 6])
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
import spacerloss
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
assert "scipy" not in sys.modules
for n in (2, 3):
    for step in steps:
        argv = [arg.format(n=n) for arg in step]
        assert main(argv) == 0, argv
        assert "scipy" not in sys.modules, argv
assert main(["validate", "--rho", "1", "--theta", "100", "--T", "0.5", "--trials", "1000",
             "--seed", "2"]) == 0
assert "scipy.special" in sys.modules
print("ok")
"""


def test_cli_commands_run_without_loading_scipy(tmp_path):
    # every command but validate runs on numpy alone; validate loads scipy
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

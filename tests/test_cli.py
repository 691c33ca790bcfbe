import csv
import os
import subprocess
import sys

import pytest

import spacerloss
from spacerloss.cli import ExperimentConfig, main
from spacerloss.process import mix_seed, splitmix64
from spacerloss.tree import parse_newick, to_newick

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


def test_stats_triple_without_trees_fails(tmp_path):
    tree = tmp_path / "tree.nwk"
    write(tree, TRIPLE)
    arrays = tmp_path / "arrays.csv"
    run_cli(
        "simulate", "--tree", str(tree), "--theta", "10", "--rho", "1",
        "--replicates", "1", "--seed", "0", "--out", str(arrays),
    )
    assert run_cli("stats", "--arrays", str(arrays), "--out", str(tmp_path / "s.csv")) == 2


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


def test_estimate_method_mismatch(tmp_path):
    stats = tmp_path / "stats.csv"
    write(stats, "replicate,M,D\n1,5,3\n")
    assert run_cli(
        "estimate", "--stats", str(stats), "--T", "1", "--method", "triple",
        "--out", str(tmp_path / "e.csv"),
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


def test_estimate_rejects_moments_method(tmp_path):
    stats = tmp_path / "stats.csv"
    write(stats, "replicate,M,D\n1,5,3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "estimate", "--stats", str(stats), "--T", "1", "--method", "moments",
            "--out", str(tmp_path / "e.csv"),
        )
    assert exc.value.code == 2


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
    assert read_rows(part)[1][:2] == ["2", "0.580190163009"]


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


def _run_fig1(tmp_path, name, threads):
    out = tmp_path / name
    env = dict(os.environ, SPACERLOSS_THREADS=str(threads))
    proc = subprocess.run(
        [
            sys.executable, "-m", "spacerloss.cli", "replicate-fig1",
            "--n", "2", "--rho-grid", "0.5,1", "--replicates", "40",
            "--seed", "9", "--out", str(out),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out, "rb") as fh:
        return fh.read()


def test_fig1_experiment_bytes_identical_across_thread_counts(tmp_path):
    a = _run_fig1(tmp_path, "a.csv", threads=1)
    b = _run_fig1(tmp_path, "b.csv", threads=3)
    assert a == b
    assert a.startswith(b"rho,replicate,rho_hat,ratio,skipped")

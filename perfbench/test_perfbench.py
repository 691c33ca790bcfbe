"""Self-tests of the benchmark: a one-second run of every workload passes
its checks, and each correctness check trips on a deliberately corrupted
output.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from spacerloss.cli import main  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_checks(workload, trace):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["attempted"] >= 1
    if workload != "file-pipeline":  # its low-gain batch fails at baseline
        assert result["failed"] == 0, out.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "fig1-n2", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


# -- corrupted outputs trip the checks -------------------------------------

def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def set_cell(row, col, value):
    def edit(rows):
        rows[row][rows[0].index(col)] = value
    return edit


@pytest.fixture
def fig1_out(tmp_path):
    out = str(tmp_path / "fig1.csv")
    assert main(["replicate-fig1", "--n", "2", "--rho-grid", "0.5,1", "--replicates", "40",
                 "--seed", "5", "--out", out]) == 0
    assert wl.check_fig1(out, (0.5, 1.0), 40) == []
    return out


def first_used_row(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return next(i for i, r in enumerate(rows) if r[-1] == "false")


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: rewrite_csv(out, set_cell(first_used_row(out), "rho_hat", "-0.5")),
     "not finite and >= 0"),
    (lambda out: rewrite_csv(out, set_cell(first_used_row(out), "rho_hat", "nan")),
     "not finite and >= 0"),
    (lambda out: rewrite_csv(out, set_cell(first_used_row(out), "ratio", "7")),
     "ratio"),
    (lambda out: rewrite_csv(out + ".summary.csv", set_cell(1, "q0.5", "0.123")),
     "does not match the rows"),
    (lambda out: rewrite_csv(out + ".summary.csv", set_cell(1, "skipped", "99")),
     "used + skipped != attempted"),
    (lambda out: rewrite_csv(out, lambda rows: rows.pop()),
     "replicate numbers"),
])
def test_fig1_check_trips(fig1_out, corrupt, message):
    corrupt(fig1_out)
    problems = wl.check_fig1(fig1_out, (0.5, 1.0), 40)
    assert any(message in p for p in problems), problems


def test_fig1_median_band_trips(tmp_path):
    out = str(tmp_path / "fig1.csv")
    # tell the check the true rate was 4x lower than simulated
    assert main(["replicate-fig1", "--n", "2", "--rho-grid", "2", "--replicates", "40",
                 "--seed", "5", "--out", out]) == 0

    def relabel(rows):
        for r in rows[1:]:
            r[0] = "0.5"
    rewrite_csv(out, relabel)
    rewrite_csv(out + ".summary.csv", relabel)
    problems = wl.check_fig1(out, (0.5,), 40)
    assert any("median ratio" in p for p in problems), problems


@pytest.fixture
def batch(tmp_path):
    argvs = wl.FilePipeline.batch_argvs(50.0, 0.5, 12, 9, str(tmp_path / "b-"))
    for argv in argvs:
        assert main(argv) == 0
    files = wl._batch_files(argvs)
    assert wl.check_pipeline(*files, 12) == []
    return files


def unshare_replicate_1(rows):
    """Give leaf 2 of replicate 1 tokens no other array has."""
    for i, r in enumerate(rows):
        if r[:2] == ["1", "2"]:
            r[3] = str(-1 - i)


def first_estimated_row(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return next(i for i, r in enumerate(rows) if i and r[1])


@pytest.mark.parametrize("corrupt, message", [
    (lambda f: rewrite_csv(f[2], set_cell(1, "D", "12345")), "stats"),
    (lambda f: rewrite_csv(f[2], set_cell(1, "M", "1")), "stats"),
    (lambda f: rewrite_csv(f[3], set_cell(first_estimated_row(f[3]), "rho_hat", "3.5")),
     "recomputed"),
    (lambda f: rewrite_csv(f[3], set_cell(first_estimated_row(f[3]), "theta_hat", "1")),
     "theta_hat"),
    (lambda f: rewrite_csv(f[3], set_cell(first_estimated_row(f[3]), "boundary", "true")),
     "recomputed"),
    (lambda f: rewrite_csv(f[0], unshare_replicate_1), "stats"),
    (lambda f: Path(f[1]).write_text(
        Path(f[1]).read_text().replace(":", ":0", 1)), "round-trip"),
    (lambda f: rewrite_csv(f[2], lambda rows: rows.pop()), "replicate numbers"),
])
def test_pipeline_check_trips(batch, corrupt, message):
    corrupt(batch)
    problems = wl.check_pipeline(*batch, 12)
    assert any(message in p for p in problems), problems


def test_pipeline_failed_step_counts_batch_as_failed():
    workload = wl.WORKLOADS["file-pipeline"]
    spec = {"samples": [[[["simulate"], ["stats"], ["estimate"]]]]}
    steps = [{"argv": ["simulate"], "rc": 0}, {"argv": ["stats"], "rc": 2}]
    (outcome,) = workload.check(spec, [{"batches": [steps]}])
    assert (outcome.attempted, outcome.completed) == (workload.replicates, 0)
    assert outcome.errors and not outcome.problems


@pytest.fixture
def general_record():
    record = wl.general_replicate(NullTracer(), 6, 21, 22, 0)
    assert record["m"] >= 3
    assert wl.check_general(record) == []
    return json.loads(json.dumps(record))  # as the job writes it


def test_general_check_trips_on_wrong_logpmf(general_record):
    general_record["logpmf"][1][0] += 1e-6
    assert any("independent" in p for p in wl.check_general(general_record))


def test_general_check_trips_on_full_leaf_set(general_record):
    general_record["gaps"][0].append([[str(i) for i in range(1, 7)], 1])
    assert any("proper subsets" in p for p in wl.check_general(general_record))


def test_general_check_trips_on_missing_gap(general_record):
    general_record["gaps"].pop()
    assert any("interior gaps" in p for p in wl.check_general(general_record))


def test_independent_logpmf_matches_the_law_on_a_cherry():
    import spacerloss as sl

    tree = sl.parse_newick("(1:1.0,2:1.0);")
    law = sl.GeneralGapLaw(tree, 0.7)
    counts = {frozenset({"1"}): 2, frozenset({"2"}): 1}
    assert wl.independent_logpmf(tree, 0.7, counts) == pytest.approx(law.logpmf(counts))
    assert law.logpmf(counts) == pytest.approx(sl.pair_gap_logpmf(2, 1, 0.7, 1.0))


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("replicate", 7):
        with tr.span("tree.a"):
            pass
        with tr.span("tree.a"):
            pass
    # replace the clock readings with known values
    tr.spans[0][1:3] = [0.0, 10.0]
    tr.spans[1][1:3] = [1.0, 3.0]
    tr.spans[2][1:3] = [4.0, 8.0]
    times = tr.self_times()
    assert times["replicate"] == (4.0, 1)
    assert times["tree.a"] == (6.0, 2)
    assert [s[4] for s in tr.spans] == [7, 7, 7]  # replicate id inherited
    assert [s[3] for s in tr.spans] == [-1, 0, 0]


def test_counting_calls_restores_the_functions():
    import spacerloss as sl

    original = wl.sl_estimators.pair_conditional_loglik
    tr = Tracer()
    with wl.counting_calls(tr):
        sl.estimate_rho_pair(5, 3, 1.0)
    assert tr.counts["estimators.loglik_calls"] == 1
    assert wl.sl_estimators.pair_conditional_loglik is original

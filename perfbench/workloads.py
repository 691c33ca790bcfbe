"""The benchmark's workloads: job inputs, correctness checks, and the
serial replay that the traced run times layer by layer.

Every workload is driven only through ``spacerloss.cli.main`` and the
public functions of the package.  Inputs are derived from the benchmark
seed with the benchmark's own seed derivation (:func:`derive_seed`), so
the same seed gives the same inputs whatever the program does with its
random streams.  The checks compare outputs with invariants and with
in-process recomputation, never with stored values, so they hold when
the program's random streams change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

import spacerloss as sl
import spacerloss.estimators as sl_estimators
import spacerloss.likelihood as sl_likelihood
from spans import NullTracer

QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)
# the fig1 median ratio rho_hat / rho must lie in this band
MEDIAN_BAND = (0.5, 2.0)
# relative tolerance for numbers the CLI writes with 12 significant digits
RTOL = 1e-9

# general-n: theta / rho, and the profiled rho values as multiples of
# 1 / (total tree length)
GENERAL_GAIN = 30.0
GENERAL_RHO_FACTORS = (0.5, 1.0, 2.0)

# replay inputs use this key so they never coincide with a job's inputs
REPLAY_KEY = 1 << 20
# samples listed per job; a job stops at its deadline long before the last
MAX_SAMPLES = 100


def derive_seed(*keys: int) -> int:
    """A 63-bit seed from nonnegative integer keys."""
    state = np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)
    return int(state[0]) >> 1


def workload_key(name: str) -> int:
    return zlib.crc32(name.encode())


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def read_csv(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        return list(reader.fieldnames or []), rows


def read_arrays(path: str) -> dict[int, dict[str, tuple[int, ...]]]:
    """Arrays CSV -> {replicate: {leaf: tuple of tokens}}; raises
    ValueError on a bad header or non-contiguous positions."""
    header, rows = read_csv(path)
    if header != ["replicate", "leaf", "position", "spacer"]:
        raise ValueError(f"arrays header {header}")
    out: dict[int, dict[str, list[int]]] = {}
    for row in rows:
        arr = out.setdefault(int(row["replicate"]), {}).setdefault(row["leaf"], [])
        if int(row["position"]) != len(arr) + 1:
            raise ValueError(f"non-contiguous positions in replicate {row['replicate']}")
        arr.append(int(row["spacer"]))
    return {rep: {k: tuple(v) for k, v in leaves.items()} for rep, leaves in out.items()}


def read_lines(path: str) -> list[str]:
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


@dataclass
class Outcome:
    """Replicates attempted and completed, plus what went wrong.

    ``problems`` are failed correctness checks (wrong output); ``errors``
    are nonzero exits and escaped exceptions.  Both count the affected
    replicates as failed.
    """

    attempted: int = 0
    completed: int = 0
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, attempted: int, problems=(), errors=()) -> None:
        self.attempted += attempted
        if not problems and not errors:
            self.completed += attempted
        self.problems.extend(problems)
        self.errors.extend(errors)


# -- load counting ------------------------------------------------------

@contextlib.contextmanager
def counting_calls(tracer):
    """Count calls of the public likelihood functions that the estimators
    and the general law look up at module level, by wrapping them.  Does
    nothing for a :class:`NullTracer`."""
    if not tracer.enabled:
        yield
        return
    targets = [
        (sl_estimators, "pair_conditional_loglik", "estimators.loglik_calls"),
        (sl_estimators, "triple_conditional_loglik", "estimators.loglik_calls"),
        (sl_likelihood, "p_exact_subset", "likelihood.p_exact_subset_calls"),
    ]
    saved = []
    for module, attr, counter in targets:
        original = getattr(module, attr)

        def wrapper(*args, _f=original, _c=counter, **kwargs):
            tracer.counts[_c] += 1
            return _f(*args, **kwargs)

        saved.append((module, attr, original))
        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# -- per-replicate library steps, shared by jobs and the traced replay --

def fig1_replicate(tr, n: int, rho: float, theta_factor: float,
                   tree_seed: int, sim_seed: int, rep_id) -> None:
    """One recovery-study replicate through the public functions, as
    ``replicate-fig1`` runs it; the estimate is skipped when M < 2."""
    with tr.span("replicate", rep_id):
        with tr.span("tree.sample_coalescent"):
            t = sl.sample_coalescent(n, tree_seed)
        with tr.span("process.simulate_tree"):
            sim = sl.simulate_tree(t, sl.ModelParams(theta=theta_factor * rho, rho=rho), sim_seed)
        tr.count("process.replicates")
        tr.count("process.spacers", sum(len(a) for a in sim.arrays.values()))
        if n == 2:
            with tr.span("equal_spacers.stats"):
                st = sl.pair_stats(sim.arrays)
            _estimate(tr, st.m, lambda: sl.estimate_rho_pair(st.m, st.d, t.height))
            return
        cherry = t.cherry()
        T_prime = t.length[t.leaf_ids[cherry[0]]]
        with tr.span("equal_spacers.stats"):
            st3 = sl.triple_stats(sim.arrays, cherry)
        _estimate(tr, st3.m, lambda: sl.estimate_rho_triple(
            st3.m, st3.d1, st3.d2, st3.d3, st3.d4, t.height, T_prime))


def _estimate(tr, m: int, call) -> None:
    tr.count("equal_spacers.calls")
    tr.count("equal_spacers.m", m)
    if m < 2:
        return
    tr.count("equal_spacers.used")
    with tr.span("estimators.estimate"):
        res = call()
    tr.count("estimators.estimates")
    tr.count("estimators.boundary", bool(res.boundary))
    tr.count("estimators.multimodal_suspect", bool(res.diagnostics.get("multimodal_suspect")))


def general_replicate(tr, n: int, tree_seed: int, sim_seed: int, rep_id) -> dict:
    """Simulate on an n-leaf coalescent tree, decompose into gaps and
    profile the interior-gap log-likelihood over a few rho values."""
    with tr.span("replicate", rep_id):
        with tr.span("tree.sample_coalescent"):
            t = sl.sample_coalescent(n, tree_seed)
        rho0 = 1.0 / sum(t.length)  # rho * total tree length = 1
        with tr.span("process.simulate_tree"):
            sim = sl.simulate_tree(t, sl.ModelParams(theta=GENERAL_GAIN * rho0, rho=rho0), sim_seed)
        tr.count("process.replicates")
        tr.count("process.spacers", sum(len(a) for a in sim.arrays.values()))
        with tr.span("equal_spacers.stats"):
            gd = sl.gap_decomposition(sim.arrays)
        tr.count("equal_spacers.calls")
        tr.count("equal_spacers.m", gd.m)
        gaps = [
            {K: c[i] for K, c in gd.counts.items() if c[i]} for i in range(1, gd.m)
        ]
        rhos = [f * rho0 for f in GENERAL_RHO_FACTORS] if gaps else []
        logpmf = []
        if gaps:
            tr.count("equal_spacers.used")
        for rho in rhos:
            with tr.span("likelihood.law_build"):
                law = sl.GeneralGapLaw(t, rho)
            row = []
            for g in gaps:
                with tr.span("likelihood.logpmf"):
                    row.append(law.logpmf(g))
            logpmf.append(row)
    return {
        "n": n,
        "tree_seed": tree_seed,
        "m": gd.m,
        "rhos": rhos,
        "gaps": [[[sorted(K), c] for K, c in g.items()] for g in gaps],
        "logpmf": logpmf,
    }


def run_general_sample(sample: list) -> dict:
    """One general-n sample (run inside the job process)."""
    tr = NullTracer()
    records = []
    for j, (n, tree_seed, sim_seed) in enumerate(sample):
        try:
            records.append(general_replicate(tr, n, tree_seed, sim_seed, j))
        except Exception as exc:  # an escaped exception is a counted failure
            records.append({"error": f"{type(exc).__name__}: {exc}"})
    return {"records": records}


# -- correctness checks --------------------------------------------------

def check_fig1(out: str, grid, replicates: int) -> list[str]:
    """Problems in a replicate-fig1 results CSV and its summary."""
    problems = []
    _, rows = read_csv(out)
    _, summary = read_csv(out + ".summary.csv")
    by_rho: dict[float, list] = {}
    for row in rows:
        by_rho.setdefault(float(row["rho"]), []).append(row)
    summary_by_rho = {float(s["rho"]): s for s in summary}
    for rho in grid:
        group = by_rho.get(rho, [])
        s = summary_by_rho.get(rho)
        if s is None:
            problems.append(f"rho={rho}: no summary row")
            continue
        if sorted(int(r["replicate"]) for r in group) != list(range(1, replicates + 1)):
            problems.append(f"rho={rho}: replicate numbers are not 1..{replicates}")
        used = [r for r in group if r["skipped"] == "false"]
        skipped = [r for r in group if r["skipped"] == "true"]
        if len(used) + len(skipped) != len(group):
            problems.append(f"rho={rho}: bad skipped flag")
        if int(s["used"]) + int(s["skipped"]) != replicates:
            problems.append(f"rho={rho}: used + skipped != attempted")
        if (int(s["used"]), int(s["skipped"])) != (len(used), len(skipped)):
            problems.append(f"rho={rho}: summary counts disagree with the rows")
        if any(r["rho_hat"] or r["ratio"] for r in skipped):
            problems.append(f"rho={rho}: skipped replicate has an estimate")
        ratios, rho_hats = [], []
        for r in used:
            rho_hat, ratio = float(r["rho_hat"]), float(r["ratio"])
            if not (math.isfinite(rho_hat) and rho_hat >= 0):
                problems.append(f"rho={rho}: rho_hat {r['rho_hat']} is not finite and >= 0")
            elif not close(ratio, rho_hat / rho):
                problems.append(f"rho={rho}: ratio {ratio} != rho_hat / rho")
            ratios.append(ratio)
            rho_hats.append(rho_hat)
        if not ratios:
            continue
        for q in QUANTILES:
            got = s[f"q{q}"]
            if not got or not close(float(got), float(np.quantile(ratios, q))):
                problems.append(f"rho={rho}: summary q{q} {got} does not match the rows")
        median = float(np.median(rho_hats)) / rho
        if not MEDIAN_BAND[0] <= median <= MEDIAN_BAND[1]:
            problems.append(f"rho={rho}: median ratio {median:.3f} outside {MEDIAN_BAND}")
    return problems


def check_pipeline(arrays_path: str, trees_path: str, stats_path: str,
                   est_path: str, replicates: int) -> list[str]:
    """Problems in one simulate -> stats -> estimate batch: the stats and
    estimate rows must equal pair_stats / estimate_rho_pair recomputed
    from the written arrays, and every tree line must round-trip."""
    problems = []
    try:
        arrays = read_arrays(arrays_path)
    except ValueError as exc:
        return [f"arrays: {exc}"]
    lines = read_lines(trees_path)
    if len(lines) != replicates:
        problems.append(f"{len(lines)} tree lines for {replicates} replicates")
    trees = []
    for i, line in enumerate(lines):
        t = sl.parse_newick(line)
        if sl.to_newick(t) != line:
            problems.append(f"tree line {i + 1} does not round-trip")
        trees.append(t)
    header, stats = read_csv(stats_path)
    if header != ["replicate", "M", "D"]:
        return problems + [f"stats header {header}"]
    if [int(r["replicate"]) for r in stats] != list(range(1, replicates + 1)):
        problems.append("stats replicate numbers are not 1..R")
    expected = {}
    for row in stats:
        rep = int(row["replicate"])
        if rep not in arrays:
            problems.append(f"stats row for replicate {rep} has no arrays")
            continue
        st = sl.pair_stats(arrays[rep])
        d = "" if st.d is None else str(st.d)
        if (row["M"], row["D"]) != (str(st.m), d):
            problems.append(f"replicate {rep}: stats {row['M']},{row['D']} != {st.m},{d}")
        expected[rep] = st
    header, est = read_csv(est_path)
    if header != ["replicate", "rho_hat", "theta_hat", "loglik", "boundary", "skipped_reason"]:
        return problems + [f"estimates header {header}"]
    if [int(r["replicate"]) for r in est] != list(range(1, replicates + 1)):
        problems.append("estimate replicate numbers are not 1..R")
    for row in est:
        rep = int(row["replicate"])
        st = expected.get(rep)
        if st is None or rep > len(trees):
            continue
        if st.d is None:
            if row["skipped_reason"] != "M<2" or row["rho_hat"]:
                problems.append(f"replicate {rep}: M<2 row not marked skipped")
            continue
        res = sl.estimate_rho_pair(st.m, st.d, trees[rep - 1].height)
        if row["skipped_reason"] or not row["rho_hat"]:
            problems.append(f"replicate {rep}: estimable replicate skipped")
            continue
        if not (close(float(row["rho_hat"]), res.rho_hat)
                and close(float(row["loglik"]), res.loglik)
                and row["boundary"] == str(res.boundary).lower()):
            problems.append(f"replicate {rep}: estimate row {row} != recomputed {res}")
            continue
        theta = sl.estimate_theta_moment(res.rho_hat, arrays[rep]) if res.rho_hat > 0 else None
        if (row["theta_hat"] == "") != (theta is None) or (
                theta is not None and not close(float(row["theta_hat"]), theta)):
            problems.append(f"replicate {rep}: theta_hat {row['theta_hat']!r} != {theta}")
    return problems


def independent_logpmf(tree, rho: float, counts: dict, table=None) -> float:
    """Interior-gap log-probability from p_exact_subset, survival and
    spanning_length, evaluated only on the subsets that occur.

    P = multinomial(s; c) * prod_K (p_K / p_r)^c_K * e^{-rho L} / p_r,
    with p_r the root survival and L the total tree length.
    """
    table = table or sl.survival(tree, rho)
    p_root = table.p[tree.root]
    total_len = sl.spanning_length(tree, tree.root, tree.leaves)
    s = sum(counts.values())
    out = math.lgamma(s + 1) - rho * total_len - math.log(p_root)
    for K, c in counts.items():
        p_k = sl.p_exact_subset(tree, rho, tree.root, K, table)
        out += c * math.log(p_k / p_root) - math.lgamma(c + 1)
    return out


def check_general(record: dict) -> list[str]:
    """Problems in one general-n replicate record."""
    if "error" in record:
        return [record["error"]]
    tree = sl.sample_coalescent(record["n"], record["tree_seed"])
    leaves = set(tree.leaves)
    problems = []
    gaps = [{frozenset(K): c for K, c in g} for g in record["gaps"]]
    if len(gaps) != max(record["m"] - 1, 0):
        problems.append(f"{len(gaps)} interior gaps for M={record['m']}")
    for g in gaps:
        if any(not K or not K < leaves or c <= 0 for K, c in g.items()):
            problems.append(f"gap keys {sorted(map(sorted, g))} are not proper subsets")
            return problems
    if len(record["logpmf"]) != len(record["rhos"]):
        problems.append("one logpmf row per rho expected")
    for rho, row in zip(record["rhos"], record["logpmf"]):
        table = sl.survival(tree, rho)
        for g, value in zip(gaps, row):
            ref = independent_logpmf(tree, rho, g, table)
            if not (math.isfinite(value) and value <= 0
                    and math.isclose(value, ref, rel_tol=1e-9, abs_tol=1e-9)):
                problems.append(f"rho={rho}: logpmf {value} != independent {ref}")
        if len(row) != len(gaps):
            problems.append("one logpmf value per interior gap expected")
    return problems


# -- workloads -------------------------------------------------------------
#
# A job is one fresh interpreter running its list of samples in order
# until its deadline; each sample is timed on its own and checked on its
# own, so a run yields many throughput samples and one set-up time per job.
# Sample i of job k always has the same inputs.

def _cli_failures(steps: list[dict]) -> list[str]:
    return [
        f"{s['argv'][0]}: exit {s['rc']}{': ' + s['error'] if s.get('error') else ''}"
        for s in steps if s["rc"] != 0
    ]


class Fig1:
    """``replicate-fig1`` through ``main``, with the program's process
    pool; each sample is one invocation over the whole rho grid."""

    pool = True
    replicates = 1000  # per grid point: the CLI's and the recovery script's default

    def __init__(self, name: str, n: int, grid):
        self.name, self.n, self.grid = name, n, tuple(grid)

    def job_spec(self, seed: int, k: int, jobdir: str) -> dict:
        key = workload_key(self.name)
        outs = [os.path.join(jobdir, f"fig1-{i}.csv") for i in range(MAX_SAMPLES)]
        argvs = [
            ["replicate-fig1", "--n", str(self.n),
             "--rho-grid", ",".join(repr(r) for r in self.grid),
             "--theta-factor", "100", "--replicates", str(self.replicates),
             "--seed", str(derive_seed(seed, key, k, i)), "--out", out]
            for i, out in enumerate(outs)
        ]
        return {"kind": "cli", "samples": [[[argv]] for argv in argvs], "outs": outs,
                "per_sample": self.replicates * len(self.grid)}

    def outputs(self, spec: dict) -> list[str]:
        return [p for out in spec["outs"] for p in (out, out + ".summary.csv")]

    def check(self, spec: dict, samples: list[dict]) -> list[Outcome]:
        outcomes = []
        for out, sample in zip(spec["outs"], samples):
            outcome = Outcome()
            errors = _cli_failures(sample["batches"][0])
            problems = [] if errors else check_fig1(out, self.grid, self.replicates)
            outcome.add(spec["per_sample"], problems, errors)
            outcomes.append(outcome)
        return outcomes

    def replay(self, tr, seed: int, stop, workdir: str) -> tuple[int, int]:
        """Run replicates serially, cycling over the grid, until
        ``stop(units done)``; returns (units, replicates), both the number
        of replicates here."""
        key = workload_key(self.name)
        done = 0
        with counting_calls(tr):
            for r in itertools.count():
                for gi, rho in enumerate(self.grid):
                    if stop(done):
                        return done, done
                    fig1_replicate(tr, self.n, rho, 100.0,
                                   derive_seed(seed, key, REPLAY_KEY, gi, r, 1),
                                   derive_seed(seed, key, REPLAY_KEY, gi, r, 2), done)
                    done += 1


class FilePipeline:
    """``simulate`` -> ``stats`` -> ``estimate`` through ``main``; each
    sample is one round of four batches with different (theta, rho).

    A batch is the size of the package README's ``simulate`` example, 100
    replicates.  The first three batches use theta = 100 rho as
    replicate-fig1 does; the last is the low-gain slice (theta / rho = 2),
    where leaf arrays are sometimes empty: the arrays CSV cannot represent
    an empty array, so that batch's ``stats`` fails, and the failure shows
    in the completed fraction.
    """

    pool = False
    replicates = 100  # per batch
    batches = ((50.0, 0.5), (100.0, 1.0), (200.0, 2.0), (2.0, 1.0))  # (theta, rho)

    def __init__(self, name: str):
        self.name = name

    @staticmethod
    def batch_argvs(theta, rho, reps, seed, base: str) -> list[list[str]]:
        arrays, trees = base + "arrays.csv", base + "arrays.csv.trees"
        return [
            ["simulate", "--tree", "coalescent:2", "--theta", repr(theta), "--rho", repr(rho),
             "--replicates", str(reps), "--seed", str(seed), "--out", arrays],
            ["stats", "--arrays", arrays, "--trees", trees, "--out", base + "stats.csv"],
            ["estimate", "--stats", base + "stats.csv", "--trees", trees,
             "--arrays", arrays, "--out", base + "est.csv"],
        ]

    def job_spec(self, seed: int, k: int, jobdir: str) -> dict:
        key = workload_key(self.name)
        samples = [
            [self.batch_argvs(theta, rho, self.replicates, derive_seed(seed, key, k, i, b),
                              os.path.join(jobdir, f"r{i}b{b}-"))
             for b, (theta, rho) in enumerate(self.batches)]
            for i in range(MAX_SAMPLES)
        ]
        return {"kind": "cli", "samples": samples,
                "per_sample": self.replicates * len(self.batches)}

    def outputs(self, spec: dict) -> list[str]:
        return [p for sample in spec["samples"] for batch in sample for p in _batch_files(batch)]

    def check(self, spec: dict, samples: list[dict]) -> list[Outcome]:
        outcomes = []
        for batches, sample in zip(spec["samples"], samples):
            outcome = Outcome()
            for batch, steps in zip(batches, sample["batches"]):
                errors = _cli_failures(steps)
                problems = [] if errors else check_pipeline(*_batch_files(batch),
                                                            self.replicates)
                outcome.add(self.replicates, problems, errors)
            outcomes.append(outcome)
        return outcomes

    def replay(self, tr, seed: int, stop, workdir: str) -> tuple[int, int]:
        """Run batches until ``stop(batches done)``: each subcommand under a
        ``cli`` span, then the library calls it makes, replayed under layer
        spans.  Returns (batches, replicates attempted)."""
        from spacerloss.cli import main as cli_main

        def main(argv):  # the low-gain batch's expected error message stays quiet
            with contextlib.redirect_stderr(io.StringIO()):
                return cli_main(argv)

        reps = self.replicates
        key = workload_key(self.name)
        done = 0
        for b, (theta, rho) in enumerate(itertools.cycle(self.batches)):
            if stop(b):
                return b, done
            argvs = self.batch_argvs(theta, rho, reps, derive_seed(seed, key, REPLAY_KEY, b),
                                     os.path.join(workdir, "replay-"))
            arrays_path, trees_path, _, _ = _batch_files(argvs)
            params = sl.ModelParams(theta=theta, rho=rho)
            with tr.span("cli.simulate", b):
                rc = main(argvs[0])
            tr.count("cli.simulate.replicates", reps)
            for r in range(reps):
                with tr.span("tree.sample_coalescent", done + r):
                    t = sl.sample_coalescent(2, derive_seed(seed, key, REPLAY_KEY, b, r, 1))
                with tr.span("tree.to_newick", done + r):
                    sl.to_newick(t)
                with tr.span("process.simulate_tree", done + r):
                    sim = sl.simulate_tree(t, params, derive_seed(seed, key, REPLAY_KEY, b, r, 2))
                tr.count("process.replicates")
                tr.count("process.spacers", sum(len(a) for a in sim.arrays.values()))
            if rc == 0:
                with tr.span("cli.stats", b):
                    rc = main(argvs[1])
                tr.count("cli.stats.replicates", reps)
            if rc == 0:
                arrays = read_arrays(arrays_path)
                lines = read_lines(trees_path)
                stats = {}
                for rep, line in enumerate(lines, start=1):
                    with tr.span("tree.parse_newick", done + rep):
                        sl.parse_newick(line)
                    with tr.span("equal_spacers.stats", done + rep):
                        stats[rep] = sl.pair_stats(arrays[rep])
                    tr.count("equal_spacers.calls")
                    tr.count("equal_spacers.m", stats[rep].m)
                with tr.span("cli.estimate", b):
                    main(argvs[2])
                tr.count("cli.estimate.replicates", reps)
                with counting_calls(tr):
                    self._replay_estimates(tr, lines, stats, arrays, done)
            done += reps

    @staticmethod
    def _replay_estimates(tr, lines, stats, arrays, done):
        for rep, line in enumerate(lines, start=1):
            with tr.span("tree.parse_newick", done + rep):
                T = sl.parse_newick(line).height
            st = stats[rep]
            if st.m < 2:
                continue
            tr.count("equal_spacers.used")
            with tr.span("estimators.estimate", done + rep):
                res = sl.estimate_rho_pair(st.m, st.d, T)
                if res.rho_hat > 0:
                    sl.estimate_theta_moment(res.rho_hat, arrays[rep])
            tr.count("estimators.estimates")
            tr.count("estimators.boundary", bool(res.boundary))


def _batch_files(argvs) -> tuple[str, str, str, str]:
    """(arrays, trees, stats, estimates) paths of one pipeline batch."""
    arrays = argvs[0][argvs[0].index("--out") + 1]
    return arrays, arrays + ".trees", argvs[1][-1], argvs[2][-1]


class GeneralN:
    """Simulation, gap decomposition and the general-n law through the
    public functions (the package has no pool on this path); each sample
    is one pass over the leaf-count schedule."""

    pool = False
    leaves = (8, 9, 10, 11, 12)

    def __init__(self, name: str):
        self.name = name

    def job_spec(self, seed: int, k: int, jobdir: str) -> dict:
        key = workload_key(self.name)
        samples = [
            [[n, derive_seed(seed, key, k, i, j, 1), derive_seed(seed, key, k, i, j, 2)]
             for j, n in enumerate(self.leaves)]
            for i in range(MAX_SAMPLES)
        ]
        return {"kind": "general", "samples": samples, "per_sample": len(self.leaves)}

    def outputs(self, spec: dict) -> list[str]:
        return []

    def check(self, spec: dict, samples: list[dict]) -> list[Outcome]:
        outcomes = []
        for inputs, sample in zip(spec["samples"], samples):
            outcome = Outcome()
            records = sample["records"]
            if len(records) < len(inputs):
                outcome.add(len(inputs) - len(records),
                            errors=["sample returned too few records"])
            for record in records:
                problems = check_general(record)
                if "error" in record:
                    outcome.add(1, errors=problems)
                else:
                    outcome.add(1, problems)
            outcomes.append(outcome)
        return outcomes

    def replay(self, tr, seed: int, stop, workdir: str) -> tuple[int, int]:
        """Run replicates serially over the leaf-count schedule until
        ``stop(units done)``; returns (units, replicates)."""
        key = workload_key(self.name)
        with counting_calls(tr):
            for j, n in enumerate(itertools.cycle(self.leaves)):
                if stop(j):
                    return j, j
                general_replicate(tr, n, derive_seed(seed, key, REPLAY_KEY, j, 1),
                                  derive_seed(seed, key, REPLAY_KEY, j, 2), j)


WORKLOADS = {
    w.name: w
    for w in (
        Fig1("fig1-n2", 2, (0.25, 0.5, 1.0, 2.0)),
        Fig1("fig1-n3", 3, (0.5, 1.0, 2.0)),
        FilePipeline("file-pipeline"),
        GeneralN("general-n"),
    )
}

"""Command-line interface: simulation, statistics extraction, estimation,
Monte-Carlo validation and the coalescent recovery experiment.

File formats
------------
arrays CSV   header ``replicate,leaf,position,spacer``; positions are
             1-based from the leader end, spacer tokens decimal integers.
trees file   one Newick string per line; line i belongs to replicate i.
             A single line means all replicates share that tree.
stats CSV    n=2: ``replicate,M,D``; n=3: ``replicate,M,D1,D2,D3,D4``.
             Statistics are empty fields when M < 2.
results CSV  ``rho,replicate,rho_hat,ratio,skipped``.

Exit codes: 0 success, 2 usage/input error, 3 validation failure.
``validate`` reports what :func:`spacerloss.validation.run_validation`
computes.

Determinism: every replicate gets its own seed from a splitmix64 mix of
(base seed, grid index, replicate index), see
:func:`spacerloss.process.mix_seed`, so output bytes are identical for
serial and parallel runs; ``SPACERLOSS_THREADS`` caps the worker count.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import equal_spacers, tree as treemod
from .estimators import (
    InsufficientDataError,
    estimate_rho_pair,
    estimate_rho_triple,
    estimate_theta_moment,
)
from .process import ModelParams, mix_seed, simulate_tree
from .tree import UltrametricTree, parse_newick, sample_coalescent, to_newick

__all__ = ["ExperimentConfig", "main", "run_fig_experiment"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of the coalescent recovery experiment."""

    n: int
    rho_grid: tuple[float, ...]
    replicates: int
    seed: int
    theta_factor: float = 100.0
    out: str = "fig1_results.csv"

    def __post_init__(self):
        if self.n not in (2, 3):
            raise ValueError("sample size must be 2 or 3")
        if self.replicates < 1:
            raise ValueError("replicate count must be >= 1")
        if any(r <= 0 for r in self.rho_grid):
            raise ValueError("rho grid values must be positive")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _n_workers() -> int:
    env = os.environ.get("SPACERLOSS_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


class CliError(Exception):
    """Input error; reported with exit code 2."""


# -- simulate ----------------------------------------------------------


def _load_tree_source(source: str):
    """Either a fixed tree from a Newick file or a coalescent sampler."""
    if source.startswith("coalescent:"):
        try:
            n = int(source.split(":", 1)[1])
        except ValueError:
            raise CliError(f"invalid tree source {source!r}") from None
        if n < 2:
            raise CliError("coalescent sample size must be >= 2")
        return None, n
    if not os.path.exists(source):
        raise CliError(f"tree file not found: {source}")
    with open(source) as fh:
        return parse_newick(fh.read()), None


def cmd_simulate(args) -> int:
    fixed, coal_n = _load_tree_source(args.tree)
    params = ModelParams(theta=args.theta, rho=args.rho)
    trees_out = args.trees_out or args.out + ".trees"
    with open(args.out, "w", newline="") as fh, open(trees_out, "w") as th:
        writer = csv.writer(fh)
        writer.writerow(["replicate", "leaf", "position", "spacer"])
        for rep in range(1, args.replicates + 1):
            rep_seed = mix_seed(args.seed, 0, rep)
            t = fixed if fixed is not None else sample_coalescent(
                coal_n, mix_seed(args.seed, 1, rep)
            )
            th.write(to_newick(t) + "\n")
            result = simulate_tree(t, params, rep_seed)
            for leaf in t.leaves:
                for pos, token in enumerate(result.arrays[leaf], start=1):
                    writer.writerow([rep, leaf, pos, token])
    return 0


# -- stats -------------------------------------------------------------


def _read_arrays(path: str) -> dict[int, dict[str, tuple[int, ...]]]:
    replicates: dict[int, dict[str, list[int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["replicate", "leaf", "position", "spacer"]:
            raise CliError(f"unexpected arrays header in {path}: {reader.fieldnames}")
        for row in reader:
            rep = int(row["replicate"])
            leaf = row["leaf"]
            arr = replicates.setdefault(rep, {}).setdefault(leaf, [])
            if int(row["position"]) != len(arr) + 1:
                raise CliError(
                    f"non-contiguous positions for replicate {rep}, leaf {leaf!r}"
                )
            arr.append(int(row["spacer"]))
    return {
        rep: {leaf: tuple(a) for leaf, a in leaves.items()}
        for rep, leaves in replicates.items()
    }


def _read_trees(path: str, n_replicates: int) -> list[UltrametricTree]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) == 1:
        lines = lines * n_replicates
    if len(lines) < n_replicates:
        raise CliError(f"{path} has {len(lines)} trees for {n_replicates} replicates")
    return [parse_newick(ln) for ln in lines]


def _tree_of(trees: list[UltrametricTree], rep: int) -> UltrametricTree:
    """The tree of replicate ``rep``; replicate numbers start at 1."""
    if rep < 1:
        raise CliError(f"replicate numbers start at 1, found {rep}")
    return trees[rep - 1]


def cmd_stats(args) -> int:
    replicates = _read_arrays(args.arrays)
    reps = sorted(replicates)
    trees = _read_trees(args.trees, max(reps)) if args.trees else None
    sizes = {len(v) for v in replicates.values()}
    if sizes - {2, 3} or len(sizes) != 1:
        raise CliError(f"stats requires 2 or 3 leaves per replicate, found {sizes}")
    n = sizes.pop()
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replicate", "M", "D"] if n == 2 else ["replicate", "M", "D1", "D2", "D3", "D4"]
        )
        for rep in reps:
            arrays = replicates[rep]
            if trees is not None:
                t = _tree_of(trees, rep)
                if set(t.leaves) != set(arrays):
                    raise CliError(f"leaf mismatch between files at replicate {rep}")
            if n == 2:
                st = equal_spacers.pair_stats(arrays)
                writer.writerow([rep, st.m, "" if st.d is None else st.d])
            else:
                if trees is None:
                    raise CliError("three-leaf stats need --trees for the cherry")
                st = equal_spacers.triple_stats(arrays, t.cherry())
                row = [rep, st.m] + [
                    "" if d is None else d for d in (st.d1, st.d2, st.d3, st.d4)
                ]
                writer.writerow(row)
    return 0


# -- estimate ----------------------------------------------------------


def _times_from_tree(t: UltrametricTree) -> tuple[float, float | None]:
    """(T, T') for a 2- or 3-leaf tree: T is the height, T' the cherry depth."""
    if len(t.leaves) == 2:
        return t.height, None
    c1, _ = t.cherry()
    return t.height, t.length[t.leaf_ids[c1]]


def cmd_estimate(args) -> int:
    with open(args.stats, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        header = reader.fieldnames or []
    is_pair = header == ["replicate", "M", "D"]
    is_triple = header == ["replicate", "M", "D1", "D2", "D3", "D4"]
    if not (is_pair or is_triple):
        raise CliError(f"unrecognized stats header {header}")
    method = args.method or ("pair" if is_pair else "triple")
    if method == "pair" and not is_pair or method == "triple" and not is_triple:
        raise CliError(f"--method {method} does not match stats columns")
    reps = [int(row["replicate"]) for row in rows]
    trees = _read_trees(args.trees, max(reps, default=0)) if args.trees else None
    arrays = _read_arrays(args.arrays) if args.arrays else None
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replicate", "rho_hat", "theta_hat", "loglik", "boundary", "skipped_reason"]
        )
        for rep, row in zip(reps, rows):
            if trees is not None:
                T, T_prime = _times_from_tree(_tree_of(trees, rep))
            else:
                if args.T is None:
                    raise CliError("need --trees or --T")
                T, T_prime = args.T, args.Tprime
            m = int(row["M"])
            try:
                if is_pair:
                    if row["D"] == "":
                        raise InsufficientDataError
                    res = estimate_rho_pair(m, int(row["D"]), T)
                else:
                    if row["D1"] == "":
                        raise InsufficientDataError
                    if T_prime is None:
                        raise CliError("triple estimation needs --Tprime or --trees")
                    res = estimate_rho_triple(
                        m, *(int(row[f"D{j}"]) for j in range(1, 5)), T, T_prime
                    )
            except InsufficientDataError:
                writer.writerow([rep, "", "", "", "", "M<2"])
                continue
            theta = ""
            if arrays is not None and res.rho_hat > 0:
                if rep not in arrays:
                    raise CliError(f"replicate {rep} is missing from {args.arrays}")
                theta = _fmt(estimate_theta_moment(res.rho_hat, arrays[rep]))
            writer.writerow(
                [rep, _fmt(res.rho_hat), theta, _fmt(res.loglik),
                 str(res.boundary).lower(), ""]
            )
    return 0


# -- validate ----------------------------------------------------------


def cmd_validate(args) -> int:
    # imported here: scipy.stats is slow to load and only validation uses it
    from .validation import run_validation

    if args.trials < 1000:
        raise CliError("need at least 1000 trials")
    report = run_validation(args.rho, args.theta, args.T, args.Tprime, args.trials, args.seed)
    failed = False
    for name, statistic, p in report:
        print(f"{name}: statistic={statistic:.4g} p={p:.4g}")
        if not p >= 1e-4:  # a NaN p-value is a failure, never a pass
            failed = True
    return 3 if failed else 0


# -- the coalescent recovery experiment --------------------------------


def _fig1_replicate(task):
    """One replicate: coalescent tree, simulation, statistics, estimate.
    Returns (rho, replicate, rho_hat or None)."""
    n, rho, theta_factor, base_seed, grid_idx, rep = task
    theta = theta_factor * rho
    t = sample_coalescent(n, mix_seed(base_seed, grid_idx, rep, 1))
    sim = simulate_tree(t, ModelParams(theta=theta, rho=rho), mix_seed(base_seed, grid_idx, rep, 2))
    try:
        if n == 2:
            st = equal_spacers.pair_stats(sim.arrays)
            if st.d is None:
                raise InsufficientDataError
            res = estimate_rho_pair(st.m, st.d, t.height)
        else:
            st3 = equal_spacers.triple_stats(sim.arrays, t.cherry())
            if st3.d1 is None:
                raise InsufficientDataError
            T, T_prime = _times_from_tree(t)
            res = estimate_rho_triple(st3.m, st3.d1, st3.d2, st3.d3, st3.d4, T, T_prime)
    except InsufficientDataError:
        return (rho, rep, None)
    return (rho, rep, res.rho_hat)


_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


def run_fig_experiment(config: ExperimentConfig):
    """Run the recovery experiment; returns (rows, summary).

    rows: (rho, replicate, rho_hat or None); summary: per rho, dict with
    ratio quantiles over non-skipped replicates and the skip count.
    """
    tasks = [
        (config.n, rho, config.theta_factor, config.seed, gi, rep)
        for gi, rho in enumerate(config.rho_grid)
        for rep in range(1, config.replicates + 1)
    ]
    workers = _n_workers()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_fig1_replicate, tasks, chunksize=32))
    else:
        rows = [_fig1_replicate(t) for t in tasks]
    summary = {}
    for rho in config.rho_grid:
        ratios = [r[2] / rho for r in rows if r[0] == rho and r[2] is not None]
        skipped = sum(1 for r in rows if r[0] == rho and r[2] is None)
        qs = (
            {q: float(np.quantile(ratios, q)) for q in _QUANTILES} if ratios else {}
        )
        summary[rho] = {"quantiles": qs, "skipped": skipped, "used": len(ratios)}
    return rows, summary


def write_fig_results(config: ExperimentConfig, rows, summary) -> None:
    with open(config.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "replicate", "rho_hat", "ratio", "skipped"])
        for rho, rep, rho_hat in rows:
            if rho_hat is None:
                writer.writerow([_fmt(rho), rep, "", "", "true"])
            else:
                writer.writerow(
                    [_fmt(rho), rep, _fmt(rho_hat), _fmt(rho_hat / rho), "false"]
                )
    with open(config.out + ".summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho"] + [f"q{q}" for q in _QUANTILES] + ["used", "skipped"])
        for rho in config.rho_grid:
            s = summary[rho]
            qvals = [_fmt(s["quantiles"][q]) for q in _QUANTILES] if s["quantiles"] else [""] * 5
            writer.writerow([_fmt(rho)] + qvals + [s["used"], s["skipped"]])


def cmd_replicate_fig1(args) -> int:
    config = ExperimentConfig(
        n=args.n,
        rho_grid=tuple(float(x) for x in args.rho_grid.split(",")),
        replicates=args.replicates,
        seed=args.seed,
        theta_factor=args.theta_factor,
        out=args.out,
    )
    rows, summary = run_fig_experiment(config)
    write_fig_results(config, rows, summary)
    for rho in config.rho_grid:
        s = summary[rho]
        if s["quantiles"]:
            med = s["quantiles"][0.5]
            print(
                f"rho={_fmt(rho)}: median ratio {med:.3f}, "
                f"IQR [{s['quantiles'][0.25]:.3f}, {s['quantiles'][0.75]:.3f}], "
                f"skipped {s['skipped']}"
            )
        else:
            print(f"rho={_fmt(rho)}: all {s['skipped']} replicates skipped")
    return 0


# -- entry point -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacerloss",
        description="Ordered independent loss model for CRISPR spacer arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate spacer arrays along a tree")
    p.add_argument("--tree", required=True, help="Newick file path or coalescent:N")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--trees-out", default=None, help="default: <out>.trees")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="extract equal-spacer statistics")
    p.add_argument("--arrays", required=True)
    p.add_argument("--trees", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("estimate", help="estimate the loss rate")
    p.add_argument("--stats", required=True)
    p.add_argument("--trees", default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--Tprime", type=float, default=None)
    p.add_argument("--method", choices=["pair", "triple"], default=None)
    p.add_argument("--arrays", default=None, help="enables the theta moment estimate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("validate", help="Monte Carlo vs analytic laws")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--Tprime", type=float, default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "replicate-fig1", help="coalescent loss-rate recovery experiment"
    )
    p.add_argument("--n", type=int, choices=[2, 3], required=True)
    p.add_argument("--rho-grid", default="0.25,0.5,1,2")
    p.add_argument("--theta-factor", type=float, default=100.0)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_replicate_fig1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, treemod.TreeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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

Determinism: ``simulate`` seeds replicate r with a splitmix64 mix of
(seed, 0, r) and its coalescent tree with (seed, 1, r), see
:func:`spacerloss.process.mix_seed`.  ``replicate-fig1`` and ``validate``
run blocks of 512 replicates in one process, block k seeded by (seed, i,
k) for grid point i of ``replicate-fig1`` and by (seed, k) for
``validate`` (:func:`spacerloss.process.seeded_blocks`); a replicate's
row does not depend on the replicate count.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import equal_spacers, tree as treemod
from .estimators import (
    estimate_rho_pair,
    estimate_theta_moment,
    pair_closed_form,
    triple_mle,
)
from .process import BLOCK, ModelParams, mix_seed, seeded_blocks, simulate_block, simulate_tree
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
        if len(set(self.rho_grid)) != len(self.rho_grid):
            raise ValueError("rho grid values must be distinct")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class CliError(Exception):
    """Input error; reported with exit code 2."""


def _bad_row(path: str, reader: csv.DictReader, row: dict) -> CliError:
    """The error for the row just read when a field is missing or not an integer."""
    got = ", ".join(f"{k}={row[k]!r}" for k in reader.fieldnames)
    return CliError(f"{path}, line {reader.line_num}: expected integers, got {got}")


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
    paths = (args.out, args.trees_out or args.out + ".trees")
    if os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise CliError(f"--out and --trees-out name the same file: {paths[0]}")
    fixed, coal_n = _load_tree_source(args.tree)
    params = ModelParams(theta=args.theta, rho=args.rho)
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]  # renamed once complete
    try:
        with open(temps[0], "x", newline="") as fh, open(temps[1], "x") as th:
            writer = csv.writer(fh)
            writer.writerow(["replicate", "leaf", "position", "spacer"])
            for rep in range(1, args.replicates + 1):
                t = fixed if fixed is not None else sample_coalescent(
                    coal_n, mix_seed(args.seed, 1, rep)
                )
                th.write(to_newick(t) + "\n")
                result = simulate_tree(t, params, mix_seed(args.seed, 0, rep))
                for leaf in t.leaves:
                    for pos, token in enumerate(result.arrays[leaf], start=1):
                        writer.writerow([rep, leaf, pos, token])
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)
    return 0


# -- stats -------------------------------------------------------------


def _read_arrays(path: str) -> dict[int, dict[str, tuple[int, ...]]]:
    replicates: dict[int, dict[str, list[int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["replicate", "leaf", "position", "spacer"]:
            raise CliError(f"unexpected arrays header in {path}: {reader.fieldnames}")
        for row in reader:
            try:
                rep, pos, spacer = int(row["replicate"]), int(row["position"]), int(row["spacer"])
            except (TypeError, ValueError):
                raise _bad_row(path, reader, row) from None
            leaf = row["leaf"]
            arr = replicates.setdefault(rep, {}).setdefault(leaf, [])
            if pos != len(arr) + 1:
                raise CliError(
                    f"non-contiguous positions for replicate {rep}, leaf {leaf!r}"
                )
            arr.append(spacer)
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
    # a tree is immutable: replicates with the same line share one parse
    trees = {ln: parse_newick(ln) for ln in dict.fromkeys(lines)}
    return [trees[ln] for ln in lines]


def _tree_of(trees: list[UltrametricTree], rep: int) -> UltrametricTree:
    """The tree of replicate ``rep``; replicate numbers start at 1."""
    if rep < 1:
        raise CliError(f"replicate numbers start at 1, found {rep}")
    return trees[rep - 1]


def cmd_stats(args) -> int:
    replicates = _read_arrays(args.arrays)
    if not replicates:
        raise CliError(f"{args.arrays} has no replicates")
    reps = sorted(replicates)
    trees = _read_trees(args.trees, max(reps)) if args.trees else None
    sizes = {len(v) for v in replicates.values()}
    if sizes - {2, 3} or len(sizes) != 1:
        raise CliError(f"stats requires 2 or 3 leaves per replicate, found {sizes}")
    n = sizes.pop()
    if n == 3 and trees is None:
        raise CliError("three-leaf stats need --trees for the cherry")
    rows = []  # built before the output is opened: an input error leaves no file
    for rep in reps:
        arrays = replicates[rep]
        if trees is not None:
            t = _tree_of(trees, rep)
            if set(t.leaves) != set(arrays):
                raise CliError(f"leaf mismatch between files at replicate {rep}")
        if n == 2:
            st = equal_spacers.pair_stats(arrays)
            ds = (st.d,)
        else:
            st = equal_spacers.triple_stats(arrays, t.cherry())
            ds = (st.d1, st.d2, st.d3, st.d4)
        rows.append([rep, st.m] + ["" if d is None else d for d in ds])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replicate", "M", "D"] if n == 2 else ["replicate", "M", "D1", "D2", "D3", "D4"]
        )
        writer.writerows(rows)
    return 0


# -- estimate ----------------------------------------------------------


def _report_flags(label: str, used: int, boundary: int, suspect: int) -> None:
    """One stderr line: the used estimates and how many are boundary or
    ``multimodal_suspect`` ones."""
    print(
        f"{label}: of {used} used replicates, {boundary} boundary, "
        f"{suspect} multimodal_suspect",
        file=sys.stderr,
    )


def _times_from_tree(t: UltrametricTree) -> tuple[float, float | None]:
    """(T, T') for a 2- or 3-leaf tree: T is the height, T' the cherry depth."""
    if len(t.leaves) == 2:
        return t.height, None
    c1, _ = t.cherry()
    return t.height, t.length[t.leaf_ids[c1]]


def cmd_estimate(args) -> int:
    with open(args.stats, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        is_pair = header == ["replicate", "M", "D"]
        if not (is_pair or header == ["replicate", "M", "D1", "D2", "D3", "D4"]):
            raise CliError(f"unrecognized stats header {header}")
        rows = []  # (replicate, M, statistics or None when M < 2)
        for row in reader:
            try:
                rep, m = int(row["replicate"]), int(row["M"])
                # statistics are empty exactly when M < 2
                empty = m < 2 and all(row[k] == "" for k in header[2:])
                ds = None if empty else [int(row[k]) for k in header[2:]]
            except (TypeError, ValueError):
                raise _bad_row(args.stats, reader, row) from None
            rows.append((rep, m, ds))
    n_leaves = 2 if is_pair else 3
    reps = [rep for rep, _, _ in rows]
    trees = _read_trees(args.trees, max(reps, default=0)) if args.trees else None
    arrays = _read_arrays(args.arrays) if args.arrays else None
    times = []  # (T, T') per row
    for rep in reps:
        if trees is not None:
            t = _tree_of(trees, rep)
            if len(t.leaves) != n_leaves:
                raise CliError(
                    f"replicate {rep}: {'pair' if is_pair else 'triple'} statistics "
                    f"({','.join(header)}) need a {n_leaves}-leaf tree, "
                    f"but its tree has {len(t.leaves)} leaves"
                )
            times.append(_times_from_tree(t))
        elif args.T is None:
            raise CliError("need --trees or --T")
        else:
            times.append((args.T, args.Tprime))
    # rows with M < 2 are written as skipped
    usable = [i for i, (_, m, _) in enumerate(rows) if m >= 2]
    fits = {}  # row index -> (rho_hat, loglik, boundary, multimodal_suspect)
    if is_pair:
        for i in usable:
            res = estimate_rho_pair(rows[i][1], *rows[i][2], times[i][0])
            fits[i] = (res.rho_hat, res.loglik, res.boundary, False)
    else:
        if any(times[i][1] is None for i in usable):
            raise CliError("triple estimation needs --Tprime or --trees")
        fit = triple_mle(
            [rows[i][1] for i in usable],
            np.array([rows[i][2] for i in usable], dtype=np.int64).reshape(-1, 4),
            [times[i][0] for i in usable],
            [times[i][1] for i in usable],
        )
        fits = dict(zip(usable, zip(
            fit.rho_hat.tolist(), fit.loglik.tolist(), fit.boundary.tolist(),
            fit.multimodal_suspect.tolist(),
        )))
    out = []  # built before the output is opened: an input error leaves no file
    for i, rep in enumerate(reps):
        if i not in fits:
            out.append([rep, "", "", "", "", "M<2"])
            continue
        rho_hat, loglik, boundary, _ = fits[i]
        theta = ""
        if arrays is not None and rho_hat > 0:
            if rep not in arrays:
                raise CliError(f"replicate {rep} is missing from {args.arrays}")
            theta = _fmt(estimate_theta_moment(rho_hat, arrays[rep]))
        out.append([rep, _fmt(rho_hat), theta, _fmt(loglik), str(boundary).lower(), ""])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["replicate", "rho_hat", "theta_hat", "loglik", "boundary", "skipped_reason"]
        )
        writer.writerows(out)
    _report_flags(
        args.stats, len(fits), sum(f[2] for f in fits.values()), sum(f[3] for f in fits.values())
    )
    return 0


# -- validate ----------------------------------------------------------


def cmd_validate(args) -> int:
    # imported here: validation is the one command that loads scipy
    # (scipy.stats, and scipy.special through the pmfs it checks), whose
    # import takes longer than numpy's and the package's together
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


# the experiment's tree shapes: the leaf labels of a Kingman tree are
# exchangeable, so for n = 3 the cherry is fixed as leaves 1 and 2
_FIG1_NEWICK = {2: "(1:1,2:1);", 3: "((1:1,2:1):1,3:2);"}


def _coalescent_block(n: int, rho: float, theta_factor: float, rng):
    """One block of replicates on n-leaf Kingman trees: the simulated
    :class:`~spacerloss.process.Block` and the (BLOCK x n-1) epoch
    times, with k = n..2 lines in column n - k."""
    tree = parse_newick(_FIG1_NEWICK[n])
    # epoch k (k lines, from n down to 2) lasts Exp(k(k-1)/2)
    rates = np.array([k * (k - 1) / 2.0 for k in range(n, 1, -1)])
    epochs = rng.exponential(1.0, (BLOCK, n - 1)) / rates
    c1, c2 = tree.leaf_ids["1"], tree.leaf_ids["2"]
    lengths = np.zeros((BLOCK, tree.n_nodes))
    lengths[:, c1] = lengths[:, c2] = epochs[:, 0]
    if n == 3:
        lengths[:, tree.parent[c1]] = epochs[:, 1]
        lengths[:, tree.leaf_ids["3"]] = epochs.sum(axis=1)
    params = ModelParams(theta=theta_factor * rho, rho=rho)
    return simulate_block(tree, lengths, params, rng), epochs


def _fig1_block(n: int, rho: float, theta_factor: float, rng, count: int):
    """Simulate one block and estimate its first ``count`` replicates.

    Returns rho_hat per replicate (NaN where M < 2) and two boolean arrays
    of the same length, true where the estimate is a boundary one (for a
    pair, D = 0) and where it is ``multimodal_suspect`` (never for a
    pair); both are false where M < 2."""
    sim, epochs = _coalescent_block(n, rho, theta_factor, rng)
    height = epochs.sum(axis=1)
    m, totals = equal_spacers.interior_totals(sim.fates(sim.tree.root)[:count], n)
    rho_hat = np.full(count, np.nan)
    boundary, suspect = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    used = np.flatnonzero(m >= 2)
    if n == 2:
        d = equal_spacers.interior_statistics(totals[used])
        rho_hat[used] = pair_closed_form(m[used], d, height[used])[1]
        boundary[used] = d == 0
        return rho_hat, boundary, suspect
    # leaf bits 1 and 2 stand for the cherry leaves 1 and 2
    ds = equal_spacers.interior_statistics(totals[used], (1, 2))
    fit = triple_mle(m[used], ds, height[used], epochs[used, 0])
    rho_hat[used], boundary[used], suspect[used] = (
        fit.rho_hat, fit.boundary, fit.multimodal_suspect
    )
    return rho_hat, boundary, suspect


_QUANTILES = (0.025, 0.25, 0.5, 0.75, 0.975)


def run_fig_experiment(config: ExperimentConfig):
    """Run the recovery experiment; returns (rows, summary).

    rows: (rho, replicate, rho_hat or None); summary: per rho, dict with
    ratio quantiles over non-skipped replicates, the used and skipped
    counts, and the counts of boundary and ``multimodal_suspect``
    estimates among the used replicates.
    """
    rows, summary = [], {}
    for gi, rho in enumerate(config.rho_grid):
        blocks = [
            _fig1_block(config.n, rho, config.theta_factor, rng, count)
            for rng, count in seeded_blocks(config.seed, (gi,), config.replicates)
        ]
        rho_hat, boundary, suspect = (np.concatenate(x) for x in zip(*blocks))
        rows.extend(
            (rho, rep, None if math.isnan(x) else x)
            for rep, x in enumerate(rho_hat.tolist(), start=1)
        )
        ratios = rho_hat[~np.isnan(rho_hat)] / rho
        qs = (
            {q: float(np.quantile(ratios, q)) for q in _QUANTILES} if ratios.size else {}
        )
        summary[rho] = {
            "quantiles": qs, "skipped": len(rho_hat) - ratios.size, "used": ratios.size,
            "boundary": int(boundary.sum()), "multimodal_suspect": int(suspect.sum()),
        }
    return rows, summary


def write_fig_results(config: ExperimentConfig, rows, summary) -> None:
    with open(config.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "replicate", "rho_hat", "ratio", "skipped"])
        rho_text = {rho: _fmt(rho) for rho in config.rho_grid}
        writer.writerows(
            [rho_text[rho], rep, "", "", "true"] if rho_hat is None
            else [rho_text[rho], rep, _fmt(rho_hat), _fmt(rho_hat / rho), "false"]
            for rho, rep, rho_hat in rows
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
        _report_flags(f"rho={_fmt(rho)}", s["used"], s["boundary"], s["multimodal_suspect"])
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

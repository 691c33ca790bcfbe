"""Command-line interface: simulation, statistics extraction, estimation,
Monte-Carlo validation and the coalescent recovery experiment.

File formats
------------
arrays CSV   header ``replicate,leaf,position,spacer``; positions are
             1-based from the leader end.  Replicate numbers, positions
             and spacer tokens are ASCII decimal integers in the int64
             range [-2**63, 2**63 - 1], replicate numbers >= 1; a row of
             other than four fields is rejected.
trees file   one Newick string per line; line i belongs to replicate i.
             A single line means all replicates share that tree.
stats CSV    n=2: ``replicate,M,D``; n=3: ``replicate,M,D1,D2,D3,D4``;
             one row per replicate.  Fields are int64s under the arrays
             CSV's rule, replicate numbers >= 1.  Statistics are empty
             fields when M < 2; a row of another field count than the
             header, or of a replicate already read, is rejected.
results CSV  ``rho,replicate,rho_hat,ratio,skipped``.

Exit codes: 0 success, 2 usage/input error, 3 validation failure.
``validate`` reports what :func:`spacerloss.validation.run_validation`
computes.
``stats`` and ``estimate`` check each replicate's tree in one pass of the
trees file after their other inputs' checks, against the arrays' labels or
the statistics' n leaves (2 or 3, from the stats header); ``estimate
--arrays`` needs n arrays per replicate and writes theta_hat = rho_hat x
spacers / n.  ``--T`` and ``--trees`` exclude each other.  ``stats`` reads
D off :func:`~spacerloss.equal_spacers.token_statistics`' interior totals.
Every command that writes files writes them through :func:`_committed`.

Determinism: ``simulate``, ``replicate-fig1`` and ``validate`` share one
block rule (:func:`spacerloss.process.seeded_blocks`): they run blocks of
replicates in one process, block k drawing from a generator seeded by a
splitmix64 mix of (seed, 0, k) for ``simulate``, (seed, i, k) for grid
point i of ``replicate-fig1`` and (seed, k) for ``validate``.  Blocks of
``replicate-fig1`` and ``validate`` simulate 512 rows and drop those past
the replicate count, so a replicate's row does not depend on that count.
Blocks of ``simulate`` hold max(1, 3 * 512 // nodes) rows, about the
nodes of a pair block, and simulate only the rows kept, so only the rows
of the last, partial block depend on the replicate count.  A
``coalescent:N`` block draws all its trees with one
:func:`spacerloss.tree.coalescent_block` call, then runs one
:func:`spacerloss.process.simulate_block` per labelled ranked topology,
in order of first appearance; a fixed tree is one topology.  A
``replicate-fig1`` block takes only that sampler's epoch durations.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from . import equal_spacers, tree as treemod
from .estimators import pair_mle, theta_moment, triple_mle
from .process import BLOCK, MAX_NODES, ModelParams, seeded_blocks, simulate_block
from .tree import UltrametricTree, coalescent_block, newick_lines, parse_newick
from .validation import run_validation

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
        if not all(0 < r < math.inf for r in self.rho_grid):
            raise ValueError("rho grid values must be positive and finite")
        if not 0 <= self.theta_factor < math.inf:
            raise ValueError("theta factor must be nonnegative and finite")
        for r in self.rho_grid:
            if not self.theta_factor * r < math.inf:
                raise ValueError(
                    f"theta = theta factor {self.theta_factor:g} x rho grid value {r:g} "
                    "is not finite"
                )
        if len(set(self.rho_grid)) != len(self.rho_grid):
            raise ValueError("rho grid values must be distinct")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class CliError(Exception):
    """Input error; reported with exit code 2."""


def _bad_row(path: str, line: int, header: list[str], row: list[str]) -> CliError:
    """The error for a row with too few or too many fields or a field that
    is not an integer; ``line`` is the file line that ends the row."""
    names = header + ["extra"] * (len(row) - len(header))
    fields = row + [None] * (len(header) - len(row))
    got = ", ".join(f"{k}={v!r}" for k, v in zip(names, fields))
    return CliError(f"{path}, line {line}: expected integers, got {got}")


@contextmanager
def _committed(paths):
    """Write files to ``paths`` all or none: yields a handle on a temporary
    file beside each path and, once the block completes, checks every
    destination, then renames each temporary onto its path.  On an error
    the temporaries are removed, and an OSError on one names its destination."""
    temps = [f"{path}.{os.getpid()}.tmp" for path in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(temp, "x", newline="")) for temp in temps]
        for path in paths:
            if os.path.isdir(path):
                raise CliError(f"cannot write {path}: it is a directory")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except OSError as exc:  # a failed write names no file
        if exc.filename not in (None, *temps):
            raise  # an input file read inside the block
        named = " or ".join(p for t, p in zip(temps, paths) if exc.filename in (None, t))
        raise CliError(f"cannot write {named}: {exc.strerror or exc}") from None
    finally:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)


@contextmanager
def _text_file(path: str):
    """``path`` opened as text for reading, a byte that does not decode
    reported with the file's name."""
    try:
        with open(path, newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from None


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
        if 2 * n - 1 > MAX_NODES:  # before coalescent_block allocates its nodes
            raise CliError(f"coalescent sample size must be <= {(MAX_NODES + 1) // 2}")
        return None, n
    if not os.path.exists(source):
        raise CliError(f"tree file not found: {source}")
    with _text_file(source) as fh:
        text = fh.read()
    try:
        return parse_newick(text), None
    except treemod.TreeError as exc:
        raise CliError(f"{source}: {exc}") from None


def _block_trees(fixed: UltrametricTree | None, coal_n: int | None, rows: int, rng):
    """The trees of one block of ``rows`` rows, grouped by labelled ranked
    topology in order of first appearance: (tree, row indices, (rows x
    nodes) branch lengths) per topology.  A fixed tree is one topology;
    ``coalescent:N`` rows come from one
    :func:`~spacerloss.tree.coalescent_block` call."""
    if fixed is not None:
        return [(fixed, np.arange(rows), np.tile(fixed.length, (rows, 1)))]
    parent, length = coalescent_block(coal_n, rows, rng)
    _, first, inverse = np.unique(parent, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    groups = []
    for g in np.argsort(first).tolist():
        idx = np.flatnonzero(inverse == g)
        tree = treemod.coalescent_tree(parent[idx[0]], length[idx[0]])
        groups.append((tree, idx, length[idx]))
    return groups


def _csv_field(text: str) -> str:
    """``text`` as :mod:`csv` writes it in a row, quoted where it must be."""
    import io

    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]  # the writer's \r\n


def _spacer_columns(groups, params: ModelParams, rng) -> tuple[np.ndarray, np.ndarray]:
    """One :func:`simulate_block` call per group of :func:`_block_trees`,
    in its order.  Returns the key, row * leaves + leaf index, and the
    token of every spacer a row holds, ordered by row, then leaf in
    ``tree.leaves`` order, then array position."""
    leaves = groups[0][0].leaves  # every group has the same leaves
    keys, tokens = [], []  # per group
    for tree, idx, lengths in groups:
        sim = simulate_block(tree, lengths, params, rng)
        # the leaves' columns side by side: nonzero lists a row's spacers
        # by leaf, then in array order
        r, c = np.nonzero(np.concatenate([sim.alive[leaf] for leaf in leaves], axis=1))
        leaf_of = np.repeat(np.arange(len(leaves)), [len(sim.tokens[leaf]) for leaf in leaves])
        keys.append(idx[r] * len(leaves) + leaf_of[c])
        tokens.append(np.concatenate([sim.tokens[leaf] for leaf in leaves])[c])
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")  # stable: each (row, leaf) run keeps its order
    return key[order], np.concatenate(tokens)[order]


_FORMAT_ROWS = 4096  # arrays rows formatted per join


def _block_text(groups, first_rep: int, params: ModelParams, rng) -> tuple[str, str]:
    """(arrays CSV rows, trees file lines) of one block of
    :func:`_block_trees` whose row b is replicate ``first_rep + b``."""
    lines = [""] * sum(len(idx) for _, idx, _ in groups)
    for tree, idx, lengths in groups:
        for row, line in zip(idx.tolist(), newick_lines(tree, lengths)):
            lines[row] = line
    key, token = _spacer_columns(groups, params, rng)
    head = np.flatnonzero(np.diff(key, prepend=-1))  # where each (row, leaf) run starts
    position = np.arange(1, len(key) + 1) - np.repeat(head, np.diff(head, append=len(key)))
    leaves = groups[0][0].leaves
    rep, leaf = key // len(leaves) + first_rep, key % len(leaves)
    quoted = [_csv_field(label) for label in leaves]
    # joined in chunks: the Python ints and row strings of a whole block
    # would hold several times the memory of its text
    chunks = []
    for start in range(0, len(key), _FORMAT_ROWS):
        part = slice(start, start + _FORMAT_ROWS)
        chunks.append("".join(
            f"{r},{quoted[j]},{p},{t}\r\n" for r, j, p, t in zip(
                rep[part].tolist(), leaf[part].tolist(), position[part].tolist(),
                token[part].tolist(),
            )
        ))
    return "".join(chunks), "".join(line + "\n" for line in lines)


def cmd_simulate(args) -> int:
    if args.replicates < 1:
        raise CliError("replicate count must be >= 1")
    paths = (args.out, args.trees_out or args.out + ".trees")
    if os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise CliError(f"--out and --trees-out name the same file: {paths[0]}")
    fixed, coal_n = _load_tree_source(args.tree)
    params = ModelParams(theta=args.theta, rho=args.rho)
    # a block holds about as many nodes as a pair block
    rows = max(1, 3 * BLOCK // (fixed.n_nodes if fixed is not None else 2 * coal_n - 1))
    with _committed(paths) as (fh, th):
        fh.write(",".join(_ARRAYS_HEADER) + "\r\n")
        for k, (rng, kept) in enumerate(seeded_blocks(args.seed, (0,), args.replicates, rows)):
            arrays, trees = _block_text(
                _block_trees(fixed, coal_n, kept, rng), k * rows + 1, params, rng
            )
            fh.write(arrays)
            th.write(trees)
    return 0


# -- stats -------------------------------------------------------------


_ARRAYS_HEADER = ["replicate", "leaf", "position", "spacer"]
_ARRAYS_DTYPE = np.dtype(
    [("replicate", np.int64), ("leaf", object), ("position", np.int64), ("spacer", np.int64)]
)


def _is_int64(text: str) -> bool:
    """Whether ``text`` is an int64 as numpy reads one: ASCII digits with
    an optional sign and surrounding space (Python's ``int`` also takes
    ``1_0`` and digits of other scripts)."""
    t = text.strip()
    digits = t[1:] if t[:1] in ("+", "-") else t
    return digits.isascii() and digits.isdigit() and -(2**63) <= int(t) < 2**63


def _int64(text: str) -> int:
    """``text`` as an int64 under the rule of :func:`_is_int64`; ValueError otherwise."""
    if not _is_int64(text):
        raise ValueError(f"not an int64: {text!r}")
    return int(text)


def _bad_arrays_row(path: str, exc: Exception) -> CliError:
    """The error for the first row of an arrays file that numpy could not
    parse: the first that is not four fields with int64s in the 1st, 3rd
    and 4th, or numpy's own message ``exc`` where every row is."""
    with _text_file(path) as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        for row in reader:
            if row and not (len(row) == 4 and all(_is_int64(row[i]) for i in (0, 2, 3))):
                return _bad_row(path, reader.line_num, _ARRAYS_HEADER, row)
    return CliError(f"{path}: {exc}")


def _read_arrays(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """An arrays CSV parsed once into columns: the tokens in (replicate,
    leaf label, position) order, and the start, replicate and leaf of each
    (replicate, leaf) run of them.  The rows of one (replicate, leaf) may be
    interleaved with others but must hold positions 1, 2, ... in file order."""
    import warnings

    with _text_file(path) as fh:
        header = next(csv.reader(fh), None)
        if header != _ARRAYS_HEADER:
            raise CliError(f"unexpected arrays header in {path}: {header}")
        try:
            with warnings.catch_warnings():
                # a header-only file reads as no rows; the caller reports it
                warnings.filterwarnings("ignore", "loadtxt: ", UserWarning)
                # numpy 1.23-1.26 read an integer field that is not an int64
                # ("2.5", "1e3", 2**64) as a float cast to int64, with only a
                # DeprecationWarning: make that warning the rejection it is
                warnings.filterwarnings("error", category=DeprecationWarning)
                rows = np.loadtxt(
                    fh, dtype=_ARRAYS_DTYPE, delimiter=",", comments=None, quotechar='"',
                    ndmin=1,
                )
        except (ValueError, DeprecationWarning) as exc:
            raise _bad_arrays_row(path, exc) from None
    rep, leaf = rows["replicate"], rows["leaf"]
    below = np.flatnonzero(rep < 1)
    if below.size:
        raise CliError(f"{path}: replicate numbers start at 1, found {rep[below[0]]}")
    # a run is a stretch of rows of one (replicate, leaf); ranking the few
    # labels at run heads gives every row its leaf's rank among all labels
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (rep[1:] != rep[:-1]) | (leaf[1:] != leaf[:-1])
    label_rank = np.unique(leaf[head], return_inverse=True)[1]
    code = np.repeat(label_rank, np.diff(np.flatnonzero(head), append=len(rows)))
    order = np.lexsort((code, rep))  # stable: the k-th row of a group is its k-th in the file
    rep_sorted, code = rep[order], code[order]
    start = np.ones(len(rows), dtype=bool)
    start[1:] = (rep_sorted[1:] != rep_sorted[:-1]) | (code[1:] != code[:-1])
    starts = np.flatnonzero(start)
    rank = np.arange(len(order)) - np.repeat(starts, np.diff(starts, append=len(order)))
    wrong = order[rows["position"][order] != rank + 1]
    if wrong.size:  # the first in file order is where a row-by-row reading stops
        i = wrong.min()
        raise CliError(
            f"{path}: non-contiguous positions for replicate {rows['replicate'][i]}, "
            f"leaf {rows['leaf'][i]!r}"
        )
    return rows["spacer"][order], starts, rep_sorted[starts], leaf[order[starts]].tolist()


_STATS_HEADER = {2: ["replicate", "M", "D"], 3: ["replicate", "M", "D1", "D2", "D3", "D4"]}


def _tree_times(path: str, reps, n: int, labels=None, arrays_path=None):
    """The one pass over the trees file ``path``, whose r-th nonblank line
    holds replicate r's tree (a single line, every replicate's), each
    distinct line parsed once.  In replicate order, replicate ``reps[i]``'s
    tree has the leaves ``labels[n * i:n * i + n]`` of ``arrays_path`` where
    the arrays are known, and n leaves otherwise.  Returns arrays of the
    heights and, for n = 3, the cherry depths and outgroup leaf bits."""
    with _text_file(path) as fh:
        numbered = {i: ln.strip() for i, ln in enumerate(fh, 1) if ln.strip()}
    lines, last = list(numbered.values()), max(reps, default=0)
    if len(lines) != 1 and len(lines) < last:
        raise CliError(f"{path} has {len(lines)} trees for {last} replicates")
    trees = {}  # a tree is immutable: replicates with the same line share one parse
    for i, ln in numbered.items():
        if ln not in trees:
            try:
                trees[ln] = parse_newick(ln)
            except treemod.TreeError as exc:
                raise CliError(f"{path}, line {i}: {exc}") from None
    height, depth, outgroup = [], [], []
    for i, rep in enumerate(reps):
        t = trees[lines[0 if len(lines) == 1 else rep - 1]]
        if labels is not None and list(t.leaves) != labels[n * i:n * i + n]:  # label order
            raise CliError(
                f"leaf mismatch between files at replicate {rep}: {arrays_path} has "
                f"leaves {labels[n * i:n * i + n]}, its tree {list(t.leaves)}"
            )
        if len(t.leaves) != n:
            raise CliError(
                f"replicate {rep}: {'pair' if n == 2 else 'triple'} statistics "
                f"({','.join(_STATS_HEADER[n])}) need a {n}-leaf tree, "
                f"but its tree has {len(t.leaves)} leaves"
            )
        height.append(t.height)
        if n == 3:
            f1, f2 = t.cherry()
            depth.append(t.length[t.leaf_ids[f1]])
            outgroup.append(3 - t.leaves.index(f1) - t.leaves.index(f2))
    return np.array(height), np.array(depth), np.array(outgroup)


def cmd_stats(args) -> int:
    tokens, starts, replicate, leaf = _read_arrays(args.arrays)
    if not leaf:
        raise CliError(f"{args.arrays} has no replicates")
    reps, leaves_per_rep = np.unique(replicate, return_counts=True)
    sizes = set(leaves_per_rep.tolist())
    if sizes - {2, 3} or len(sizes) != 1:
        raise CliError(f"stats requires 2 or 3 leaves per replicate, found {sizes}")
    n = sizes.pop()
    if n == 3 and not args.trees:
        raise CliError("three-leaf stats need --trees for the cherry")
    m, totals, _, _, repeat = equal_spacers.token_statistics(tokens, starts, n)
    # checked as a replicate-by-replicate pass would: trees first, then
    # repeats, stopping at the replicate of the first repeat
    stop = len(reps) if repeat < 0 else (np.searchsorted(starts, repeat, "right") - 1) // n
    if args.trees:
        *_, outgroup = _tree_times(args.trees, reps[:stop + 1].tolist(), n, leaf, args.arrays)
    if repeat >= 0:
        raise equal_spacers.duplicate_error(tokens, starts, leaf, repeat)
    ds = equal_spacers.interior_statistics(totals, outgroup if n == 3 else None)
    with _committed((args.out,)) as (fh,):
        csv.writer(fh).writerows([_STATS_HEADER[n], *(
            [rep, k] + (d if k >= 2 else [""] * len(d))
            for rep, k, d in zip(reps.tolist(), m.tolist(), ds.reshape(len(reps), -1).tolist())
        )])
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


def _replicate_arrays(path: str, reps, n: int):
    """The leaf labels, n per replicate in label order, and the spacer total
    of each replicate of ``reps``, read off the runs of :func:`_read_arrays`
    of the arrays CSV ``path``; each must be there, with n arrays."""
    tokens, starts, replicate, leaf = _read_arrays(path)
    ids, first, arrays = np.unique(replicate, return_index=True, return_counts=True)
    spacers = np.add.reduceat(np.diff(starts, append=len(tokens)), first)
    at = np.searchsorted(ids, reps)
    for rep, k in zip(reps, at.tolist()):
        if k == ids.size or ids[k] != rep:
            raise CliError(f"replicate {rep} is missing from {path}")
        if arrays[k] != n:
            raise CliError(
                f"replicate {rep} has {arrays[k]} arrays in {path}, "
                f"but {'pair' if n == 2 else 'triple'} statistics need {n}"
            )
    return [leaf[j] for k in first[at].tolist() for j in range(k, k + n)], spacers[at]


_ESTIMATE_HEADER = ["replicate", "rho_hat", "theta_hat", "loglik", "boundary", "skipped_reason"]


def _read_stats(path: str) -> tuple[int, np.ndarray]:
    """A stats CSV parsed once: n from its header and an int64 table with
    columns replicate, M, then D or D1..D4, the statistics 0 where M < 2.
    A replicate has one row."""
    with _text_file(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n = next((k for k, h in _STATS_HEADER.items() if h == header), None)
        if n is None:
            raise CliError(f"unrecognized stats header in {path}: {header}")
        table, line_of = [], {}  # line_of: the line of each replicate's row
        for row in filter(None, reader):  # blank lines are skipped
            try:
                if len(row) != len(header):
                    raise ValueError
                m = _int64(row[1])
                # statistics are empty exactly when M < 2; they read as 0
                empty = m < 2 and all(x == "" for x in row[2:])
                table.append([_int64(row[0]), m, *(0 if empty else _int64(x) for x in row[2:])])
            except ValueError:
                raise _bad_row(path, reader.line_num, header, row) from None
            rep = table[-1][0]
            if rep < 1:
                raise CliError(
                    f"{path}, line {reader.line_num}: replicate numbers start at 1, found {rep}"
                )
            if line_of.setdefault(rep, reader.line_num) != reader.line_num:
                raise CliError(
                    f"{path}, line {reader.line_num}: replicate {rep} already has "
                    f"a row on line {line_of[rep]}"
                )
    return n, np.array(table, dtype=np.int64).reshape(-1, len(header))


def cmd_estimate(args) -> int:
    n, table = _read_stats(args.stats)
    if n == 2 and args.Tprime is not None:
        raise CliError("--Tprime applies to triple statistics only")
    if args.trees and (args.T, args.Tprime) != (None, None):
        raise CliError(f"--T and --Tprime cannot be given with --trees {args.trees}")
    if not args.trees and (args.T is None or n == 3 and args.Tprime is None):
        raise CliError(f"need --trees or --T{'' if n == 2 else ' and --Tprime'}")
    reps = table[:, 0].tolist()
    labels, spacers = _replicate_arrays(args.arrays, reps, n) if args.arrays else (None, None)
    if args.trees:  # every row's tree is checked, estimated or not
        T, T_prime, _ = _tree_times(args.trees, reps, n, labels, args.arrays)
    else:
        T, T_prime = np.full(len(reps), args.T), np.full(len(reps), args.Tprime)
    used = table[:, 1] >= 2  # rows with M < 2 are skipped; the others estimated in one call
    m, d = table[used, 1], table[used, 2:]
    fit = pair_mle(m, d[:, 0], T[used]) if n == 2 else triple_mle(m, d, T[used], T_prime[used])
    rho_hat, theta, loglik, boundary = np.full((4, len(reps)), np.nan)  # NaN: no value
    rho_hat[used], loglik[used], boundary[used] = fit.rho_hat, fit.loglik, fit.boundary
    if spacers is not None:
        pos = rho_hat > 0
        theta[pos] = theta_moment(rho_hat[pos], spacers[pos], n)
    with _committed((args.out,)) as (fh,):
        csv.writer(fh).writerows([_ESTIMATE_HEADER, *(
            [rep, _fmt(r), "" if math.isnan(th) else _fmt(th), _fmt(ll), str(bool(b)).lower(), ""]
            if ok else [rep, "", "", "", "", "M<2"]
            for rep, ok, r, th, ll, b in zip(
                reps, used.tolist(), *(c.tolist() for c in (rho_hat, theta, loglik, boundary))
            )
        )])
    _report_flags(args.stats, used.sum(), fit.boundary.sum(), fit.multimodal_suspect.sum())
    return 0


# -- validate ----------------------------------------------------------


def cmd_validate(args) -> int:
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
    epochs = treemod.coalescent_epochs(n, BLOCK, rng)
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
    of the same length, true where the estimate is a boundary one and
    where it is ``multimodal_suspect``; both are false where M < 2."""
    sim, epochs = _coalescent_block(n, rho, theta_factor, rng)
    height = epochs.sum(axis=1)
    m, totals = equal_spacers.interior_totals(sim.fates(sim.tree.root)[:count], n)
    rho_hat = np.full(count, np.nan)
    boundary, suspect = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    used = np.flatnonzero(m >= 2)
    if n == 2:
        fit = pair_mle(m[used], equal_spacers.interior_statistics(totals[used]), height[used])
    else:
        # leaf 3, at bit 2, is the outgroup
        ds = equal_spacers.interior_statistics(totals[used], 2)
        fit = triple_mle(m[used], ds, height[used], epochs[used, 0])
    rho_hat[used], boundary[used], suspect[used] = fit.rho_hat, fit.boundary, fit.multimodal_suspect
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
    with _committed((config.out, config.out + ".summary.csv")) as (fh, sh):
        writer = csv.writer(fh)
        writer.writerow(["rho", "replicate", "rho_hat", "ratio", "skipped"])
        rho_text = {rho: _fmt(rho) for rho in config.rho_grid}
        writer.writerows(
            [rho_text[rho], rep, "", "", "true"] if rho_hat is None
            else [rho_text[rho], rep, _fmt(rho_hat), _fmt(rho_hat / rho), "false"]
            for rho, rep, rho_hat in rows
        )
        writer = csv.writer(sh)
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
    except MemoryError as exc:  # numpy's names the allocation; a bare one has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

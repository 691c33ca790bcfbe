"""spacerloss benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``, never from an installed copy, and the command exits
with code 2 when ``src/spacerloss`` is missing.

``--trace 0`` runs the workload as a closed loop of jobs for S seconds.
Each job is a fresh interpreter (``job.py``) that drives the program
through ``spacerloss.cli.main`` or its public functions, with the
program's worker count pinned to ``nproc``.  The parent checks every
job's outputs and reports the end-to-end metrics (medians over jobs).

``--trace 1`` runs one such job untimed by tracing, then replays the
same kind of work serially in this process through the public
functions, first without and then with spans around each layer call.
It reports the per-layer metrics, the layer shares of serial time and
the tracing overhead, and writes the spans.

Human-readable lines go to stdout first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
full record (environment, per-job figures, failures, shares) is written
to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_TIMEOUT_S = 120.0
JOBS_PER_RUN = 3
POLL_S = 0.2

END_TO_END = {
    "replicates_per_s": "1/s",
    "cpu_us_per_replicate": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "completed_frac": "ratio",
}
PER_LAYER = {
    "tree.sample_coalescent_us": "us",
    "tree.parse_newick_us": "us",
    "tree.to_newick_us": "us",
    "process.simulate_tree_us": "us",
    "process.spacers_per_replicate": "count",
    "equal_spacers.stats_us": "us",
    "equal_spacers.used_frac": "ratio",
    "equal_spacers.m_mean": "count",
    "estimators.estimate_us": "us",
    "estimators.loglik_calls": "count",
    "estimators.boundary_frac": "ratio",
    "estimators.multimodal_suspect_frac": "ratio",
    "likelihood.law_build_us": "us",
    "likelihood.logpmf_us": "us",
    "likelihood.p_exact_subset_calls": "count",
    "cli.simulate_us": "us",
    "cli.stats_us": "us",
    "cli.estimate_us": "us",
    "cli.io_self_us": "us",
    "cli.bytes_per_replicate": "B",
    "cli.pool_efficiency": "ratio",
}
LAYERS = ("tree", "process", "equal_spacers", "estimators", "likelihood", "cli")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(args, workers: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "SPACERLOSS_THREADS": workers,
        "cpu": cpu,
        "git_commit": git_commit(),
    }


# -- one job in a fresh process ---------------------------------------------

def _children(pid: int) -> list[int]:
    """Live child processes of ``pid``, whichever of its threads started them."""
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                kids.extend(int(c) for c in fh.read().split())
    except OSError:
        pass
    return kids


def _workers_private_kb(job_pid: int) -> int:
    """Memory (kB) that the job's live descendants, its pool workers, do
    not share with any other process: Private_Clean + Private_Dirty.
    Pages a forked worker shares copy-on-write with the job are not in it."""
    total, frontier = 0, _children(job_pid)
    while frontier:
        pid = frontier.pop()
        frontier.extend(_children(pid))
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                total += sum(int(ln.split()[1]) for ln in fh
                             if ln.startswith(("Private_Clean:", "Private_Dirty:")))
        except (OSError, ValueError, IndexError):
            continue
    return total


def run_job(workload, seed: int, k: int, workdir: Path, env: dict, deadline: float) -> dict:
    """Run job ``k`` in a fresh interpreter until ``deadline`` (monotonic)
    and check its outputs.  Its workers' memory is polled during its
    first sample only, and the job reads its own peak when that sample
    ends, so the peak memory is that of one invocation."""
    from workloads import Outcome

    jobdir = workdir / f"job{k}"
    jobdir.mkdir()
    spec = workload.job_spec(seed, k, str(jobdir))
    first_done = jobdir / "first_done"
    spec.update(deadline=deadline, first_done=str(first_done))
    spec_path, result_path = jobdir / "spec.json", jobdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    workers_kb = 0
    with open(jobdir / "stderr.txt", "w+") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(spec_path), str(result_path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        try:
            while proc.poll() is None:
                if time.monotonic() - t_spawn > JOB_TIMEOUT_S:
                    break
                if not first_done.exists():
                    workers_kb = max(workers_kb, _workers_private_kb(proc.pid))
                time.sleep(POLL_S)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        err.seek(0)
        stderr_tail = err.read()[-400:].strip()
    job = {"k": k}
    if proc.returncode != 0 or not result_path.exists():
        outcome = Outcome()  # the one sample a job always starts
        outcome.add(spec["per_sample"],
                    errors=[f"job {k} exited {proc.returncode}: {stderr_tail}"])
        job["samples"] = [{"outcome": outcome}]
    else:
        result = json.loads(result_path.read_text())
        outcomes = workload.check(spec, result["samples"])
        job.update(
            setup_s=result["t_begin"] - t_spawn,
            wall_s=result["t_end"] - result["t_begin"],
            # one invocation's memory: the job's own peak RSS at the end of
            # its first sample plus its workers' largest private sum
            peak_mib=(result["first_hwm_kb"] + workers_kb) / 1024.0,
            bytes=sum(os.path.getsize(p) for p in workload.outputs(spec) if os.path.exists(p)),
            samples=[{"wall_s": s["wall_s"], "cpu_s": s["cpu_s"], "outcome": o}
                     for s, o in zip(result["samples"], outcomes)],
        )
    shutil.rmtree(jobdir)
    job["replicates"] = sum(s["outcome"].attempted for s in job["samples"])
    return job


# -- metrics ------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(jobs: list[dict]) -> dict:
    """Throughput and CPU per replicate are medians over samples, set-up
    time and peak memory medians over jobs."""
    timed = [j for j in jobs if "wall_s" in j]
    samples = [s for j in timed for s in j["samples"]]
    done = [s for s in samples if s["outcome"].completed > 0]
    attempted, completed = totals(jobs)
    return {
        "replicates_per_s": _median(s["outcome"].completed / s["wall_s"] for s in samples),
        "cpu_us_per_replicate": _median(1e6 * s["cpu_s"] / s["outcome"].completed
                                        for s in done),
        "setup_s": _median(j["setup_s"] for j in timed),
        "peak_rss_mb": _median(j["peak_mib"] for j in timed),
        "completed_frac": completed / attempted if attempted else 0.0,
    }


def outcomes(jobs: list[dict]):
    return [s["outcome"] for j in jobs for s in j["samples"]]


def totals(jobs: list[dict]) -> tuple[int, int]:
    """(replicates attempted, replicates completed) over all jobs."""
    return (sum(o.attempted for o in outcomes(jobs)),
            sum(o.completed for o in outcomes(jobs)))


def per_layer_metrics(tracer, replicates: int, job: dict) -> tuple[dict, dict]:
    """Per-layer metrics, and the shares of serial time by layer and by
    library call, from the spans."""
    self_times = tracer.self_times()
    counts = tracer.counts

    def per_call_us(name):
        total, calls = self_times.get(name, (0.0, 0))
        return 1e6 * total / calls if calls else 0.0

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    layer_s = {layer: 0.0 for layer in LAYERS}
    cli_total = 0.0
    for name, (total, _) in self_times.items():
        layer = name.split(".", 1)[0]
        if layer == "cli":
            cli_total += total
        elif layer in layer_s:
            layer_s[layer] += total
    library = sum(layer_s.values())
    # cli spans wrap whole subcommands; the library calls inside them are
    # replayed separately, so the remainder is the CLI's own I/O time
    serial = cli_total if cli_total > 0 else library
    layer_s["cli"] = cli_total - library if cli_total > 0 else 0.0
    cli_reps = counts["cli.simulate.replicates"]

    def cli_us(step):
        total, _ = self_times.get(f"cli.{step}", (0.0, 0))
        reps = counts[f"cli.{step}.replicates"]
        return 1e6 * total / reps if reps else 0.0

    metrics = {
        "tree.sample_coalescent_us": per_call_us("tree.sample_coalescent"),
        "tree.parse_newick_us": per_call_us("tree.parse_newick"),
        "tree.to_newick_us": per_call_us("tree.to_newick"),
        "process.simulate_tree_us": per_call_us("process.simulate_tree"),
        "process.spacers_per_replicate": ratio("process.spacers", "process.replicates"),
        "equal_spacers.stats_us": per_call_us("equal_spacers.stats"),
        "equal_spacers.used_frac": ratio("equal_spacers.used", "equal_spacers.calls"),
        "equal_spacers.m_mean": ratio("equal_spacers.m", "equal_spacers.calls"),
        "estimators.estimate_us": per_call_us("estimators.estimate"),
        "estimators.loglik_calls": ratio("estimators.loglik_calls", "estimators.estimates"),
        "estimators.boundary_frac": ratio("estimators.boundary", "estimators.estimates"),
        "estimators.multimodal_suspect_frac":
            ratio("estimators.multimodal_suspect", "estimators.estimates"),
        "likelihood.law_build_us": per_call_us("likelihood.law_build"),
        "likelihood.logpmf_us": per_call_us("likelihood.logpmf"),
        "likelihood.p_exact_subset_calls":
            counts["likelihood.p_exact_subset_calls"] / replicates if replicates else 0.0,
        "cli.simulate_us": cli_us("simulate"),
        "cli.stats_us": cli_us("stats"),
        "cli.estimate_us": cli_us("estimate"),
        "cli.io_self_us": 1e6 * layer_s["cli"] / cli_reps if cli_reps else 0.0,
        "cli.bytes_per_replicate": job.get("bytes", 0) / job["replicates"],
    }
    shares = {
        "layers": {layer: (t / serial if serial else 0.0) for layer, t in layer_s.items()},
        "calls": {name: total / serial for name, (total, _) in self_times.items()
                  if serial and name.split(".", 1)[0] in LAYERS[:-1]},
    }
    return metrics, shares


# -- the two kinds of run -----------------------------------------------------

def run_untraced(workload, args, workdir: Path, env: dict) -> tuple[list, dict]:
    """Jobs of about a third of the run each, so set-up is measured
    several times per run."""
    jobs = []
    end = time.monotonic() + args.seconds
    while not jobs or time.monotonic() < end:
        deadline = min(time.monotonic() + args.seconds / JOBS_PER_RUN, end)
        jobs.append(run_job(workload, args.seed, len(jobs), workdir, env, deadline))
    return jobs, end_to_end_metrics(jobs)


def run_traced(workload, args, workdir: Path, env: dict, workers: int,
               out_stem: Path) -> tuple[list, dict, dict]:
    import spacerloss.cli  # noqa: F401  (import cost stays out of the replay timings)
    from spans import NullTracer, Tracer

    t_start = time.monotonic()
    job = run_job(workload, args.seed, 0, workdir, env, t_start + args.seconds / JOBS_PER_RUN)
    replay_dir = workdir / "replay"
    replay_dir.mkdir()
    # the same units of work without spans, then with them
    budget = max(args.seconds - (time.monotonic() - t_start), 1.0) / 2
    t0 = time.perf_counter()
    units, replicates = workload.replay(NullTracer(), args.seed,
                                        lambda u: u > 0 and time.perf_counter() - t0 >= budget,
                                        str(replay_dir))
    untraced_s = time.perf_counter() - t0
    tracer = Tracer()
    t1 = time.perf_counter()
    workload.replay(tracer, args.seed, lambda u: u >= units, str(replay_dir))
    traced_s = time.perf_counter() - t1
    tracer.write(out_stem.with_name(out_stem.name + "-spans.json"), t0=t1)
    metrics, shares = per_layer_metrics(tracer, replicates, job)
    # untraced serial time per replicate over the pooled job's wall time
    # per replicate times the workers; 0 where the program has no pool
    pooled_wall_per_rep = job.get("wall_s", 0.0) / job["replicates"]
    metrics["cli.pool_efficiency"] = (
        (untraced_s / replicates) / (pooled_wall_per_rep * workers)
        if workload.pool and pooled_wall_per_rep else 0.0)
    extra = {
        "replay_replicates": replicates,
        "untraced_replay_s": untraced_s,
        "traced_replay_s": traced_s,
        "tracing_overhead_frac": (traced_s - untraced_s) / untraced_s,
        "shares": shares,
    }
    return [job], metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "spacerloss" / "__init__.py").is_file():
        fail(f"no package source at {src / 'spacerloss'}")
    sys.path.insert(0, str(src))
    import spacerloss

    if Path(spacerloss.__file__).resolve().parent != (src / "spacerloss").resolve():
        fail(f"imported spacerloss from {spacerloss.__file__}, not from {src}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    workers = nproc()
    env = dict(os.environ, PYTHONPATH=str(src), SPACERLOSS_THREADS=str(workers))
    record = {"env": environment(args, workers)}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace:
            jobs, metrics, extra = run_traced(workload, args, workdir, env, workers, out_stem)
            units = PER_LAYER
        else:
            jobs, metrics = run_untraced(workload, args, workdir, env)
            extra, units = {}, END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, completed = totals(jobs)
    failed = attempted - completed
    problems = [p for o in outcomes(jobs) for p in o.problems]
    errors = [e for o in outcomes(jobs) for e in o.errors]
    extra.update(
        jobs=[{k: v for k, v in j.items() if k != "samples"} for j in jobs],
        samples=[{"job": j["k"], "wall_s": s.get("wall_s"), "cpu_s": s.get("cpu_s"),
                  "attempted": s["outcome"].attempted, "completed": s["outcome"].completed}
                 for j in jobs for s in j["samples"]],
        failed_frac=failed / attempted if attempted else 0.0,
        problems=problems[:50],
        errors=sorted(set(errors))[:50],
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(extra=extra, result=result)
    out_stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(record["env"]))
    for name, unit in units.items():
        print(f"{name:38s} {metrics[name]:14.6g} {unit}")
    print(f"{'failed_frac':38s} {extra['failed_frac']:14.6g} ratio ({failed} of {attempted})")
    if args.trace:
        for kind, shares in extra["shares"].items():
            text = "  ".join(f"{k}={v:.1%}" for k, v in
                             sorted(shares.items(), key=lambda kv: -kv[1]) if v > 0)
            print(f"shares of serial time by {kind[:-1]}: {text}")
        print(f"tracing overhead: {extra['tracing_overhead_frac']:+.1%} over "
              f"{extra['replay_replicates']} replicates")
    for line in (problems[:5] + sorted(set(errors))[:5]):
        print(f"  {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

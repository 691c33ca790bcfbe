"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/job.py SPEC.json RESULT.json

The job imports what it needs, parses its spec, stamps the end of
set-up and runs the spec's samples one after another, starting none
after the spec's deadline (a ``time.monotonic`` value) but always one.
When the first sample ends it creates the spec's ``first_done`` file, so
the parent can tell the memory of one invocation, as a user runs it in
a fresh process, from what later samples in the same process add.  It
writes to RESULT.json the set-up stamp and end time (``time.monotonic``,
comparable across processes), the job process's own peak resident
memory at the end of the first sample, and for each sample its wall
time, its CPU time (the job's and its reaped workers') and each CLI
step's exit code or the general-n records.  A nonzero exit or an
exception escaping ``main`` is recorded, not raised, so later batches
still run.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    """CPU seconds of this process and of its reaped children so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _hwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(entry, sample: list) -> dict:
    batches = []
    for batch in sample:
        steps = []
        for argv in batch:
            t0 = time.monotonic()
            error = ""
            try:
                rc = entry(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception as exc:  # an escaped exception is a counted failure
                rc, error = "exception", f"{type(exc).__name__}: {exc}"
            steps.append({"argv": argv[:1], "rc": rc, "wall_s": time.monotonic() - t0,
                          "error": error})
            if rc != 0:
                break
        batches.append(steps)
    return {"batches": batches}


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if spec["kind"] == "cli":
        from spacerloss.cli import main as entry

        def run(sample):
            return run_cli(entry, sample)
    else:
        from workloads import run_general_sample as run

    t_begin = time.monotonic()
    samples = []
    for sample in spec["samples"]:
        if samples and time.monotonic() >= spec["deadline"]:
            break
        t0, cpu0 = time.monotonic(), _cpu_s()
        out = run(sample)
        out.update(wall_s=time.monotonic() - t0, cpu_s=_cpu_s() - cpu0)
        samples.append(out)
        if len(samples) == 1:
            first_hwm_kb = _hwm_kb()
            open(spec["first_done"], "w").close()
    out = {"t_begin": t_begin, "t_end": time.monotonic(), "first_hwm_kb": first_hwm_kb,
           "samples": samples}
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent, replicate).  Spans are kept in
a list while the run lasts and written out once at the end, so tracing
does no I/O inside the timed region.  A span's self time is its duration
minus the durations of its direct children (children never overlap,
because the replay is serial).
"""

from __future__ import annotations

import json
import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: list):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans and counters; ``span`` is a context manager."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, replicate]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, replicate=None) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        if replicate is None and parent >= 0:
            replicate = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, replicate]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return _Span(self, record)

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, number of spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += end - start - child_time[i]
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path, t0: float = 0.0) -> None:
        """Write the spans (times relative to ``t0``) and counters as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "replicate"],
                    "spans": [
                        [n, s - t0, e - t0, p, r] for n, s, e, p, r in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    enabled = False

    def span(self, name: str, replicate=None) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, k: float = 1) -> None:
        pass

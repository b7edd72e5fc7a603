"""In-memory spans recorded around the benchmark's own calls into assayqc.

A span has a name, start and end (``perf_counter_ns``), the id of the span
that was open when it started (its parent) and the run id shared by every
span of one run. Spans stay in a list until ``write`` is called at the end
of the run. Self time is a span's duration minus the time its children
cover; the benchmark is single-threaded, so children never overlap and
their durations can simply be summed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Tracer:
    """Records spans when ``enabled``; otherwise ``span`` costs one branch."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        # (id, parent, name, start_ns, end_ns), appended when a span ends.
        # Tuples of atoms are untracked by the garbage collector, so a long
        # trace does not slow the collections that the measured calls trigger.
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time (ms), median call (us)."""
        own = {sid: end - start for sid, _, _, start, end in self.spans}
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        groups: dict[str, list[tuple]] = defaultdict(list)
        for span in self.spans:
            groups[span[2]].append(span)
        table = {}
        for name, spans in groups.items():
            durations = [end - start for _, _, _, start, end in spans]
            selfs = [own[span[0]] for span in spans]
            table[name] = {
                "calls": len(spans),
                "total_ms": sum(durations) / 1e6,
                "self_ms": sum(selfs) / 1e6,
                "median_us": median(durations) / 1e3,
                "median_self_us": median(selfs) / 1e3,
            }
        return table

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order: run, id, parent, name, start/end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")

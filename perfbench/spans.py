"""In-memory spans around the benchmark's calls into each layer.

Spans are recorded by the benchmark, around its own calls into the
library's public functions; nothing inside the library is instrumented.
A span holds its name, start, end, the id of the span that caused it
and the id of the job it belongs to.  Spans stay in memory until the
run ends and are written out once.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

_OFF = contextlib.nullcontext()


class Tracer:
    """Records spans and counts when enabled; costs one call when not."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []        # (id, name, start, end, parent id, job id)
        self.counts = Counter()
        self._stack = []
        self._job = None

    def span(self, name):
        return self._record(name) if self.enabled else _OFF

    @contextlib.contextmanager
    def _record(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._job = sid
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._job)

    def add(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def self_times(self):
        """Per span name: (calls, seconds not covered by child spans)."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls = Counter()
        busy = Counter()
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children[sid]):
                lo = max(c_start, reach)
                if c_end > lo:
                    covered += c_end - lo
                    reach = c_end
            calls[name] += 1
            busy[name] += (end - start) - covered
        return calls, busy

    def write(self, path, facts):
        doc = {"facts": facts, "counts": dict(self.counts),
               "fields": ["id", "name", "start", "end", "parent", "job"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

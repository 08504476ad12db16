"""In-memory spans recorded around the benchmark's calls into the package.

A span is (id, name, group, parent, start_ns, end_ns).  Spans of one line or
one campaign run share a group; ``parent`` is the id of the span that was
open when this one started, or None.  Nothing is written until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    group: str
    parent: Optional[int]
    start_ns: int
    end_ns: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_json(self):
        return {"id": self.id, "name": self.name, "group": self.group,
                "parent": self.parent, "start_ns": self.start_ns,
                "end_ns": self.end_ns}


class Tracer:
    """Records nested spans; ``enabled = False`` makes ``span`` a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._next_id = 0

    def span(self, name: str, group: str):
        if not self.enabled:
            return nullcontext()
        return self._span(name, group)

    @contextmanager
    def _span(self, name: str, group: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans.append(Span(sid, name, group, parent, start, end))

    def add(self, name: str, group: str, start_ns: int, end_ns: int) -> None:
        """Record a span measured by the caller (used for timed batches)."""
        if not self.enabled:
            return
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(self._next_id, name, group, parent, start_ns, end_ns))
        self._next_id += 1

    def named(self, name: str, groups=None) -> List[Span]:
        return [s for s in self.spans
                if s.name == name and (groups is None or s.group in groups)]

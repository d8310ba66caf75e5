"""In-memory span recording for the benchmark's traced runs.

Spans are recorded only from the benchmark's own files, around the
calls it makes into each layer of the program.  Each span carries a
name, a start and end time (``time.perf_counter`` seconds), the id of
the span that caused it and a request id.  Spans stay in memory and
are written out as JSON lines when the run ends.

Untraced runs use :data:`OFF`, whose ``span`` is a shared no-op
context manager, so the untraced paths pay one attribute lookup and
one ``with`` per layer call and record nothing.
"""

import json
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional


class Tracer:
    """Collects spans; the innermost open span is the default parent."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None,
               request=None) -> int:
        """Add a finished span and return its id."""
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": end, "parent": parent,
                           "request": request})
        return span_id

    @contextmanager
    def span(self, name: str, request=None):
        parent = self._stack[-1] if self._stack else None
        span_id = self.record(name, time.perf_counter(), 0.0, parent,
                              request)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus what children cover."""
        children: Dict[int, List[Dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: Dict[str, float] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for c in sorted(children.get(s["id"], ()),
                            key=lambda c: c["start"]):
                lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + (s["end"] - s["start"]) - covered)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")


class _Off:
    """The untraced stand-in: records nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, request=None):
        return self._null

    def record(self, name, start, end, parent=None, request=None):
        return None


OFF = _Off()

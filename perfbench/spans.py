"""In-memory span tracing around the program's public functions.

The traced run wraps public functions from here, never from ``src/``:
each call records a span (name, start, end, parent span, batch id) in
flat arrays.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of the run.  A layer's self time is its spans' duration
minus the part covered by their direct child spans; the time inside
the measured windows that no span covers is the remainder.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_MISSING = object()

#: (module, owner attribute or None for a module function, function,
#: span name) for every layer the traced run measures.
LAYER_TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serve.listener", "DatagramRouter", "route", "listener.route"),
    ("repro.serve.worker", "CommitWorker", "commit", "worker.commit"),
    ("repro.serve.worker", "CommitWorker", "checkpoint", "persistence.checkpoint"),
    ("repro.core.persistence", None, "load_checkpoint", "persistence.load"),
    ("repro.core.pipeline", "EnhancedInFilter", "process_batch", "pipeline.process_batch"),
    ("repro.core.eia", "BasicInFilter", "check", "eia.check"),
    ("repro.core.eia", "BasicInFilter", "note_benign", "eia.note_benign"),
    ("repro.core.scan", "ScanAnalyzer", "observe", "scan.observe"),
    ("repro.core.pipeline", "EnhancedInFilter", "assess_memoised", "nns.assess"),
    ("repro.core.clusters", "SubCluster", "assess", "nns.search"),
    ("repro.core.alerts", "AlertSink", "consume", "alerts.consume"),
)

#: Span names whose call opens a new batch id for its descendants.
BATCH_SPANS = frozenset({"worker.commit"})

#: Hook run after a traced call: (tracer, span index, call args, result).
Observer = Callable[["Tracer", int, tuple, object], None]


@dataclass
class SpanSummary:
    """Aggregate of one span name over the measured windows."""

    calls: int = 0
    inclusive_ns: int = 0
    self_ns: int = 0
    max_ns: int = 0


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> List[int]:
    """Each span's duration minus its direct children's durations."""
    selfs = [e - s for s, e in zip(start, end)]
    for index, p in enumerate(parent):
        if p >= 0:
            selfs[p] -= end[index] - start[index]
    return selfs


class Tracer:
    """Records spans of wrapped calls into flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.batch = array("q")
        #: (start_ns, end_ns) intervals the remainder is computed over.
        self.windows: List[Tuple[int, int]] = []
        self._stack: List[int] = []
        self._batch_id = -1
        self._batches = 0
        self._patches: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        observe: Optional[Observer] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        nid = self._id(name)
        opens_batch = name in BATCH_SPANS
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            if opens_batch:
                tracer._batch_id = tracer._batches
                tracer._batches += 1
            tracer.batch.append(tracer._batch_id)
            tracer.end.append(0)
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[index] = clock()
                stack.pop()
                if opens_batch:
                    tracer._batch_id = -1
            if observe is not None:
                observe(tracer, index, args, result)
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install_layers(self, observers: Dict[str, Observer]) -> None:
        """Wrap every :data:`LAYER_TARGETS` entry."""
        import importlib

        for module_name, owner_name, attr, name in LAYER_TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self.wrap(owner, attr, name, observers.get(name))

    # -- analysis -------------------------------------------------------------

    def summarize(self) -> Dict[str, SpanSummary]:
        """Per-name totals over spans that start inside a window."""
        selfs = self_times(self.start, self.end, self.parent)
        out = {name: SpanSummary() for name in self.names}
        for index, nid in enumerate(self.name_id):
            begin = self.start[index]
            if not any(lo <= begin < hi for lo, hi in self.windows):
                continue
            summary = out[self.names[nid]]
            duration = self.end[index] - begin
            summary.calls += 1
            summary.inclusive_ns += duration
            summary.self_ns += selfs[index]
            summary.max_ns = max(summary.max_ns, duration)
        return out

    def wall_ns(self) -> int:
        return sum(hi - lo for lo, hi in self.windows)

    def remainder_ns(self, summary: Dict[str, SpanSummary]) -> int:
        """Window time that no span's self time accounts for."""
        return self.wall_ns() - sum(s.self_ns for s in summary.values())

    def dump(self, path: Path) -> None:
        """Write every span, times relative to the first one, as JSON."""
        origin = self.start[0] if self.start else 0
        document = {
            "names": self.names,
            "name_id": list(self.name_id),
            "start_ns": [t - origin for t in self.start],
            "end_ns": [t - origin for t in self.end],
            "parent": list(self.parent),
            "batch": list(self.batch),
            "windows_ns": [(lo - origin, hi - origin) for lo, hi in self.windows],
        }
        path.write_text(json.dumps(document, separators=(",", ":")))

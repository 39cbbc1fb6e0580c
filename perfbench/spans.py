"""In-memory spans for the traced benchmark pass.

The program carries no tracing code. ``installed`` swaps the public
functions that ``rnasel.cli`` looks up at call time for timing wrappers and
restores them on exit. Each span keeps its name, start, end, parent span and
thread id. A span's self time is its duration minus the part of it that its
children on the same thread cover, so two sweep cells running on two
threads add up as busy time instead of being counted against wall time.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

ROOT = "cli.main"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Recorder:
    """Collects spans from any thread; a thread's outermost span has the
    pass span as its parent."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        if name == ROOT:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = Span(sid, name, start, end, parent, threading.get_ident())

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def _traced(recorder: Recorder, name: str, func):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return func(*args, **kwargs)

    return wrapper


def _targets():
    from rnasel import cli, clustering, ingest, render
    from rnasel.objective import ObjectiveContext

    return (
        ("annealer.run", cli, "run"),
        ("objective.context", ObjectiveContext, "from_matrices"),
        ("ingest.load_matrix", ingest, "load_matrix"),
        ("ingest.load_meta", ingest, "load_meta"),
        ("ingest.load_weights", ingest, "load_weights"),
        ("ingest.compute_ratios", ingest, "compute_ratios"),
        ("clustering.dissimilarity", clustering, "dissimilarity"),
        ("clustering.average_linkage", clustering, "average_linkage"),
        ("clustering.cut", clustering, "cut"),
        ("clustering.to_newick", clustering, "to_newick"),
        ("clustering.to_merge_dict", clustering, "to_merge_dict"),
        ("render.dendrogram_svg", render, "dendrogram_svg"),
        ("render.scatter_svg", render, "scatter_svg"),
    )


@contextmanager
def installed(recorder: Recorder):
    """Route the CLI's layer calls through ``recorder`` for the duration."""
    saved = []
    try:
        for name, owner, attr in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(_traced(recorder, name, original.__func__))
            else:
                replacement = _traced(recorder, name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _union(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Busy time per span name, summed over threads, children subtracted."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    for s in spans:
        inner = [(c.start, c.end) for c in children.get(s.id, ()) if c.thread == s.thread]
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - _union(inner)
    return out


def uncovered(spans: list[Span]) -> float:
    """Pass wall time during which no layer span was open on any thread."""
    root = next(s for s in spans if s.name == ROOT)
    layers = [
        (max(s.start, root.start), min(s.end, root.end))
        for s in spans
        if s.id != root.id and s.end > root.start and s.start < root.end
    ]
    return (root.end - root.start) - _union(layers)


def to_records(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]

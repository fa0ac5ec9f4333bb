"""Per-layer spans taken from outside the program.

For a traced run the benchmark replaces the public methods of each layer's
classes with timing wrappers, at class level and only while the run lasts;
the program under ``src/`` is not changed.  Spans stay in memory and are
written out when the run ends.

Every span records its name, start, end, parent and request id.  The
request id is the id of the root span: the benchmark's own timing of one
client call.  A span's parent is the span open on the same thread; the
first server-side span of a wire call has none on its gateway thread, so it
is parented to the client's wire span for the same channel.  Each client
keeps at most one call in flight per channel, so that match is exact.

A layer's self time is its span's duration minus the part of that interval
its child spans cover, overlapping children counted once.  Summed per
layer, self times add up to the root spans' time; the root spans' own self
time is the part no layer covers (the residual).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

ROOT = "root"


class Span:
    """One timed call: what, when, caused by which span, in which request."""

    __slots__ = ("id", "name", "metric", "parent", "request", "start", "end")

    def __init__(self, span_id: int, name: str, metric: str, parent: "Span | None") -> None:
        self.id = span_id
        self.name = name
        self.metric = metric
        self.parent = None if parent is None else parent.id
        self.request = span_id if parent is None else parent.request
        self.start = 0
        self.end = 0


def covered(intervals, start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _channel(args) -> str | None:
    """The channel a layer call addresses: its first argument's video id."""
    subject = args[1] if len(args) > 1 else None
    subject = getattr(subject, "video_id", subject)
    return subject if isinstance(subject, str) else None


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the part its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered(children[span.id], span.start, span.end)
        for span in spans
    }


class NullTracer:
    """The untraced run: root spans cost one shared no-op context."""

    _noop = nullcontext()

    def root(self, op: str):
        return self._noop

    def installed(self):
        return self._noop


class Tracer:
    """Collects spans from class-level wrappers around layer methods.

    ``targets`` lists ``(owner class, method names, metric, hook)``.  A
    hook, when given, is called as ``hook(tracer, instance, args, result,
    before)`` after the call, with ``before`` taken by ``hook.before`` (if
    defined) just before it; hooks count work the spans cannot see.
    """

    def __init__(self, targets, wire_metric: str) -> None:
        self.targets = targets
        self.wire_metric = wire_metric
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._counter_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        # Client wire span per channel, for parenting the server side.
        self._inflight: dict[str, Span] = {}

    # ------------------------------------------------------------ recording
    def count(self, name: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[name] += amount

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, metric: str, args=()) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._inflight.get(_channel(args))
        span = Span(next(self._ids), name, metric, parent)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def root(self, op: str):
        """The root span of one client call, named ``client.<op>``."""
        span = self._enter(f"client.{op}", ROOT)
        try:
            yield span
        finally:
            self._exit(span)

    # ------------------------------------------------------------- wrappers
    def _wrap(self, owner: type, attr: str, original, metric: str, hook):
        tracer = self
        name = f"{owner.__name__}.{attr}"
        is_wire = metric == self.wire_metric
        before_hook = getattr(hook, "before", None)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = before_hook(args[0]) if before_hook is not None else None
            span = tracer._enter(name, metric, args)
            if is_wire:
                channel = _channel(args)
                tracer._inflight[channel] = span
            try:
                result = original(*args, **kwargs)
            finally:
                if is_wire:
                    tracer._inflight.pop(channel, None)
                tracer._exit(span)
            if hook is not None:
                hook(tracer, args[0], args, result, before)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target method for the duration of the block."""
        patched = []
        try:
            for owner, attrs, metric, hook in self.targets:
                for attr in attrs:
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(owner, attr, original, metric, hook))
                    patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -------------------------------------------------------------- results
    def layer_totals(self) -> dict[str, dict]:
        """Per metric: calls, self time (ms) and share of root-span time."""
        selfs = self_times(self.spans)
        totals: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
        root_ns = 0
        for span in self.spans:
            entry = totals[span.metric]
            entry["calls"] += 1
            entry["self_ns"] += selfs[span.id]
            if span.metric == ROOT:
                root_ns += span.end - span.start
        result = {}
        for metric, entry in totals.items():
            result[metric] = {
                "calls": entry["calls"],
                "self_ms": entry["self_ns"] / 1e6,
                "share": entry["self_ns"] / root_ns if root_ns else 0.0,
            }
        result.setdefault(ROOT, {"calls": 0, "self_ms": 0.0, "share": 0.0})
        result[ROOT]["total_ms"] = root_ns / 1e6
        return result

    def children_named(self, parent_name: str) -> list[list[str]]:
        """For each span called ``parent_name``, the names of its children."""
        names: dict[int, list[str]] = {}
        for span in self.spans:
            if span.name == parent_name:
                names.setdefault(span.id, [])
        for span in self.spans:
            if span.parent in names:
                names[span.parent].append(span.name)
        return list(names.values())

    def export(self, path) -> int:
        """Write every span as one JSON line; returns the number written."""
        origin = min((span.start for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start_us": (span.start - origin) / 1e3,
                            "end_us": (span.end - origin) / 1e3,
                            "id": span.id,
                            "parent": span.parent,
                            "request": span.request,
                        },
                        allow_nan=False,
                    )
                    + "\n"
                )
        return len(self.spans)

"""Hierarchical tracing: spans over engine phases.

A *span* covers one phase of an analysis — a query check, a zone-graph
exploration, an SMC estimation — and records its wall time, nested child
spans, and engine-specific attributes:

    with tracing() as tracer:
        with span("mc.check", query="EF") as sp:
            ...
            sp.set("states_explored", result.states_explored)
    tracer.to_chrome_trace()   # load in chrome://tracing / Perfetto

Like the metrics collector, tracing is off by default: without a
:func:`tracing` scope, :func:`span` yields a shared null span whose
``set`` is a no-op and adds only the observation lookup.

Span attributes carry the *per-phase* view of quantities whose *totals*
live in the metrics registry (see :mod:`repro.obs.metrics`); engines
should record each fact in exactly one of the two places and
cross-reference, not duplicate — e.g. ``mc.check`` spans carry the
verdict and per-query state count, while the registry accumulates the
session-wide ``mc.states_explored`` total.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .observation import CURRENT, installed


def epoch_relative(timestamp, epoch, scale=1.0):
    """Align an absolute ``time.perf_counter()`` timestamp to a
    session epoch: ``(timestamp - epoch) * scale``.

    Every export that positions events on a wall-clock axis — span
    dicts, the Chrome trace (``scale=1e6`` for microseconds), the
    flight recorder, the dashboard timeline — goes through this one
    helper so their alignment cannot drift.
    """
    return (timestamp - epoch) * scale


class Span:
    """One timed phase: name, attributes, children, wall time."""

    __slots__ = ("name", "attributes", "children", "start", "end")

    def __init__(self, name, attributes=None, start=None):
        self.name = name
        self.attributes = dict(attributes) if attributes else {}
        self.children = []
        self.start = time.perf_counter() if start is None else start
        self.end = None

    def set(self, key, value):
        """Attach an engine-specific attribute to the span."""
        self.attributes[key] = value
        return self

    @property
    def duration(self):
        """Seconds covered (up to now while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def to_dict(self, epoch=0.0):
        return {
            "name": self.name,
            "start": epoch_relative(self.start, epoch),
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "children": [c.to_dict(epoch) for c in self.children],
        }

    def __repr__(self):
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"{len(self.children)} children)")


class _NullSpan:
    """The span handed out when tracing is off: swallows everything."""

    __slots__ = ()

    def set(self, key, value):
        return self

    def __repr__(self):
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of spans for one session."""

    def __init__(self):
        self.roots = []
        self.epoch = time.perf_counter()
        self._stack = []

    # -- span lifecycle (driven by the span() context manager) -----------------

    def _enter(self, name, attributes):
        sp = Span(name, attributes)
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        return sp

    def _exit(self, sp):
        sp.end = time.perf_counter()
        if self._stack and self._stack[-1] is sp:
            self._stack.pop()

    # -- exports ---------------------------------------------------------------

    def to_dict(self):
        """Nested JSON-ready form: list of root span dicts with
        relative start times (seconds since the tracer's epoch)."""
        return [sp.to_dict(self.epoch) for sp in self.roots]

    def to_chrome_trace(self):
        """The Chrome trace-event format (``chrome://tracing``,
        Perfetto): complete ("X") events with microsecond timestamps."""
        events = []

        def emit(sp):
            events.append({
                "name": sp.name,
                "cat": sp.name.split(".", 1)[0],
                "ph": "X",
                "ts": epoch_relative(sp.start, self.epoch, 1e6),
                "dur": sp.duration * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {k: _jsonable(v)
                         for k, v in sp.attributes.items()},
            })
            for child in sp.children:
                emit(child)

        for root in self.roots:
            emit(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def __repr__(self):
        return f"Tracer({len(self.roots)} root spans)"


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


# -- the ambient tracer ----------------------------------------------------------

def active_tracer():
    """The tracer of the installed observation, or ``None`` — tracing
    is off by default."""
    return CURRENT.get().tracer


def current_span_name():
    """The name of the innermost open span, or ``None`` when tracing is
    off (or no span is open) — the flight recorder stamps this on every
    event to correlate the two exports."""
    tracer = CURRENT.get().tracer
    if tracer is None or not tracer._stack:
        return None
    return tracer._stack[-1].name


@contextmanager
def tracing(tracer=None):
    """Install ``tracer`` (a fresh one when omitted) as the ambient
    tracer for the ``with`` body and yield it."""
    tr = tracer if tracer is not None else Tracer()
    with installed(tracer=tr):
        yield tr


@contextmanager
def span(name, **attributes):
    """Open a span under the current one and yield it; a no-op null
    span when no tracer is installed."""
    tracer = CURRENT.get().tracer
    if tracer is None:
        yield NULL_SPAN
        return
    sp = tracer._enter(name, attributes)
    try:
        yield sp
    finally:
        tracer._exit(sp)

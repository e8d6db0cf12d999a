"""Zero-dependency metrics registry: counters, gauges, histograms, timers.

Every analysis engine records what it did — states explored, zones
created, runs simulated, verdicts reached — through one *collector*.
The collector is installed with :func:`collecting` as a field of the one
installed :class:`~repro.obs.observation.Observation`, so engines record
without plumbing a registry argument through every call:

    with collecting() as collector:
        verifier.check("E<> Train(0).Cross")
        probability_estimate(network, predicate, horizon=100)
    print(collector.snapshot()["counters"]["mc.states_explored"])

Design constraints (and how they are met):

* **Default off, near-zero overhead.**  With no collector installed,
  :func:`active` returns ``None`` and the module-level helpers
  (:func:`incr`, :func:`observe`, ...) are single-branch no-ops.  Hot
  loops additionally aggregate into plain locals and flush once at run
  or call boundaries, so the per-state / per-step cost is an integer
  increment at most.
* **Thread safety.**  All mutation goes through one lock per collector;
  because engines flush aggregates rather than individual events, lock
  traffic is a handful of acquisitions per run.
* **Process safety.**  A collector cannot be shared across processes;
  instead it is *merged*: :meth:`Collector.snapshot` produces a plain
  picklable dict and :meth:`Collector.merge` folds such a snapshot (or
  another collector) in.  The parallel runtime uses exactly this to
  carry per-worker metrics back to the coordinator (see
  :mod:`repro.runtime.executor`), in task order, so parallel and serial
  runs report identical logical totals.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager

from .observation import CURRENT, installed


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def __repr__(self):
        return f"Counter({self.value})"


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def __repr__(self):
        return f"Gauge({self.value})"


class MaxGauge:
    """A high-water-mark gauge: writes and merges keep the maximum.

    Last-write-wins gauges are wrong for peak values (peak RSS, heap
    high-water marks): merging worker snapshots in task order would
    report whichever worker happened to finish last, not the process
    that actually peaked.  Max gauges merge by ``max`` instead, so the
    merged value is the true high-water mark across all workers.
    """

    __slots__ = ("value",)

    def __init__(self, value=0):
        self.value = value

    def __repr__(self):
        return f"MaxGauge({self.value})"


class Histogram:
    """Streaming summary of observed values: count / total / min / max.

    Enough for timing and size distributions without keeping samples;
    merging two histograms is exact for all four statistics.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value):
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def __repr__(self):
        return (f"Histogram(count={self.count}, mean={self.mean:.4g}, "
                f"min={self.min:.4g}, max={self.max:.4g})")


class Collector:
    """A named registry of counters, gauges, and histograms.

    Metric names are dotted strings (``"mc.states_explored"``); the
    first component is the engine namespace and groups the report
    tables.  All methods are thread-safe.
    """

    def __init__(self, name="default"):
        self.name = name
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._max_gauges = {}
        self._histograms = {}

    # -- recording -------------------------------------------------------------

    def incr(self, name, n=1):
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.value += n

    def set_gauge(self, name, value):
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            gauge.value = value

    def set_max(self, name, value):
        """Record a high-water mark: keeps the maximum ever written
        (and merges by maximum — use for peak RSS / heap values)."""
        with self._lock:
            gauge = self._max_gauges.get(name)
            if gauge is None:
                self._max_gauges[name] = MaxGauge(value)
            elif value > gauge.value:
                gauge.value = value

    def observe(self, name, value):
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    @contextmanager
    def timer(self, name):
        """Observe the wall time of the ``with`` body, in seconds, into
        the histogram ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- reading ---------------------------------------------------------------

    def value(self, name, default=0):
        """The current value of a counter or gauge (counters win)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name].value
            if name in self._gauges:
                return self._gauges[name].value
            if name in self._max_gauges:
                return self._max_gauges[name].value
            return default

    def counters(self):
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def snapshot(self):
        """A plain (picklable, JSON-ready) dict of everything recorded."""
        with self._lock:
            return {
                "counters": {n: c.value
                             for n, c in self._counters.items()},
                "gauges": {n: g.value for n, g in self._gauges.items()},
                "max_gauges": {n: g.value
                               for n, g in self._max_gauges.items()},
                "histograms": {
                    n: {"count": h.count, "total": h.total,
                        "min": h.min if h.count else None,
                        "max": h.max if h.count else None}
                    for n, h in self._histograms.items()},
            }

    # -- merging ---------------------------------------------------------------

    def merge(self, other):
        """Fold another collector (or a :meth:`snapshot` dict) into this
        one: counters and histogram summaries add, gauges last-write,
        max gauges take the maximum.

        Merging is commutative for counters, histograms, and max gauges;
        the parallel runtime nevertheless merges in task order so plain
        gauge values are deterministic too.
        """
        snap = other.snapshot() if isinstance(other, Collector) else other
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter()
                counter.value += value
            for name, value in snap.get("gauges", {}).items():
                gauge = self._gauges.get(name)
                if gauge is None:
                    gauge = self._gauges[name] = Gauge()
                gauge.value = value
            for name, value in snap.get("max_gauges", {}).items():
                gauge = self._max_gauges.get(name)
                if gauge is None:
                    self._max_gauges[name] = MaxGauge(value)
                elif value > gauge.value:
                    gauge.value = value
            for name, data in snap.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                if data["count"]:
                    histogram.count += data["count"]
                    histogram.total += data["total"]
                    histogram.min = min(histogram.min, data["min"])
                    histogram.max = max(histogram.max, data["max"])
        return self

    def clear(self):
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._max_gauges.clear()
            self._histograms.clear()

    def __repr__(self):
        return (f"Collector({self.name!r}, {len(self._counters)} counters, "
                f"{len(self._gauges)} gauges, "
                f"{len(self._histograms)} histograms)")


# -- the ambient collector ------------------------------------------------------

def active():
    """The collector of the installed observation, or ``None`` —
    observability is off by default."""
    return CURRENT.get().collector


@contextmanager
def collecting(collector=None):
    """Install ``collector`` (a fresh one when omitted) as the ambient
    collector for the ``with`` body and yield it."""
    col = collector if collector is not None else Collector()
    with installed(collector=col):
        yield col


def incr(name, n=1):
    """Increment a counter on the active collector (no-op when off)."""
    col = CURRENT.get().collector
    if col is not None:
        col.incr(name, n)


def set_gauge(name, value):
    """Set a gauge on the active collector (no-op when off)."""
    col = CURRENT.get().collector
    if col is not None:
        col.set_gauge(name, value)


def set_max(name, value):
    """Record a high-water mark on the active collector (no-op when
    off); max gauges keep — and merge by — the maximum."""
    col = CURRENT.get().collector
    if col is not None:
        col.set_max(name, value)


def observe(name, value):
    """Observe a histogram value on the active collector (no-op when
    off)."""
    col = CURRENT.get().collector
    if col is not None:
        col.observe(name, value)


@contextmanager
def timed(name):
    """Time the ``with`` body into histogram ``name`` (no-op when off)."""
    col = CURRENT.get().collector
    if col is None:
        yield None
        return
    with col.timer(name):
        yield col

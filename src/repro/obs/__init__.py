"""Unified observability: one observation scope for every engine.

One layer across every analysis engine (``mc``, ``smc``, ``pta``,
``bip``, ``tiga``, ``cora``, ``modest``, ``runtime``).  A single
installed :class:`~repro.obs.observation.Observation` holds the five
observers of a session, and the installers below each set one field of
it for a ``with`` body:

* :mod:`repro.obs.metrics` — counters / gauges / max gauges /
  histograms / timers in a :class:`Collector` (:func:`collecting`);
* :mod:`repro.obs.trace` — hierarchical spans, exportable as JSON and
  Chrome trace-event format (:func:`tracing`);
* :mod:`repro.obs.progress` — rate-limited heartbeats with an EWMA ETA
  (:func:`progress`);
* :mod:`repro.obs.profiler` — a zero-dependency statistical sampling
  profiler producing mergeable collapsed-stack profiles
  (:func:`profiling`);
* :mod:`repro.obs.flight` — the flight recorder: a bounded structured
  event log, in-flight time series and a stall watchdog
  (``repro.flight/1``, crash-preserved JSONL tail; :func:`recording`).

Engines report each checkpoint with one :func:`checkpoint` call, which
feeds both the progress heartbeat and the flight series.  The parallel
runtime runs every task under a fresh worker-side observation and
merges its one snapshot home in task order
(:meth:`Observation.merge`).

Around the scope: :mod:`repro.obs.resources` (peak-RSS / heap / GC
readings as max-merge gauges), :mod:`repro.obs.runstore` (the
append-only ``repro.runs/1`` run history), :mod:`repro.obs.diff`
(run-to-run comparison with hot-function attribution),
:mod:`repro.obs.dashboard` (one self-contained HTML file) and
:mod:`repro.obs.report` (summary tables and the schema-versioned
``repro.obs/1`` CI artifact; imported on demand).

Everything is **off by default** and costs one context-variable lookup
per engine-boundary event when off; see ``docs/OBSERVABILITY.md`` and
``docs/PROFILING.md``.
"""

from .flight import FlightRecorder, StallWatchdog, active_recorder, recording
from .metrics import (
    Collector,
    Counter,
    Gauge,
    Histogram,
    MaxGauge,
    active,
    collecting,
    incr,
    observe,
    set_gauge,
    set_max,
    timed,
)
from .observation import Observation, checkpoint
from .profiler import (
    Profile,
    Profiler,
    active_profiler,
    profile_record,
    profiling,
)
from .progress import ProgressEvent, heartbeat, progress
from .runstore import RunStore
from .trace import NULL_SPAN, Span, Tracer, active_tracer, span, tracing

__all__ = [
    "FlightRecorder", "StallWatchdog", "active_recorder", "recording",
    "Collector", "Counter", "Gauge", "Histogram", "MaxGauge",
    "active", "collecting", "incr", "observe", "set_gauge", "set_max",
    "timed",
    "Observation", "checkpoint",
    "Profile", "Profiler", "active_profiler", "profile_record",
    "profiling",
    "ProgressEvent", "heartbeat", "progress",
    "RunStore",
    "NULL_SPAN", "Span", "Tracer", "active_tracer", "span", "tracing",
]

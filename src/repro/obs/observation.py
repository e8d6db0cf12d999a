"""The one observation scope every engine reports into.

An :class:`Observation` holds a session's observers: metrics collector,
span tracer, progress sink, sampling profiler and flight recorder.  One
observation is installed per context, in the single context variable
:data:`CURRENT`.  The public installers (``collecting``, ``tracing``,
``progress``, ``profiling``, ``recording``) each install a copy of the
current observation with one field set and restore the previous one on
exit; the readers (``active``, ``span``, ``incr``, ...) read fields of
the installed one, so with nothing installed (:data:`EMPTY`) a reader
costs one context-variable lookup.  Engines report a checkpoint with
one :func:`checkpoint` call, and the parallel runtime ships an
observation to workers and back through :meth:`Observation.blueprint`,
:func:`worker_observation`, :meth:`Observation.snapshot` and
:meth:`Observation.merge`.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager


class Observation:
    """The observers of one scope; a field is ``None`` when that
    channel is off."""

    __slots__ = ("collector", "tracer", "progress", "profiler", "recorder")

    def __init__(self, collector=None, tracer=None, progress=None,
                 profiler=None, recorder=None):
        self.collector = collector
        self.tracer = tracer
        self.progress = progress
        self.profiler = profiler
        self.recorder = recorder

    def replace(self, **fields):
        """A copy of this observation with ``fields`` set."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(fields)
        return Observation(**values)

    def blueprint(self):
        """What a worker mirrors: ``{field: constructor kwargs}`` for the
        channels that ship home (collector, profiler at its rate, flight
        recorder), or ``None`` when none of them is on.  Tracing and
        progress stay with the coordinator."""
        spec = {}
        if self.collector is not None:
            spec["collector"] = {"name": "worker"}
        if self.profiler is not None:
            spec["profiler"] = {"hz": self.profiler.hz}
        if self.recorder is not None:
            spec["recorder"] = {}
        return spec or None

    def snapshot(self):
        """The shipped channels as one picklable dict with the keys
        ``metrics``, ``profile`` and ``flight`` (``None`` when off)."""
        collector, profiler, recorder = \
            self.collector, self.profiler, self.recorder
        return {
            "metrics": None if collector is None else collector.snapshot(),
            "profile": None if profiler is None
            else profiler.profile.to_dict(),
            "flight": None if recorder is None else recorder.to_dict(),
        }

    def merge(self, snapshot, worker=None):
        """Fold a worker's :meth:`snapshot` in: metrics through
        :meth:`~repro.obs.metrics.Collector.merge`, profile counts add,
        flight events are tagged with the physical ``worker`` id."""
        if self.collector is not None and snapshot["metrics"] is not None:
            self.collector.merge(snapshot["metrics"])
        if self.profiler is not None and snapshot["profile"] is not None:
            self.profiler.profile.merge(snapshot["profile"])
        if self.recorder is not None and snapshot["flight"] is not None:
            self.recorder.merge(snapshot["flight"], worker=worker)
        return self


#: The observation installed when nothing is: every channel off.
EMPTY = Observation()

#: The one context variable of :mod:`repro.obs`.
CURRENT = contextvars.ContextVar("repro_obs", default=EMPTY)


@contextmanager
def observing(observation):
    """Install ``observation`` for the ``with`` body and yield it."""
    token = CURRENT.set(observation)
    try:
        yield observation
    finally:
        CURRENT.reset(token)


def installed(**fields):
    """Install a copy of the current observation with ``fields`` set
    for the ``with`` body."""
    return observing(CURRENT.get().replace(**fields))


def checkpoint(kind, done, total=None, **gauges):
    """Report one engine checkpoint: ``done`` units of ``kind`` (out of
    ``total`` when known) plus named ``gauges``.

    Feeds the progress heartbeat (the gauges become the event's
    ``info``) and one point per ``{kind}.{gauge}`` flight series.
    Costs one context-variable lookup when neither is installed.
    """
    observation = CURRENT.get()
    if observation.progress is not None:
        observation.progress.beat(kind, done, total, gauges)
    if observation.recorder is not None:
        observation.recorder.sample(kind, **gauges)


@contextmanager
def worker_observation(blueprint):
    """Run the ``with`` body under a fresh observation built from
    ``blueprint`` (see :meth:`Observation.blueprint`) and yield it.

    It replaces the whole installed observation, so a forked worker
    does not report into observers inherited from its parent.  Its
    profiler runs for the body, and peak resource readings are sampled
    into its collector after a clean exit.  No watchdog and no crash
    dump: a failed attempt's observation dies with its worker, which is
    what keeps merged totals identical under fault recovery.
    """
    from .flight import FlightRecorder
    from .metrics import Collector
    from .profiler import Profiler

    kinds = {"collector": Collector, "profiler": Profiler,
             "recorder": FlightRecorder}
    observation = Observation(**{field: kinds[field](**kwargs)
                                 for field, kwargs in blueprint.items()})
    profiler = observation.profiler
    with observing(observation):
        if profiler is not None:
            profiler.start()
        try:
            yield observation
        finally:
            if profiler is not None:
                profiler.stop()
    if observation.collector is not None:
        from .resources import sample

        sample(observation.collector)

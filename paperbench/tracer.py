"""An in-memory tracer that wraps callables at layer boundaries.

The tracer patches attributes from outside the program: a method on its
class, or a module-level function in every loaded ``repro`` module that
holds a reference to it (``from .reachability import explore`` makes a
second reference that must be patched too).  Each wrapper counts calls
and accumulates inclusive time (outermost call of the metric only, so
recursion is not counted twice) and self time (duration minus the time
of wrapped callees).  Boundaries marked ``span=True`` also record a span
``(task, id, parent id, name, start, end)``; hot boundaries such as DBM
operations only aggregate, so memory does not grow with call counts.

:meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager


class Stat:
    """Aggregate of one metric: calls, inclusive and self seconds."""

    __slots__ = ("calls", "seconds", "self_seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.depth = 0


class Tracer:
    """Aggregates calls, times and spans of wrapped callables, and owns
    the patches that install the wrappers."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.task = None
        self._frames = []        # [start, child seconds, span id] per call
        self._span_ids = []      # ids of the open span-recording calls
        self._next_span = 0
        self._patches = []       # (owner, attribute, original, own attribute)

    # -- recording -----------------------------------------------------------

    def stat(self, metric):
        stat = self.stats.get(metric)
        if stat is None:
            stat = self.stats[metric] = Stat()
        return stat

    def _enter(self, stat, span):
        stat.depth += 1
        frame = [0.0, 0.0, None]
        if span:
            frame[2] = self._open_span()
        self._frames.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, stat, name, frame):
        end = time.perf_counter()
        frames = self._frames
        frames.pop()
        duration = end - frame[0]
        stat.depth -= 1
        if stat.depth == 0:
            stat.seconds += duration
        stat.self_seconds += duration - frame[1]
        if frames:
            frames[-1][1] += duration
        if frame[2] is not None:
            self._close_span(frame[2], name, frame[0], end)

    def _open_span(self):
        self._next_span += 1
        self._span_ids.append(self._next_span)
        return self._next_span

    def _close_span(self, span_id, name, start, end):
        self._span_ids.pop()
        parent = self._span_ids[-1] if self._span_ids else None
        self.spans.append((self.task, span_id, parent, name, start, end))

    def wrap(self, metric, fn, span=False, on_return=None):
        """``fn`` wrapped to record into ``metric``; ``on_return`` sees
        each result."""
        stat = self.stat(metric)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            stat.calls += 1
            frame = enter(stat, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(stat, metric, frame)
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, metric, fn):
        """``fn`` (a generator function) wrapped so that ``metric`` times
        the caller's wall time inside each ``next()``; one call per
        generator."""
        stat = self.stat(metric)
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            stat.calls += 1
            generator = fn(*args, **kwargs)
            try:
                while True:
                    frame = enter(stat, False)
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        leave(stat, metric, frame)
                    yield item
            finally:
                generator.close()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def task_span(self, index):
        """A root span for task ``index``; spans inside it carry the
        task's index."""
        stat = self.stat("task")
        stat.calls += 1
        self.task = index
        frame = self._enter(stat, True)
        try:
            yield
        finally:
            self._exit(stat, "task", frame)
            self.task = None

    # -- patching ------------------------------------------------------------

    def replace(self, owner, attribute, replacement):
        """Set ``owner.attribute`` until :meth:`restore`."""
        original = getattr(owner, attribute)
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, original, own))
        setattr(owner, attribute, replacement)

    def patch_method(self, cls, name, metric, generator=False, **options):
        """Wrap ``cls.name`` for every instance and subclass."""
        original = vars(cls)[name]
        wrapped = (self.wrap_generator(metric, original) if generator
                   else self.wrap(metric, original, **options))
        self.replace(cls, name, wrapped)

    def patch_function(self, fn, metric, **options):
        """Wrap ``fn`` wherever a loaded ``repro`` module refers to it;
        returns how many references were patched."""
        wrapped = self.wrap(metric, fn, **options)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro"
                                      or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self.replace(module, attribute, wrapped)
                    patched += 1
        if not patched:
            raise LookupError(f"{fn.__qualname__} is not referenced by any "
                              f"loaded repro module")
        return patched

    def patched(self):
        """``(owner, attribute)`` of every live patch."""
        return [(owner, attribute)
                for owner, attribute, _orig, _own in self._patches]

    def restore(self):
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- output --------------------------------------------------------------

    def write_spans(self, path, meta):
        """Write the recorded spans as JSON (times relative to the first
        span's start)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        document = {
            "meta": meta,
            "fields": ["task", "id", "parent", "name", "start_s", "end_s"],
            "spans": [[task, sid, parent, name, start - origin, end - origin]
                      for task, sid, parent, name, start, end
                      in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

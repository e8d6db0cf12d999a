#!/usr/bin/env python3
"""Closed-loop benchmark of the paper's zone, probabilistic and SMC stacks.

One client runs one workload's tasks back to back through the public
``repro`` API, checks every answer against ``known_answers.json``, and
prints one JSON object as the last line of standard output::

    python3 paperbench/run.py --workload fischer-single --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced tasks with tasks whose every layer boundary is wrapped (see
``layers.py``), reports the per-layer metrics, and writes the spans to
``paperbench/out/``.  End-to-end times are in reference seconds: wall
time scaled by the host speed a reference kernel reads around it (see
``hostspeed.py``).  Run from the root of a source checkout: the
program is imported from ``src/``.  README.md explains the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ANSWERS = os.path.join(HERE, "known_answers.json")
OUT = os.path.join(HERE, "out")

#: Extra fresh interpreters timed for ``setup_s``.  With the client's own
#: set-up that makes three samples; ``setup_s`` is their median.
SETUP_PROBES = 2
#: ``peak_rss_mb`` is read after this many timed tasks, on every commit.
RSS_TASKS = 8
#: Fewest timed tasks in a run: 21 puts the tail at or above the median.
MIN_TASKS = 21

END_TO_END = {
    "setup_s": "s",
    "task_s_p50": "s",
    "task_s_tail": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "task_success_rate": "ratio",
}


# -- statistics ---------------------------------------------------------------

def tail_index(n):
    """Index, in ascending order, of the tail sample of ``n`` samples.

    The tail is the highest percentile with at least ten samples beyond
    it, so index ``n - 11``; it never drops below the median index (with
    fewer than 21 samples no such percentile lies above the median).
    """
    if n < 1:
        raise ValueError("no samples")
    return max(n - 11, (n - 1) // 2)


def tail(samples):
    """``(value, percentile)`` of the tail sample."""
    ordered = sorted(samples)
    index = tail_index(len(ordered))
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# -- host readings ------------------------------------------------------------

def _status_kib(pid, field):
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise LookupError(f"{field} missing from /proc/{pid}/status")


def peak_rss_mb():
    """Peak resident memory of this process plus its live pool workers."""
    total = _status_kib("self", "VmHWM")
    for child in multiprocessing.active_children():
        total += _status_kib(child.pid, "VmHWM")
    return total / 1024.0


def rss_mb():
    """Current resident memory of this process."""
    return _status_kib("self", "VmRSS") / 1024.0


def cpu_ticks():
    """``(steal, total)`` jiffies of the host from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:9]]
    return values[7], sum(values)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


# -- set-up -------------------------------------------------------------------

def import_program():
    """Put this checkout's ``src`` first on the path; fail if absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, SRC)


def load_answers():
    with open(ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


def setup_sample(workload):
    """Set ``workload`` up; return its set-up times, with the kernel
    seconds read around them (:mod:`hostspeed`)."""
    before = hostspeed.kernel_median()
    import_s, build_s = workload.setup()
    after = hostspeed.kernel_median()
    return {"import_s": import_s, "build_s": build_s,
            "kernel_s": (before + after) / 2}


def scaled_setup(sample, part=("import_s", "build_s")):
    """Reference seconds of the ``part`` of a set-up sample."""
    seconds = sum(sample[key] for key in part)
    return hostspeed.scaled(seconds, sample["kernel_s"], sample["kernel_s"])


def probe_setup(name):
    """Fresh-interpreter set-up sample (``--probe-setup``)."""
    workload = workloads.make(name, load_answers())
    try:
        sample = setup_sample(workload)
    finally:
        workload.close()
    print(json.dumps(sample))


def setup_samples(name):
    """``SETUP_PROBES`` set-up samples, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             name], capture_output=True, text=True, timeout=150, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: set-up probe failed "
                             f"({done.returncode})")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# -- the closed loop ----------------------------------------------------------

class Loop:
    """Runs tasks back to back and records time and verdict of each."""

    def __init__(self, workload):
        self.workload = workload
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def one(self, run):
        """Run and check task ``self.index`` with ``run``; return
        ``(seconds, answer, ok)``."""
        index = self.index
        self.index += 1
        start = time.perf_counter()
        try:
            answer = run(index)
        except Exception as exc:  # a raising task is a failed task
            seconds = time.perf_counter() - start
            answer = None
            reason = f"{type(exc).__name__}: {exc}"
            if not self.reasons:
                traceback.print_exc(file=sys.stderr)
        else:
            seconds = time.perf_counter() - start
            reason = self.workload.check(index, answer)
        self.fail_if(reason, index)
        self.attempted += 1
        return seconds, answer, reason is None

    def fail_if(self, reason, index):
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"task {index}: {reason}")

    def timed(self, run, seconds, min_tasks, after=None):
        """Run tasks for ``seconds`` (and at least ``min_tasks``), with
        a run of the reference kernel before each task and after the
        last; return ``(task seconds, kernel seconds, correct tasks,
        wall seconds)``."""
        times = []
        kernel = [hostspeed.kernel_seconds()]
        correct = 0
        start = time.perf_counter()
        while True:
            elapsed, _answer, ok = self.one(run)
            kernel.append(hostspeed.kernel_seconds())
            times.append(elapsed)
            correct += ok
            if after is not None:
                after(len(times))
            if (len(times) >= min_tasks
                    and time.perf_counter() - start >= seconds):
                break
        return times, kernel, correct, time.perf_counter() - start


def warm_up(loop, workload):
    """One untimed, checked task; on the SMC workload it is recomputed
    on a SerialExecutor, which must give the same estimate bit for bit."""
    _seconds, answer, ok = loop.one(workload.task)
    serial = getattr(workload, "serial_answer", None)
    if serial is not None and ok:
        again = serial(loop.index - 1)
        if again != answer:
            loop.fail_if(f"serial estimate {again} differs from parallel "
                         f"{answer}", loop.index - 1)


def end_to_end(loop, workload, seconds, setup):
    marks = {}

    def after(count):
        if count == RSS_TASKS:
            marks["peak_rss_mb"] = peak_rss_mb()

    times, kernel, correct, wall = loop.timed(workload.task, seconds,
                                              MIN_TASKS, after)
    scaled = hostspeed.scale_all(times, kernel)
    tail_s, percentile = tail(scaled)
    metrics = {
        "setup_s": statistics.median(scaled_setup(s) for s in setup),
        "task_s_p50": statistics.median(scaled),
        "task_s_tail": tail_s,
        "tasks_per_s": correct / sum(scaled),
        "peak_rss_mb": marks["peak_rss_mb"],
        "task_success_rate": (loop.attempted - loop.failed) / loop.attempted,
    }
    extra = {"timed_tasks": len(times), "tail_percentile": percentile,
             "timed_s": wall, "wall_task_s_p50": statistics.median(times),
             "host_speed": hostspeed.REF_SECONDS / statistics.median(kernel)}
    return metrics, extra


def per_layer(loop, workload, seconds, setup, name, seed):
    from layers import LayerRun, semantics_live

    start = time.perf_counter()
    layered = LayerRun(workload)
    first = []
    times = {False: [], True: []}
    correct = {False: 0, True: 0}

    def untraced():
        elapsed, _answer, ok = loop.one(workload.task)
        return elapsed, ok

    def traced():
        with layered:
            elapsed, _answer, ok = loop.one(layered.task)
        return elapsed, ok

    # Memory is read on untraced tasks at fixed counts.
    first.append(untraced()[0])
    rss_first = rss_mb()
    first += [untraced()[0] for _ in range(RSS_TASKS - 1)]
    memory = ((rss_mb() - rss_first) / (RSS_TASKS - 1), semantics_live())
    # Traced and untraced tasks alternate, so both kinds see the same
    # host phase and the same heap; the order within each pair is drawn
    # from the seed, so periodic costs such as full garbage collections
    # do not always land on the same kind.
    order = random.Random(seed)
    pair = [(True, traced), (False, untraced)]
    while len(times[True]) < 3 or time.perf_counter() - start < seconds:
        order.shuffle(pair)
        for kind, run in pair:
            elapsed, ok = run()
            times[kind].append(elapsed)
            correct[kind] += ok
    rate = {kind: correct[kind] / sum(times[kind]) for kind in times}
    metrics = layered.metrics(
        statistics.median(first + times[False]), rate[False], rate[True],
        (statistics.median(scaled_setup(s, ("import_s",)) for s in setup),
         statistics.median(scaled_setup(s, ("build_s",)) for s in setup)),
        memory)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-{seed}.json")
    layered.tracer.write_spans(path, {"workload": name, "seed": seed,
                                      "traced_tasks": layered.tasks})
    return metrics, {"untraced_tasks": len(first) + len(times[False]),
                     "traced_tasks": layered.tasks, "spans": path}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    ticks_before = cpu_ticks()
    workload = workloads.make(args.workload, load_answers(), args.seed)
    try:
        # This interpreter is as fresh as a probe: its own set-up is the
        # first sample.
        setup = [setup_sample(workload)]
        setup += setup_samples(args.workload)
        loop = Loop(workload)
        warm_up(loop, workload)
        if args.trace:
            metrics, extra = per_layer(loop, workload, args.seconds, setup,
                                       args.workload, args.seed)
        else:
            metrics, extra = end_to_end(loop, workload, args.seconds, setup)
    finally:
        workload.close()
    if args.trace:
        from layers import PER_LAYER as units
    else:
        units = END_TO_END
    ticks_after = cpu_ticks()
    steal = None
    if ticks_before is not None and ticks_after is not None:
        total = ticks_after[1] - ticks_before[1]
        steal = (ticks_after[0] - ticks_before[0]) / total if total else 0.0
    import numpy

    provenance = {
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": loop.attempted, "steal_share": steal,
        "setup_samples_s": [s["import_s"] + s["build_s"] for s in setup],
        "setup_scaled_s": [scaled_setup(s) for s in setup],
        **extra,
    }
    print(json.dumps({"provenance": provenance}))
    for reason in loop.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        raise SystemExit(f"error: non-finite metric in {result['metrics']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

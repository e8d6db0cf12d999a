"""Tests of the benchmark itself: tiny workloads with exact answers, the
failure rules, the tail rule, the tracer, and BENCHMARK.json.

    PYTHONPATH=src python -m pytest paperbench -q
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")

# Exact answers of the tiny sizes (current engine; verdicts as in the
# paper).  BRP(4,1) is also checked against the seed reference solvers.
FISCHER3_STATES = 71
TRAINGATE2_STATES = [21, 21, 21, 31]
BRP41 = {"P1": 0.0035474311104152926, "P2": 0.0008856762552183911,
         "Emax": 8.350021195920235}
SMC_TINY_P = 0.3
SMC_TINY_ANSWERS = [(20, 64), (19, 64)]


def tiny(cls, expected=None, **params):
    workload = cls(expected, **params)
    workload.setup()
    return workload


# -- tiny workloads, exact answers ------------------------------------------

def test_fischer3_exact():
    workload = tiny(workloads.FischerSingle,
                    {"searches": [[True, FISCHER3_STATES]]}, n=3)
    answer = workload.task(0)
    assert answer == [(True, FISCHER3_STATES)]
    assert workload.check(0, answer) is None


def test_traingate2_exact():
    expected = [[True, states] for states in TRAINGATE2_STATES]
    workload = tiny(workloads.TraingateSession, {"searches": expected},
                    trains=2)
    answer = workload.task(0)
    assert [list(a) for a in answer] == expected
    assert workload.check(0, answer) is None
    assert workload.last_collector.value("mc.queries") == len(expected)


def test_brp_4_1_matches_reference_solvers():
    from regen_answers import reference_mcpta

    workload = tiny(workloads.BrpMcpta, n=4, max_retrans=1)
    reference = reference_mcpta(workload.source, workload.properties)
    workload.expected = reference
    answer = workload.task(0)
    assert workload.check(0, answer) is None
    assert answer == pytest.approx(BRP41, rel=1e-9)


def test_smc_parallel_is_serial_bit_for_bit():
    workload = tiny(workloads.TraingateSmc, {"probability": SMC_TINY_P},
                    trains=2, runs=64, horizon=10, seed=3)
    try:
        parallel = [workload.task(i) for i in range(2)]
        serial = [workload.serial_answer(i) for i in range(2)]
    finally:
        workload.close()
    assert parallel == serial
    assert parallel == SMC_TINY_ANSWERS
    assert all(workload.check(i, a) is None for i, a in enumerate(parallel))


# -- failure rules ------------------------------------------------------------

def test_truncated_search_is_a_failure():
    # Capped at 50 states, the broken Fischer-4 reads "satisfied"...
    capped = tiny(workloads.FischerSingle, {"searches": [[False, 138]]},
                  n=4, broken=True, max_states=50)
    answer = capped.task(0)
    assert answer == [(True, 50)]
    assert "truncated" in capped.check(0, answer)
    # ... even when the expected answer is what the capped search says.
    assert "truncated" in workloads.judge_searches(answer, 50, [[True, 50]])
    # Without the cap the mutual exclusion property is violated.
    full = tiny(workloads.FischerSingle, {"searches": [[False, 138]]},
                n=4, broken=True)
    answer = full.task(0)
    assert answer == [(False, 138)]
    assert full.check(0, answer) is None


def test_wrong_answers_are_failures():
    zone = [[True, 10], [True, 20]]
    assert workloads.judge_searches([(False, 10), (True, 20)], 100, zone)
    # The state count is not an answer: fewer states, same verdicts, is
    # right.
    assert workloads.judge_searches([(True, 9), (True, 20)], 100,
                                    zone) is None
    assert workloads.judge_searches([(True, 10)], 100, zone)
    brp = workloads.BrpMcpta({"P1": 1e-3, "P2": 1e-5, "Emax": 30.0})
    assert brp.check(0, {"P1": 1e-3, "P2": 1e-5, "Emax": 30.0}) is None
    assert brp.check(0, {"P1": 1.001e-3, "P2": 1e-5, "Emax": 30.0})
    assert brp.check(0, {"P1": 1e-3, "P2": 1e-5})
    smc = workloads.TraingateSmc({"probability": 0.5}, runs=100)
    assert smc.check(0, (50, 100)) is None
    assert smc.check(0, (56, 100))
    assert smc.check(0, (50, 99))


class _Scripted(workloads.Workload):
    """Answers from a script: a value, or an exception to raise."""

    def __init__(self, script):
        super().__init__({"answer": "right"})
        self.script = script

    def task(self, index):
        outcome = self.script[index]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def check(self, index, answer):
        return None if answer == self.expected["answer"] else "wrong"


def test_loop_counts_wrong_answers_and_exceptions():
    loop = run.Loop(_Scripted(["right", "wrong", RuntimeError("boom"),
                               "right"]))
    results = [loop.one(loop.workload.task)[2] for _ in range(4)]
    assert results == [True, False, False, True]
    assert (loop.attempted, loop.failed) == (4, 2)
    assert "wrong" in loop.reasons[0] and "boom" in loop.reasons[1]


def test_timed_loop_meets_min_tasks_and_counts_correct():
    loop = run.Loop(_Scripted(["right", "wrong"] * 5))
    times, kernel, correct, wall = loop.timed(loop.workload.task, 0.0, 6)
    assert len(times) == 6 and correct == 3 and wall >= sum(times)
    assert len(kernel) == 7 and wall >= sum(times) + sum(kernel[1:])


# -- host-speed calibration ---------------------------------------------------

def test_scaling_cancels_host_speed():
    # A host at half speed doubles both the task and the kernel.
    ref = hostspeed.REF_SECONDS
    assert hostspeed.scaled(0.4, ref, ref) == pytest.approx(0.4)
    assert hostspeed.scaled(0.8, 2 * ref, 2 * ref) == pytest.approx(0.4)
    assert hostspeed.scaled(0.6, ref, 2 * ref) == pytest.approx(0.4)
    assert hostspeed.scale_all([0.4, 0.8], [ref, ref, 3 * ref]) \
        == pytest.approx([0.4, 0.4])
    with pytest.raises(ValueError):
        hostspeed.scale_all([0.4, 0.8], [ref, ref])


def test_kernel_does_not_collect_and_restores_the_collector():
    assert gc.isenabled()
    assert hostspeed.kernel_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        hostspeed.kernel_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- the tail rule ------------------------------------------------------------

@pytest.mark.parametrize("n, index", [
    (1, 0), (2, 0), (11, 5), (20, 9), (21, 10), (22, 11), (40, 29),
    (100, 89), (1000, 989)])
def test_tail_index(n, index):
    assert run.tail_index(n) == index


def test_tail_has_ten_beyond_and_is_not_below_median():
    samples = [float(v) for v in range(100)]
    value, percentile = run.tail(samples)
    assert value == 89.0 and percentile == 90.0
    assert sum(s > value for s in samples) == 10
    short = [3.0, 1.0, 2.0]
    assert run.tail(short) == (2.0, pytest.approx(200 / 3))


# -- the tracer ---------------------------------------------------------------

def test_tracer_restores_every_patch():
    workload = tiny(workloads.FischerSingle,
                    {"searches": [[True, FISCHER3_STATES]]}, n=3)
    layered = layers.LayerRun(workload)
    with layered:
        live = layered.tracer.patched()
        before = {(id(owner), attr): vars(owner)[attr]
                  for owner, attr in live}
        assert len(live) > 30
        answer = layered.task(0)
    assert workload.check(0, answer) is None
    assert layered.tracer.patched() == []
    for owner, attr in live:
        now = vars(owner)[attr]
        assert now is not before[(id(owner), attr)]
        assert getattr(now, "__wrapped__", None) is None
    # The restored originals are the objects the tracer wrapped.
    for owner, attr in live:
        wrapper = before[(id(owner), attr)]
        original = getattr(wrapper, "__wrapped__", None)
        if original is not None:
            assert vars(owner)[attr] is original


def test_tracer_counts_self_time_and_spans():
    tracer = layers.Tracer()

    def inner():
        return 1

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", lambda: inner_t() + inner_t(), span=True)
    with tracer.task_span(7):
        assert outer_t() == 2
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["outer"].calls == 1
    outer_stat = tracer.stats["outer"]
    assert outer_stat.self_seconds < outer_stat.seconds
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [(7, "outer"), (7, "task")]
    task_id = tracer.spans[1][1]
    assert tracer.spans[0][2] == task_id


def test_traced_run_reports_every_per_layer_metric():
    workload = tiny(workloads.TraingateSession,
                    {"searches": [[True, s] for s in TRAINGATE2_STATES]},
                    trains=2)
    with layers.LayerRun(workload) as layered:
        layered.task(0)
    metrics = layered.metrics(0.1, 10.0, 5.0, (1.0, 0.5), (0.0, 0))
    assert set(metrics) == set(layers.PER_LAYER)
    # explore() runs the safety and the deadlock search; the leads-to
    # queries materialise the graph instead.
    assert metrics["mc.states_explored"] == (TRAINGATE2_STATES[0]
                                             + TRAINGATE2_STATES[-1])
    assert metrics["trace.overhead"] == pytest.approx(0.5)
    assert metrics["dbm.federation.s"] > 0
    assert metrics["mc.liveness.s"] > 0


# -- BENCHMARK.json and the command line --------------------------------------

def test_benchmark_json_names_the_printed_metrics():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with open(run.ANSWERS, encoding="utf-8") as handle:
        answers = json.load(handle)
    assert set(workloads.WORKLOADS) <= set(answers)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "paperbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", "fischer-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

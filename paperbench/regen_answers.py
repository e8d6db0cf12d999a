#!/usr/bin/env python3
"""Regenerate ``known_answers.json`` from independent references.

    python3 paperbench/regen_answers.py

Run ``git diff paperbench/known_answers.json`` afterwards to see what
changed.  The workload sizes are the constructor defaults in
``workloads.py``.

* Zone workloads: the verdicts the paper states (mutual exclusion holds
  for Fischer; the train-gate is safe, live and deadlock-free) and the
  exact state counts of the current engine.
* ``brp-mcpta``: P1, P2 and Emax from the seed digital-clocks builder
  and solvers kept in ``repro.mdp.reference``; the current ``mcpta``
  must match them within 1e-9 relative or 1e-12 absolute.  BRP(16,2)
  must still give Table I's 4.233e-4, 2.645e-5 and 33.47.
* ``traingate-smc``: a reference probability from 24,000 runs.

Takes a few minutes (the reference solver and the 24,000 runs dominate).
Run from the root of a source checkout.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

ANSWERS = os.path.join(HERE, "known_answers.json")
SMC_REFERENCE_RUNS = 24_000
SMC_REFERENCE_SEED = 20_120_312
TABLE_I = {"P1": 4.233e-4, "P2": 2.645e-5, "Emax": 33.47}
TABLE_I_RTOL = 1e-3


def note(text):
    print(text, file=sys.stderr, flush=True)


def zone_answers(workload, paper_verdicts):
    name = workload.name
    workload.setup()
    searches = workload.task(0)
    verdicts = [holds for holds, _states in searches]
    if verdicts != paper_verdicts:
        raise SystemExit(f"{name}: verdicts {verdicts} differ from the "
                         f"paper's {paper_verdicts}")
    note(f"{name}: {searches}")
    return {"searches": [list(search) for search in searches]}


def reference_mcpta(source, properties):
    """P1, P2, Emax from the seed builder and solvers."""
    from repro.mdp import reference
    from repro.modest import Emax, load

    digital = reference.reference_build_digital_mdp(load(source))
    values = {}
    for prop in properties:
        targets = digital.states_where(prop.predicate)
        if isinstance(prop, Emax):
            vector = reference.expected_total_reward(digital.mdp, targets)
        else:
            vector = reference.reachability_probability(digital.mdp, targets)
        values[prop.name] = float(vector[0])
    return values


def brp_answers():
    workload = workloads.BrpMcpta(None)
    workload.setup()
    start = time.perf_counter()
    reference = reference_mcpta(workload.source, workload.properties)
    note(f"brp-mcpta reference: {reference} "
         f"({time.perf_counter() - start:.1f} s)")
    current = workload.task(0)
    for name, want in reference.items():
        if workloads.brp_mismatch(current[name], want):
            raise SystemExit(f"brp-mcpta: mcpta {name} = {current[name]!r} "
                             f"differs from the reference {want!r}")
    table = workloads.BrpMcpta(None, n=16, max_retrans=2)
    table.setup()
    table_values = table.task(0)
    for name, paper in TABLE_I.items():
        if abs(table_values[name] - paper) > TABLE_I_RTOL * paper:
            raise SystemExit(f"BRP(16,2): {name} = {table_values[name]!r} "
                             f"is not Table I's {paper}")
    note(f"BRP(16,2) matches Table I: {table_values}")
    return reference


def smc_answers():
    workload = workloads.TraingateSmc(None)
    workload.setup()
    try:
        estimate = workload._run(workload.executor, SMC_REFERENCE_SEED,
                                 runs=SMC_REFERENCE_RUNS)
    finally:
        workload.close()
    p = estimate.successes / estimate.runs
    note(f"traingate-smc reference: {estimate}")
    return {"probability": p,
            "reference_runs": SMC_REFERENCE_RUNS,
            "reference_seed": SMC_REFERENCE_SEED,
            "miss_probability": miss_probability(p, workload.runs,
                                                 workloads.SMC_EPSILON)}


def miss_probability(p, runs, epsilon):
    """Binomial chance that a ``runs``-run estimate of ``p`` lands more
    than ``epsilon`` away: how often a correct program fails the check."""
    total = 0.0
    for k in range(runs + 1):
        if abs(k / runs - p) > epsilon:
            total += math.exp(math.lgamma(runs + 1) - math.lgamma(k + 1)
                              - math.lgamma(runs - k + 1)
                              + (k * math.log(p) if k else 0.0)
                              + ((runs - k) * math.log1p(-p)
                                 if runs - k else 0.0))
    return total


def main():
    session = workloads.TraingateSession(None)
    answers = {
        "generated_by": "python3 paperbench/regen_answers.py",
        "fischer-single": zone_answers(workloads.FischerSingle(None), [True]),
        "traingate-session": zone_answers(
            session, [True] * (1 + session.trains + 1)),
        "brp-mcpta": brp_answers(),
        "traingate-smc": smc_answers(),
    }
    with open(ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(answers, handle, indent=2)
        handle.write("\n")
    note(f"wrote {ANSWERS}")


if __name__ == "__main__":
    main()

"""Per-layer metrics of the traced run.

:func:`install` wraps the public callables at each layer boundary of
``repro`` (the layer is the module: ``repro.dbm``, ``repro.ta``,
``repro.mc``, ``repro.modest``, ``repro.pta``, ``repro.mdp``,
``repro.runtime``, ``repro.obs``); ``repro.smc`` is read from the
worker counters the runtime ships home.  :class:`LayerRun` runs traced
tasks and turns the tracer's totals into per-task metrics.  README.md
defines each metric and the end-to-end metric it should move.
"""

from __future__ import annotations

import gc
import sys

from tracer import Tracer

#: Every per-layer metric with its unit, in output order.
PER_LAYER = {
    "dbm.close.calls": "count",
    "dbm.close.s": "s",
    "dbm.constrain.calls": "count",
    "dbm.constrain.s": "s",
    "dbm.extrapolate.s": "s",
    "dbm.includes.calls": "count",
    "dbm.includes.s": "s",
    "dbm.federation.s": "s",
    "ta.successors.calls": "count",
    "ta.successors.self_s": "s",
    "ta.succ_cache.hit_ratio": "ratio",
    "ta.intern.hit_ratio": "ratio",
    "mc.explore.self_s": "s",
    "mc.pwlist.s": "s",
    "mc.pwlist.accept_ratio": "ratio",
    "mc.states_explored": "count",
    "mc.us_per_state": "us",
    "mc.liveness.s": "s",
    "mc.deadlock.s": "s",
    "modest.load.s": "s",
    "pta.build.s": "s",
    "pta.states": "count",
    "pta.us_per_state": "us",
    "pta.states_where.s": "s",
    "mdp.prob0.s": "s",
    "mdp.prob1.s": "s",
    "mdp.scc.s": "s",
    "mdp.mec.s": "s",
    "mdp.vi.s": "s",
    "mdp.vi.iterations": "count",
    "mdp.reward.s": "s",
    "smc.sim.runs": "count",
    "smc.sim.steps": "count",
    "smc.us_per_step": "us",
    "runtime.imap.s": "s",
    "runtime.worker_busy_s": "s",
    "runtime.dispatch_share": "ratio",
    "runtime.retries": "count",
    "obs.merge.calls": "count",
    "obs.merge.s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "mem.rss_growth_mb_per_task": "MiB",
    "pta.semantics_live": "count",
    "trace.overhead": "ratio",
}

_FEDERATION_OPS = ("union", "add", "intersect", "intersect_zone",
                   "subtract", "complement", "includes_zone", "includes",
                   "up", "down")


class Counts:
    """Exact counts read at the layer boundaries during traced tasks."""

    def __init__(self):
        self.states_explored = 0
        self.pwlist_offered = 0
        self.pwlist_accepted = 0
        self.pta_states = 0
        self.vi_iterations = 0
        self.succ_hits = 0
        self.succ_lookups = 0
        self.intern_hits = 0
        self.intern_calls = 0
        self.counters = {}
        self.busy_s = 0.0

    def accepted(self, stored):
        self.pwlist_offered += 1
        if stored:
            self.pwlist_accepted += 1

    def explored(self, result):
        self.states_explored += result.states_explored

    def built(self, digital):
        self.pta_states += digital.mdp.num_states

    def iterated(self, iterations):
        self.vi_iterations += iterations

    def harvest_graphs(self, graphs):
        for graph in graphs:
            cache = graph.succ_cache
            if cache is not None:
                self.succ_hits += cache.hits
                self.succ_lookups += cache.hits + cache.misses
            store = graph.zone_store
            if store is not None:
                self.intern_hits += store.hits
                self.intern_calls += store.hits + store.distinct
        graphs.clear()

    def harvest_collector(self, collector):
        snapshot = collector.snapshot()
        for name, value in snapshot["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        busy = snapshot["histograms"].get("runtime.task_seconds")
        if busy is not None:
            self.busy_s += busy["total"]


def install(tracer, counts, graphs):
    """Wrap every layer boundary; ``graphs`` collects each ZoneGraph
    built while the tracer is live."""
    from repro.dbm import DBM, Federation
    from repro.mc import PassedWaitingList, explore, has_deadlock
    from repro.mc import liveness
    from repro.mdp import analysis, graph as mdp_graph
    from repro.modest import toolset
    from repro.obs import Collector
    from repro.pta import digital
    from repro.runtime import ParallelExecutor
    from repro.ta import ZoneGraph

    tracer.patch_method(DBM, "close", "dbm.close")
    tracer.patch_method(DBM, "constrain", "dbm.constrain")
    tracer.patch_method(DBM, "extrapolate", "dbm.extrapolate")
    tracer.patch_method(DBM, "extrapolate_lu", "dbm.extrapolate")
    tracer.patch_method(DBM, "includes", "dbm.includes")
    for name in _FEDERATION_OPS:
        tracer.patch_method(Federation, name, "dbm.federation")

    original_init = ZoneGraph.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        graphs.append(self)

    tracer.replace(ZoneGraph, "__init__", init)
    tracer.patch_method(ZoneGraph, "successors", "ta.successors")

    tracer.patch_function(explore, "mc.explore", span=True,
                          on_return=counts.explored)
    tracer.patch_method(PassedWaitingList, "add_if_new", "mc.pwlist",
                        on_return=counts.accepted)
    for fn in (liveness.materialise, liveness.check_af, liveness.check_eg,
               liveness.check_leadsto):
        tracer.patch_function(fn, "mc.liveness", span=True)
    tracer.patch_function(has_deadlock, "mc.deadlock")

    tracer.patch_function(toolset.load, "modest.load", span=True)
    tracer.patch_function(digital.build_digital_mdp, "pta.build", span=True,
                          on_return=counts.built)
    tracer.patch_method(digital.DigitalMDP, "states_where",
                        "pta.states_where", span=True)

    for fn in (analysis.prob0_max, analysis.prob0_min):
        tracer.patch_function(fn, "mdp.prob0", span=True)
    for fn in (analysis.prob1_max, analysis.prob1_min):
        tracer.patch_function(fn, "mdp.prob1", span=True)
    tracer.patch_function(mdp_graph.tarjan_scc, "mdp.scc", span=True)
    tracer.patch_function(mdp_graph.maximal_end_components, "mdp.mec",
                          span=True)
    tracer.patch_function(mdp_graph.topological_value_iteration, "mdp.vi",
                          span=True, on_return=counts.iterated)
    tracer.patch_function(analysis.expected_total_reward, "mdp.reward",
                          span=True)

    tracer.patch_method(ParallelExecutor, "imap", "runtime.imap",
                        generator=True)
    tracer.patch_method(Collector, "merge", "obs.merge", span=True)


class LayerRun:
    """Runs tasks of one workload with every layer boundary traced.

    The layer boundaries are wrapped only inside ``with`` (the wrappers
    of each entry add to the same totals), so traced and untraced tasks
    can alternate."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = Tracer()
        self.counts = Counts()
        self.graphs = []
        self.tasks = 0

    def __enter__(self):
        install(self.tracer, self.counts, self.graphs)
        return self

    def __exit__(self, *exc_info):
        self.tracer.restore()

    def task(self, index):
        """Run one traced task and harvest what it left behind."""
        with self.tracer.task_span(index):
            answer = self.workload.task(index)
        self.counts.harvest_graphs(self.graphs)
        collector = self.workload.last_collector
        if collector is not None:
            self.counts.harvest_collector(collector)
        self.tasks += 1
        return answer

    def metrics(self, untraced_task_s, untraced_rate, traced_rate, setup,
                memory):
        """Every :data:`PER_LAYER` metric, per traced task where it is a
        total.  ``untraced_task_s`` is the median untraced task time,
        the rates are correct tasks per second of task time, untraced
        and traced, ``setup``
        is ``(import_s, build_s)`` and ``memory`` is ``(RSS growth in
        MiB per task, live semantics entries)``, both read in the
        untraced phase at fixed task counts."""
        stats = self.tracer.stats
        counts = self.counts
        tasks = max(self.tasks, 1)

        def calls(metric):
            return stats[metric].calls / tasks

        def seconds(metric):
            return stats[metric].seconds / tasks

        def self_seconds(metric):
            return stats[metric].self_seconds / tasks

        def ratio(part, whole):
            return part / whole if whole else 0.0

        states = counts.states_explored / tasks
        pta_states = counts.pta_states / tasks
        steps = counts.counters.get("smc.sim.steps", 0)
        workers = getattr(self.workload, "workers", 0)
        imap_s = seconds("runtime.imap")
        busy_s = counts.busy_s / tasks
        return {
            "dbm.close.calls": calls("dbm.close"),
            "dbm.close.s": seconds("dbm.close"),
            "dbm.constrain.calls": calls("dbm.constrain"),
            "dbm.constrain.s": seconds("dbm.constrain"),
            "dbm.extrapolate.s": seconds("dbm.extrapolate"),
            "dbm.includes.calls": calls("dbm.includes"),
            "dbm.includes.s": seconds("dbm.includes"),
            "dbm.federation.s": seconds("dbm.federation"),
            "ta.successors.calls": calls("ta.successors"),
            "ta.successors.self_s": self_seconds("ta.successors"),
            "ta.succ_cache.hit_ratio": ratio(counts.succ_hits,
                                             counts.succ_lookups),
            "ta.intern.hit_ratio": ratio(counts.intern_hits,
                                         counts.intern_calls),
            "mc.explore.self_s": self_seconds("mc.explore"),
            "mc.pwlist.s": seconds("mc.pwlist"),
            "mc.pwlist.accept_ratio": ratio(counts.pwlist_accepted,
                                            counts.pwlist_offered),
            "mc.states_explored": states,
            "mc.us_per_state": ratio(untraced_task_s * 1e6, states),
            "mc.liveness.s": seconds("mc.liveness"),
            "mc.deadlock.s": seconds("mc.deadlock"),
            "modest.load.s": seconds("modest.load"),
            "pta.build.s": seconds("pta.build"),
            "pta.states": pta_states,
            "pta.us_per_state": ratio(seconds("pta.build") * 1e6,
                                      pta_states),
            "pta.states_where.s": seconds("pta.states_where"),
            "mdp.prob0.s": seconds("mdp.prob0"),
            "mdp.prob1.s": seconds("mdp.prob1"),
            "mdp.scc.s": seconds("mdp.scc"),
            "mdp.mec.s": seconds("mdp.mec"),
            "mdp.vi.s": seconds("mdp.vi"),
            "mdp.vi.iterations": counts.vi_iterations / tasks,
            "mdp.reward.s": seconds("mdp.reward"),
            "smc.sim.runs": counts.counters.get("smc.sim.runs", 0) / tasks,
            "smc.sim.steps": steps / tasks,
            "smc.us_per_step": ratio(counts.busy_s * 1e6, steps),
            "runtime.imap.s": imap_s,
            "runtime.worker_busy_s": busy_s,
            "runtime.dispatch_share": (1.0 - ratio(busy_s, workers * imap_s)
                                       if workers and imap_s else 0.0),
            "runtime.retries": counts.counters.get("runtime.retries", 0)
            / tasks,
            "obs.merge.calls": calls("obs.merge"),
            "obs.merge.s": seconds("obs.merge"),
            "setup.import_s": setup[0],
            "setup.build_s": setup[1],
            "mem.rss_growth_mb_per_task": memory[0],
            "pta.semantics_live": memory[1],
            "trace.overhead": 1.0 - ratio(traced_rate, untraced_rate),
        }


def semantics_live():
    """Live entries of the digital-clocks semantics memo (0 when the
    probabilistic stack was never imported)."""
    module = sys.modules.get("repro.pta.digital")
    if module is None:
        return 0
    gc.collect()
    return len(module._SEMANTICS)

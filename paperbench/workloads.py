"""The benchmark's four workloads.

Each workload splits into the two set-up steps that ``setup_s`` times
(:meth:`Workload.load` imports the modules the workload calls,
:meth:`Workload.build` builds or parses the model), one task that runs
through the public ``repro`` API, and a check of the task's answer
against the known answers in ``known_answers.json``.  A task fails when
it raises, when its answer is wrong, or when a zone search was cut off
at ``max_states`` (``explore`` stops there silently, so an ``A[]``
query would otherwise read as satisfied).

Nothing here imports ``repro`` at module level: the fresh-interpreter
set-up probe imports this file first and only then starts its clock.
"""

from __future__ import annotations

import time

#: The Chernoff budget for epsilon = delta = 0.05, and that epsilon.
SMC_RUNS = 738
SMC_EPSILON = 0.05
#: State cap of every zone search; reaching it fails the task.
MAX_STATES = 200_000
#: Tolerance against the reference MDP solvers: 1e-9 relative, or
#: 1e-12 absolute, the convergence threshold both value iterations stop
#: at (P2 is about 8e-7, so its last digits are below that threshold).
BRP_RTOL = 1e-9
BRP_ATOL = 1e-12


def brp_mismatch(got, want):
    """True when an mcpta value is off the reference value."""
    return got is None or abs(got - want) > max(BRP_RTOL * abs(want),
                                                BRP_ATOL)


def task_seed(seed, index):
    """The SMC seed of task ``index`` of a run started with ``seed``."""
    return seed * 100_000 + index


class Workload:
    """One workload: set-up, a task, and the check of its answer."""

    name = None
    #: The metrics collector installed around the last task, if any.
    last_collector = None

    def __init__(self, expected, seed=0):
        self.expected = expected
        self.seed = seed

    def load(self):
        """Import the modules the workload calls."""
        raise NotImplementedError

    def build(self):
        """Build or parse the model (and start any worker pool)."""

    def setup(self):
        """Run both set-up steps; return ``(import_s, build_s)``."""
        start = time.perf_counter()
        self.load()
        loaded = time.perf_counter()
        self.build()
        return loaded - start, time.perf_counter() - loaded

    def task(self, index):
        """Run task ``index`` and return its answer."""
        raise NotImplementedError

    def check(self, index, answer):
        """``None`` when ``answer`` is right, else the reason it is not."""
        raise NotImplementedError

    def close(self):
        """Release what :meth:`build` started."""


def judge_searches(results, max_states, expected):
    """Check ``(holds, states_explored)`` pairs against the expected
    verdicts (the first item of each expected pair).

    A search that explored ``max_states`` states or more was truncated:
    its verdict is meaningless whatever it says.  The number of states
    explored is not checked: a change that explores fewer states (a
    coarser abstraction) is still right, and shows in the traced run's
    ``mc.states_explored``.
    """
    if len(results) != len(expected):
        return f"{len(results)} results for {len(expected)} queries"
    for number, ((holds, states), (want_holds, _states)) in enumerate(
            zip(results, expected)):
        if states >= max_states:
            return (f"query {number}: search truncated at "
                    f"max_states={max_states}")
        if holds != want_holds:
            return f"query {number}: verdict {holds}, expected {want_holds}"
    return None


class FischerSingle(Workload):
    """Fischer mutual exclusion ``A[]``, one cold lu+ search per task."""

    name = "fischer-single"

    def __init__(self, expected, seed=0, n=5, max_states=MAX_STATES,
                 broken=False):
        super().__init__(expected, seed)
        self.n = n
        self.max_states = max_states
        self.broken = broken

    def load(self):
        from repro.mc import Verifier
        from repro.models.fischer import make_fischer, mutual_exclusion_query

        self._verifier = Verifier
        self._make = make_fischer
        self._query = mutual_exclusion_query

    def build(self):
        self.network = self._make(self.n, broken=self.broken)
        self.query = self._query(self.n)

    def task(self, index):
        verifier = self._verifier(self.network, abstraction="lu+",
                                  max_states=self.max_states)
        result = verifier.check(self.query)
        return [(result.holds, result.states_explored)]

    def check(self, index, answer):
        return judge_searches(answer, self.max_states,
                              self.expected["searches"])


class TraingateSession(Workload):
    """The Section II-a batch on the Fig. 1 train-gate, one Verifier per
    task, under an installed metrics collector."""

    name = "traingate-session"

    def __init__(self, expected, seed=0, trains=4):
        super().__init__(expected, seed)
        self.trains = trains

    def load(self):
        from repro.mc import AG, And, LeadsTo, LocationIs, Not, Or, Verifier
        from repro.models.traingate import make_traingate
        from repro.obs import Collector, collecting

        self._mc = (AG, And, LeadsTo, LocationIs, Not, Or)
        self._verifier = Verifier
        self._make = make_traingate
        self._collector = Collector
        self._collecting = collecting

    def build(self):
        AG, And, LeadsTo, LocationIs, Not, Or = self._mc
        n = self.trains
        self.network = self._make(n)
        two_cross = Or(*[And(LocationIs(f"Train({i})", "Cross"),
                             LocationIs(f"Train({j})", "Cross"))
                         for i in range(n) for j in range(n) if i != j])
        self.queries = [AG(Not(two_cross))] + [
            LeadsTo(LocationIs(f"Train({i})", "Appr"),
                    LocationIs(f"Train({i})", "Cross"))
            for i in range(n)]

    def task(self, index):
        verifier = self._verifier(self.network, max_states=MAX_STATES)
        self.last_collector = self._collector("traingate-session")
        with self._collecting(self.last_collector):
            results = [verifier.check(query) for query in self.queries]
            results.append(verifier.deadlock_free())
        return [(r.holds, r.states_explored) for r in results]

    def check(self, index, answer):
        return judge_searches(answer, MAX_STATES, self.expected["searches"])


class BrpMcpta(Workload):
    """The mcpta column of Table I from MODEST source text."""

    name = "brp-mcpta"

    def __init__(self, expected, seed=0, n=32, max_retrans=3):
        super().__init__(expected, seed)
        self.n = n
        self.max_retrans = max_retrans

    def load(self):
        from repro.models import brp_modest
        from repro.modest import Emax, Pmax, mcpta

        self._brp = brp_modest
        self._props = (Emax, Pmax)
        self._mcpta = mcpta

    def build(self):
        Emax, Pmax = self._props
        bm = self._brp
        self.source = bm.brp_modest_source(self.n, self.max_retrans, 1)
        self.properties = [Pmax("P1", bm.not_success),
                           Pmax("P2", bm.uncertainty),
                           Emax("Emax", bm.reported)]

    def task(self, index):
        return self._mcpta(self.source, self.properties)

    def check(self, index, answer):
        for name in ("P1", "P2", "Emax"):
            want = self.expected[name]
            got = answer.get(name)
            if brp_mismatch(got, want):
                return f"{name} = {got!r}, expected {want!r}"
        return None


class TraingateSmc(Workload):
    """UPPAAL-SMC probability estimation on a two-worker process pool."""

    name = "traingate-smc"
    #: Pool size: one worker per vCPU of a 2-vCPU host.
    workers = 2

    def __init__(self, expected, seed=0, trains=6, runs=SMC_RUNS,
                 horizon=100):
        super().__init__(expected, seed)
        self.trains = trains
        self.runs = runs
        self.horizon = horizon
        self.executor = None

    def load(self):
        from repro.models.traingate import cross_predicate, make_traingate
        from repro.obs import Collector, collecting
        from repro.runtime import ParallelExecutor, SerialExecutor, Spec
        from repro.smc import probability_estimate

        self._estimate = probability_estimate
        self._executors = (ParallelExecutor, SerialExecutor)
        self._collector = Collector
        self._collecting = collecting
        self.model = Spec(make_traingate, self.trains)
        self.predicate = Spec(cross_predicate, 0)

    def build(self):
        parallel, _serial = self._executors
        self.executor = parallel(workers=self.workers)
        # Start the pool and let every worker build its model cache.
        self._run(self.executor, rng=-1, runs=8 * self.workers)

    def _run(self, executor, rng, runs=None):
        return self._estimate(self.model, self.predicate,
                              horizon=self.horizon,
                              runs=self.runs if runs is None else runs,
                              rng=rng, executor=executor)

    def task(self, index):
        self.last_collector = self._collector("traingate-smc")
        with self._collecting(self.last_collector):
            estimate = self._run(self.executor, task_seed(self.seed, index))
        return estimate.successes, estimate.runs

    def serial_answer(self, index):
        """Task ``index`` recomputed in-process on a SerialExecutor."""
        _parallel, serial = self._executors
        estimate = self._run(serial(), task_seed(self.seed, index))
        return estimate.successes, estimate.runs

    def check(self, index, answer):
        successes, runs = answer
        if runs != self.runs:
            return f"{runs} runs, expected {self.runs}"
        reference = self.expected["probability"]
        if abs(successes / runs - reference) > SMC_EPSILON:
            return (f"estimate {successes / runs:.4f} is more than "
                    f"{SMC_EPSILON} from the reference {reference:.4f}")
        return None

    def close(self):
        if self.executor is not None:
            self.executor.close()
            self.executor = None


WORKLOADS = {cls.name: cls for cls in (FischerSingle, TraingateSession,
                                       BrpMcpta, TraingateSmc)}


def make(name, answers, seed=0):
    """The workload ``name`` at its benchmark size (the constructor's
    defaults), checked against ``answers[name]``."""
    return WORKLOADS[name](answers[name], seed)

"""Tests for PTA syntax, the digital-clocks translation, the
overapproximation, and the digital simulator."""

import gc

import pytest

import repro.pta.digital as digital
from repro.core import AnalysisError, ModelError, Declarations
from repro.mdp import expected_total_reward, reachability_probability
from repro.pta import (
    PTA,
    PTANetwork,
    build_digital_mdp,
    DigitalSimulator,
    digital_semantics,
    overapproximate_network,
)
from repro.ta import clk


def coin_pta(p=0.5):
    """One probabilistic step: flip -> heads/tails after exactly 1 t.u."""
    a = PTA("Coin", clocks=["x"])
    a.add_location("flip", invariant=[clk("x", "<=", 1)])
    a.add_location("heads")
    a.add_location("tails")
    a.initial_location = "flip"
    a.add_prob_edge("flip", [(p, "heads"), (1 - p, "tails")],
                    guard=[clk("x", ">=", 1)])
    net = PTANetwork("coin")
    net.add_process("C", a)
    return net.freeze()


def retry_pta(p=0.25):
    """Repeated trials, 1 time unit each, until success."""
    a = PTA("Retry", clocks=["x"])
    a.add_location("try", invariant=[clk("x", "<=", 1)])
    a.add_location("done")
    a.initial_location = "try"
    a.add_prob_edge("try", [(p, "done"), (1 - p, "try", [("x", 0)])],
                    guard=[clk("x", ">=", 1)])
    net = PTANetwork("retry")
    net.add_process("R", a)
    return net.freeze()


class TestPTASyntax:
    def test_branch_probabilities_must_sum(self):
        a = PTA("A")
        a.add_location("s")
        a.add_location("t")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [(0.5, "t")])

    def test_unknown_branch_target(self):
        a = PTA("A")
        a.add_location("s")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [(1.0, "ghost")])

    def test_unknown_branch_reset_clock(self):
        a = PTA("A", clocks=["x"])
        a.add_location("s")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [(1.0, "s", [("y", 0)])])

    def test_empty_branches(self):
        a = PTA("A")
        a.add_location("s")
        with pytest.raises(ModelError):
            a.add_prob_edge("s", [])


class TestDigitalTranslation:
    def test_coin_probability(self):
        dm = build_digital_mdp(coin_pta(0.3))
        heads = dm.location_states("C", "heads")
        v = reachability_probability(dm.mdp, heads)
        assert v[0] == pytest.approx(0.3)

    def test_retry_reaches_almost_surely(self):
        dm = build_digital_mdp(retry_pta(0.25))
        done = dm.location_states("R", "done")
        v = reachability_probability(dm.mdp, done)
        assert v[0] == pytest.approx(1.0)

    def test_expected_time_is_geometric_mean(self):
        # Each trial takes exactly 1 t.u.; expected trials 1/p.
        dm = build_digital_mdp(retry_pta(0.25))
        done = dm.location_states("R", "done")
        v = expected_total_reward(dm.mdp, done, maximize=True)
        assert v[0] == pytest.approx(4.0)

    def test_tick_reward_can_be_disabled(self):
        dm = build_digital_mdp(retry_pta(0.5), time_reward=False)
        done = dm.location_states("R", "done")
        v = expected_total_reward(dm.mdp, done, maximize=True)
        assert v[0] == pytest.approx(0.0)

    def test_rejects_open_guards(self):
        a = PTA("A", clocks=["x"])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t", guard=[clk("x", "<", 2)])
        net = PTANetwork()
        net.add_process("P", a)
        with pytest.raises(ModelError):
            build_digital_mdp(net)

    def test_states_where(self):
        decls = Declarations()
        decls.declare_int("n", 0)
        a = PTA("A", clocks=[])
        a.add_location("s")
        a.add_location("t")
        a.add_edge("s", "t",
                   update=[lambda env: env.__setitem__("n", 7)])
        net = PTANetwork()
        net.declarations = decls
        net.add_process("P", a)
        dm = build_digital_mdp(net)
        hits = dm.states_where(lambda names, v, c: v["n"] == 7)
        assert len(hits) == 1

    def test_synchronised_probabilistic_edges_multiply(self):
        # Sender triggers a channel that loses with probability 0.2.
        s = PTA("S", clocks=[])
        s.add_location("go", urgent=True)
        s.add_location("sent")
        s.add_edge("go", "sent", sync=("put", "!"))
        c = PTA("C", clocks=[])
        c.add_location("empty")
        c.add_location("full")
        c.add_prob_edge("empty", [(0.8, "full"), (0.2, "empty")],
                        sync=("put", "?"))
        net = PTANetwork()
        net.add_channel("put")
        net.add_process("S", s)
        net.add_process("C", c)
        dm = build_digital_mdp(net)
        full = dm.location_states("C", "full")
        v = reachability_probability(dm.mdp, full)
        assert v[0] == pytest.approx(0.8)


class TestOverapproximation:
    def test_branches_become_edges(self):
        net = coin_pta(0.3)
        ta = overapproximate_network(net)
        process = ta.process_by_name("C")
        assert len(process.automaton.edges) == 2

    def test_safety_transfer(self):
        """Heads and tails both reachable in the overapproximation."""
        from repro.mc import EF, LocationIs, Verifier

        ta = overapproximate_network(coin_pta(0.01))
        v = Verifier(ta)
        assert v.check(EF(LocationIs("C", "heads"))).holds
        assert v.check(EF(LocationIs("C", "tails"))).holds


class TestDigitalSimulator:
    def test_coin_frequency(self):
        net = coin_pta(0.7)
        sim = DigitalSimulator(net, rng=1)
        heads = 0
        for _ in range(400):
            run = sim.run(stop=lambda names, v, c: names[0] != "flip")
            if net.location_vector_names(run.final_state.locs)[0] == \
                    "heads":
                heads += 1
        assert 0.6 < heads / 400 < 0.8

    def test_elapsed_time_counted(self):
        net = coin_pta(0.5)
        sim = DigitalSimulator(net, rng=2)
        run = sim.run(stop=lambda names, v, c: names[0] != "flip")
        assert run.elapsed == 1

    def test_max_delay_policy_waits(self):
        # With max-delay policy the retry automaton ticks to the
        # invariant bound before acting.
        net = retry_pta(1.0)
        sim = DigitalSimulator(net, policy="max-delay", rng=3)
        run = sim.run(stop=lambda names, v, c: names[0] == "done")
        assert run.elapsed == 1

    def test_bad_policy(self):
        with pytest.raises(ModelError):
            DigitalSimulator(coin_pta(), policy="warp")

    def test_max_time_stops(self):
        net = retry_pta(0.0001)
        sim = DigitalSimulator(net, rng=4)
        run = sim.run(max_time=5)
        assert run.elapsed >= 5


class TestSemanticsMemo:
    """The per-network digital-clocks memo lives exactly as long as its
    network."""

    def test_mcpta_on_fresh_source_leaves_no_entries(self):
        from repro.models import brp_modest
        from repro.modest import Pmax, mcpta

        source = brp_modest.brp_modest_source(4, 1, 1)
        properties = [Pmax("P1", brp_modest.not_success)]
        gc.collect()
        before = len(digital._SEMANTICS)
        for _ in range(20):
            mcpta(source, properties)
        gc.collect()
        assert len(digital._SEMANTICS) == before

    def test_simulators_of_one_network_share_semantics(self):
        net = coin_pta()
        first = DigitalSimulator(net, rng=1)
        second = DigitalSimulator(net, rng=2)
        assert first.semantics is second.semantics
        assert digital_semantics(net) is first.semantics

    def test_semantics_is_unusable_after_its_network_is_gone(self):
        net = coin_pta()
        semantics = digital_semantics(net)
        state = semantics.initial_state()
        assert semantics.network is net
        assert net in digital._SEMANTICS
        del net
        gc.collect()
        with pytest.raises(AnalysisError):
            semantics.network
        with pytest.raises(AnalysisError):
            semantics.initial_state()
        with pytest.raises(AnalysisError):
            semantics.config_for(state.locs, state.valuation)

"""Cross-engine validation on randomly generated models.

The repository contains three independent semantics for timed automata
(zones, integer time, stochastic simulation) and two probabilistic
engines (exact MDP, simulation).  These property tests generate random
small models and check that the engines agree — the strongest internal
consistency evidence short of a mechanised proof.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mc import EF, LocationIs, Verifier
from repro.mdp import reachability_probability
from repro.pta import PTA, PTANetwork, build_digital_mdp, DigitalSimulator
from repro.ta import DiscreteSemantics, Network, clk
from strategies import random_closed_ta


# -- random closed single-clock automata ----------------------------------------

def reachable_locations_zone(automaton):
    network = Network()
    network.add_process("R", automaton)
    verifier = Verifier(network)
    out = set()
    for name in automaton.locations:
        if verifier.check(EF(LocationIs("R", name))).holds:
            out.add(name)
    return out


def reachable_locations_discrete(automaton):
    network = Network()
    network.add_process("R", automaton)
    semantics = DiscreteSemantics(network)
    initial = semantics.initial()
    seen = {initial.key()}
    out = set()
    queue = [initial]
    while queue:
        state = queue.pop()
        out.add(network.location_vector_names(state.locs)[0])
        for _step, succ in semantics.successors(state):
            if succ.key() not in seen:
                seen.add(succ.key())
                queue.append(succ)
    return out


@settings(max_examples=60, deadline=None)
@given(random_closed_ta())
def test_zone_and_discrete_reachability_agree(automaton):
    """For closed automata, integer time preserves location
    reachability (the soundness claim behind tiga/cora/tron)."""
    assert reachable_locations_zone(automaton) == \
        reachable_locations_discrete(automaton)


# -- random acyclic PTA: exact vs simulated probabilities -------------------------

@st.composite
def random_dag_pta(draw):
    """A layered PTA: probabilistic branching downward, no cycles."""
    layers = draw(st.integers(min_value=2, max_value=4))
    automaton = PTA("R", clocks=["x"])
    names = []
    for layer in range(layers):
        name = f"N{layer}"
        names.append(name)
        automaton.add_location(
            name, invariant=[clk("x", "<=", 1)] if layer < layers - 1
            else ())
    automaton.initial_location = names[0]
    for layer in range(layers - 1):
        weight = draw(st.integers(min_value=1, max_value=9))
        stay_target = names[layer + 1]
        skip_target = names[min(layer + 2, layers - 1)]
        automaton.add_prob_edge(
            names[layer],
            [(weight / 10, stay_target, [("x", 0)]),
             (1 - weight / 10, skip_target, [("x", 0)])],
            guard=[clk("x", ">=", 1)])
    return automaton, names[-1]


@settings(max_examples=20, deadline=None)
@given(random_dag_pta())
def test_digital_mdp_matches_simulation(case):
    automaton, final = case
    network = PTANetwork()
    network.add_process("R", automaton)
    digital = build_digital_mdp(network)
    exact = reachability_probability(
        digital.mdp, digital.location_states("R", final))[0]
    # The DAG always funnels into the last layer.
    assert exact == pytest.approx(1.0)
    simulator = DigitalSimulator(network, rng=9)
    run = simulator.run(
        stop=lambda names, v, c: names[0] == final)
    assert network.location_vector_names(run.final_state.locs)[0] == final


# -- the train gate under all engines ----------------------------------------------

class TestTrainGateCrossValidation:
    def test_smc_runs_respect_model_checked_safety(self):
        """5 random SMC runs never visit a state the model checker
        proved unreachable (two trains crossing)."""
        from repro.models.traingate import make_traingate
        from repro.smc import StochasticSimulator

        network = make_traingate(2)
        verifier = Verifier(network)
        assert not verifier.check(
            "E<> Train(0).Cross && Train(1).Cross").holds

        simulator = StochasticSimulator(network, rng=5)

        def check(t, names, valuation, clocks):
            assert not (names[0] == "Cross" and names[1] == "Cross")

        for _ in range(5):
            simulator.run(max_time=80, observer=check)

    def test_discrete_and_zone_agree_on_traingate(self):
        from repro.models.traingate import make_traingate

        network = make_traingate(2)
        semantics = DiscreteSemantics(network)
        initial = semantics.initial()
        seen = {initial.key()}
        queue = [initial]
        crossing = set()
        while queue:
            state = queue.pop()
            names = network.location_vector_names(state.locs)
            crossing.add((names[0] == "Cross", names[1] == "Cross"))
            for _step, succ in semantics.successors(state):
                if succ.key() not in seen:
                    seen.add(succ.key())
                    queue.append(succ)
        assert (True, True) not in crossing
        assert (True, False) in crossing

"""Differential suite for the sparse MDP numerical core.

Gates the rewrite of ``mdp/analysis.py`` (counting attractors,
SCC-topological value iteration, MEC-collapsed interval iteration) and
the memoised digital-clocks builder against the seed implementations
preserved verbatim in ``repro.mdp.reference``:

* random MDPs from ``tests/mdp_cases.py`` (hypothesis-drawn and
  seeded; with end components, self-loop-only states, zero-reward
  cycles and empty target sets) must agree on all four Prob0/Prob1
  sets exactly and on every value vector within 1e-9;
* the BRP and firewire digital MDPs must come out structurally
  identical from both builders and solve to the same values;
* on a hand-built end-component model the *reference* interval
  iteration returns a provably wrong midpoint (its upper sequence is
  pinned by the MEC) while the new core returns the true value — the
  latent correctness bug this PR fixes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mdp_cases import random_mdps, seeded_mdps

from repro.core.errors import SearchLimitError
from repro.mdp import analysis as core
from repro.mdp import reference as ref
from repro.mdp.model import MDP
from repro.mdp.reference import reference_build_digital_mdp
from repro.models import brp, firewire
from repro.pta import build_digital_mdp

TOL = 1e-9


def _assert_sets_match(mdp, targets):
    mdp.finalize()
    for new_fn, ref_fn in ((core.prob0_max, ref.prob0_max),
                           (core.prob0_min, ref.prob0_min),
                           (core.prob1_max, ref.prob1_max),
                           (core.prob1_min, ref.prob1_min)):
        assert new_fn(mdp, targets) == ref_fn(mdp, targets), \
            new_fn.__name__


def _assert_values_match(mdp, targets, maximize):
    truth = ref.reachability_probability(mdp, targets, maximize=maximize)
    values = core.reachability_probability(mdp, targets, maximize=maximize)
    assert np.max(np.abs(values - truth)) <= TOL
    # Interval iteration is compared against the reference *plain* VI
    # (the ground truth): the reference interval midpoint is exactly
    # what is wrong in the presence of end components.
    midpoint = core.reachability_probability(
        mdp, targets, maximize=maximize, interval=True)
    assert np.max(np.abs(midpoint - truth)) <= TOL

    new_r = core.expected_total_reward(mdp, targets, maximize=maximize)
    ref_r = ref.expected_total_reward(mdp, targets, maximize=maximize)
    new_inf, ref_inf = np.isinf(new_r), np.isinf(ref_r)
    assert np.array_equal(new_inf, ref_inf)
    assert np.all(np.abs(new_r[~new_inf] - ref_r[~ref_inf]) <= TOL)


@settings(max_examples=150, deadline=None)
@given(random_mdps())
def test_prob01_sets_match_reference(case):
    _assert_sets_match(*case)


@settings(max_examples=150, deadline=None)
@given(random_mdps(), st.booleans())
def test_values_match_reference(case, maximize):
    mdp, targets = case
    _assert_values_match(mdp, targets, maximize)
    for steps in (0, 3, 9):
        assert np.max(np.abs(
            core.bounded_reachability(mdp, targets, steps, maximize)
            - ref.bounded_reachability(mdp, targets, steps, maximize))) \
            <= TOL


def test_precomputations_match_reference_on_seeded_mdps():
    """All four Prob0/Prob1 sets equal the reference exactly, and the
    values agree, on 300 seeded MDPs that cover every special shape."""
    shapes = dict.fromkeys(
        ("nontrivial_scc", "self_loop_only", "multi_action",
         "no_targets"), 0)
    for mdp, targets in seeded_mdps(300):
        _assert_sets_match(mdp, targets)
        _assert_values_match(mdp, targets, maximize=True)
        _assert_values_match(mdp, targets, maximize=False)
        g = mdp.graph
        shapes["nontrivial_scc"] += g.scc_count < mdp.num_states
        shapes["self_loop_only"] += any(
            all(t == s for _l, pairs, _r in mdp.actions_of(s)
                for t, _p in pairs)
            for s in range(mdp.num_states))
        shapes["multi_action"] += any(
            len(mdp.actions_of(s)) > 1 for s in range(mdp.num_states))
        shapes["no_targets"] += not targets
    assert min(shapes.values()) >= 10, shapes


class TestEndComponentInterval:
    """The hand-built counterexample from the issue: a MEC with an
    escape action.  True Pmax(reach goal) from s0 is 0.5, but the
    stay-action keeps the naive upper sequence at 1."""

    def build(self):
        mdp = MDP("ec")
        s0, goal, sink = (mdp.add_state() for _ in range(3))
        mdp.add_action(s0, [(1.0, s0)])                    # stay (MEC)
        mdp.add_action(s0, [(0.5, goal), (0.5, sink)])     # escape coin
        mdp.add_action(goal, [(1.0, goal)])
        mdp.add_action(sink, [(1.0, sink)])
        return mdp, {1}

    def test_reference_interval_is_unsound(self):
        mdp, targets = self.build()
        midpoint = ref.reachability_probability(
            mdp, targets, maximize=True, interval=True)
        # Documented wrong answer: upper pinned at 1 -> midpoint 0.75.
        assert midpoint[0] == pytest.approx(0.75, abs=1e-6)

    def test_core_interval_is_sound(self):
        mdp, targets = self.build()
        midpoint = core.reachability_probability(
            mdp, targets, maximize=True, interval=True)
        assert abs(midpoint[0] - 0.5) <= TOL

    def test_plain_values_agree(self):
        mdp, targets = self.build()
        assert core.reachability_probability(mdp, targets)[0] == \
            pytest.approx(ref.reachability_probability(mdp, targets)[0],
                          abs=TOL)


def _assert_same_build(dm_new, dm_ref):
    assert dm_new.mdp.num_states == dm_ref.mdp.num_states
    assert [s.key() for s in dm_new.states] == \
        [s.key() for s in dm_ref.states]
    assert dm_new.mdp._actions == dm_ref.mdp._actions


class TestPipelineDifferential:
    """Full digital-clocks pipelines: memoised builder + sparse core vs
    the seed builder + seed analyses."""

    def test_brp(self):
        dm_new = build_digital_mdp(brp.make_brp(16, 2, 1))
        dm_ref = reference_build_digital_mdp(brp.make_brp(16, 2, 1))
        _assert_same_build(dm_new, dm_ref)
        targets = dm_new.states_where(brp.not_success)
        for maximize in (True, False):
            truth = ref.reachability_probability(
                dm_ref.mdp, targets, maximize=maximize)
            assert np.max(np.abs(core.reachability_probability(
                dm_new.mdp, targets, maximize=maximize) - truth)) <= TOL
            assert np.max(np.abs(core.reachability_probability(
                dm_new.mdp, targets, maximize=maximize, interval=True)
                - truth)) <= TOL
        new_r = core.expected_total_reward(
            dm_new.mdp, dm_new.states_where(brp.reported), maximize=True)
        ref_r = ref.expected_total_reward(
            dm_ref.mdp, dm_ref.states_where(brp.reported), maximize=True)
        finite = ~np.isinf(ref_r)
        assert np.array_equal(np.isinf(new_r), ~finite)
        assert np.max(np.abs(new_r[finite] - ref_r[finite])) <= TOL

    def test_firewire(self):
        dm_new = build_digital_mdp(firewire.make_firewire())
        dm_ref = reference_build_digital_mdp(firewire.make_firewire())
        _assert_same_build(dm_new, dm_ref)
        n = dm_new.mdp.num_states
        targets = set(range(0, n, 5)) or {0}
        for maximize in (True, False):
            truth = ref.reachability_probability(
                dm_ref.mdp, targets, maximize=maximize)
            assert np.max(np.abs(core.reachability_probability(
                dm_new.mdp, targets, maximize=maximize) - truth)) <= TOL


class TestBuilderLimits:
    def test_max_states_cap_is_exact(self):
        needed = build_digital_mdp(brp.make_brp(2, 1, 1)).mdp.num_states
        # Exactly enough states: no limit error.
        dm = build_digital_mdp(brp.make_brp(2, 1, 1), max_states=needed)
        assert dm.mdp.num_states == needed
        # One fewer: the limit fires, and nothing past the cap was
        # interned (the satellite fix — the seed builder adds and
        # queues the overflowing state first).
        with pytest.raises(SearchLimitError):
            build_digital_mdp(brp.make_brp(2, 1, 1),
                              max_states=needed - 1)

    def test_states_where_caches_location_names(self):
        dm = build_digital_mdp(brp.make_brp(2, 1, 1))
        first = dm.states_where(brp.not_success)
        assert dm._names_by_locs  # populated on first query
        assert dm.states_where(brp.not_success) == first

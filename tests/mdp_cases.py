"""Random MDPs shared by the MDP test suites.

:func:`random_mdp` draws a small MDP and a target set from a seeded
``random.Random``; :func:`random_mdps` is the same generator as a
hypothesis strategy.  Import either from a test module in this
directory (``from mdp_cases import random_mdp``).

The draws cover the shapes the graph precomputations treat specially:
states without an explicit action (``finalize`` gives them a
self-loop), states whose only action is an explicit self-loop, states
with several actions, supports that loop back (nontrivial SCCs and end
components), zero-heavy rewards (zero-reward cycles when minimising)
and empty target sets.
"""

import random

from hypothesis import strategies as st

from repro.mdp.model import MDP

MAX_STATES = 8


def random_mdp(rng):
    """``(mdp, targets)`` drawn from ``rng``; the MDP is not finalized."""
    n = rng.randint(2, MAX_STATES)
    mdp = MDP("random")
    for _ in range(n):
        mdp.add_state()
    for state in range(n):
        shape = rng.random()
        if shape < 0.1:
            continue
        if shape < 0.2:
            mdp.add_action(state, [(1.0, state)])
            continue
        for _ in range(rng.randint(1, 3)):
            succs = rng.sample(range(n), rng.randint(1, min(3, n)))
            weights = [rng.randint(1, 5) for _ in succs]
            total = sum(weights)
            mdp.add_action(
                state, [(w / total, t) for w, t in zip(weights, succs)],
                reward=rng.choice([0.0, 0.0, 1.0, 2.5]))
    targets = set(rng.sample(range(n), rng.randint(0, 2)))
    return mdp, targets


def random_mdps():
    """Hypothesis strategy of :func:`random_mdp` cases."""
    return st.randoms(use_true_random=False).map(random_mdp)


def seeded_mdps(count):
    """``count`` cases, the ``i``-th drawn from ``random.Random(i)``."""
    return [random_mdp(random.Random(seed)) for seed in range(count)]

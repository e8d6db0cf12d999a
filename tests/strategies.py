"""Random timed automata shared by the property-based test suites.

:func:`random_automata` draws small diagonal-free automata; its
parameters fix the shape and the draw order, so every suite keeps
drawing exactly the automata it was written against.
:func:`random_closed_ta` is the closed single-clock preset.  Import
either from a test module in this directory
(``from strategies import random_automata``).
"""

from hypothesis import strategies as st

from repro.ta import Automaton, clk

#: Every comparison a clock guard may use.
ALL_OPERATORS = ("<=", ">=", "<", ">")


@st.composite
def random_automata(draw, max_clocks=2, max_locations=4, max_edges=6,
                    max_constant=5, operators=ALL_OPERATORS,
                    endpoints_first=False):
    """A random diagonal-free automaton ``R``.

    It has 1..``max_clocks`` clocks (``x``, then ``y``; at most 2),
    2..``max_locations`` locations, each with an optional
    ``clock <= c`` invariant (1 <= c <= ``max_constant``), and
    1..``max_edges`` edges, each with an optional one-atom guard over
    ``operators`` (0 <= c <= ``max_constant``) and a random reset set.
    ``endpoints_first`` draws an edge's source and target before its
    guard and resets instead of after them.
    """
    if max_clocks > 1:
        clocks = ["x", "y"][:draw(st.integers(1, max_clocks))]
    else:
        clocks = ["x"]

    def clock():
        return draw(st.sampled_from(clocks)) if max_clocks > 1 else "x"

    n_locs = draw(st.integers(2, max_locations))
    location = st.integers(0, n_locs - 1)
    automaton = Automaton("R", clocks=clocks)
    for i in range(n_locs):
        invariant = []
        if draw(st.booleans()):
            invariant = [clk(clock(), "<=",
                             draw(st.integers(1, max_constant)))]
        automaton.add_location(f"l{i}", invariant=invariant)
    for _ in range(draw(st.integers(1, max_edges))):
        if endpoints_first:
            source, target = draw(location), draw(location)
        guard = []
        if draw(st.booleans()):
            guard = [clk(clock(), draw(st.sampled_from(operators)),
                         draw(st.integers(0, max_constant)))]
        resets = [(c, 0) for c in clocks if draw(st.booleans())]
        if not endpoints_first:
            source, target = draw(location), draw(location)
        automaton.add_edge(f"l{source}", f"l{target}", guard=guard,
                           resets=resets)
    return automaton


def random_closed_ta():
    """Closed single-clock automata: non-strict guards only, so integer
    time preserves their location reachability."""
    return random_automata(max_clocks=1, max_locations=5, max_edges=7,
                           max_constant=6, operators=(">=", "<="),
                           endpoints_first=True)

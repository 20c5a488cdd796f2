"""The chain's elementary moves on small cases, through ``step_*`` and ``run_chain``.

The ``step_*`` functions of ``tests/conftest.py`` run one step of the step
loop of :mod:`degswap.chain`, which is the one definition of each move
and its gate.  How often each move fires is checked against the state-graph
oracle by the one-step fidelity test (criterion 6); these cases pin where a
move leads and which states only loop.
"""

import random

import pytest

from degswap.chain import ChainConfig, run_chain
from degswap.core import Digraph, Graph
from degswap.generators import BlockedInstanceSpec, generate_blocked
from degswap.statespace import decompose_alternating, symmetric_difference
from .conftest import (
    mobile_blocked_instance,
    step_directed_full,
    step_directed_plain,
    step_undirected,
    swap_alternating_cycle,
)


def _reached(step, *pairs, kind=Graph):
    """The states one ``step`` leads to from ``kind(4, pairs)``, over 40 seeds.

    Also checks that the step reports a move exactly when the graph changed.
    """
    g = kind(4, pairs)
    out = set()
    for seed in range(40):
        h = g.copy()
        moved = step(h, random.Random(seed))
        assert moved == (h != g)
        assert h.degree_sequence() == g.degree_sequence()
        out.add(h.pair_set())
    return out


def _always_loops(g, step):
    """No step of 200 moves g, and a loop writes no edge/arc slot."""
    before = list(g.pairs())
    rng = random.Random(0)
    assert not any(step(g, rng) for _ in range(200))
    assert g.pairs() == before


MATCHINGS = {
    frozenset({(0, 1), (2, 3)}),
    frozenset({(0, 2), (1, 3)}),
    frozenset({(0, 3), (1, 2)}),
}


def test_2swap_undirected_applies():
    # both re-pairings of two disjoint edges are reachable
    assert _reached(step_undirected, (0, 1), (2, 3)) == MATCHINGS


def test_2swap_undirected_inverse():
    # each re-pairing steps back to the start
    for m in MATCHINGS:
        assert frozenset({(0, 1), (2, 3)}) in _reached(step_undirected, *m)


def test_2swap_undirected_blocked_replacement():
    # the re-pairing {0, 2}, {1, 3} of (0, 1) and (2, 3) would duplicate the
    # third edge, whichever of its two new edges that is; {0, 3}, {1, 2} applies
    for extra in ((0, 2), (1, 3)):
        start = frozenset({(0, 1), (2, 3), extra})
        assert _reached(step_undirected, *start) == {start, frozenset({extra, (0, 3), (1, 2)})}


def test_2swap_undirected_complete_graph_loops():
    g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    _always_loops(g, step_undirected)


def test_2swap_directed_applies():
    states = {frozenset({(0, 1), (2, 3)}), frozenset({(0, 3), (2, 1)})}
    for step in (step_directed_full, step_directed_plain):
        assert _reached(step, (0, 1), (2, 3), kind=Digraph) == states
        assert _reached(step, (0, 3), (2, 1), kind=Digraph) == states


def test_2swap_directed_blocked_replacement():
    # (0, 3) is present, so the swap of (0, 1) and (2, 3) would duplicate it
    g = Digraph(4, [(0, 1), (2, 3), (0, 3)])
    for mode in ("full", "plain"):
        res = run_chain(g, ChainConfig(tau=200, mode=mode, seed=1))
        assert res.moves == 0 and res.graph == g


def test_2swap_directed_blocked_instance_loops_everywhere():
    _always_loops(generate_blocked(BlockedInstanceSpec(blocks=2)), step_directed_plain)


def test_reorient_gate():
    # the reorientation is the only move of either orientation of a 3-cycle
    states = {frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({(1, 0), (2, 1), (0, 2)})}
    assert _reached(step_directed_full, (0, 1), (1, 2), (2, 0), kind=Digraph) == states
    assert _reached(step_directed_full, (1, 0), (2, 1), (0, 2), kind=Digraph) == states
    # swaps alone never reorient it
    assert _reached(step_directed_plain, (0, 1), (1, 2), (2, 0), kind=Digraph) == {
        frozenset({(0, 1), (1, 2), (2, 0)})
    }


def test_reorient_bidirected_loops():
    g = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])
    _always_loops(g, step_directed_full)


def test_reorient_partly_bidirected_loops():
    # a 3-cycle with any one arc doubled is not induced
    for extra in ((1, 0), (2, 1), (0, 2)):
        _always_loops(Digraph(3, [(0, 1), (1, 2), (2, 0), extra]), step_directed_full)


def test_reorient_degenerate_2path_is_loop():
    # the 2-paths (0, 1, 0) and (1, 0, 1) run along the antiparallel pair
    _always_loops(Digraph(3, [(0, 1), (1, 0), (1, 2)]), step_directed_full)


def test_moves_preserve_degrees_randomized():
    # check_invariants re-derives the degrees and universe counts after every move
    for g, mode in (
        (generate_blocked(BlockedInstanceSpec(blocks=2)), "full"),
        (mobile_blocked_instance(), "plain"),
    ):
        res = run_chain(g, ChainConfig(tau=2000, mode=mode, seed=3), check_invariants=True)
        assert res.moves > 0
        assert res.graph.degree_sequence() == g.degree_sequence()


def test_swap_alternating_cycle_matches_2swap():
    g = Graph(4, [(0, 1), (2, 3)])
    h = Graph(4, [(0, 2), (1, 3)])
    (cycle,) = decompose_alternating(symmetric_difference(g, h))
    swap_alternating_cycle(g, cycle)
    assert g == h
    swap_alternating_cycle(g, cycle)  # involution
    assert g.pair_set() == {(0, 1), (2, 3)}


def test_swap_alternating_cycle_matches_reorientation():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    h = Digraph(3, [(1, 0), (2, 1), (0, 2)])
    (cycle,) = decompose_alternating(symmetric_difference(g, h))
    swap_alternating_cycle(g, cycle)
    assert g == h


def test_swap_alternating_cycle_rejects_mixed():
    g = Graph(4, [(0, 1), (2, 3)])
    h = Graph(4, [(0, 2), (1, 3)])
    (cycle,) = decompose_alternating(symmetric_difference(g, h))
    g._remove(0, 1)
    g._add(0, 2)
    with pytest.raises(AssertionError):
        swap_alternating_cycle(g, cycle)

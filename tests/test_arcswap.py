from collections import Counter

import pytest

from degswap import arcswap
from degswap.core import DiDegreeSequence, Digraph
from degswap.errors import InternalInconsistencyError, InvalidInputError, RealizationError
from degswap.statespace import enumerate_realization_keys, symmetric_difference
from .conftest import (
    all_digraphical_sequences,
    mobile_blocked_instance,
    oracle_cycle_sets,
    swap_alternating_cycle,
)


def _is_simple_symmetric(sd):
    ind, outd = Counter(), Counter()
    for u, v in sd.left_only | sd.right_only:
        outd[u] += 1
        ind[v] += 1
    return max(outd.values()) <= 2 and max(ind.values()) <= 2


def test_breaking_walk_three_cycle_alone_absent():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    for arc in ((0, 1), (1, 2), (2, 0)):
        assert arcswap.find_breaking_walk(g, (0, 1, 2), arc) is None


def test_breaking_walk_five_vertices():
    # triangle plus a separate antiparallel pair: the triangle is breakable,
    # confirmed against full enumeration of the sequence
    g = Digraph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)])
    walk = arcswap.find_breaking_walk(g, (0, 1, 2), (0, 1))
    assert walk is not None
    g2 = g.copy()
    swap_alternating_cycle(g2, walk)
    assert g2.degree_sequence() == g.degree_sequence()
    sd = symmetric_difference(g, g2)
    assert _is_simple_symmetric(sd)
    assert arcswap._cycle_orientation(g2, (0, 1, 2)) is None
    keys = list(enumerate_realization_keys(g.degree_sequence()))
    assert oracle_cycle_sets(g.degree_sequence(), keys) == []


def test_breaking_walk_input_validation():
    bid = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    with pytest.raises(InvalidInputError):
        arcswap.find_breaking_walk(bid, (0, 1, 2), (0, 1))
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    with pytest.raises(InvalidInputError):
        arcswap.find_breaking_walk(g, (0, 1, 2), (0, 3))


def test_breaking_walks_yield_valid_swaps_everywhere():
    # every returned walk must produce a same-sequence realization whose
    # difference is a simple symmetric cycle breaking the triple
    for s, g in all_digraphical_sequences(4, 3):
        for cs_candidate in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
            arcs = arcswap._cycle_orientation(g, cs_candidate)
            if arcs is None:
                continue
            for arc in arcs:
                walk = arcswap.find_breaking_walk(g, cs_candidate, arc)
                if walk is None:
                    continue
                g2 = g.copy()
                swap_alternating_cycle(g2, walk)
                assert g2.degree_sequence() == s
                sd = symmetric_difference(g, g2)
                assert arc in sd.left_only
                assert _is_simple_symmetric(sd)
                assert arcswap._cycle_orientation(g2, cs_candidate) is None


def test_detect_examples():
    g = mobile_blocked_instance()
    assert [cs.vertices for cs in arcswap.detect_induced_cycle_sets(g)] == [(0, 1, 2)]
    bid = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    assert arcswap.detect_induced_cycle_sets(bid) == []


def test_detect_matches_oracle_small():
    # the full n<=5 sweep runs in the acceptance suite; this covers n<=4 here
    for s, g in all_digraphical_sequences(4, 2):
        got = [cs.vertices for cs in arcswap.detect_induced_cycle_sets(g)]
        keys = list(enumerate_realization_keys(s))
        assert got == oracle_cycle_sets(s, keys), s.pairs


def test_detect_realization_independent():
    from degswap.statespace import enumerate_realizations

    for pairs in (((1, 1),) * 3, ((1, 1),) * 4, ((2, 2), (1, 1), (1, 1), (1, 1), (1, 1))):
        s = DiDegreeSequence(pairs)
        results = {
            tuple(cs.vertices for cs in arcswap.detect_induced_cycle_sets(g))
            for g in enumerate_realizations(s)
        }
        assert len(results) == 1


def test_recognize_reports():
    rep = arcswap.recognize(DiDegreeSequence(((1, 1),) * 3))
    assert not rep.is_arc_swap
    assert rep.component_count == 2
    assert rep.reduced_sequence == DiDegreeSequence(((0, 0),) * 3)

    rep = arcswap.recognize(DiDegreeSequence(((2, 2),) * 3))
    assert rep.is_arc_swap and rep.component_count == 1
    assert rep.reduced_sequence is None

    blocked = DiDegreeSequence([(4, 1)] * 3 + [(1, 4)] * 3)
    rep = arcswap.recognize(blocked)
    assert len(rep.cycle_sets) == 2 and rep.component_count == 4
    assert rep.reduced_sequence == DiDegreeSequence([(3, 0)] * 3 + [(0, 3)] * 3)

    with pytest.raises(RealizationError):
        arcswap.recognize(DiDegreeSequence(((2, 0), (0, 1))))


def test_cycle_sets_disjoint_and_bounded():
    for s, g in all_digraphical_sequences(4, 2):
        sets = arcswap.detect_induced_cycle_sets(g)
        assert len(sets) <= s.n // 3
        seen = set()
        for cs in sets:
            assert not seen & set(cs.vertices)
            seen.update(cs.vertices)


def test_reduce_sequence():
    s = DiDegreeSequence(((1, 1),) * 3)
    sets = [arcswap.InducedCycleSet((0, 1, 2))]
    assert arcswap.reduce_sequence(s, sets) == DiDegreeSequence(((0, 0),) * 3)
    assert arcswap.reduce_sequence(s, []) == s
    with pytest.raises(InternalInconsistencyError):
        arcswap.reduce_sequence(DiDegreeSequence(((1, 1), (1, 0), (0, 1))), sets)
    with pytest.raises(InternalInconsistencyError):
        arcswap.reduce_sequence(
            DiDegreeSequence(((1, 1),) * 4),
            [arcswap.InducedCycleSet((0, 1, 2)), arcswap.InducedCycleSet((2, 1, 3))],
        )


def test_reduced_sequences_become_arc_swap():
    seen = 0
    for s, g in all_digraphical_sequences(4, 2):
        rep = arcswap.recognize(s)
        if rep.is_arc_swap:
            continue
        seen += 1
        reduced = arcswap.recognize(rep.reduced_sequence)
        assert reduced.is_arc_swap
    assert seen > 0


def test_bias_report():
    s = DiDegreeSequence(((1, 1),) * 3)
    g0 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    bias = arcswap.arc_probability_bias(s, g0)
    for arc in ((0, 1), (1, 2), (2, 0)):
        assert bias[arc].category == "cycle-present"
        assert bias[arc].plain_probability == 1.0
        assert bias[arc].corrected_probability == 0.5
        rev = (arc[1], arc[0])
        assert bias[rev].category == "cycle-reverse"
        assert bias[rev].plain_probability == 0.0
        assert bias[rev].corrected_probability == 0.5

    s = DiDegreeSequence(((2, 2),) * 3)
    g0 = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
    bias = arcswap.arc_probability_bias(s, g0)
    assert all(b.category == "unbiased" for b in bias.values())

    with pytest.raises(InvalidInputError):
        arcswap.arc_probability_bias(DiDegreeSequence(((1, 1),) * 3), g0)

import itertools

import pytest

from degswap.core import DegreeSequence, DiDegreeSequence
from degswap.errors import RealizationError
from degswap.realize import (
    is_digraphical,
    is_graphical,
    realize_directed,
    realize_undirected,
)
from .conftest import subset_enum_directed, subset_enum_undirected


def test_is_graphical_examples():
    assert is_graphical(DegreeSequence((3, 3, 3, 3))).graphical  # complete graph
    assert not is_graphical(DegreeSequence((2, 1))).graphical  # odd total
    rep = is_graphical(DegreeSequence((1, 1, 1)))
    assert not rep.graphical and "odd" in rep.violated_condition
    # brute force confirms (4,1,1,1) has no realization
    s = DegreeSequence((4, 1, 1, 1))
    assert subset_enum_undirected(DegreeSequence((3, 1, 1, 1))) != []
    assert not is_graphical(s).graphical


def test_is_graphical_matches_subset_oracle():
    for n in (1, 2, 3, 4, 5):
        for degs in itertools.product(range(n), repeat=n):
            s = DegreeSequence(degs)
            expected = bool(subset_enum_undirected(s))
            report = is_graphical(s)
            assert report.graphical == expected, degs
            if report.graphical:
                assert report.witness.degree_sequence() == s


def test_realize_undirected_examples():
    g = realize_undirected(DegreeSequence((1, 1, 1, 1)))
    assert g.degree_sequence().degrees == (1, 1, 1, 1)
    assert realize_undirected(DegreeSequence((0, 0, 0))).m == 0
    tri = realize_undirected(DegreeSequence((2, 2, 2)))
    assert tri.pair_set() == {(0, 1), (0, 2), (1, 2)}
    with pytest.raises(RealizationError):
        realize_undirected(DegreeSequence((2, 1)))


def test_is_digraphical_examples():
    assert is_digraphical(DiDegreeSequence(((1, 1),) * 3)).graphical
    assert not is_digraphical(DiDegreeSequence(((2, 0), (0, 1)))).graphical
    rep = is_digraphical(DiDegreeSequence(((1, 0), (0, 0), (0, 0))))
    assert not rep.graphical and "total" in rep.violated_condition
    rep = is_digraphical(DiDegreeSequence(((2, 2),) * 3))
    assert rep.graphical
    # the bidirected triangle is the unique realization
    assert subset_enum_directed(DiDegreeSequence(((2, 2),) * 3)) == [
        frozenset({(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)})
    ]


def test_is_digraphical_matches_subset_oracle():
    vals = [(a, b) for a in range(4) for b in range(4)]
    for n in (1, 2, 3):
        for combo in itertools.product(vals, repeat=n):
            s = DiDegreeSequence(combo)
            expected = bool(subset_enum_directed(s))
            assert is_digraphical(s).graphical == expected, combo
    # n=4 with degrees <= 2 (the 16-arc grid is still cheap enough)
    vals = [(a, b) for a in range(3) for b in range(3)]
    count = 0
    for combo in itertools.product(vals, repeat=4):
        s = DiDegreeSequence(combo)
        if sum(s.outs) != sum(s.ins):
            assert not is_digraphical(s).graphical
            continue
        expected = bool(subset_enum_directed(s))
        assert is_digraphical(s).graphical == expected, combo
        count += 1
    assert count > 500


def test_realize_directed_examples():
    g = realize_directed(DiDegreeSequence(((1, 1),) * 3))
    # exactly the two 3-cycle orientations realize this; degree check is the contract
    assert g.degree_sequence().pairs == ((1, 1),) * 3
    assert realize_directed(DiDegreeSequence(((0, 0),) * 3)).m == 0
    blocked = DiDegreeSequence([(4, 1)] * 3 + [(1, 4)] * 3)
    assert realize_directed(blocked).degree_sequence() == blocked
    with pytest.raises(RealizationError):
        realize_directed(DiDegreeSequence(((2, 0), (0, 1))))


def test_kleitman_wang_tie_break_regression():
    # plain largest-in target selection strands a stub here; the out-degree
    # tie-break rescues it
    s = DiDegreeSequence(((1, 0), (0, 1), (1, 1)))
    g = realize_directed(s)
    assert g.degree_sequence() == s


def test_realizers_hit_every_digraphical_sequence():
    vals = [(a, b) for a in range(3) for b in range(3)]
    for combo in itertools.product(vals, repeat=4):
        s = DiDegreeSequence(combo)
        rep = is_digraphical(s)
        if rep.graphical:
            assert rep.witness.degree_sequence() == s, combo

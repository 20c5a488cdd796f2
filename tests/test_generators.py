import pytest

from degswap import arcswap
from degswap.core import DiDegreeSequence
from degswap.errors import InvalidInputError
from degswap.generators import (
    FAMILY_CLIQUE_PARTITION,
    FAMILY_ONE_DIRECTION,
    BlockedInstanceSpec,
    generate_blocked,
)
from degswap.statespace import enumerate_realization_keys
from .conftest import oracle_cycle_sets


def test_example1_structure():
    g = generate_blocked(BlockedInstanceSpec(blocks=1))
    assert g.n == 3 and g.pair_set() == {(0, 1), (1, 2), (2, 0)}

    k = 3
    g = generate_blocked(BlockedInstanceSpec(blocks=k))
    assert g.n == 3 * k
    for i in range(k):
        for v in range(3 * i, 3 * i + 3):
            assert g.out_deg[v] == 1 + 3 * (k - 1 - i)
            assert g.in_deg[v] == 1 + 3 * i
    # all cross arcs point from lower to higher block
    for u, v in g.pairs():
        assert u // 3 <= v // 3


def test_example1_recognized_with_k_cycle_sets():
    for k in (1, 2):
        g = generate_blocked(BlockedInstanceSpec(blocks=k))
        rep = arcswap.recognize(g.degree_sequence())
        assert len(rep.cycle_sets) == k
        assert [cs.vertices for cs in rep.cycle_sets] == [
            (3 * i, 3 * i + 1, 3 * i + 2) for i in range(k)
        ]


def test_validation():
    with pytest.raises(InvalidInputError):
        BlockedInstanceSpec(blocks=0)
    with pytest.raises(InvalidInputError):
        BlockedInstanceSpec(family="unknown")
    with pytest.raises(InvalidInputError):
        BlockedInstanceSpec(family=FAMILY_ONE_DIRECTION, attachment_size=0)


def test_replace_is_checked():
    spec = BlockedInstanceSpec()
    with pytest.raises(InvalidInputError):
        spec._replace(blocks=0)
    with pytest.raises(InvalidInputError):
        spec._replace(family="unknown")
    with pytest.raises(InvalidInputError):
        BlockedInstanceSpec._make((1, FAMILY_CLIQUE_PARTITION, 3, -1))
    assert spec._replace(blocks=4) == BlockedInstanceSpec(blocks=4)
    assert type(spec._replace(blocks=4)) is BlockedInstanceSpec


def test_one_direction_family():
    g = generate_blocked(
        BlockedInstanceSpec(family=FAMILY_ONE_DIRECTION, attachment_size=2)
    )
    assert g.n == 5
    for c in (0, 1, 2):
        for a in (3, 4):
            assert g.has(c, a) and not g.has(a, c)
    assert g.has(3, 4) and g.has(4, 3)
    # the triangle survives in every realization of this degree sequence
    s = g.degree_sequence()
    keys = list(enumerate_realization_keys(s))
    assert oracle_cycle_sets(s, keys) == [(0, 1, 2)]
    assert [cs.vertices for cs in arcswap.detect_induced_cycle_sets(g)] == [(0, 1, 2)]


def test_clique_partition_family():
    g = generate_blocked(
        BlockedInstanceSpec(
            family=FAMILY_CLIQUE_PARTITION, attachment_size=2, independent_size=1
        )
    )
    assert g.n == 6
    for c in (0, 1, 2):
        for a in (3, 4):
            assert g.has(c, a) and g.has(a, c)
    assert g.has(5, 3) and g.has(3, 5)
    assert not g.has(5, 0)
    s = g.degree_sequence()
    keys = list(enumerate_realization_keys(s))
    assert oracle_cycle_sets(s, keys) == [(0, 1, 2)]
    assert [cs.vertices for cs in arcswap.detect_induced_cycle_sets(g)] == [(0, 1, 2)]


def test_blocked_sequence_values():
    g = generate_blocked(BlockedInstanceSpec(blocks=2))
    assert g.degree_sequence() == DiDegreeSequence([(4, 1)] * 3 + [(1, 4)] * 3)

"""Instance families on which swap-only sampling provably stalls.

All three families stack induced directed 3-cycles into digraphs whose
swap-only state graph splits into isomorphic components; they seed the
blocked-instance demonstrations and the recognizer tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Digraph
from .errors import InvalidInputError
from .names import (
    FAMILIES,
    FAMILY_CLIQUE_PARTITION,
    FAMILY_EXAMPLE1,
    FAMILY_ONE_DIRECTION,
)


class _SpecFields(NamedTuple):
    blocks: int = 1
    family: str = FAMILY_EXAMPLE1
    attachment_size: int = 3
    independent_size: int = 2


class BlockedInstanceSpec(_SpecFields):
    """Parameters for one blocked instance, checked on construction.

    ``blocks`` counts stacked 3-cycles (example1) and is 1 for the other
    families, which instead take an attachment subdigraph of
    ``attachment_size`` vertices (a bidirected clique) and, for
    clique-partition, ``independent_size`` extra vertices tied to the clique.
    """

    __slots__ = ()

    def __new__(
        cls,
        blocks: int = 1,
        family: str = FAMILY_EXAMPLE1,
        attachment_size: int = 3,
        independent_size: int = 2,
    ):
        if family not in FAMILIES:
            raise InvalidInputError(f"unknown family {family!r}")
        if blocks < 1:
            raise InvalidInputError("blocks must be >= 1")
        if attachment_size < 1:
            raise InvalidInputError("attachment_size must be >= 1")
        if independent_size < 0:
            raise InvalidInputError("independent_size must be >= 0")
        return super().__new__(cls, blocks, family, attachment_size, independent_size)

    @classmethod
    def _make(cls, iterable):
        # _replace builds its result here; tuple.__new__ would skip the checks
        return cls(*iterable)


def generate_blocked(spec: BlockedInstanceSpec) -> Digraph:
    if spec.family == FAMILY_EXAMPLE1:
        return _example1(spec.blocks)
    if spec.family == FAMILY_ONE_DIRECTION:
        return _one_direction(spec.attachment_size)
    return _clique_partition(spec.attachment_size, spec.independent_size)


def _triangle(offset: int) -> list[tuple[int, int]]:
    return [
        (offset, offset + 1),
        (offset + 1, offset + 2),
        (offset + 2, offset),
    ]


def _example1(k: int) -> Digraph:
    """k stacked 3-cycles; every vertex points at all higher-block vertices.

    Block-i vertices get out-degree 1 + 3(k-1-i) and in-degree 1 + 3i, and no
    2-swap applies anywhere.
    """
    n = 3 * k
    arcs = []
    for i in range(k):
        arcs.extend(_triangle(3 * i))
    for i in range(k):
        for j in range(i + 1, k):
            arcs.extend(
                (u, v) for u in range(3 * i, 3 * i + 3) for v in range(3 * j, 3 * j + 3)
            )
    return Digraph(n, arcs)


def _biclique(vertices: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in vertices for v in vertices if u != v]


def _one_direction(s: int) -> Digraph:
    """A 3-cycle whose vertices all point at a bidirected clique of size s."""
    cycle = [0, 1, 2]
    attach = list(range(3, 3 + s))
    arcs = _triangle(0)
    arcs.extend((c, a) for c in cycle for a in attach)
    arcs.extend(_biclique(attach))
    return Digraph(3 + s, arcs)


def _clique_partition(s: int, t: int) -> Digraph:
    """A 3-cycle tied both ways to a bidirected clique; t extra vertices too.

    The extra vertices form an independent set, each one tied both ways to
    every clique vertex.
    """
    cycle = [0, 1, 2]
    attach = list(range(3, 3 + s))
    indep = list(range(3 + s, 3 + s + t))
    arcs = _triangle(0)
    arcs.extend(_biclique(attach))
    for c in cycle:
        for a in attach:
            arcs.append((c, a))
            arcs.append((a, c))
    for x in indep:
        for a in attach:
            arcs.append((x, a))
            arcs.append((a, x))
    return Digraph(3 + s + t, arcs)

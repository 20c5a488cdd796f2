import functools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degswap.core import (
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    canonical_key,
    format_degree_sequence,
    format_edgelist,
    graph_from_key,
    parse_degree_sequence,
    parse_edgelist,
)
from degswap.errors import InvalidInputError
from degswap.statespace import (
    decompose_alternating,
    enumerate_realizations,
    find_disjoint_3walk,
    symmetric_difference,
)
from .conftest import (
    all_digraphical_sequences,
    all_graphical_sequences,
    reorient_triangle,
    swap_alternating_cycle,
    swap_arcs,
    swap_edges,
)


def test_sequence_validation():
    with pytest.raises(InvalidInputError):
        DegreeSequence([])
    with pytest.raises(InvalidInputError):
        DegreeSequence([1, -1])
    with pytest.raises(InvalidInputError):
        DiDegreeSequence([(1, -2)])
    assert DegreeSequence([0, 0]).n == 2  # zero entries are allowed


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidInputError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(InvalidInputError):
        Graph(2, [(0, 2)])
    Digraph(3, [(0, 1), (1, 0)])  # antiparallel arcs are fine
    with pytest.raises(InvalidInputError):
        Digraph(3, [(0, 1), (0, 1)])


def test_graph_texts():
    assert repr(Graph(3, [(2, 0), (0, 1)])) == "Graph(n=3, edges=[(0, 1), (0, 2)])"
    assert repr(Digraph(3, [(2, 0), (0, 1)])) == "Digraph(n=3, arcs=[(0, 1), (2, 0)])"
    for make, pairs, text in (
        (Graph, [(2, 0), (0, 2)], "duplicate edge (0, 2)"),
        (Digraph, [(2, 0), (2, 0)], "duplicate arc (2, 0)"),
        (Graph, [(5, 1)], "vertex out of range in (5, 1)"),
        (Digraph, [(1, 1)], "loop (1, 1) not allowed"),
    ):
        with pytest.raises(InvalidInputError, match=rf"^{re.escape(text)}$"):
            make(3, pairs)
    with pytest.raises(InvalidInputError, match="^graph needs at least one vertex$"):
        Graph(0)
    with pytest.raises(InvalidInputError, match="^digraph needs at least one vertex$"):
        Digraph(0)


@pytest.mark.parametrize("make", ["copy", "complement"])
def test_copies_are_independent(make):
    """Moves on a copy or a complement leave the original's storage as it was."""
    for g in (
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    ):
        before = (list(g._pairs), dict(g._pos), list(g.out_deg), list(g.in_deg))
        h = getattr(g, make)()
        assert (h.in_deg is h.out_deg) == isinstance(h, Graph)
        h._remove(*h.pairs()[0])
        h._add(*next(p for p in h.grid(h.n) if not h.has(*p)))
        h._remove(*h.pairs()[-1])
        assert (g._pairs, g._pos, g.out_deg, g.in_deg) == before
        g._check_index()
        h._check_index()


def test_symmetric_difference_identity():
    g = Graph(4, [(0, 1), (2, 3)])
    sd = symmetric_difference(g, g.copy())
    assert sd.size == 0 and not sd.left_only and not sd.right_only


def test_symmetric_difference_matchings():
    g = Graph(4, [(0, 1), (2, 3)])
    h = Graph(4, [(0, 2), (1, 3)])
    assert symmetric_difference(g, h).size == 4


def test_symmetric_difference_cycle_reversal():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    h = Digraph(3, [(1, 0), (2, 1), (0, 2)])
    sd = symmetric_difference(g, h)
    assert sd.size == 6
    assert sd.vertices() == {0, 1, 2}


def test_symmetric_difference_kind_mismatch():
    with pytest.raises(InvalidInputError):
        symmetric_difference(Graph(3), Digraph(3))
    with pytest.raises(InvalidInputError):
        symmetric_difference(Graph(3), Graph(4))


def test_decompose_empty():
    g = Graph(4, [(0, 1)])
    assert decompose_alternating(symmetric_difference(g, g.copy())) == []


def test_decompose_single_swap():
    g = Graph(4, [(0, 1), (2, 3)])
    h = Graph(4, [(0, 2), (1, 3)])
    cycles = decompose_alternating(symmetric_difference(g, h))
    assert len(cycles) == 1
    assert cycles[0].length == 4


def test_decompose_cycle_reversal_brute():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    h = Digraph(3, [(1, 0), (2, 1), (0, 2)])
    cycles = decompose_alternating(symmetric_difference(g, h))
    assert len(cycles) == 1
    c = cycles[0]
    assert c.length == 6
    assert set(c.vertices) == {0, 1, 2}
    # brute-force walk check: consecutive arcs chain and alternate membership
    assert set(c.left) == g.pair_set()
    assert set(c.right) == h.pair_set()


def _check_decomposition(g, h):
    sd = symmetric_difference(g, h)
    cycles = decompose_alternating(sd)
    seen_left, seen_right = [], []
    for c in cycles:
        assert c.length % 2 == 0 and c.length >= 4
        assert len(c.left) == len(c.right)
        seen_left.extend(c.left)
        seen_right.extend(c.right)
    assert sorted(seen_left) == sorted(sd.left_only)
    assert sorted(seen_right) == sorted(sd.right_only)
    # swapping every cycle in turn maps g onto h
    work = g.copy()
    for c in cycles:
        swap_alternating_cycle(work, c)
        assert work.degree_sequence() == g.degree_sequence()
    assert work == h


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_decompose_reassembles_undirected(data):
    degs = data.draw(
        st.sampled_from([(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (2, 1, 1, 2, 2)])
    )
    reals = enumerate_realizations(DegreeSequence(degs))
    g = data.draw(st.sampled_from(reals))
    h = data.draw(st.sampled_from(reals))
    _check_decomposition(g, h)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_decompose_reassembles_directed(data):
    pairs = data.draw(
        st.sampled_from(
            [
                ((1, 1),) * 4,
                ((1, 1),) * 5,
                ((2, 1), (1, 2), (1, 1), (1, 1)),
                ((2, 2), (1, 1), (1, 1), (1, 1), (1, 1)),
            ]
        )
    )
    reals = enumerate_realizations(DiDegreeSequence(pairs))
    g = data.draw(st.sampled_from(reals))
    h = data.draw(st.sampled_from(reals))
    _check_decomposition(g, h)


def realization_pairs(sequences):
    """Every ordered pair of realizations of each sequence, each with itself too."""
    for s in sequences:
        reals = enumerate_realizations(s)
        for g in reals:
            for h in reals:
                yield g, h


def test_decompose_reassembles_every_small_pair():
    # every graphical sequence with n <= 5 and digraphical one with n <= 4
    sequences = [s for n in range(1, 6) for s, _ in all_graphical_sequences(n, 4)]
    sequences += [s for n in range(1, 5) for s, _ in all_digraphical_sequences(n, 3)]
    for g, h in realization_pairs(sequences):
        _check_decomposition(g, h)


def test_decompose_rejects_unbalanced():
    g = Graph(3, [(0, 1)])
    h = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidInputError):
        decompose_alternating(symmetric_difference(g, h))


def test_find_3walk_undirected_always_exists():
    # every non-increasing graphical sequence with n <= 6
    sequences = [
        s
        for n in range(1, 7)
        for s, _ in all_graphical_sequences(n, n - 1)
        if list(s.degrees) == sorted(s.degrees, reverse=True)
    ]
    count = 0
    for g, h in realization_pairs(sequences):
        if g == h:
            continue
        count += 1
        sd = symmetric_difference(g, h)
        walk = find_disjoint_3walk(sd)
        assert walk is not None
        (e1, s1), (e2, s2), (e3, s3) = walk.arcs()
        assert len(set(walk.vertices)) == 4
        assert (s1, s2, s3) == ("left", "right", "left")
        assert e1 in sd.left_only and e3 in sd.left_only
        assert e2 in sd.right_only
    assert count == 27110


def test_find_3walk_directed_absent_only_on_a_reversed_triangle():
    # every digraphical sequence with n <= 4, and with n = 5 and degrees
    # <= 1, where a reversed triangle can sit beside a 2-cycle: no P or Q
    # walk exists exactly when the difference is 6 arcs on 3 vertices
    sequences = [s for n in range(1, 5) for s, _ in all_digraphical_sequences(n, 3)]
    sequences += [s for s, _ in all_digraphical_sequences(5, 1)]
    walkless = 0
    for g, h in realization_pairs(sequences):
        if g == h:
            continue
        sd = symmetric_difference(g, h)
        walk = find_disjoint_3walk(sd)
        reversed_triangle = sd.size == 6 and len(sd.vertices()) == 3
        assert (walk is None) == reversed_triangle, (g, h)
        walkless += walk is None
        if walk is not None:
            assert len(set(walk.vertices)) == 4
            for arc, side in walk.arcs():
                assert arc in (sd.left_only if side == "left" else sd.right_only)
    assert walkless == 594


def test_find_3walk_cycle_reversal_absent():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    h = Digraph(3, [(1, 0), (2, 1), (0, 2)])
    assert find_disjoint_3walk(symmetric_difference(g, h)) is None


def test_find_3walk_q_only_counterexample():
    # only a Q-type walk exists for this pair
    g = Digraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    h = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    sd = symmetric_difference(g, h)
    walk = find_disjoint_3walk(sd)
    assert walk is not None and walk.pattern == "Q"
    for arc, side in walk.arcs():
        assert arc in (sd.left_only if side == "left" else sd.right_only)


def test_find_3walk_membership_recheck_eight_arcs():
    reals = enumerate_realizations(DiDegreeSequence(((1, 1),) * 4))
    found = 0
    for g in reals:
        for h in reals:
            sd = symmetric_difference(g, h)
            if sd.size != 8:
                continue
            walk = find_disjoint_3walk(sd)
            if walk is None:
                continue
            found += 1
            assert len(set(walk.vertices)) == 4
            for arc, side in walk.arcs():
                assert arc in (sd.left_only if side == "left" else sd.right_only)
    assert found > 0


def test_canonical_key_basics():
    g = Graph(4)
    assert canonical_key(g).bits == 0
    g = Graph(4, [(0, 1), (2, 3)])
    assert canonical_key(g) == canonical_key(g.copy())
    h = Graph(4, [(0, 2), (1, 3)])
    assert canonical_key(g) != canonical_key(h)
    assert canonical_key(g).diff_size(canonical_key(h)) == 4


def test_canonical_key_hex_matches_format():
    # the printed key: lowercase hex without leading zeros, "0" for no edges,
    # at byte boundaries and at random widths
    import random

    from degswap.core import CanonicalKey

    rng = random.Random(5)
    widths = [7, 8, 9] + [rng.randrange(1, 5000) for _ in range(200)]
    values = [0, 1] + [rng.getrandbits(w) | 1 << (w - 1) for w in widths]
    for bits in values:
        assert CanonicalKey("directed", 3, bits).hex() == format(bits, "x")


def test_canonical_key_injective_small():
    seen = {}
    for g in enumerate_realizations(DiDegreeSequence(((1, 1),) * 4)):
        key = canonical_key(g)
        assert key not in seen
        seen[key] = g
        assert graph_from_key(key) == g


def test_degree_sequence_text_roundtrip():
    s = DegreeSequence((3, 2, 0, 1))
    assert parse_degree_sequence(format_degree_sequence(s)) == s
    ds = DiDegreeSequence(((2, 0), (1, 1), (0, 2)))
    assert parse_degree_sequence(format_degree_sequence(ds)) == ds
    with pytest.raises(InvalidInputError):
        parse_degree_sequence("")
    with pytest.raises(InvalidInputError):
        parse_degree_sequence("1 2/1")


def test_edgelist_roundtrip():
    g = Digraph(4, [(0, 1), (1, 0), (2, 3)])
    assert parse_edgelist(format_edgelist(g)) == g
    u = Graph(3, [(0, 2)])
    assert parse_edgelist(format_edgelist(u)) == u
    text = "# comment\nundirected n=3\n0 1  # trailing\n\n1 2\n"
    assert parse_edgelist(text) == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InvalidInputError):
        parse_edgelist("0 1\n")
    with pytest.raises(InvalidInputError):
        parse_edgelist("mixed n=3\n0 1\n")


def _assert_matches_rebuilt(g):
    """g's index structures agree with a graph rebuilt from its own list."""
    h = g.__class__(g.n, g.pairs())
    assert g._pairs == h._pairs
    assert g._pos == h._pos
    assert (g.out_deg, g.in_deg) == (h.out_deg, h.in_deg)
    g._check_index()
    if isinstance(g, Graph):
        assert g.degree is g.out_deg is g.in_deg
        return
    heads, tails = g.adjacency()
    assert heads == [[v for (u, v) in g._pairs if u == x] for x in range(g.n)]
    assert tails == [[u for (u, v) in g._pairs if v == x] for x in range(g.n)]
    h_heads, h_tails = h.adjacency()
    for v in range(g.n):
        assert sorted(heads[v]) == sorted(h_heads[v])
        assert sorted(tails[v]) == sorted(h_tails[v])


def _directed_moves(g):
    """Every applicable swap (a, b, c, d) and reorientation (u, v, w) of g."""
    arcs, pos = sorted(g.pairs()), g._pos
    swaps = [
        (a, b, c, d)
        for (a, b) in arcs
        for (c, d) in arcs
        if len({a, b, c, d}) == 4 and (a, d) not in pos and (c, b) not in pos
    ]
    triangles = [
        (u, v, w)
        for (u, v) in arcs
        for w in range(g.n)
        if w not in (u, v)
        and (v, w) in pos
        and (w, u) in pos
        and not ({(v, u), (w, v), (u, w)} & pos.keys())
    ]
    return swaps, triangles


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_digraph_mutators_keep_index_structures(data):
    # interleaved adds, removes, swaps and reorientations, each checked
    # against a digraph rebuilt from the arc list; the start holds the
    # induced 3-cycle 0 -> 1 -> 2 -> 0 so reorientations are on offer
    n = data.draw(st.integers(4, 7))
    ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
    cycle = [(0, 1), (1, 2), (2, 0)]
    rest = [a for a in ordered if a not in cycle and a[::-1] not in cycle]
    g = Digraph(n, cycle + data.draw(st.lists(st.sampled_from(rest), unique=True)))
    for _ in range(data.draw(st.integers(1, 30))):
        swaps, triangles = _directed_moves(g)
        offers = [
            (g._add, [a for a in ordered if a not in g._pos]),
            (g._remove, sorted(g.pairs())),
            (functools.partial(swap_arcs, g), swaps),
            (functools.partial(reorient_triangle, g), triangles),
        ]
        mutate, args = data.draw(st.sampled_from([o for o in offers if o[1]]))
        mutate(*data.draw(st.sampled_from(args)))
        _assert_matches_rebuilt(g)


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_graph_mutators_keep_index_structures(data):
    n = data.draw(st.integers(4, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True)))
    for _ in range(data.draw(st.integers(1, 30))):
        edges = sorted(g.pairs())
        swaps = [
            ((a, b), (c, d), tuple(sorted((a, c))), tuple(sorted((b, d))))
            for (a, b) in edges
            for (c, d) in edges
            if len({a, b, c, d}) == 4
            and not g.has(a, c)
            and not g.has(b, d)
        ]
        offers = [
            (g._add, [e for e in pairs if e not in g._pos]),
            (g._remove, edges),
            (functools.partial(swap_edges, g), swaps),
        ]
        mutate, args = data.draw(st.sampled_from([o for o in offers if o[1]]))
        mutate(*data.draw(st.sampled_from(args)))
        _assert_matches_rebuilt(g)


def test_index_check_catches_a_stale_slot():
    g = Digraph(4, [(0, 1), (0, 2), (3, 1), (2, 3)])
    g._check_index()
    bad = g.copy()
    bad._pos[(0, 1)] = 1
    with pytest.raises(AssertionError, match="positions"):
        bad._check_index()
    bad = g.copy()
    bad.in_deg[1] -= 1
    with pytest.raises(AssertionError, match="degrees"):
        bad._check_index()
    u = Graph(3, [(0, 1), (1, 2)])
    u._check_index()
    u._pos[(0, 1)] = 1
    with pytest.raises(AssertionError, match="positions"):
        u._check_index()

import pytest

from degswap import arcswap, statespace
from degswap.chain import complement_universe
from degswap.core import DegreeSequence, DiDegreeSequence, Digraph, Graph, graph_from_key
from degswap.errors import ResourceLimitError
from degswap.statespace import (
    StateGraph,
    build_state_graph,
    check_diameter_bounds,
    check_properties,
    enumerate_realization_keys,
    to_dot,
)
from .conftest import (
    empirical_transition_check,
    enumerate_realizations,
    hub_with_back_arc,
    hub_with_matching,
    mobile_blocked_instance,
    rule_a_neighbors,
)


def grid_subsets_by_sequence(cls, n):
    """Every subset of cls's n-vertex grid, as key bits, grouped by degree sequence."""
    grid = list(cls.grid(n))
    groups = {}
    for bits in range(1 << len(grid)):
        outs, ins = [0] * n, [0] * n
        for i, (u, v) in enumerate(grid):
            if bits >> i & 1:
                outs[u] += 1
                ins[v] += 1
        if cls is Digraph:
            seq = DiDegreeSequence(zip(outs, ins))
        else:
            seq = DegreeSequence(a + b for a, b in zip(outs, ins))
        groups.setdefault(seq, []).append(bits)
    return groups


def test_enumerate_against_subset_oracle():
    # every degree sequence of a graph with n <= 5 and of a digraph with
    # n <= 4: the enumerator yields exactly the sequence's subsets of the
    # grid, each once, and every state of each fitting state graph has the
    # universe's walk degree, padding slots included
    for cls, kinds, top in ((Graph, ("psi",), 5), (Digraph, ("phi", "phibar"), 4)):
        for n in range(1, top + 1):
            for s, group in grid_subsets_by_sequence(cls, n).items():
                keys = list(enumerate_realization_keys(s))
                assert len(set(keys)) == len(keys) and sorted(keys) == group, s
                for kind in kinds:
                    sg = build_state_graph(s, kind)
                    walk_degree = sg.universe.walk_degree
                    assert all(sg.out_degree(k) == walk_degree for k in sg.keys), (s, kind)


def test_enumerate_known_counts():
    assert len(enumerate_realizations(DegreeSequence((1, 1, 1, 1)))) == 3
    assert len(enumerate_realizations(DiDegreeSequence(((1, 1),) * 3))) == 2
    assert len(enumerate_realizations(DiDegreeSequence(((2, 2),) * 3))) == 1
    # 4- and 5-vertex fixed-point-free permutation digraphs
    assert len(enumerate_realizations(DiDegreeSequence(((1, 1),) * 4))) == 9
    assert len(enumerate_realizations(DiDegreeSequence(((1, 1),) * 5))) == 44


def test_enumerate_resource_limit():
    with pytest.raises(ResourceLimitError):
        enumerate_realizations(DiDegreeSequence(((1, 1),) * 7))
    # explicit override wins
    assert len(enumerate_realizations(DiDegreeSequence(((0, 0),) * 7), max_n=7)) == 1


def test_psi_matchings():
    sg = build_state_graph(DegreeSequence((1, 1, 1, 1)), "psi")
    assert sg.node_count == 3
    props = check_properties(sg)
    assert props.symmetric and props.regular and props.non_bipartite
    assert props.degree == 2 * 1 + 1  # two pair slots plus the padding loop
    assert props.strongly_connected and props.diameters == [1]
    for key in sg.keys:
        assert sum(sg.arcs[key].values()) == 2 and sg.loops[key] == 1


def test_phi_two_triangles():
    sg = build_state_graph(DiDegreeSequence(((1, 1),) * 3), "phi")
    assert sg.node_count == 2
    props = check_properties(sg)
    assert props.symmetric and props.regular and props.degree == 3
    assert props.strongly_connected
    a, b = sg.keys
    assert sg.arcs[a] == {b: 1} and sg.arcs[b] == {a: 1}
    assert sg.loops[a] == sg.loops[b] == 2
    row = sg.transition_row(a)
    assert row[b] == pytest.approx(1 / 3) and row[a] == pytest.approx(2 / 3)


def hand_built(edges, one_way=(), loops=()):
    """A StateGraph with unit arcs both ways along ``edges``, one way along
    ``one_way`` and a single loop at each state of ``loops``; states are letters."""
    keys = sorted({k for pair in (*edges, *one_way) for k in pair} | set(loops))
    arcs = {k: {} for k in keys}
    for x, y in edges:
        arcs[x][y] = arcs[y][x] = 1
    for x, y in one_way:
        arcs[x][y] = 1
    loop_count = {k: int(k in loops) for k in keys}
    return StateGraph("phi", 0, None, keys, arcs, loop_count)


def test_check_properties_on_hand_built_state_graphs():
    square = check_properties(hand_built(["ab", "bc", "cd", "da"]))
    assert square == (True, True, 2, False, True, [4], [2])
    triangle = check_properties(hand_built(["ab", "bc", "ca"]))
    assert triangle == (True, True, 2, True, True, [3], [1])
    # a loop makes the square aperiodic, and so does a one-way odd cycle
    assert check_properties(hand_built(["ab", "bc", "cd", "da"], loops="a")).non_bipartite
    assert check_properties(hand_built([], one_way=["ab", "bc", "ca"])).non_bipartite
    # one bipartite component is enough
    two = check_properties(hand_built(["ab", "cd", "de", "ec"]))
    assert not two.non_bipartite and not two.strongly_connected
    assert two.component_sizes == [3, 2] and not two.regular
    assert check_properties(hand_built(["ab", "cd", "de", "ec"], loops="ab")).non_bipartite
    one_way = check_properties(hand_built([], one_way=["ab"], loops="b"))
    assert not one_way.symmetric and one_way.regular and one_way.component_sizes == [1, 1]
    path = check_properties(hand_built(["ab", "bc"]))
    assert path.symmetric and not path.regular and path.degree is None
    assert not path.non_bipartite and path.diameters == [2]
    # diameters pair with component_sizes, largest component first
    tail = check_properties(hand_built(["cd", "de", "ef"], one_way=["ac"]))
    assert tail.component_sizes == [4, 1] and tail.diameters == [3, 0]
    # a diameter spans its own component only: a reaches c, outside {a, b}, in 2
    exit_arc = check_properties(hand_built(["ab"], one_way=["bc"]))
    assert exit_arc.component_sizes == [2, 1] and exit_arc.diameters == [1, 0]


def test_phibar_two_isolated_triangles():
    sg = build_state_graph(DiDegreeSequence(((1, 1),) * 3), "phibar")
    props = check_properties(sg)
    assert props.component_sizes == [1, 1]
    assert props.regular and props.non_bipartite
    assert all(not sg.arcs[k] for k in sg.keys)


def test_phi_regular_on_antiparallel_mix():
    # realizations split into six 4-cycles and three double-pair digraphs,
    # whose raw pair counts differ; the antiparallel accounting keeps the
    # walk degree uniform
    sg = build_state_graph(DiDegreeSequence(((1, 1),) * 4), "phi")
    assert sg.node_count == 9
    props = check_properties(sg)
    assert props.symmetric and props.regular and props.degree == 6
    assert props.strongly_connected


def test_rule_a_adjacency_bijection():
    for s, kind in (
        (DegreeSequence((2, 2, 1, 1)), "psi"),
        (DegreeSequence((1, 1, 1, 1)), "psi"),
        (DiDegreeSequence(((1, 1),) * 4), "phi"),
        (DiDegreeSequence(((1, 1),) * 3), "phi"),
        (DiDegreeSequence(((1, 1),) * 4), "phibar"),
        (DiDegreeSequence(((2, 1), (1, 2), (1, 1), (1, 1))), "phi"),
    ):
        sg = build_state_graph(s, kind)
        nbrs = rule_a_neighbors(sg)
        assert all(set(sg.arcs[k]) == nbrs[k] for k in sg.keys), (s, kind)
        # multiplicities between distinct states are always 1
        assert all(m == 1 for k in sg.keys for m in sg.arcs[k].values())


def test_phibar_components_mobile_instance():
    g = mobile_blocked_instance()
    s = g.degree_sequence()
    sg = build_state_graph(s, "phibar", max_n=7)
    props = check_properties(sg)
    assert sorted(props.component_sizes) == [4, 4]
    rep = arcswap.recognize(s)
    assert rep.component_count == 2


def test_diameter_bounds_examples():
    sg = build_state_graph(DegreeSequence((1, 1, 1, 1)), "psi")
    rep = check_diameter_bounds(sg)
    assert rep.ok and rep.checked_pairs == 6
    sg = build_state_graph(DiDegreeSequence(((1, 1),) * 3), "phi")
    rep = check_diameter_bounds(sg)
    assert rep.ok  # the single pair: difference 6, bound 2, distance 1
    sg = build_state_graph(DiDegreeSequence(((1, 1), (1, 1), (1, 0), (0, 1))), "phibar")
    arc_swap = arcswap.recognize(DiDegreeSequence(((1, 1), (1, 1), (1, 0), (0, 1)))).is_arc_swap
    rep = check_diameter_bounds(sg, arc_swap=arc_swap)
    assert rep.applicable == arc_swap
    if rep.applicable:
        assert rep.ok


def test_diameter_bounds_catch_perturbed_arcs():
    # negative control: psi on 1 1 1 1 is a triangle of 3 states whose
    # pairwise differences all have 4 pairs, so every bound is 1
    sg = build_state_graph(DegreeSequence((1, 1, 1, 1)), "psi")
    a, b, c = sg.keys
    arcs = {x: dict(row) for x, row in sg.arcs.items()}
    del arcs[a][b], arcs[b][a]
    rep = check_diameter_bounds(sg._replace(arcs=arcs))
    assert rep.checked_pairs == 6
    assert rep.violations == [(a.hex(), b.hex(), 2, 1), (b.hex(), a.hex(), 2, 1)]
    # a state with no arc out reaches nothing: distance -1
    arcs = {x: dict(row) for x, row in sg.arcs.items()}
    arcs[c] = {}
    rep = check_diameter_bounds(sg._replace(arcs=arcs))
    assert rep.checked_pairs == 6
    assert rep.violations == [(c.hex(), a.hex(), -1, 1), (c.hex(), b.hex(), -1, 1)]


def test_state_budget(monkeypatch):
    # more realizations than MAX_STATES raise before any row is built;
    # 3 x 8 has 19 355
    with pytest.raises(ResourceLimitError, match="state budget"):
        build_state_graph(DegreeSequence((3,) * 8), "psi")
    monkeypatch.setattr(statespace, "MAX_STATES", 3)
    assert build_state_graph(DegreeSequence((1, 1, 1, 1)), "psi").node_count == 3
    monkeypatch.setattr(statespace, "MAX_STATES", 2)
    with pytest.raises(ResourceLimitError, match="state budget of 2"):
        build_state_graph(DegreeSequence((1, 1, 1, 1)), "psi")


def test_phibar_bounds_skipped_for_non_arc_swap():
    sg = build_state_graph(DiDegreeSequence(((1, 1),) * 3), "phibar")
    rep = check_diameter_bounds(sg, arc_swap=False)
    assert not rep.applicable and rep.ok


def test_empirical_transition_check_small():
    rep = empirical_transition_check(
        DegreeSequence((1, 1, 1, 1)), "psi", steps_per_state=20000, seed=5
    )
    assert rep.ok, rep.failures
    rep = empirical_transition_check(
        DiDegreeSequence(((1, 1),) * 4), "phi", steps_per_state=20000, seed=6
    )
    assert rep.ok, rep.failures
    rep = empirical_transition_check(
        DiDegreeSequence(((1, 1),) * 4), "phibar", steps_per_state=20000, seed=7
    )
    assert rep.ok, rep.failures
    rep = empirical_transition_check(
        DiDegreeSequence(((2, 2),) * 3), "phi", steps_per_state=2000, seed=8
    )
    assert rep.ok and rep.max_abs_sigma == 0.0


def test_complement_walk_matches_the_direct_rows():
    # one padded complement step from every state against the direct
    # transition row: the switched run_chain path has the direct kernel.
    # (3, 3) x 5 has 44 states, antiparallel pairs in its complements and,
    # under phi, 3-cycle reorientations; the psi sequence has 54 states.
    cases = [
        (DegreeSequence((3, 3, 3, 3, 2, 2)), "psi", 20000),
        (DiDegreeSequence(((3, 3),) * 5), "phi", 40000),
        (DiDegreeSequence(((3, 3),) * 5), "phibar", 40000),
    ]
    for seed, (s, kind, steps) in enumerate(cases, start=51):
        sg = build_state_graph(s, kind)
        g = graph_from_key(sg.keys[0])
        bar = complement_universe(g, sg.universe)
        assert bar is not None and bar.walk_degree < sg.universe.walk_degree
        rep = empirical_transition_check(
            s, kind, steps_per_state=steps, seed=seed, sg=sg, complement=True
        )
        assert rep.ok, (kind, rep.failures[:5])


def test_empirical_transition_check_rejection_paths():
    # 216 states, some with antiparallel pairs, m = 10: every step draws its
    # arc pair by rejection and must match every row, swaps, reorientations
    # and loops alike, at the default family-wise alpha over its 2856 cells
    s = DiDegreeSequence(((2, 2),) * 5)
    sg = build_state_graph(s, "phi")
    rep = empirical_transition_check(s, "phi", steps_per_state=4000, seed=21, sg=sg)
    assert rep.ok, rep.failures[:5]


def test_empirical_transition_check_rare_pairs():
    # m > 8 around a hub: universe pairs are under a tenth of all slot pairs,
    # so each pair draw takes many redraws.  Each check fails a correct
    # sampler with chance at most 0.001 (the default family-wise alpha over
    # its cells, from exact binomial tails), the six together at most 0.006.
    s = hub_with_matching(20, 1).degree_sequence()
    sg = build_state_graph(s, "psi", max_n=23)
    assert sg.node_count == 231
    rep = empirical_transition_check(s, "psi", steps_per_state=2000, seed=31, sg=sg)
    assert rep.ok, rep.failures[:5]
    cases = [
        (hub_with_matching(20, 1, "out"), "phi", 21),
        (hub_with_matching(20, 1, "out"), "phibar", 21),
        (hub_with_matching(20, 1, "in"), "phi", 21),
        (hub_with_matching(20, 1, "in"), "phibar", 21),
        (hub_with_back_arc(), "phi", 41),  # antiparallel hub <-> x in some states
    ]
    for seed, (g, kind, states) in enumerate(cases, start=32):
        s = g.degree_sequence()
        sg = build_state_graph(s, kind, max_n=23)
        assert sg.node_count == states
        rep = empirical_transition_check(
            s, kind, steps_per_state=5000, seed=seed, sg=sg
        )
        assert rep.ok, (kind, rep.failures[:5])


def test_to_dot():
    sg = build_state_graph(DegreeSequence((1, 1, 1, 1)), "psi")
    dot = to_dot(sg)
    assert dot.startswith('digraph "psi"')
    assert dot.count("->") == 6
    key = sg.keys[0]
    assert key.hex() in dot


def test_empirical_transition_check_catches_a_wrong_row():
    # negative control: move one unit of multiplicity from an arc to the
    # loop count of one state; the check must fail that row and no other
    s = DegreeSequence((1, 1, 1, 1))
    sg = build_state_graph(s, "psi")
    key = sg.keys[0]
    dest = next(iter(sg.arcs[key]))
    arcs = {x: dict(row) for x, row in sg.arcs.items()}
    arcs[key][dest] -= 1
    if not arcs[key][dest]:
        del arcs[key][dest]
    loops = dict(sg.loops)
    loops[key] += 1
    perturbed = sg._replace(arcs=arcs, loops=loops)
    assert perturbed.out_degree(key) == sg.out_degree(key)

    # test_empirical_transition_check_small passes these draws unperturbed
    rep = empirical_transition_check(
        s, "psi", steps_per_state=20000, seed=5, sg=perturbed
    )
    assert not rep.ok
    assert {f[0] for f in rep.failures} == {key.hex()}
    assert {f[1] for f in rep.failures} == {key.hex(), dest.hex()}

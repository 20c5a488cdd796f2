import itertools
import random
import types
from collections import Counter
from fractions import Fraction

import pytest

from degswap.chain import (
    _run,
    ChainConfig,
    MoveUniverse,
    complement_universe,
    derive_seed,
    plan_chain,
    run_chain,
    step_window,
    universe_for,
)
from degswap.core import DegreeSequence, DiDegreeSequence, Digraph, Graph, canonical_key
from degswap.errors import InvalidInputError
from degswap.generators import BlockedInstanceSpec, generate_blocked
from degswap.realize import realize_directed, realize_undirected
from degswap.statespace import build_state_graph, enumerate_realizations
from degswap import arcswap
from .conftest import (
    hub_with_back_arc,
    hub_with_matching,
    mobile_blocked_instance,
    reorient_triangle,
    step_directed_full,
    step_directed_plain,
    step_undirected,
    swap_arcs,
    swap_edges,
)


def test_universe_counts():
    u = MoveUniverse.of(DegreeSequence((1, 1, 1, 1)), "undirected")
    assert (u.n_pairs, u.walk_degree) == (1, 3)
    u = MoveUniverse.of(DegreeSequence((2, 2, 2)), "undirected")
    assert (u.n_pairs, u.walk_degree) == (0, 1)
    u = MoveUniverse.of(DiDegreeSequence(((1, 1),) * 3), "full")
    assert (u.n_pairs, u.n_2paths, u.walk_degree) == (0, 3, 3)
    u = MoveUniverse.of(DiDegreeSequence(((1, 0), (0, 1), (1, 0), (0, 1))), "full")
    assert (u.n_pairs, u.n_2paths, u.walk_degree) == (1, 0, 2)
    # antiparallel-prone: n_pairs is the corrected constant and may go negative
    u = MoveUniverse.of(DiDegreeSequence(((1, 1), (1, 1))), "full")
    assert (u.n_pairs, u.n_2paths, u.walk_degree) == (-1, 2, 1)


def test_universe_constancy_over_realizations():
    for pairs in (((1, 1),) * 4, ((2, 1), (1, 2), (1, 1), (1, 1)), ((1, 1),) * 3):
        s = DiDegreeSequence(pairs)
        u = MoveUniverse.of(s, "full")
        for g in enumerate_realizations(s):
            role_disjoint, stubs = u.counts_on(g)
            assert role_disjoint == u.n_pairs + u.n_2paths
            assert stubs == u.n_2paths


def test_chain_config_validation():
    with pytest.raises(InvalidInputError):
        ChainConfig(tau=-1, mode="plain")
    with pytest.raises(InvalidInputError):
        ChainConfig(tau=1, mode="sideways")
    with pytest.raises(InvalidInputError):
        ChainConfig(tau=1, mode="plain", seed=-5)


def test_chain_config_replace_is_checked():
    cfg = ChainConfig(tau=1, mode="full")
    with pytest.raises(InvalidInputError):
        cfg._replace(tau=-5, mode="bogus")
    with pytest.raises(InvalidInputError):
        cfg._replace(seed=-1)
    with pytest.raises(InvalidInputError):
        ChainConfig._make((1, "sideways", 0, False))
    assert cfg._replace(tau=7, seed=3) == ChainConfig(tau=7, mode="full", seed=3)
    assert type(cfg._replace(mode="plain")) is ChainConfig


def test_mode_kind_mismatch():
    g = realize_undirected(DegreeSequence((1, 1)))
    with pytest.raises(InvalidInputError):
        run_chain(g, ChainConfig(tau=1, mode="plain"))
    d = realize_directed(DiDegreeSequence(((1, 1),) * 3))
    with pytest.raises(InvalidInputError):
        run_chain(d, ChainConfig(tau=1, mode="undirected"))


def test_tau_zero_returns_start():
    g = realize_undirected(DegreeSequence((1, 1, 1, 1)))
    res = run_chain(g, ChainConfig(tau=0, mode="undirected", seed=5))
    assert res.graph == g and res.moves == 0 and res.loops == 0


def test_determinism():
    g = realize_directed(DiDegreeSequence(((2, 1), (1, 2), (1, 1), (1, 1))))
    a = run_chain(g, ChainConfig(tau=500, mode="full", seed=99))
    b = run_chain(g, ChainConfig(tau=500, mode="full", seed=99))
    assert canonical_key(a.graph) == canonical_key(b.graph)
    assert (a.moves, a.loops) == (b.moves, b.loops)
    c = run_chain(g, ChainConfig(tau=500, mode="full", seed=100))
    assert (a.moves != c.moves) or canonical_key(a.graph) != canonical_key(c.graph)


def _rejection_path_cases():
    # m > 8, and hub-dominated instances whose pairs are under a tenth of
    # all slot pairs: many redraws per step
    return [
        (realize_directed(DiDegreeSequence(((1, 1),) * 9)), "full"),
        (realize_directed(DiDegreeSequence(((1, 1),) * 9)), "plain"),
        (realize_directed(DiDegreeSequence(((2, 2),) * 5)), "full"),
        (realize_directed(DiDegreeSequence(((2, 2),) * 5)), "plain"),
        (realize_undirected(DegreeSequence((3,) * 10)), "undirected"),
        (hub_with_matching(20, 1), "undirected"),
        (hub_with_matching(20, 1, "out"), "plain"),
        (hub_with_back_arc(), "full"),
    ]


def _complement_walk_cases():
    # dense inputs whose complement walk is shorter: run_chain walks the
    # complement, padded to the input's walk degree
    return [
        (realize_undirected(DegreeSequence((3, 3, 3, 3, 2, 2))), "undirected"),
        (realize_directed(DiDegreeSequence(((2, 2),) * 4)), "full"),
        (realize_directed(DiDegreeSequence(((3, 3),) * 5)), "full"),
        (realize_directed(DiDegreeSequence(((3, 3),) * 5)), "plain"),
    ]


def test_dense_inputs_walk_the_complement():
    for g0, mode in _complement_walk_cases():
        u = universe_for(g0, mode)
        bar = complement_universe(g0, u)
        assert bar is not None and bar.walk_degree < u.walk_degree, mode
        assert bar == universe_for(g0.complement(), mode)
    # ties stay on the direct walk: as many absent pairs as present ones
    # (the 3-cycle, example1), and equal walk degrees (K3 and, under full,
    # the bidirected pair: complete graphs whose empty complements share
    # their walk degree 1)
    ties = [
        (realize_directed(DiDegreeSequence(((1, 1),) * 3)), "full"),
        (generate_blocked(BlockedInstanceSpec(blocks=1)), "plain"),
        (realize_undirected(DegreeSequence((2, 2, 2))), "undirected"),
        (Digraph(2, [(0, 1), (1, 0)]), "full"),
    ]
    for g0, mode in ties:
        assert complement_universe(g0, universe_for(g0, mode)) is None, (g0, mode)
    # sparse inputs never build the complement sequence
    g0 = realize_undirected(DegreeSequence((1, 1, 1, 1)))
    assert complement_universe(g0, universe_for(g0, "undirected")) is None


def test_complete_and_one_short_inputs_loop_on_the_complement():
    # m-bar = 0 and m-bar = 1: the complement walk has no element at all,
    # every padded slot is a loop, and the result is the start graph
    complete_graph = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    complete_digraph = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    one_short_graph = Graph(5, complete_graph.pairs()[1:])
    one_short_digraph = Digraph(4, complete_digraph.pairs()[1:])
    for g0, modes in (
        (complete_graph, ("undirected",)),
        (one_short_graph, ("undirected",)),
        (complete_digraph, ("full", "plain")),
        (one_short_digraph, ("full", "plain")),
    ):
        for mode in modes:
            u = universe_for(g0, mode)
            assert complement_universe(g0, u).walk_degree == 1 < u.walk_degree
            cfg = ChainConfig(tau=300, mode=mode, seed=2, record_trace=True)
            res = run_chain(g0, cfg, check_invariants=True)
            assert res.graph == g0 and res.graph is not g0
            assert (res.moves, res.loops) == (0, 300)
            assert set(res.trace) == {canonical_key(g0)}
            res.graph._check_index()


def test_switched_runs_step_with_the_direct_row():
    # tau = 1 through run_chain itself, from one state per mode: the run pads
    # the complement walk to the input's walk degree (unpadded, the loop
    # share would drop from 1 - k/d to 1 - k/d-bar); each row's cells are
    # checked at family-wise alpha = 0.001 on exact binomial tails
    from degswap.statespace import binomial_interval, build_state_graph

    runs = 8000
    for seed, (s, kind, mode) in enumerate(
        (
            (DegreeSequence((3, 3, 2, 2, 2)), "psi", "undirected"),
            (DiDegreeSequence(((2, 2),) * 4), "phi", "full"),
            (DiDegreeSequence(((2, 2),) * 4), "phibar", "plain"),
        ),
        start=81,
    ):
        sg = build_state_graph(s, kind)
        key = sg.keys[0]
        g0 = sg.realizations[key]
        assert complement_universe(g0, sg.universe) is not None
        counts = {}
        for i in range(runs):
            cfg = ChainConfig(tau=1, mode=mode, seed=derive_seed(seed, i))
            dest = canonical_key(run_chain(g0, cfg).graph)
            counts[dest] = counts.get(dest, 0) + 1
        row = sg.transition_row(key)
        assert set(counts) <= set(row), mode
        for dest, p in row.items():
            lo, hi = binomial_interval(runs, p, 0.001 / len(row))
            assert lo <= counts.get(dest, 0) <= hi, (mode, dest, counts.get(dest, 0), runs * p)


class _Scripted:
    """A generator whose getrandbits returns the scripted values, last first."""

    def __init__(self):
        self.values = []

    def getrandbits(self, k):
        r = self.values.pop()
        assert r >> k == 0
        return r


def _exact_rows(sg, mode, complement=False):
    """The loop's exact one-step row from every state of sg, as Fractions.

    A step from each state (with ``complement``, from its complement under
    the complement's own universe, padded to sg's walk degree d, as
    run_chain walks a dense input) draws a slot, then one accepted ordered
    list-slot pair; every (slot, pair) outcome weighs 1/d x 1/(accepted
    ordered pairs).  The slots past the universe's elements draw no pair and
    are scored once; with d == 1 the one slot is not drawn.  A walk with a
    window of W > 1 steps draws its slot as the window's first digit: slot
    s is scripted as r = s * d^(W-1) and a loop as r = L * d^(W-1), which
    decode to that slot, or a loop, at the window's first step;
    test_window_outcomes_are_independent_slots checks the other outcomes.
    The element slots run as one scripted run per state whose hook undoes
    each move by its inverse move, which restores the list order the pair
    draw indexes.
    """
    d = sg.universe.walk_degree
    rng = _Scripted()
    rows = {}
    for key in sg.keys:
        g = sg.realizations[key]
        g = g.complement() if complement else g.copy()
        u = universe_for(g, mode)
        counts = {}
        dests = {}

        def undo(t, removed, added):
            dest = dests.get((removed, added))
            if dest is None:
                dest = canonical_key(g)
                dest = dests[removed, added] = dest.complement() if complement else dest
            counts[dest] = counts.get(dest, 0) + 1
            if isinstance(g, Graph):
                swap_edges(g, *added, *removed)
            elif len(removed) == 3:
                (x, y), (_, z), _ = removed
                reorient_triangle(g, x, z, y)
            else:
                (a, b), (c, e) = added
                swap_arcs(g, a, b, c, e)

        items = g.pairs()
        elements = u.elements
        unit = step_window(d, elements).units[0]  # d^(W-1)
        before = list(items)
        m = len(items)
        accepted = [
            i * (m - 1) + j - (j > i)
            for i, (a, b) in enumerate(items)
            for j, (c, e) in enumerate(items)
            if i != j
            and (len({a, b, c, e}) == 4 if isinstance(g, Graph) else a != c and b != e)
        ]
        script = [
            x for slot in range(elements) for r in accepted
            for x in ((slot * unit, r) if d > 1 else (r,))
        ]
        steps = elements * len(accepted)
        rng.values = script[::-1]
        moves = _run(g, u, rng, steps, undo, d)
        assert not rng.values and items == before
        counts[key] = steps - moves
        if d > elements:
            rng.values = [elements * unit] if d > 1 else []
            assert _run(g, u, rng, 1, undo, d) == 0 and not rng.values
            counts[key] += (d - elements) * len(accepted)
        total = d * len(accepted)
        rows[key] = {dest: Fraction(c, total) for dest, c in counts.items()}
    return rows


def test_one_step_kernel_is_the_state_graph_row_exactly():
    # every slot and every accepted pair draw of one step from every state,
    # against transition_row in exact arithmetic: each move arc weighs 1/d
    direct = [
        (DiDegreeSequence(((2, 2),) * 5), ("phi", "phibar")),  # 216 states
        (DiDegreeSequence(((1, 1),) * 2), ("phi", "phibar")),  # n_pairs = -1
        (DiDegreeSequence(((1, 0), (0, 1), (1, 0), (0, 1))), ("phi", "phibar")),
        (DegreeSequence((2, 2, 2, 2, 1, 1)), ("psi",)),
    ]
    switched = [
        (DiDegreeSequence(((3, 3),) * 5), ("phi", "phibar")),  # windows of 6 steps
        (DegreeSequence((3, 3, 3, 3, 2, 2)), ("psi",)),  # one-slot draws
        (DegreeSequence((4,) * 6), ("psi",)),  # windows of 9 steps
    ]
    modes = {"psi": "undirected", "phi": "full", "phibar": "plain"}
    widths = set()
    for complement, cases in ((False, direct), (True, switched)):
        for s, kinds in cases:
            for kind in kinds:
                sg = build_state_graph(s, kind)
                d = sg.universe.walk_degree
                g = sg.realizations[sg.keys[0]]
                walked = universe_for(g.complement(), modes[kind]) if complement else sg.universe
                widths.add((kind, complement, step_window(d, walked.elements).width))
                rows = _exact_rows(sg, modes[kind], complement)
                for key in sg.keys:
                    want = {dest: Fraction(c, d) for dest, c in sg.arcs[key].items()}
                    want[key] = Fraction(sg.loops[key], d)
                    assert {k: float(p) for k, p in want.items()} == sg.transition_row(key)
                    got = {dest: p for dest, p in rows[key].items() if p}
                    assert got == {dest: p for dest, p in want.items() if p}, (s, kind)
    # every direct walk draws one slot per step; both graph kinds also walk
    # a padded complement a window at a time
    assert {w for _, c, w in widths if not c} == {1}
    assert {k for k, c, w in widths if c and w > 1} == {"psi", "phi", "phibar"}


def test_window_outcomes_are_independent_slots():
    # every draw r below d^W of a window, decoded, against W independent
    # uniform slots: outcome (k, s) is k loop slots, then element slot s;
    # (W, -1) is W loop slots.  Exact integer counts, over widths 1 to 6,
    # q = 0, q = 1 and L = 0 included.
    seen = set()
    for d, elements in (
        (1, 1), (4, 4), (5, 4), (2, 1), (3, 0), (5, 2),
        (10, 3), (9, 2), (11, 2), (6, 1), (7, 1),
    ):
        w = step_window(d, elements)
        W = w.width
        assert W == 1 or (d - elements >= 2 * elements and W == (d - elements) // elements)
        assert w.bound == d**W
        decoded = Counter()
        for r in range(w.bound):
            k, slot = w.decode(r)
            if r < w.fast:
                assert (k, slot) == (0, r)
            assert (k == W) == (r >= w.cum[-1])
            decoded[k, slot] += 1
        independent = Counter()
        for slots in itertools.product(range(d), repeat=W):
            k = next((i for i, x in enumerate(slots) if x < elements), W)
            independent[k, slots[k] if k < W else -1] += 1
        assert decoded == independent, (d, elements)
        seen.add(W)
    assert seen == {1, 2, 3, 4, 5, 6}


class _CountingRandom(random.Random):
    """A random.Random that tallies its getrandbits calls by bit count."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = Counter()

    def getrandbits(self, k):
        self.calls[k] += 1
        return super().getrandbits(k)


def test_padded_walks_draw_once_per_element_step_or_window(monkeypatch):
    # a near-complete digraph shaped like the benchmark's dense input:
    # complete minus two disjoint fixed-point-free permutations, n = 16
    n = 16
    missing = {(u, (u + 1) % n) for u in range(n)} | {(u, (u + 3) % n) for u in range(n)}
    g0 = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in missing])
    rngs = []

    def counting(seed):
        rngs.append(_CountingRandom(seed))
        return rngs[-1]

    monkeypatch.setattr("degswap.chain.random", types.SimpleNamespace(Random=counting))
    tau = 200_000
    for mode in ("full", "plain"):
        plan = plan_chain(g0, mode)
        w = plan.window
        assert plan.complement and w.width >= 32
        res = run_chain(g0, ChainConfig(tau=tau, mode=mode, seed=3))
        assert res.moves > 0 and res.graph.degree_sequence() == g0.degree_sequence()
        calls = rngs[-1].calls
        window_calls = calls.pop((w.bound - 1).bit_length())
        pair_calls = sum(calls.values())  # each element step draws >= 1 pair
        assert pair_calls > 0
        # windows <= element steps + tau / W, with under two draws each on average
        assert window_calls <= 2 * (pair_calls + tau / w.width), mode
        assert window_calls + pair_calls < tau / 10, mode
    # m-bar = 0: no element, so no draw at all, and the run still loops
    # tau times with its trace and invariants intact
    complete = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    for mode in ("full", "plain"):
        cfg = ChainConfig(tau=tau, mode=mode, seed=3, record_trace=True)
        res = run_chain(complete, cfg, check_invariants=True)
        assert (res.moves, res.loops) == (0, tau)
        assert len(res.trace) == tau + 1 and set(res.trace) == {canonical_key(complete)}
        assert not rngs[-1].calls
        res.graph._check_index()


def test_a_plan_runs_as_its_start_graph():
    # ensembles plan once per block; a planned run is the unplanned run
    cases = [
        (realize_undirected(DegreeSequence((4,) * 6)), "undirected"),
        (realize_directed(DiDegreeSequence(((3, 3),) * 5)), "full"),
        (realize_directed(DiDegreeSequence(((1, 1),) * 4)), "plain"),
    ]
    for g0, mode in cases:
        plan = plan_chain(g0, mode)
        for seed in range(3):
            cfg = ChainConfig(tau=500, mode=mode, seed=seed, record_trace=True)
            a, b = run_chain(g0, cfg), run_chain(plan, cfg)
            assert a.graph == b.graph and a.trace == b.trace and a.moves == b.moves
        assert plan.start is g0 or plan.start == g0.complement()
    with pytest.raises(InvalidInputError):
        run_chain(plan_chain(cases[1][0], "full"), ChainConfig(tau=1, mode="plain"))


def test_move_hook_leaves_the_walk_unchanged():
    # traces and invariant checks ride on the sampling loop's per-move hook;
    # installing it must not change a single draw
    cases = [
        (realize_undirected(DegreeSequence((1, 1, 1, 1))), "undirected"),
        (realize_undirected(DegreeSequence((2, 2, 2, 1, 1))), "undirected"),
        (realize_directed(DiDegreeSequence(((1, 1),) * 3)), "full"),
        (realize_directed(DiDegreeSequence(((1, 1),) * 4)), "full"),
        (realize_directed(DiDegreeSequence(((1, 1),) * 4)), "plain"),
        (realize_directed(DiDegreeSequence(((2, 1), (1, 2), (1, 1), (1, 1)))), "full"),
        (realize_directed(DiDegreeSequence(((2, 2), (2, 2), (1, 1), (1, 1)))), "plain"),
    ] + _rejection_path_cases() + _complement_walk_cases()
    for g0, mode in cases:
        for seed in range(4):
            cfg = ChainConfig(tau=600, mode=mode, seed=seed)
            bare = run_chain(g0, cfg)
            traced = run_chain(
                g0, ChainConfig(tau=600, mode=mode, seed=seed, record_trace=True)
            )
            checked = run_chain(g0, cfg, check_invariants=True)
            key = canonical_key(bare.graph)
            for hooked in (traced, checked):
                assert canonical_key(hooked.graph) == key
                assert hooked.moves == bare.moves
            assert len(traced.trace) == 601
            assert traced.trace[0] == canonical_key(g0) and traced.trace[-1] == key
            changes = sum(1 for a, b in zip(traced.trace, traced.trace[1:]) if a != b)
            assert changes == bare.moves


def test_trace_records_moves():
    g = realize_undirected(DegreeSequence((1, 1, 1, 1)))
    res = run_chain(g, ChainConfig(tau=200, mode="undirected", seed=1, record_trace=True))
    changes = sum(1 for a, b in zip(res.trace, res.trace[1:]) if a != b)
    assert changes == res.moves > 0


def test_invariants_hold_throughout():
    for g0, mode in (
        (realize_undirected(DegreeSequence((2, 2, 2, 1, 1))), "undirected"),
        (realize_directed(DiDegreeSequence(((1, 1),) * 4)), "full"),
        (realize_directed(DiDegreeSequence(((1, 1),) * 4)), "plain"),
    ):
        run_chain(g0, ChainConfig(tau=400, mode=mode, seed=7), check_invariants=True)


def test_invariants_on_rejection_sampling_path():
    for g0, mode in _rejection_path_cases():
        res = run_chain(
            g0, ChainConfig(tau=800, mode=mode, seed=3), check_invariants=True
        )
        assert res.moves > 0


def test_index_structures_survive_long_runs():
    # hub_with_back_arc() forms and breaks antiparallel pairs; (2, 2) x 5
    # has induced 3-cycles, so its full run reorients as well as swaps
    for g0 in (realize_directed(DiDegreeSequence(((2, 2),) * 5)), hub_with_back_arc()):
        res = run_chain(g0, ChainConfig(tau=5000, mode="full", seed=13))
        assert res.moves > 0
        g = res.graph
        assert sorted(g._pairs) == sorted(g._pos)
        assert sorted(g._pos.values()) == list(range(g.m))
        g._check_index()
        assert g.degree_sequence() == g0.degree_sequence()

    u0 = realize_undirected(DegreeSequence((2, 2, 2, 2, 1, 1)))
    res = run_chain(u0, ChainConfig(tau=5000, mode="undirected", seed=13))
    g = res.graph
    assert sorted(g._pairs) == sorted(g._pos)
    assert all(g._pos[e] == i for i, e in enumerate(g._pairs))
    g._check_index()
    assert g.degree_sequence() == u0.degree_sequence()


def test_runs_reuse_the_start_graphs_index_ints():
    # a move hands each replaced pair's position int to its replacement, so
    # a run holds no index int its start graph does not; with m > 257 most
    # positions lie outside CPython's small-int cache.  No 2-swap applies to
    # example1, so its full walk moves by reorientations alone; reversing its
    # arc list puts the 3-cycles' arcs in slots 324 .. 350.
    undirected = realize_undirected(DegreeSequence((4,) * 200))
    directed = realize_directed(DiDegreeSequence(((2, 2),) * 200))
    blocked = generate_blocked(BlockedInstanceSpec(blocks=9))
    blocked = Digraph(blocked.n, blocked.pairs()[::-1])
    for g0, mode, tau in (
        (undirected, "undirected", 3000),
        (directed, "full", 3000),
        (directed, "plain", 3000),
        (blocked, "full", 50000),
    ):
        plan = plan_chain(g0, mode)
        assert not plan.complement and g0.m > 257
        held = {id(i) for i in plan.start._pos.values()}
        res = run_chain(plan, ChainConfig(tau=tau, mode=mode, seed=5))
        assert res.moves > 0
        assert all(id(i) in held for i in res.graph._pos.values()), mode


def test_unique_realization_always_loops():
    tri = realize_undirected(DegreeSequence((2, 2, 2)))
    res = run_chain(tri, ChainConfig(tau=300, mode="undirected", seed=2))
    assert res.moves == 0
    k4 = realize_undirected(DegreeSequence((3, 3, 3, 3)))
    assert run_chain(k4, ChainConfig(tau=300, mode="undirected", seed=2)).moves == 0
    bid = realize_directed(DiDegreeSequence(((2, 2),) * 3))
    assert run_chain(bid, ChainConfig(tau=300, mode="full", seed=2)).moves == 0


def test_all_matchings_visited():
    g = realize_undirected(DegreeSequence((1, 1, 1, 1)))
    res = run_chain(
        g, ChainConfig(tau=2000, mode="undirected", seed=3, record_trace=True)
    )
    assert len(set(res.trace)) == 3


def test_sinks_and_sources_forced_loop():
    g = realize_directed(DiDegreeSequence(((0, 0), (0, 0))))
    res = run_chain(g, ChainConfig(tau=50, mode="full", seed=1))
    assert res.moves == 0 and res.loops == 50


def test_plain_blocked_instance_never_moves():
    g = generate_blocked(BlockedInstanceSpec(blocks=2))
    res = run_chain(g, ChainConfig(tau=5000, mode="plain", seed=11))
    assert res.moves == 0
    g1 = realize_directed(DiDegreeSequence(((1, 1),) * 3))
    res = run_chain(g1, ChainConfig(tau=5000, mode="plain", seed=11))
    assert res.moves == 0


def test_plain_preserves_cycle_set_orientation():
    g0 = mobile_blocked_instance()
    sets = arcswap.detect_induced_cycle_sets(g0)
    assert [cs.vertices for cs in sets] == [(0, 1, 2)]
    res = run_chain(g0, ChainConfig(tau=4000, mode="plain", seed=4))
    assert res.moves > 0  # the walk is genuinely mobile
    for arc in ((0, 1), (1, 2), (2, 0)):
        assert res.graph.has(*arc)


def test_step_functions_mutate_in_place():
    rng = random.Random(0)
    g = realize_undirected(DegreeSequence((1, 1, 1, 1)))
    moved = [step_undirected(g, rng) for _ in range(50)]
    assert any(moved)
    d = realize_directed(DiDegreeSequence(((1, 1),) * 3))
    moved = [step_directed_full(d, rng) for _ in range(50)]
    assert any(moved)
    assert d.degree_sequence().pairs == ((1, 1),) * 3
    p = realize_directed(DiDegreeSequence(((1, 1),) * 4))
    moved = [step_directed_plain(p, rng) for _ in range(80)]
    assert any(moved)


def test_derive_seed_spreads():
    seeds = {derive_seed(1729, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(1729, 0) == derive_seed(1729, 0)
    assert derive_seed(1729, 0) != derive_seed(1730, 0)


def test_full_mode_uniform_over_antiparallel_mix():
    # nine realizations with state-dependent antiparallel counts; the
    # one-loop-per-antiparallel-pair accounting keeps sampling uniform
    from degswap.statespace import enumerate_realization_keys
    from .conftest import chi2_sf

    s = DiDegreeSequence(((1, 1),) * 4)
    keys = sorted(enumerate_realization_keys(s))
    assert len(keys) == 9
    g0 = realize_directed(s)
    counts = {}
    runs, tau = 3000, 1200
    for i in range(runs):
        r = run_chain(g0, ChainConfig(tau=tau, mode="full", seed=derive_seed(77, i)))
        bits = canonical_key(r.graph).bits
        counts[bits] = counts.get(bits, 0) + 1
    expected = runs / 9
    chi2 = sum((counts.get(k, 0) - expected) ** 2 / expected for k in keys)
    assert chi2_sf(chi2, df=8) > 0.01, (sorted(counts.values()), chi2)


def test_plain_mode_uniform_within_component():
    # non-arc-swap instance: the swap-only walk must stay in its component
    # and sample that component uniformly
    from degswap.statespace import _reach, build_state_graph
    from .conftest import chi2_sf

    g0 = mobile_blocked_instance()
    s = g0.degree_sequence()
    sg = build_state_graph(s, "phibar", max_n=7)
    start = canonical_key(g0)
    index = sg.keys.index(start)
    component = [sg.keys[i] for i in next(c for c in _reach(sg).components if index in c)]
    assert len(component) == 4
    counts = {}
    runs, tau = 2000, 1200
    for i in range(runs):
        r = run_chain(g0, ChainConfig(tau=tau, mode="plain", seed=derive_seed(78, i)))
        key = canonical_key(r.graph)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(component)
    expected = runs / len(component)
    chi2 = sum((counts.get(k, 0) - expected) ** 2 / expected for k in component)
    assert chi2_sf(chi2, df=len(component) - 1) > 0.01, (sorted(counts.values()), chi2)


def test_rare_pair_long_walks_are_uniform():
    # hub instances whose universe pairs are under a tenth of all slot pairs;
    # the walk is never undone, and the states it visits every 10th step
    # must be uniform
    from .conftest import chi2_sf

    tau, every = 100_000, 10
    for g0, mode, states, seed in (
        (hub_with_matching(20, 1), "undirected", 231, 41),
        (hub_with_back_arc(), "full", 41, 42),
        (hub_with_matching(20, 1, "out"), "plain", 21, 43),
    ):
        cfg = ChainConfig(tau=tau, mode=mode, seed=seed, record_trace=True)
        res = run_chain(g0, cfg)
        counts = {}
        for key in res.trace[every::every]:
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == states
        expected = tau // every / states
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2_sf(chi2, df=states - 1) > 0.01, (mode, chi2)
        assert res.graph.degree_sequence() == g0.degree_sequence()


def test_complement_walk_is_uniform():
    # the nine realizations of (2, 2) x 4 are the complements of those of
    # (1, 1) x 4; run_chain walks them on the complement, padded from walk
    # degree 6 to 20, and must sample them uniformly
    from degswap.statespace import enumerate_realization_keys
    from .conftest import chi2_sf

    s = DiDegreeSequence(((2, 2),) * 4)
    keys = sorted(enumerate_realization_keys(s))
    assert len(keys) == 9
    g0 = realize_directed(s)
    assert complement_universe(g0, universe_for(g0, "full")) is not None
    counts = {}
    runs, tau = 3000, 1200
    for i in range(runs):
        r = run_chain(g0, ChainConfig(tau=tau, mode="full", seed=derive_seed(79, i)))
        assert r.graph.degree_sequence() == s
        bits = canonical_key(r.graph).bits
        counts[bits] = counts.get(bits, 0) + 1
    expected = runs / 9
    chi2 = sum((counts.get(k, 0) - expected) ** 2 / expected for k in keys)
    assert chi2_sf(chi2, df=8) > 0.01, (sorted(counts.values()), chi2)

"""Shared oracles and helpers.

The enumeration oracles here deliberately avoid the package's backtracking
enumerator: they filter every subset of the vertex-pair grid, so they can
certify it.
"""

import itertools
import math
from typing import NamedTuple, Optional

import pytest

from degswap import chain
from degswap.chain import (
    MODE_FULL,
    MODE_PLAIN,
    MODE_UNDIRECTED,
    _run,
    iter_nonadjacent_pairs,
    iter_role_disjoint_arc_pairs,
    universe_for,
)
from degswap.core import (
    AlternatingCycle,
    CanonicalKey,
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    canonical_key,
)


def subset_enum_undirected(s: DegreeSequence) -> list[frozenset]:
    """Edge sets of all realizations, by filtering every subset of the grid."""
    n = s.n
    grid = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(grid)):
        degs = [0] * n
        edges = []
        for i, (u, v) in enumerate(grid):
            if bits >> i & 1:
                degs[u] += 1
                degs[v] += 1
                edges.append((u, v))
        if tuple(degs) == s.degrees:
            out.append(frozenset(edges))
    return out


def subset_enum_directed(s: DiDegreeSequence) -> list[frozenset]:
    n = s.n
    grid = [(u, v) for u in range(n) for v in range(n) if u != v]
    out = []
    for bits in range(1 << len(grid)):
        outs = [0] * n
        ins = [0] * n
        arcs = []
        for i, (u, v) in enumerate(grid):
            if bits >> i & 1:
                outs[u] += 1
                ins[v] += 1
                arcs.append((u, v))
        if tuple(outs) == s.outs and tuple(ins) == s.ins:
            out.append(frozenset(arcs))
    return out


def oracle_cycle_sets(s: DiDegreeSequence, keys) -> list[tuple[int, int, int]]:
    """Triples inducing a directed 3-cycle in every given realization key."""
    n = s.n
    cand = []
    for t in itertools.combinations(range(n), 3):
        i, j, k = t
        ma = (
            (1 << Digraph.index(n, i, j))
            | (1 << Digraph.index(n, j, k))
            | (1 << Digraph.index(n, k, i))
        )
        mb = (
            (1 << Digraph.index(n, i, k))
            | (1 << Digraph.index(n, k, j))
            | (1 << Digraph.index(n, j, i))
        )
        cand.append((t, ma, mb, ma | mb))
    for bits in keys:
        cand = [(t, a, b, m) for (t, a, b, m) in cand if (bits & m) in (a, b)]
        if not cand:
            break
    return [t for (t, _, _, _) in cand]


# ---------------------------------------------------------------------------
# one chain step: degswap.chain._run for a single step, under g's own universe


def step_undirected(g: Graph, rng) -> bool:
    """One undirected chain step in place; True when the graph changed."""
    return _run(g, universe_for(g, MODE_UNDIRECTED), rng, 1) == 1


def step_directed_full(g: Digraph, rng) -> bool:
    """One swap-or-reorient step in place; True when the digraph changed."""
    return _run(g, universe_for(g, MODE_FULL), rng, 1) == 1


def step_directed_plain(g: Digraph, rng) -> bool:
    """One swap-only step in place; True when the digraph changed."""
    return _run(g, universe_for(g, MODE_PLAIN), rng, 1) == 1


# ---------------------------------------------------------------------------
# observed runs: degswap.chain.run_chain with a move hook on its step loop


def universe_counts(g: Graph | Digraph) -> tuple[int, int]:
    """Direct (universe pairs, stub 2-paths) counts on g.

    Constancy oracle: ``pairs == n_pairs + n_2paths`` and ``stubs ==
    n_2paths`` of the sequence's universe on every realization.
    """
    if isinstance(g, Graph):
        return sum(1 for _ in iter_nonadjacent_pairs(g)), 0
    pairs = sum(1 for _ in iter_role_disjoint_arc_pairs(g))
    return pairs, sum(x * y for x, y in zip(g.out_deg, g.in_deg))


def check_invariants(g: Graph | Digraph, universe, s0) -> None:
    """Assert g's index structures, its degree sequence s0 and its universe counts."""
    g._check_index()
    assert g.degree_sequence() == s0, "degree sequence drifted"
    pairs, stubs = universe_counts(g)
    assert pairs == universe.n_pairs + universe.n_2paths, "universe pair count drifted"
    assert stubs == universe.n_2paths, "2-path count drifted"


class ObservedRun(NamedTuple):
    """A run_chain result, plus the walk's keys when traced."""

    graph: Graph | Digraph
    moves: int
    loops: int
    trace: Optional[list[CanonicalKey]]


def observed_run(g0, cfg, trace: bool = False, check: bool = False) -> ObservedRun:
    """``run_chain(g0, cfg)`` with an ``on_move`` hook on the step loop it calls.

    ``degswap.chain._run`` is wrapped for this one call, so run_chain itself
    runs, and the hook reads the walked graph without drawing.  ``trace``
    records g0's side of the walk, tau + 1 keys: the start's, then entry
    t + 1 after step t (a loop repeats the previous key; a complement walk
    records the complement of each walked key).  ``check`` applies
    :func:`check_invariants` to the walked graph at the start and after
    every move; a loop leaves the graph, and so the counts, unchanged.
    """
    plan = g0 if isinstance(g0, chain.ChainPlan) else chain.plan_chain(g0, cfg.mode)
    if plan.complement:

        def key(h):
            return canonical_key(h).complement()

    else:
        key = canonical_key
    keys = [] if trace else None
    inner = chain._run

    def hooked(g, universe, rng, tau, on_move=None, walk_degree=None, window=None):
        assert on_move is None
        s0 = g.degree_sequence()

        def observe(t, removed, added):
            if keys is not None:
                keys.extend([keys[-1]] * (t - len(keys) + 1))
                keys.append(key(g))
            if check:
                check_invariants(g, universe, s0)

        if keys is not None:
            keys.append(key(g))
        if check:
            check_invariants(g, universe, s0)
        return inner(g, universe, rng, tau, observe, walk_degree, window)

    chain._run = hooked
    try:
        result = chain.run_chain(g0, cfg)
    finally:
        chain._run = inner
    if keys is not None:
        keys.extend([keys[-1]] * (cfg.tau + 1 - len(keys)))
    return ObservedRun(*result, keys)


# ---------------------------------------------------------------------------
# reference mutators: the step loop of degswap.chain writes each move in
# this slot placement and map order, and tests/test_reference.py checks them
# against reference loops that call these


def swap_edges(g: Graph, e1, e2, f1, f2) -> None:
    """Replace edges e1, e2 of g by f1, f2 on the same four endpoints.

    Degree-preserving by construction, so f1 takes e1's list slot and f2
    takes e2's.
    """
    pos = g._pos
    edges = g._pairs
    i1 = pos.pop(e1)
    i2 = pos.pop(e2)
    pos[f1] = i1
    edges[i1] = f1
    pos[f2] = i2
    edges[i2] = f2


def swap_arcs(g: Digraph, a: int, b: int, c: int, d: int) -> None:
    """Replace arcs (a,b),(c,d) of g by (a,d),(c,b), each in its original's slot."""
    pos = g._pos
    arcs = g._pairs
    i1 = pos.pop((a, b))
    i2 = pos.pop((c, d))
    pos[(a, d)] = i1
    arcs[i1] = (a, d)
    pos[(c, b)] = i2
    arcs[i2] = (c, b)


def reorient_triangle(g: Digraph, u: int, v: int, w: int) -> None:
    """Reverse the arcs of the induced directed 3-cycle u -> v -> w -> u of g.

    Requires all three reversals absent beforehand (the reorientation
    gate); each reversed arc takes over its original's list slot.
    """
    pos = g._pos
    arcs = g._pairs
    i1 = pos.pop((u, v))
    i2 = pos.pop((v, w))
    i3 = pos.pop((w, u))
    pos[(v, u)] = i1
    arcs[i1] = (v, u)
    pos[(w, v)] = i2
    arcs[i2] = (w, v)
    pos[(u, w)] = i3
    arcs[i3] = (u, w)


def swap_alternating_cycle(g: Graph | Digraph, c: AlternatingCycle):
    """Flip presence along an alternating cycle in place; returns g.

    One side of the cycle must be fully present and the other fully absent
    (either side, so the flip is an involution).  The walks of
    ``find_breaking_walk`` are checked by flipping them with this, which
    shares no code with the chain's moves.
    """
    if c.kind != g.kind:
        raise AssertionError(f"cycle kind {c.kind} does not match the graph")
    has, add, remove = g.has, g._add, g._remove
    left_in = [has(*e) for e in c.left]
    right_in = [has(*e) for e in c.right]
    if all(left_in) and not any(right_in):
        present, absent = c.left, c.right
    elif all(right_in) and not any(left_in):
        present, absent = c.right, c.left
    else:
        raise AssertionError("cycle does not alternate present/absent in this graph")
    for e in present:
        remove(*e)
    for e in absent:
        add(*e)
    return g


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution.

    Even df: the closed form exp(-x/2) * sum_{k<df/2} (x/2)^k / k!.  Odd df:
    the same series started from the df=1 tail erfc(sqrt(x/2)), using the
    recurrence sf(df+2) = sf(df) + (x/2)^(df/2) exp(-x/2) / Gamma(df/2 + 1).
    """
    h = x / 2.0
    if df % 2 == 0:
        return math.exp(-h) * sum(h**k / math.factorial(k) for k in range(df // 2))
    q = math.erfc(math.sqrt(h))
    for k in range(1, df, 2):
        q += h ** (k / 2.0) * math.exp(-h) / math.gamma(k / 2.0 + 1.0)
    return q


def all_digraphical_sequences(n: int, max_deg: int):
    """Every digraphical labeled sequence with the given order and degree cap."""
    from degswap.realize import is_digraphical

    vals = [(a, b) for a in range(max_deg + 1) for b in range(max_deg + 1)]
    for combo in itertools.product(vals, repeat=n):
        if sum(a for a, _ in combo) != sum(b for _, b in combo):
            continue
        s = DiDegreeSequence(combo)
        report = is_digraphical(s)
        if report.graphical:
            yield s, report.witness


def all_graphical_sequences(n: int, max_deg: int):
    from degswap.realize import is_graphical

    for degs in itertools.product(range(max_deg + 1), repeat=n):
        s = DegreeSequence(degs)
        report = is_graphical(s)
        if report.graphical:
            yield s, report.witness


def mobile_blocked_instance() -> Digraph:
    """Non-arc-swap instance whose swap-only walk still moves.

    Triangle {0,1,2} tied both ways to the bidirected pair {3,4}; vertices 5
    and 6 tied both ways to 3 and 4 respectively.  The triangle is an induced
    cycle set, yet the arcs between {5,6} and {3,4} admit 2-swaps, so the
    swap-only state graph has two components of four states each.
    """
    arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]
    for c in (0, 1, 2):
        for a in (3, 4):
            arcs += [(c, a), (a, c)]
    arcs += [(5, 3), (3, 5), (6, 4), (4, 6)]
    return Digraph(7, arcs)


def hub_with_matching(leaves: int, matching: int, kind: str = "undirected"):
    """Star on hub 0 plus a disjoint matching: universe pairs are rare.

    ``kind`` is ``undirected``, ``out`` (hub -> leaves, matching arcs
    2j+1+leaves -> 2j+2+leaves) or ``in`` (leaves -> hub).  With 20 leaves
    and one matching edge the pairs are under a tenth of all slot pairs in
    every chain mode.
    """
    n = 1 + leaves + 2 * matching
    star = [(0, v) for v in range(1, leaves + 1)]
    pairs = [(leaves + 1 + 2 * j, leaves + 2 + 2 * j) for j in range(matching)]
    if kind == "undirected":
        return Graph(n, star + pairs)
    if kind == "in":
        star = [(v, u) for u, v in star]
    return Digraph(n, star + pairs)


def hub_with_back_arc(leaves: int = 20) -> Digraph:
    """Out-star on hub 0 whose hub also has one in-arc; degrees (leaves, 1).

    Vertex x = leaves + 1 has degrees (1, 1) and y = leaves + 2 has (1, 0),
    so the hub and x can form an antiparallel pair.  The ``full`` universe
    pairs are rare; with 20 leaves there are 41 realizations.
    """
    x, y = leaves + 1, leaves + 2
    arcs = [(0, v) for v in range(2, leaves + 1)] + [(0, x), (x, 1), (y, 0)]
    return Digraph(leaves + 3, arcs)


# ---------------------------------------------------------------------------
# acceptance reporting

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, float]] = {}


def record_acceptance(num: int, name: str, ok: bool, elapsed: float) -> None:
    ACCEPTANCE_RESULTS[num] = (name, ok, elapsed)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        name, ok, elapsed = ACCEPTANCE_RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {num} ({name}): {status} [{elapsed:.1f}s]"
        )

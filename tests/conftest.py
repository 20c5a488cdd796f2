"""Shared oracles and helpers.

The subset enumeration oracles here deliberately avoid the package's
backtracking enumerator: they filter every subset of the vertex-pair grid,
so they can certify it.  The checks that only tests run live here too: the
one-step fidelity sampler, the rule-A adjacency, the realization list and
the breaking-walk wrapper.
"""

import functools
import itertools
import math
import random
from typing import NamedTuple, Optional

import pytest

from degswap import chain
from degswap.arcswap import _breaking_walk, _cycle_orientation
from degswap.chain import (
    MODE_FULL,
    MODE_PLAIN,
    MODE_UNDIRECTED,
    _run,
    derive_seed,
    iter_nonadjacent_pairs,
    iter_role_disjoint_arc_pairs,
    universe_for,
)
from degswap.core import (
    DIRECTED,
    UNDIRECTED,
    AlternatingCycle,
    CanonicalKey,
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    canonical_key,
    graph_from_key,
)
from degswap.errors import InvalidInputError
from degswap.names import KIND_PHI
from degswap.statespace import (
    _KIND_TO_MODE,
    StateGraph,
    _destination,
    build_state_graph,
    enumerate_realization_keys,
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
# state-graph oracles: the package's enumerator as a list of graphs, the
# definitional adjacency, and the one-step fidelity check of the sampling loop


def enumerate_realizations(
    s: DegreeSequence | DiDegreeSequence, max_n: Optional[int] = None
) -> list[Graph | Digraph]:
    """All labeled simple realizations of s, each exactly once."""
    kind = DIRECTED if isinstance(s, DiDegreeSequence) else UNDIRECTED
    return [
        graph_from_key(CanonicalKey(kind, s.n, bits))
        for bits in enumerate_realization_keys(s, max_n)
    ]


def rule_a_neighbors(sg: StateGraph) -> dict[CanonicalKey, set[CanonicalKey]]:
    """Definitional adjacency, straight from symmetric-difference sizes.

    psi / phibar: two states are adjacent iff the difference has 4 arcs;
    phi additionally when it has 6 arcs on exactly 3 distinct vertices.
    Used to cross-check that move-generated arcs agree with the definition.
    """
    nbrs: dict[CanonicalKey, set[CanonicalKey]] = {k: set() for k in sg.keys}
    keys = sg.keys
    n = sg.n
    for i, x in enumerate(keys):
        for y in keys[i + 1 :]:
            diff = x.bits ^ y.bits
            size = diff.bit_count()
            adjacent = size == 4
            if not adjacent and sg.kind == KIND_PHI and size == 6:
                verts = set()
                for i, pair in enumerate(Digraph.grid(n)):
                    if diff >> i & 1:
                        verts.update(pair)
                adjacent = len(verts) == 3
            if adjacent:
                nbrs[x].add(y)
                nbrs[y].add(x)
    return nbrs


class ComparisonReport(NamedTuple):
    kind: str
    steps_per_state: int
    max_abs_sigma: float
    failures: list[tuple[str, str, int, float, float]]
    # (state_hex, dest_hex, observed, expected_count, sigma)

    @property
    def ok(self) -> bool:
        return not self.failures


def empirical_transition_check(
    s: DegreeSequence | DiDegreeSequence,
    kind: str,
    steps_per_state: int,
    seed: int = 0,
    sg: Optional[StateGraph] = None,
    alpha: float = 0.001,
    complement: bool = False,
) -> ComparisonReport:
    """Single chain steps from every state vs. the explicit transition row.

    Runs ``steps_per_state`` one-step trials from each enumerated state
    through the sampling loop, undoing every move as it happens, and checks
    each destination count against its exact binomial acceptance interval
    (:func:`binomial_interval`).  ``alpha`` is family-wise: each of the
    cells with 0 < p < 1 gets ``alpha / cells``, so an exact sampler fails
    the check with chance at most ``alpha``; a cell with p = 0 or p = 1 must
    hit its count exactly.  With ``complement`` each trial steps the state's
    complement under the complement sequence's universe, padded to the
    state graph's walk degree, as :func:`degswap.chain.run_chain` walks a
    dense input.  A move flips its removed and added pairs alike, so the
    complement's move names the state's destination directly.
    """
    if sg is None:
        sg = build_state_graph(s, kind)
    mode = _KIND_TO_MODE[kind]
    walk_degree = sg.universe.walk_degree
    rows = {key: sg.transition_row(key) for key in sg.keys}
    cells = sum(1 for row in rows.values() for p in row.values() if 0.0 < p < 1.0)
    alpha_cell = alpha / max(cells, 1)

    failures = []
    max_sigma = 0.0
    for idx, key in enumerate(sg.keys):
        g = graph_from_key(key)
        if complement:
            g = g.complement()
        universe = universe_for(g, mode) if complement else sg.universe
        rng = random.Random(derive_seed(seed, idx))
        counts: dict[CanonicalKey, int] = {}
        sig_dest: dict = {}
        add, remove = g._add, g._remove

        def on_move(t, removed, added):
            res = (removed, added)
            dest = sig_dest.get(res)
            if dest is None:
                dest = sig_dest[res] = _destination(key, removed, added)
            counts[dest] = counts.get(dest, 0) + 1
            for u, v in added:
                remove(u, v)
            for u, v in removed:
                add(u, v)

        moves = _run(g, universe, rng, steps_per_state, on_move, walk_degree)
        counts[key] = steps_per_state - moves

        row = rows[key]
        for dest in set(counts) | set(row):
            p = row.get(dest, 0.0)
            obs = counts.get(dest, 0)
            expected = steps_per_state * p
            sigma = float("inf")
            if 0.0 < p < 1.0:
                sigma = abs(obs - expected) / (expected * (1.0 - p)) ** 0.5
                max_sigma = max(max_sigma, sigma)
            lo, hi = binomial_interval(steps_per_state, p, alpha_cell)
            if not lo <= obs <= hi:
                failures.append((key.hex(), dest.hex(), obs, expected, sigma))

    return ComparisonReport(kind, steps_per_state, max_sigma, failures)


@functools.lru_cache(maxsize=1024)
def binomial_interval(n: int, p: float, alpha: float) -> tuple[int, int]:
    """The narrowest count interval [lo, hi] whose two tails each hold <= alpha / 2.

    For a Binomial(n, p) count X: P(X < lo) <= alpha / 2 < P(X <= lo) and
    P(X > hi) <= alpha / 2 < P(X >= hi), exactly, not under a normal
    approximation, whose tails are too thin for small p.  The pmf is
    evaluated through ``math.lgamma`` outward from the mean until its terms
    are negligible against alpha, and each tail is summed from its far end
    inward.  p = 0 and p = 1 give the single count 0 or n.
    """
    if p <= 0.0:
        return 0, 0
    if p >= 1.0:
        return n, n
    half = alpha / 2
    head = math.lgamma(n + 1)
    lp, lq = math.log(p), math.log1p(-p)
    mean = int(n * p)

    def bound(ks) -> int:
        terms = []
        for k in ks:
            x = math.exp(head - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq)
            terms.append(x)
            if x < half * 1e-12:
                break
        tail = 0.0  # mass beyond ks[i], the far side of the mean
        for i in range(len(terms) - 1, -1, -1):
            if tail + terms[i] > half:
                return ks[i]
            tail += terms[i]
        return ks[0]

    return bound(range(mean, -1, -1)), bound(range(mean, n + 1))


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


# ---------------------------------------------------------------------------
# breaking walks: degswap.arcswap's probe sweep, returned as a swap cycle


def _swap_cycle(walk: list[int]) -> AlternatingCycle:
    """The swap cycle of a breaking walk: the probe, then the walk backwards."""
    removed = [(walk[0], walk[-1])]
    added = []
    for i in range(len(walk) - 1):
        a, b = walk[i], walk[i + 1]
        if i % 2:
            removed.append((b, a))  # present arc into the in-copy a-
        else:
            added.append((a, b))  # absent arc out of the out-copy a+
    verts = (walk[0],) + tuple(reversed(walk[1:]))
    return AlternatingCycle("directed", verts, tuple(removed), tuple(added))


def find_breaking_walk(
    g: Digraph, cycle: tuple[int, int, int], arc: tuple[int, int]
) -> Optional[AlternatingCycle]:
    """Swap cycle removing ``arc`` that leaves the triple without a 3-cycle.

    ``cycle`` is a vertex triple inducing a directed 3-cycle in g and ``arc``
    one of its arcs.  Absent result means no simple symmetric swap through
    this arc can break the triple.
    """
    arcs = _cycle_orientation(g, tuple(cycle))
    if arcs is None:
        raise InvalidInputError(f"{cycle} does not induce a directed 3-cycle")
    if tuple(arc) not in arcs:
        raise InvalidInputError(f"{arc} is not an arc of the induced 3-cycle")
    v, w = arc
    x = next(b for a, b in arcs if a == w)
    walk = _breaking_walk(g, v, w, x, *g.adjacency())
    return None if walk is None else _swap_cycle(walk)


# ---------------------------------------------------------------------------
# distributions and test instances


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

"""Desk-scale ground truth: enumerate realizations and build explicit state graphs.

The three state-graph kinds mirror the chain modes:

* ``psi`` -- undirected 2-swap walk;
* ``phi`` -- directed walk with 2-swaps and 3-cycle reorientations;
* ``phibar`` -- directed walk with 2-swaps only.

Nodes are realizations (indexed by canonical key) and arcs are moves.  One
loop applies every element of the chain's selection universe
(:class:`degswap.chain.MoveUniverse`) to every state: an element whose move
is gated counts as a loop, as does each of the universe's padding slots, so
the walk is regular by construction and its transition row is
``1/walk_degree`` per slot.  More than :data:`MAX_STATES` realizations
are over budget.  The structural checks all read one iteration of reach
bitsets over the states (``_reach``): strong components, diameters,
bipartiteness and the distance bounds.

The module also holds the symmetric-difference and alternating-cycle lemma
code behind the distance bounds that :func:`check_diameter_bounds` checks.
It is written once for both kinds: a graph's edge is read as an arc that is
out- and in-incident at each of its ends, so one alternating walk
decomposes either difference and one search finds its 3-walks; only the
second walk pattern, Q, is limited to digraphs.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterator, NamedTuple, Optional

from .chain import (
    MODE_FULL,
    MODE_PLAIN,
    MODE_UNDIRECTED,
    MoveUniverse,
    _run,
    derive_seed,
    iter_nonadjacent_pairs,
    iter_role_disjoint_arc_pairs,
    universe_for,
)
from .core import (
    DIRECTED,
    UNDIRECTED,
    AlternatingCycle,
    CanonicalKey,
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    graph_class,
    graph_from_key,
)
from .errors import InvalidInputError, ResourceLimitError
from .names import KIND_PHI, KIND_PHIBAR, KIND_PSI

_KIND_TO_MODE = {KIND_PSI: MODE_UNDIRECTED, KIND_PHI: MODE_FULL, KIND_PHIBAR: MODE_PLAIN}

DEFAULT_MAX_N_UNDIRECTED = 8
DEFAULT_MAX_N_DIRECTED = 6
# The state budget: a sequence with more realizations raises ResourceLimitError
# in build_state_graph as soon as the enumeration passes it, before any row.
MAX_STATES = 10_000


# ---------------------------------------------------------------------------
# exhaustive enumeration


def enumerate_realization_keys(
    s: DegreeSequence | DiDegreeSequence, max_n: Optional[int] = None
) -> Iterator[int]:
    """Key bit patterns of all realizations, each exactly once.

    Backtracks over the vertex-pair grid row by row with residual-degree
    pruning, so of two keys the one holding the lowest grid position where
    they differ comes first.  The resource bound is checked eagerly, before
    the first key is produced; a bound below 1 is invalid input.
    """
    directed = isinstance(s, DiDegreeSequence)
    if max_n is not None:
        if max_n < 1:
            raise InvalidInputError(f"enumeration bound must be at least 1, got {max_n}")
        bound = max_n
    else:
        bound = DEFAULT_MAX_N_DIRECTED if directed else DEFAULT_MAX_N_UNDIRECTED
    if s.n > bound:
        raise ResourceLimitError(f"n={s.n} exceeds enumeration bound {bound}")
    return _enum_keys(s)


def _enum_keys(s: DegreeSequence | DiDegreeSequence) -> Iterator[int]:
    # Row i picks outs[i] pairs (i, j), among j > i on a graph and j != i on
    # a digraph.  res holds the degrees still to collect: every vertex's on
    # a graph, where outs is res itself, and the in-degrees on a digraph.
    n = s.n
    directed = isinstance(s, DiDegreeSequence)
    index = Digraph.index if directed else Graph.index
    res = list(s.ins if directed else s.degrees)
    outs = s.outs if directed else res
    if directed and s.m != sum(res):
        return

    def rec(i: int, bits: int) -> Iterator[int]:
        if i == n:
            yield bits
            return
        start = 0 if directed else i  # a graph's rows before i are done
        # rows i..n-1 can still feed vertex k at most once each (k's own row excluded)
        for k in range(start, n):
            if res[k] > n - i - (k >= i):
                return
        cands = [j for j in range(start, n) if j != i and res[j] > 0]
        for combo in itertools.combinations(cands, outs[i]):
            add = 0
            for j in combo:
                res[j] -= 1
                add |= 1 << index(n, i, j)
            yield from rec(i + 1, bits | add)
            for j in combo:
                res[j] += 1

    yield from rec(0, 0)


def enumerate_realizations(
    s: DegreeSequence | DiDegreeSequence, max_n: Optional[int] = None
) -> list[Graph | Digraph]:
    """All labeled simple realizations of s, each exactly once."""
    kind = DIRECTED if isinstance(s, DiDegreeSequence) else UNDIRECTED
    return [
        graph_from_key(CanonicalKey(kind, s.n, bits))
        for bits in enumerate_realization_keys(s, max_n)
    ]


# ---------------------------------------------------------------------------
# explicit state graphs


class StateGraph(NamedTuple):
    kind: str
    n: int
    universe: MoveUniverse
    keys: list[CanonicalKey]  # sorted
    realizations: dict[CanonicalKey, Graph | Digraph]
    arcs: dict[CanonicalKey, dict[CanonicalKey, int]]  # multiplicities
    loops: dict[CanonicalKey, int]

    @property
    def node_count(self) -> int:
        return len(self.keys)

    def out_degree(self, key: CanonicalKey) -> int:
        return self.loops[key] + sum(self.arcs[key].values())

    def transition_row(self, key: CanonicalKey) -> dict[CanonicalKey, float]:
        """Markov transition probabilities out of a state, self included."""
        d = self.universe.walk_degree
        row = {dest: mult / d for dest, mult in self.arcs[key].items()}
        row[key] = self.loops[key] / d
        return row


def build_state_graph(
    s: DegreeSequence | DiDegreeSequence, kind: str, max_n: Optional[int] = None
) -> StateGraph:
    """Explicit move graph over all realizations of s.

    Every universe element of every state (see :mod:`degswap.chain`) is
    applied: a move whose added pairs are all absent becomes an arc, and
    any other element, like each of the ``walk_degree - elements`` padding
    slots, counts as a loop, so every state has out-degree ``walk_degree``.
    More than :data:`MAX_STATES` realizations raise ResourceLimitError.
    """
    if kind not in _KIND_TO_MODE:
        raise InvalidInputError(f"unknown state-graph kind {kind!r}")
    directed = isinstance(s, DiDegreeSequence)
    if directed != (kind in (KIND_PHI, KIND_PHIBAR)):
        raise InvalidInputError(f"{kind} does not fit a {type(s).__name__}")

    graph_kind = DIRECTED if directed else UNDIRECTED
    found = list(itertools.islice(enumerate_realization_keys(s, max_n), MAX_STATES + 1))
    if len(found) > MAX_STATES:
        raise ResourceLimitError(f"realization count exceeds the state budget of {MAX_STATES}")
    keys = sorted(CanonicalKey(graph_kind, s.n, bits) for bits in found)
    realizations = {key: graph_from_key(key) for key in keys}

    universe = MoveUniverse.of(s, _KIND_TO_MODE[kind])
    padding = universe.walk_degree - universe.elements
    pairs_of = iter_role_disjoint_arc_pairs if directed else iter_nonadjacent_pairs

    arcs: dict[CanonicalKey, dict[CanonicalKey, int]] = {}
    loops: dict[CanonicalKey, int] = {}
    for key in keys:
        g = realizations[key]
        pos = g._pos
        out: dict[CanonicalKey, int] = {}
        nloops = padding
        absent = pos.keys().isdisjoint
        for e1, e2 in pairs_of(g):
            for move in _elements(kind, pos, e1, e2):
                if move is None or not absent(move[1]):
                    nloops += 1
                else:
                    dest = _destination(key, *move)
                    out[dest] = out.get(dest, 0) + 1
        arcs[key] = out
        loops[key] = nloops

    return StateGraph(kind, s.n, universe, keys, realizations, arcs, loops)


def _elements(kind: str, pos, e1: tuple[int, int], e2: tuple[int, int]) -> tuple:
    """The universe elements of one pair: a ``(removed, added)`` move each, None for a loop.

    A psi pair re-pairs two ways.  A vertex-disjoint arc pair 2-swaps.  Under
    phi a proper 2-path u -> v -> w whose w is the largest vertex and whose
    (w, u) is present reorients the triple; any other arc pair, antiparallel
    or head-to-tail, is a loop.
    """
    (a, b), (c, d) = e1, e2
    if kind == KIND_PSI:
        return (
            ((e1, e2), (_ordered(a, c), _ordered(b, d))),
            ((e1, e2), (_ordered(a, d), _ordered(b, c))),
        )
    if a != d and b != c:
        return (((e1, e2), ((a, d), (c, b))),)
    if kind == KIND_PHI and not (a == d and b == c):
        u, v, w = (a, b, d) if b == c else (c, a, b)
        if w > u and w > v and (w, u) in pos:
            return ((((u, v), (v, w), (w, u)), ((v, u), (w, v), (u, w))),)
    return (None,)


def _ordered(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _arc(u: int, v: int) -> tuple[int, int]:
    return (u, v)


def _destination(key: CanonicalKey, removed, added) -> CanonicalKey:
    """The state a move reaches from ``key``: each removed and added pair flips."""
    flip = _pair_bits(key.kind, key.n)
    bits = key.bits
    for pair in removed + added:
        bits ^= flip[pair]
    return CanonicalKey(key.kind, key.n, bits)


@functools.lru_cache(maxsize=None)
def _pair_bits(kind: str, n: int) -> dict[tuple[int, int], int]:
    """Each grid pair's key bit."""
    return {pair: 1 << i for i, pair in enumerate(graph_class(kind).grid(n))}


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


# ---------------------------------------------------------------------------
# structural property checks


class PropertyReport(NamedTuple):
    symmetric: bool
    regular: bool
    degree: Optional[int]
    non_bipartite: bool
    strongly_connected: bool
    component_sizes: list[int]
    diameters: list[int]


class _Reach(NamedTuple):
    """Reach levels of a state graph, its states numbered by their place in ``sg.keys``.

    ``rows[i]`` lists the states one arc out of i.  ``levels[k][i]`` is the
    bitset of the states within k arcs of i, iterated as ``levels[k + 1][i] =
    levels[k][i] | OR over rows[i] of levels[k][j]`` until nothing changes;
    the last index D is the largest finite distance.  Two states share a
    strong component iff they reach the same set, so ``components`` groups
    them by it: largest first, equal sizes in the order of their first state.
    """

    rows: list[list[int]]
    levels: list[list[int]]
    components: list[list[int]]


def _reach(sg: StateGraph) -> _Reach:
    index = {key: i for i, key in enumerate(sg.keys)}
    rows = [[index[y] for y in sg.arcs[x]] for x in sg.keys]
    level = [1 << i for i in range(len(rows))]
    levels = []
    while not levels or level != levels[-1]:
        levels.append(level)
        prev, level = level, []
        for reach, row in zip(prev, rows):
            for j in row:
                reach |= prev[j]
            level.append(reach)
    groups: dict[int, list[int]] = {}
    for i, reach in enumerate(level):
        groups.setdefault(reach, []).append(i)
    return _Reach(rows, levels, sorted(groups.values(), key=len, reverse=True))


def check_properties(sg: StateGraph) -> PropertyReport:
    """Symmetry, regularity, aperiodicity and strong components of a state graph.

    ``diameters`` pairs with ``component_sizes``, largest component first; a
    shortest path between two states of one component stays inside it.
    """
    symmetric = all(
        sg.arcs.get(y, {}).get(x, 0) == mult
        for x, row in sg.arcs.items()
        for y, mult in row.items()
    )
    degrees = {sg.out_degree(k) for k in sg.keys}
    regular = len(degrees) == 1
    degree = degrees.pop() if regular else None

    rows, levels, comps = _reach(sg)
    diameters = []
    non_bip = True  # a component is aperiodic here iff it carries a loop or an odd cycle
    for members in comps:
        inside = sum(1 << i for i in members)
        diameters.append(max(
            next(k for k, level in enumerate(levels) if level[i] & inside == inside)
            for i in members
        ))
        if non_bip and not any(sg.loops[sg.keys[i]] for i in members):
            # bipartite iff every arc inside joins opposite depth parities from one state
            src, odd = members[0], 0
            for k in range(1, len(levels), 2):
                odd |= levels[k][src] & ~levels[k - 1][src]
            non_bip = not all(
                (odd >> x ^ odd >> y) & 1 for x in members for y in rows[x] if inside >> y & 1
            )
    sizes = [len(c) for c in comps]
    return PropertyReport(symmetric, regular, degree, non_bip, len(comps) == 1, sizes, diameters)


class BoundReport(NamedTuple):
    kind: str
    applicable: bool
    checked_pairs: int
    violations: list[tuple[str, str, int, int]]  # (from_hex, to_hex, dist, bound)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_diameter_bounds(sg: StateGraph, arc_swap: Optional[bool] = None) -> BoundReport:
    """Distance bounds between every ordered state pair.

    psi and phi promise dist <= |G delta G'|/2 - 1.  phibar promises
    dist <= (|G delta G'|/2 - 1) * (n+1), but only for arc-swap sequences
    (pass ``arc_swap``; for 6-arc differences on 3 vertices this expression
    equals the sharper 2n+2 promise, so no separate case is needed).

    From each state, the difference sizes to all states are counted at once,
    bit-sliced over state bitsets.  A pair whose bound is at least the last
    reach level D needs only to be reachable; any other pair is looked up in
    the level of its bound.
    """
    if sg.kind == KIND_PHIBAR:
        if arc_swap is None:
            raise InvalidInputError("phibar bounds need the arc-swap verdict")
        if not arc_swap:
            return BoundReport(sg.kind, False, 0, [])

    keys = sg.keys
    scale = sg.n + 1 if sg.kind == KIND_PHIBAR else 1

    def bound(size: int) -> int:
        return (size // 2 - 1) * scale

    levels = _reach(sg).levels
    last = len(levels) - 1
    everyone = (1 << len(keys)) - 1
    width = max((key.bits.bit_length() for key in keys), default=0)
    # holders[p]: the states holding grid pair p
    holders = [
        int("".join("01"[key.bits >> p & 1] for key in reversed(keys)), 2) for p in range(width)
    ]
    near = [(size, bound(size)) for size in range(width + 1) if bound(size) < last]
    violations = []
    for i, key in enumerate(keys):
        # counts[t]: the states whose difference from key has bit t set in its size
        counts = [0] * width.bit_length()
        for p, held in enumerate(holders):
            carry = held ^ everyone if key.bits >> p & 1 else held
            for t, count in enumerate(counts):
                counts[t], carry = count ^ carry, count & carry
        late = everyone & ~levels[last][i]  # unreachable
        for size, limit in near:
            exact = everyone
            for t, count in enumerate(counts):
                exact &= count if size >> t & 1 else ~count
            late |= exact & ~(levels[limit][i] if limit >= 0 else 0)
        late &= ~(1 << i)
        while late:
            j = (late & -late).bit_length() - 1
            late ^= 1 << j
            dist = next((k for k, level in enumerate(levels) if level[i] >> j & 1), -1)
            violations.append((key.hex(), keys[j].hex(), dist, bound(key.diff_size(keys[j]))))
    return BoundReport(sg.kind, True, len(keys) * (len(keys) - 1), violations)


# ---------------------------------------------------------------------------
# symmetric differences and alternating structures
#
# The machinery of the distance bounds that check_diameter_bounds checks:
# two realizations of one sequence differ by a degree-balanced symmetric
# difference, which splits into alternating cycles, and the proofs shorten
# it along alternating 3-walks on four distinct vertices.


class SymmetricDifference(NamedTuple):
    """Arc/edge sets present in exactly one of two same-kind graphs."""

    kind: str
    n: int
    left_only: frozenset[tuple[int, int]]
    right_only: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.left_only) + len(self.right_only)

    def vertices(self) -> set[int]:
        out = set()
        for u, v in self.left_only:
            out.add(u)
            out.add(v)
        for u, v in self.right_only:
            out.add(u)
            out.add(v)
        return out

    def is_balanced(self) -> bool:
        """Per-vertex left/right balance (implies the Eulerian property).

        Holds whenever the two graphs realize the same degree sequence; it is
        exactly the condition under which alternating-cycle decomposition is
        possible.
        """
        cls = graph_class(self.kind)
        left, right = cls(self.n, self.left_only), cls(self.n, self.right_only)
        return (left.out_deg, left.in_deg) == (right.out_deg, right.in_deg)


def symmetric_difference(g: Graph | Digraph, h: Graph | Digraph) -> SymmetricDifference:
    """Edges/arcs of g not in h and vice versa."""
    if g.kind != h.kind:
        raise InvalidInputError(f"mixed kinds: {g.kind} vs {h.kind}")
    if g.n != h.n:
        raise InvalidInputError(f"mixed vertex counts: {g.n} vs {h.n}")
    ge, he = g.pair_set(), h.pair_set()
    return SymmetricDifference(g.kind, g.n, frozenset(ge - he), frozenset(he - ge))


class AlternatingWalk(NamedTuple):
    """Open 3-edge alternating walk (v1, v2, v3, v4) on distinct vertices.

    Pattern "P": first/last arc on the left side, middle arc on the right.
    Pattern "Q" (directed only): sides exchanged.
    """

    kind: str
    vertices: tuple[int, int, int, int]
    pattern: str

    def arcs(self) -> tuple[tuple[tuple[int, int], str], ...]:
        """The walk's three arcs with their side labels.

        (v1,v2) and (v3,v4) on one side, (v3,v2) on the other; a graph's
        edges come as (smaller, larger) vertex pairs.
        """
        v1, v2, v3, v4 = self.vertices
        a, b = ("left", "right") if self.pattern == "P" else ("right", "left")
        edge = _arc if self.kind == DIRECTED else _ordered
        return ((edge(v1, v2), a), (edge(v3, v2), b), (edge(v3, v4), a))


def decompose_alternating(sd: SymmetricDifference) -> list[AlternatingCycle]:
    """Partition a balanced symmetric difference into alternating cycles.

    Greedy extraction: from the least unused left pair, walk alternating
    sides, leaving the current vertex along an unused out-arc and entering
    it along an unused in-arc in turn, always towards the least neighbour,
    until the walk's start state recurs; close the cycle there and repeat
    on the unused remainder.  A graph's edge is both out- and in-incident at
    each end, so one walk serves both kinds.  The result partitions the
    pairs; the cycle count is not guaranteed minimal.
    """
    if not sd.is_balanced():
        raise InvalidInputError("symmetric difference is not degree-balanced")
    directed = sd.kind == DIRECTED
    edge = _arc if directed else _ordered
    out_un: dict[tuple[int, int], set[int]] = {}  # (v, side) -> unused heads
    in_un = {} if directed else out_un  # (v, side) -> unused tails
    for side, pairs in ((0, sd.left_only), (1, sd.right_only)):
        for u, v in pairs:
            out_un.setdefault((u, side), set()).add(v)
            in_un.setdefault((v, side), set()).add(u)

    # Side and direction flip together on every step, so ``emitting`` alone
    # marks side 0; balance guarantees the walk only closes back at its start.
    cycles = []
    for u0, v0 in sorted(sd.left_only):
        if v0 not in out_un[(u0, 0)]:
            continue  # consumed by an earlier cycle
        walk = [u0]
        sides: tuple[list, list] = ([], [])
        cur, side, emitting = u0, 0, True
        while True:
            ahead, back = (out_un, in_un) if emitting else (in_un, out_un)
            nxt = min(ahead[(cur, side)])
            ahead[(cur, side)].discard(nxt)
            back[(nxt, side)].discard(cur)
            sides[side].append(edge(cur, nxt) if emitting else edge(nxt, cur))
            cur, side, emitting = nxt, 1 - side, not emitting
            if cur == u0 and emitting:
                break
            walk.append(cur)
        cycles.append(AlternatingCycle(sd.kind, tuple(walk), *map(tuple, sides)))
    return cycles


def find_disjoint_3walk(sd: SymmetricDifference) -> Optional[AlternatingWalk]:
    """Search for a 4-distinct-vertex alternating 3-walk in the difference.

    Pattern P: arcs (v1,v2), (v3,v4) on the left side and (v3,v2) on the
    right; on a graph the arcs are edges, and each right edge is tried in
    both directions.  Pattern Q (digraphs only): the same shape with sides
    exchanged.  Returns None when no such walk exists.
    """
    directed = sd.kind == DIRECTED
    patterns = (("P", sd.right_only, sd.left_only), ("Q", sd.left_only, sd.right_only))
    for pattern, mids, outers in patterns if directed else patterns[:1]:
        out_of: dict[int, set[int]] = {}
        in_of = {} if directed else out_of
        for u, v in outers:
            out_of.setdefault(u, set()).add(v)
            in_of.setdefault(v, set()).add(u)
        mids = sorted(mids)
        if not directed:
            mids = [arc for u, v in mids for arc in ((v, u), (u, v))]
        for v3, v2 in mids:
            for v1 in sorted(in_of.get(v2, ())):
                if v1 == v3:
                    continue
                for v4 in sorted(out_of.get(v3, ())):
                    if v4 in (v1, v2):
                        continue
                    return AlternatingWalk(sd.kind, (v1, v2, v3, v4), pattern)
    return None


# ---------------------------------------------------------------------------
# empirical one-step fidelity


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
        g = sg.realizations[key]
        g = g.complement() if complement else g.copy()
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
# export


def to_dot(sg: StateGraph) -> str:
    """GraphViz rendering; arc labels carry multiplicity, nodes their loops."""
    lines = [f'digraph "{sg.kind}" {{']
    for key in sg.keys:
        lines.append(f'  "{key.hex()}" [label="{key.hex()}\\nloops={sg.loops[key]}"];')
    for x in sg.keys:
        for y, mult in sorted(sg.arcs[x].items()):
            label = f' [label="{mult}"]' if mult != 1 else ""
            lines.append(f'  "{x.hex()}" -> "{y.hex()}"{label};')
    lines.append("}")
    return "\n".join(lines) + "\n"

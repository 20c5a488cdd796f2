"""Recognition of degree sequences whose 2-swap-only walk is irreducible.

A vertex triple is an *induced cycle set* when every realization of the
sequence induces a directed 3-cycle on it; a digraphical sequence with no
induced cycle set is an *arc-swap sequence*, and exactly those sequences
give the swap-only state graph a single strongly connected component.

The recognizer works on one realization: a triple inducing a directed
3-cycle is NOT an induced cycle set iff some arc of the cycle lies on an
alternating closed walk whose swap yields another realization while leaving
the walk's per-vertex in/out usage at most 2 (a "simple symmetric" swap
cycle) and without flipping the whole cycle into its reorientation.  In
the split representation (each vertex becomes an out-copy and an in-copy)
such walks are plain directed paths and the reorientation is one fixed
path, so each probed arc costs one reachability sweep, which asks whether
every arc of that path is a bridge.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import DiDegreeSequence, Digraph
from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    RealizationError,
)
from .realize import is_digraphical


class InducedCycleSet(NamedTuple):
    """Vertex triple inducing a directed 3-cycle in every realization."""

    vertices: tuple[int, int, int]


class ArcSwapReport(NamedTuple):
    is_arc_swap: bool
    cycle_sets: tuple[InducedCycleSet, ...]
    component_count: int  # 2 ** len(cycle_sets)
    reduced_sequence: Optional[DiDegreeSequence]


def _cycle_orientation(g: Digraph, triple: tuple[int, int, int]):
    """The induced directed 3-cycle on the triple, or None.

    Returns the cycle's arcs in orientation order when the induced subgraph
    is exactly one directed 3-cycle (3 arcs, cyclic, no antiparallel pair).
    """
    i, j, k = triple
    for a, b, c in ((i, j, k), (i, k, j)):
        fwd = ((a, b), (b, c), (c, a))
        rev = ((b, a), (c, b), (a, c))
        if all(g.has(*x) for x in fwd) and not any(g.has(*x) for x in rev):
            return fwd
    return None


def _breaking_walk(
    g: Digraph, v: int, w: int, x: int, heads, tails
) -> Optional[list[int]]:
    """Alternating walk closing the probe (v, w) into a swap that breaks the triple.

    g induces the 3-cycle v -> w -> x -> v on the triple, and ``heads`` and
    ``tails`` are g's :meth:`Digraph.adjacency` lists, built once by the
    caller for all its probes.  Split nodes: z+ (out-copy) emits absent
    arcs, y- (in-copy) consumes present arcs.  A simple v+ -> w- path,
    together with the removed probe, is a simple symmetric swap cycle: each
    split node is visited at most once, which is the in/out <= 2 discipline.
    The swap breaks the triple unless the path runs through all five other
    arcs of the cycle and its reorientation, which form the split path

        P:  v+ -(v,x)-> x- -(w,x)-> w+ -(w,v)-> v- -(x,v)-> x+ -(x,w)-> w-

    so a breaking walk exists iff some v+ -> w- path misses an arc of P,
    that is, iff not every arc of P is a v+ -> w- bridge.

    One sweep decides it.  The set S reached from v+ grows with P's arcs
    blocked, and they are opened in path order.  While the first k are
    open, a P node past them entering S gives a path that misses arc k+1:
    S's tree path to that node, then the rest of P, whose nodes are not in
    S.  If S closes first, arc k+1 is a bridge, since a path's first visit
    to a node past the prefix can only come through it; opening it adds
    just its head to S, whose tail was expanded while it was blocked.
    Five bridges mean no breaking walk.  S only grows, and each out-copy
    scans just the ascending list of in-copies not yet in S, passing over
    its own, its present arcs' heads and its blocked arc's head, so the
    sweep costs one O(n + m) search.

    A newly reached out-copy z+ ends the sweep at once when it is a P node
    past the open prefix or has an open absent arc into one, tried from w-
    back so that the walk takes as little of P as it can: a three-arc walk
    v+ -> y- -> z+ -> w- is found after the scan from v+ and one in-neighbor
    list.  The frontier is expanded in the order it was generated, so the
    result is deterministic.

    Returns the walk's vertices from v to w (out-copies at even positions),
    or None.
    """
    pos = g._pos
    back = {v: x, w: v, x: w}  # each cycle vertex's predecessor
    path = (v, x, w, v, x, w)  # P's split nodes, out-copies at even positions
    out_at = {w: 2, x: 4}
    out_par = {v: None}  # out-copy in S -> the in-copy it was reached from
    in_par = {}  # expanded in-copy -> the out-copy it was reached from
    outs = []  # out-copies to expand
    # (z, batch, skip): z+ reached the in-copies of batch not in skip.  v+
    # reaches every in-copy but its own, its present arcs' heads and x-.
    skip = {v, x, *heads[v]}
    ins = [(v, range(g.n), skip)]
    fresh = sorted(skip)  # in-copies not in S, ascending

    def walk_to(z, j):
        # S's tree path to z+, then P from its node j on
        walk = [z]
        while z != v:
            y = out_par[z]
            z = in_par[y]
            walk += (y, z)
        walk.reverse()
        walk += path[j:]
        return walk

    def reach(z, y, k):
        # z+ enters S from y- while P's first k arcs are open
        out_par[z] = y
        if out_at.get(z, 0) > k:
            return walk_to(z, out_at[z] + 1)
        for j in (5, 3, 1):
            t = path[j]
            if j > k and t != z and t != back.get(z) and (z, t) not in pos:
                return walk_to(z, j)
        outs.append(z)
        return None

    # v+ has no open arc into P: (v, x) is blocked and (v, w) is present
    for k in range(5):
        # from k = 1 on, arc k of P has proved a bridge: opening it adds its head to S
        if k % 2:
            fresh.remove(path[k])
            ins.append((path[k - 1], [path[k]], ()))
        elif k:
            walk = reach(path[k], path[k - 1], k)
            if walk:
                return walk
        while outs or ins:
            for z in outs:
                skip = {z, back.get(z, z), *heads[z]}
                ins.append((z, fresh, skip))
                fresh = sorted(skip.intersection(fresh))
            outs.clear()
            for z0, batch, skip in ins:
                for y in batch:
                    if y in skip:
                        continue
                    in_par[y] = z0
                    cut = back.get(y)
                    for z in tails[y]:
                        if z != cut and z not in out_par:
                            walk = reach(z, y, k)
                            if walk:
                                return walk
            ins.clear()
    return None


def induced_3cycles(g: Digraph) -> list[tuple[int, int, int]]:
    """Vertex triples (ascending, in sorted order) inducing a directed 3-cycle.

    Each cycle u -> v -> w -> u is found once, from the arc (u, v) leaving
    its least vertex u: w runs over out(v) or in(u), whichever is shorter,
    and must close the cycle while no arc of the triple has its reversal.
    Each arc costs the shorter list, so O(m * max degree) at most.
    """
    return _induced_3cycles(g, *g.adjacency())


def _induced_3cycles(g: Digraph, heads, tails) -> list[tuple[int, int, int]]:
    pos = g._pos
    out_deg, in_deg = g.out_deg, g.in_deg
    found = []
    for u, v in g._pairs:
        if v < u or (v, u) in pos:
            continue
        if out_deg[v] <= in_deg[u]:
            for w in heads[v]:
                if w > u and (w, u) in pos and (w, v) not in pos and (u, w) not in pos:
                    found.append((u, v, w) if v < w else (u, w, v))
        else:
            for w in tails[u]:
                if w > u and (v, w) in pos and (w, v) not in pos and (u, w) not in pos:
                    found.append((u, v, w) if v < w else (u, w, v))
    found.sort()
    return found


def detect_induced_cycle_sets(g: Digraph) -> list[InducedCycleSet]:
    """All induced cycle sets of g's degree sequence, from this one realization.

    A triple qualifies iff it induces a directed 3-cycle here and no arc of
    that cycle admits a breaking walk.  The candidate triples come from
    :func:`induced_3cycles` in O(m * max degree); each candidate then costs
    one O(n + m) breaking-walk sweep per arc, and stops at the first arc
    that has a walk, so a cycle set costs three sweeps.
    """
    heads, tails = g.adjacency()
    found = []
    for triple in _induced_3cycles(g, heads, tails):
        (a, b), (_, c), _ = _cycle_orientation(g, triple)
        probes = ((a, b, c), (b, c, a), (c, a, b))
        if all(_breaking_walk(g, *p, heads, tails) is None for p in probes):
            found.append(InducedCycleSet(triple))
    return found


def reduce_sequence(
    s: DiDegreeSequence, sets: list[InducedCycleSet] | tuple[InducedCycleSet, ...]
) -> DiDegreeSequence:
    """Strip one 3-cycle's worth of degree from every cycle-set vertex.

    Cycle sets are vertex-disjoint, so the decrements never collide; the
    result is an arc-swap sequence.
    """
    outs = list(s.outs)
    ins = list(s.ins)
    seen: set[int] = set()
    for cs in sets:
        for v in cs.vertices:
            if v in seen:
                raise InternalInconsistencyError("cycle sets overlap")
            seen.add(v)
            if outs[v] == 0 or ins[v] == 0:
                raise InternalInconsistencyError(
                    f"vertex {v} lacks the degree its cycle set implies"
                )
            outs[v] -= 1
            ins[v] -= 1
    return DiDegreeSequence._of(tuple(outs), tuple(ins))


def recognize(s: DiDegreeSequence) -> ArcSwapReport:
    """Classify a digraphical sequence by its induced cycle sets."""
    report = is_digraphical(s)
    if not report.graphical:
        raise RealizationError(report.violated_condition)
    g = report.witness
    sets = tuple(detect_induced_cycle_sets(g))
    reduced = reduce_sequence(s, sets) if sets else None
    return ArcSwapReport(
        is_arc_swap=not sets,
        cycle_sets=sets,
        component_count=1 << len(sets),
        reduced_sequence=reduced,
    )


# ---------------------------------------------------------------------------
# sampling bias of the swap-only walk


class ArcBias(NamedTuple):
    """How the swap-only walk treats one ordered pair, given a start graph.

    Cycle-set arcs present at the start stay present forever (walk
    probability 1) while their reversals never appear (0); unbiased sampling
    would give each probability 1/2.  Every other pair occurs with the same
    probability inside the start component as over all realizations, so no
    correction applies (both fields None).
    """

    category: str  # "cycle-present" | "cycle-reverse" | "unbiased"
    plain_probability: Optional[float]
    corrected_probability: Optional[float]


def cycle_set_arcs(g0: Digraph) -> set[tuple[int, int]]:
    """The arcs of g0's induced cycle sets, which a swap-only walk freezes.

    These arcs and their reversals are the only ordered pairs whose
    swap-only frequency needs correcting; there are three per cycle set.
    """
    cycle_arcs = set()
    for cs in detect_induced_cycle_sets(g0):
        arcs = _cycle_orientation(g0, cs.vertices)
        if arcs is None:
            raise InternalInconsistencyError("cycle set lost its 3-cycle")
        cycle_arcs.update(arcs)
    return cycle_arcs


def arc_probability_bias(
    s: DiDegreeSequence, g0: Digraph
) -> dict[tuple[int, int], ArcBias]:
    """Per-ordered-pair bias report for swap-only sampling started at g0.

    It has n(n-1) entries; :func:`cycle_set_arcs` names the few biased ones.
    """
    if g0.degree_sequence() != s:
        raise InvalidInputError("g0 does not realize the sequence")
    cycle_arcs = cycle_set_arcs(g0)

    report = {}
    for u in range(g0.n):
        for v in range(g0.n):
            if u == v:
                continue
            if (u, v) in cycle_arcs:
                report[(u, v)] = ArcBias("cycle-present", 1.0, 0.5)
            elif (v, u) in cycle_arcs:
                report[(u, v)] = ArcBias("cycle-reverse", 0.0, 0.5)
            else:
                report[(u, v)] = ArcBias("unbiased", None, None)
    return report

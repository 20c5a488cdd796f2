"""Recognition of degree sequences whose 2-swap-only walk is irreducible.

A vertex triple is an *induced cycle set* when every realization of the
sequence induces a directed 3-cycle on it; a digraphical sequence with no
induced cycle set is an *arc-swap sequence*, and exactly those sequences
give the swap-only state graph a single strongly connected component.

The recognizer works on one realization: a triple inducing a directed
3-cycle is NOT an induced cycle set iff some arc of the cycle lies on an
alternating closed walk whose swap yields another realization while leaving
the walk's per-vertex in/out usage at most 2 (a "simple symmetric" swap
cycle) and without flipping the whole cycle into its reorientation.  The
walk search runs over the split representation (each vertex becomes an
out-copy and an in-copy), where such walks are plain directed paths, so
breadth-first reachability is complete.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import AlternatingCycle, DiDegreeSequence, Digraph
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
        if all(g.has_arc(*x) for x in fwd) and not any(g.has_arc(*x) for x in rev):
            return fwd
    return None


def _alternating_path(
    g: Digraph,
    probe: tuple[int, int],
    excluded: tuple[int, int],
    tails: list[list[int]],
) -> Optional[list[tuple[int, int]]]:
    """Simple alternating path closing the probed present arc into a swap cycle.

    Split nodes: x+ (out-copy) emits absent arcs, y- (in-copy) consumes
    present arcs.  The path runs from v+ to w- with absent end arcs, so
    together with the removed probe (v,w) it forms an alternating cycle.
    Alternation fixes each split node's role, which makes the search plain
    breadth-first reachability; visiting each split node at most once is
    exactly the in/out <= 2 discipline of a simple symmetric swap cycle.
    Neither the probe nor the excluded arc may be used.  ``tails`` is
    g's in-neighbor lists (:meth:`Digraph.adjacency`), built once by the
    caller for all its searches.

    An out-copy scans only the in-copies not yet reached, in ascending
    order; each one it passes over is a present, probe or excluded arc or
    its own in-copy, so a search costs O(n + m).  A newly reached out-copy
    z+ ends the search at once when (z, w) is a usable absent arc: the
    frontier is expanded in the order it was generated, so z+ is the first
    out-copy whose expansion would reach w-, and the path is the one the
    full breadth-first search returns.  A three-arc breaking walk is then
    found after the O(n) scan from v+ and one in-neighbor list.

    Returns the path's arcs with alternating membership, probe excluded.
    """
    v, w = probe
    pos = g._pos
    start, goal = ("out", v), ("in", w)

    def closes(z):
        arc = (z, w)
        return z != w and arc not in pos and arc != probe and arc != excluded

    parent = {start: None}
    fresh_in = list(range(g.n))  # in-copies not yet reached, ascending
    frontier = [start]
    while frontier:
        nxt_frontier = []
        for node in frontier:
            side, x = node
            if side == "out":
                # add an arc (x, y): y- must be fresh
                kept = []
                for y in fresh_in:
                    arc = (x, y)
                    if y == x or arc in pos or arc == probe or arc == excluded:
                        kept.append(y)
                        continue
                    # never w-: every expanded out-copy fails closes()
                    tgt = ("in", y)
                    parent[tgt] = node
                    nxt_frontier.append(tgt)
                fresh_in = kept
            else:
                # remove an arc (z, x): z+ must be fresh
                for z in tails[x]:
                    if (z, x) == probe or (z, x) == excluded:
                        continue
                    tgt = ("out", z)
                    if tgt in parent:
                        continue
                    parent[tgt] = node
                    if closes(z):
                        parent[goal] = tgt
                        return _collect_path(parent, start, goal)
                    nxt_frontier.append(tgt)
        frontier = nxt_frontier
    return None


def _collect_path(parent, start, goal) -> list[tuple[int, int]]:
    nodes = [goal]
    while nodes[-1] != start:
        nodes.append(parent[nodes[-1]])
    nodes.reverse()
    arcs = []
    for a, b in zip(nodes, nodes[1:]):
        if a[0] == "out":
            arcs.append((a[1], b[1]))  # absent arc (x, y)
        else:
            arcs.append((b[1], a[1]))  # present arc (z, x)
    return arcs


def _breaking_cycle_via(
    g: Digraph,
    cycle: tuple[tuple[int, int], ...],
    probe: tuple[int, int],
    tails: list[list[int]],
) -> Optional[AlternatingCycle]:
    """Breaking swap cycle through the probed cycle arc, if any.

    The walk must miss at least one of the five other arcs of the 3-cycle
    and its reorientation; that is enforced by excluding each of the five in
    turn and stopping at the first reachable alternative.
    """
    six = list(cycle) + [(b, a) for a, b in cycle]
    for excluded in six:
        if excluded == probe:
            continue
        path = _alternating_path(g, probe, excluded, tails)
        if path is None:
            continue
        return _cycle_from_path(g, probe, path)
    return None


def _cycle_from_path(g, probe, path) -> AlternatingCycle:
    removed = [probe] if g.has_arc(*probe) else []
    added = [] if removed else [probe]
    for arc in path:
        (removed if g.has_arc(*arc) else added).append(arc)
    # cycle arc order: the probe, then the path backwards; consecutive arcs
    # share exactly one vertex, which is the walk vertex between them
    seq = [probe] + list(reversed(path))
    verts = [_shared_vertex(seq[-1], seq[0])]
    for a, b in zip(seq, seq[1:]):
        verts.append(_shared_vertex(a, b))
    return AlternatingCycle("directed", tuple(verts), tuple(removed), tuple(added))


def _shared_vertex(e: tuple[int, int], f: tuple[int, int]) -> int:
    common = set(e) & set(f)
    if len(common) != 1:
        raise InternalInconsistencyError(f"arcs {e}, {f} do not chain")
    return common.pop()


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
    return _breaking_cycle_via(g, arcs, tuple(arc), g.adjacency()[1])


def induced_3cycles(g: Digraph) -> list[tuple[int, int, int]]:
    """Vertex triples (ascending, in sorted order) inducing a directed 3-cycle.

    Each cycle u -> v -> w -> u is found once, from the arc (u, v) leaving
    its least vertex u: w runs over out(v) and must close the cycle with
    (w, u) while no arc of the triple has its reversal.  O(m * max degree).
    """
    pos = g._pos
    heads = g.adjacency()[0]
    found = []
    for u, v in g._arcs:
        if v < u or (v, u) in pos:
            continue
        for w in heads[v]:
            if w > u and (w, u) in pos and (w, v) not in pos and (u, w) not in pos:
                found.append((u, v, w) if v < w else (u, w, v))
    found.sort()
    return found


def detect_induced_cycle_sets(g: Digraph) -> list[InducedCycleSet]:
    """All induced cycle sets of g's degree sequence, from this one realization.

    A triple qualifies iff it induces a directed 3-cycle here and no arc of
    that cycle admits a breaking walk.  The candidate triples come from
    :func:`induced_3cycles` in O(m * max degree); each candidate then costs
    up to fifteen breadth-first walk searches.
    """
    tails = g.adjacency()[1]
    found = []
    for triple in induced_3cycles(g):
        arcs = _cycle_orientation(g, triple)
        if all(_breaking_cycle_via(g, arcs, a, tails) is None for a in arcs):
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
    return DiDegreeSequence(zip(outs, ins))


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

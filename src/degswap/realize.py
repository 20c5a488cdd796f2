"""Feasibility tests and greedy construction of one realization.

Undirected feasibility uses the Erdos-Gallai inequalities and construction
uses the Havel-Hakimi greedy; the directed counterparts are the
Fulkerson-Chen inequalities and the Kleitman-Wang greedy.  Reports carry the
first violated inequality index for diagnosability.

Costs: each feasibility test is one sort plus an O(n) pass, so O(n log n).
Each greedy keeps its candidate targets in a binary heap keyed on residual
degree, so a round with d targets costs O(d log n) and the whole greedy
O((n + m) log n) for m edges or arcs.  Both greedies check the degrees of
their output.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import NamedTuple, Optional

from .core import DegreeSequence, DiDegreeSequence, Digraph, Graph
from .errors import InternalInconsistencyError, RealizationError


class RealizabilityReport(NamedTuple):
    graphical: bool
    witness: Optional[Graph | Digraph]
    violated_condition: Optional[str]


def _at_least_counts(values: list[int], n: int) -> list[int]:
    """``ge[k] = #{x in values : x >= k}`` for k in 0..n; values lie in 0..n-1."""
    ge = [0] * (n + 1)
    for x in values:
        ge[x] += 1
    for k in range(n - 1, -1, -1):
        ge[k] += ge[k + 1]
    return ge


# ---------------------------------------------------------------------------
# undirected


def _erdos_gallai_violation(s: DegreeSequence) -> Optional[str]:
    degs = sorted(s.degrees, reverse=True)
    n = s.n
    if degs[0] > n - 1:
        return f"degree {degs[0]} exceeds n-1={n - 1}"
    if sum(degs) % 2:
        return "odd degree total"
    # prefix sums against k(k-1) + sum of min(d_i, k) over the tail.  The
    # sum over all i of min(d_i, k) grows by #{d_i >= k} from k-1 to k; the
    # head's part is k for its h = min(k, #{d_i >= k}) leading entries and
    # d_i for the rest.
    ge = _at_least_counts(degs, n)
    prefix = [0, *accumulate(degs)]
    all_min = 0
    for k in range(1, n + 1):
        all_min += ge[k]
        h = min(k, ge[k])
        head_min = h * k + prefix[k] - prefix[h]
        bound = k * (k - 1) + all_min - head_min
        if prefix[k] > bound:
            return f"Erdos-Gallai inequality fails at k={k} ({prefix[k]} > {bound})"
    return None


def _havel_hakimi(s: DegreeSequence) -> Graph:
    n = s.n
    g = Graph(n)
    # reduce the largest residual each round, joining it to the next d
    # largest; ties go to the lowest index, which is the heap order of
    # (-residual, index)
    heap = [(-d, i) for i, d in enumerate(s.degrees) if d > 0]
    heapify(heap)
    while heap:
        neg_d, v = heappop(heap)
        if -neg_d > len(heap):
            raise InternalInconsistencyError("greedy ran out of targets")
        targets = [heappop(heap) for _ in range(-neg_d)]
        for neg_r, t in targets:
            g._add(*((v, t) if v < t else (t, v)))
            if neg_r < -1:
                heappush(heap, (neg_r + 1, t))
    if g.degree_sequence() != s:
        raise InternalInconsistencyError("greedy output missed the sequence")
    return g


def is_graphical(s: DegreeSequence) -> RealizabilityReport:
    """Erdos-Gallai test; on success the report carries a witness graph."""
    violation = _erdos_gallai_violation(s)
    if violation is not None:
        return RealizabilityReport(False, None, violation)
    return RealizabilityReport(True, _havel_hakimi(s), None)


def realize_undirected(s: DegreeSequence) -> Graph:
    require_realizable(s)
    return _havel_hakimi(s)


# ---------------------------------------------------------------------------
# directed


def _fulkerson_chen_violation(s: DiDegreeSequence) -> Optional[str]:
    n = s.n
    for i, (a, b) in enumerate(s.pairs):
        if a > n - 1 or b > n - 1:
            return f"degree pair {(a, b)} at vertex {i} exceeds n-1={n - 1}"
    if sum(s.outs) != sum(s.ins):
        return f"out-degree total {sum(s.outs)} != in-degree total {sum(s.ins)}"
    # sort pairs lexicographically non-increasing, then check the dominance
    # inequalities with the loopless min(b_i, k-1) head term.  That bound is
    # sum over all i of min(b_i, k), less one for each head entry i < k with
    # b_i >= k; the head count drops the entries whose b_i equals k-1 and
    # gains the new entry k-1 if its b_i reaches k.
    pairs = sorted(s.pairs, reverse=True)
    ge = _at_least_counts([b for _, b in pairs], n)
    head_at = [0] * n  # head entries i < k-1 by in-degree
    head_ge = 0
    prefix = all_min = 0
    for k in range(1, n + 1):
        a, b = pairs[k - 1]
        prefix += a
        all_min += ge[k]
        head_ge += (b >= k) - head_at[k - 1]
        head_at[b] += 1
        bound = all_min - head_ge
        if prefix > bound:
            return f"Fulkerson-Chen inequality fails at k={k} ({prefix} > {bound})"
    return None


def _kleitman_wang(s: DiDegreeSequence) -> Digraph:
    n = s.n
    out_res = list(s.outs)
    in_res = list(s.ins)
    g = Digraph(n)
    # Only the round's own vertex changes its residual out-degree (to 0), so
    # the rounds visit vertices in one fixed (-out, index) order.
    order = sorted(range(n), key=lambda i: (-out_res[i], i))
    # Targets by largest residual in-degree; ties by larger residual
    # out-degree, then lowest index.  The out-degree tie-break matters:
    # with plain lowest-index ties ((1,0),(0,1),(1,1)) strands vertex 3's
    # out-stub.  Heap entries go stale when their vertex's residuals move on
    # and are dropped when popped.
    heap = [(-b, -a, i) for i, (a, b) in enumerate(s.pairs) if b > 0]
    heapify(heap)
    for v in order:
        d = out_res[v]
        if d == 0:
            break
        targets = []
        while len(targets) < d and heap:
            entry = heappop(heap)
            neg_in, neg_out, t = entry
            if t != v and in_res[t] == -neg_in and out_res[t] == -neg_out:
                targets.append(entry)
        if len(targets) < d:
            raise InternalInconsistencyError("greedy ran out of targets")
        out_res[v] = 0
        if in_res[v]:
            heappush(heap, (-in_res[v], 0, v))
        for neg_in, neg_out, t in targets:
            in_res[t] -= 1
            g._add(v, t)
            if neg_in < -1:
                heappush(heap, (neg_in + 1, neg_out, t))
    if g.degree_sequence() != s:
        raise InternalInconsistencyError("greedy output missed the sequence")
    return g


def is_digraphical(s: DiDegreeSequence) -> RealizabilityReport:
    """Fulkerson-Chen test; on success the report carries a witness digraph."""
    violation = _fulkerson_chen_violation(s)
    if violation is not None:
        return RealizabilityReport(False, None, violation)
    return RealizabilityReport(True, _kleitman_wang(s), None)


def realize_directed(s: DiDegreeSequence) -> Digraph:
    require_realizable(s)
    return _kleitman_wang(s)


def require_realizable(s: DegreeSequence | DiDegreeSequence) -> None:
    """Raise RealizationError naming the first violated inequality; builds no witness."""
    directed = isinstance(s, DiDegreeSequence)
    violation = (_fulkerson_chen_violation if directed else _erdos_gallai_violation)(s)
    if violation is not None:
        raise RealizationError(violation)

"""The fast feasibility tests, greedies, key and 3-cycle scan against references.

The reference functions below are the straightforward quadratic (and, for
the triangle scan, cubic) versions: the feasibility tests recompute every
tail sum, the greedies re-sort all vertices every round, the key ORs one
shifted bit at a time and the scan visits all C(n, 3) triples.  The
package's versions must agree with them exactly: the same violation
strings, the same edge/arc lists in insertion order (chains and ensembles
draw by list index), the same key bits and the same sorted triples.
"""

import collections
import itertools
import random

from degswap.arcswap import (
    _breaking_cycle_via,
    _cycle_orientation,
    detect_induced_cycle_sets,
    induced_3cycles,
)
from degswap.core import (
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    arc_index,
    canonical_key,
    pair_index,
)
from degswap.realize import (
    _erdos_gallai_violation,
    _fulkerson_chen_violation,
    is_digraphical,
    is_graphical,
)
from degswap.stats import count_directed_3cycles

SEED = 20140301

# ---------------------------------------------------------------------------
# references


def ref_erdos_gallai_violation(s):
    degs = sorted(s.degrees, reverse=True)
    n = s.n
    if degs[0] > n - 1:
        return f"degree {degs[0]} exceeds n-1={n - 1}"
    if sum(degs) % 2:
        return "odd degree total"
    prefix = 0
    for k in range(1, n + 1):
        prefix += degs[k - 1]
        bound = k * (k - 1) + sum(min(d, k) for d in degs[k:])
        if prefix > bound:
            return f"Erdos-Gallai inequality fails at k={k} ({prefix} > {bound})"
    return None


def ref_havel_hakimi(s):
    n = s.n
    residual = list(s.degrees)
    edges = []
    for _ in range(n):
        v = max(range(n), key=lambda i: (residual[i], -i))
        d = residual[v]
        if d == 0:
            break
        targets = sorted(
            (i for i in range(n) if i != v and residual[i] > 0),
            key=lambda i: (-residual[i], i),
        )[:d]
        assert len(targets) == d
        residual[v] = 0
        for t in targets:
            residual[t] -= 1
            edges.append((v, t) if v < t else (t, v))
    return edges


def ref_fulkerson_chen_violation(s):
    n = s.n
    for i, (a, b) in enumerate(s.pairs):
        if a > n - 1 or b > n - 1:
            return f"degree pair {(a, b)} at vertex {i} exceeds n-1={n - 1}"
    if sum(s.outs) != sum(s.ins):
        return f"out-degree total {sum(s.outs)} != in-degree total {sum(s.ins)}"
    pairs = sorted(s.pairs, reverse=True)
    prefix = 0
    for k in range(1, n + 1):
        prefix += pairs[k - 1][0]
        bound = sum(min(b, k - 1) for _, b in pairs[:k]) + sum(
            min(b, k) for _, b in pairs[k:]
        )
        if prefix > bound:
            return f"Fulkerson-Chen inequality fails at k={k} ({prefix} > {bound})"
    return None


def ref_kleitman_wang(s):
    n = s.n
    out_res = [a for a, _ in s.pairs]
    in_res = [b for _, b in s.pairs]
    arcs = []
    for _ in range(n):
        v = max(range(n), key=lambda i: (out_res[i], -i))
        d = out_res[v]
        if d == 0:
            break
        targets = sorted(
            (i for i in range(n) if i != v and in_res[i] > 0),
            key=lambda i: (-in_res[i], -out_res[i], i),
        )[:d]
        assert len(targets) == d
        out_res[v] = 0
        for t in targets:
            in_res[t] -= 1
            arcs.append((v, t))
    return arcs


def ref_key_bits(g):
    bits = 0
    if isinstance(g, Graph):
        for u, v in g.edges():
            bits |= 1 << pair_index(g.n, u, v)
    else:
        for u, v in g.arcs():
            bits |= 1 << arc_index(g.n, u, v)
    return bits


def ref_induced_3cycles(g):
    arcs = g.arc_set()

    def one_way(u, v):  # +1 for the arc u->v alone, -1 for v->u alone, else 0
        return ((u, v) in arcs) - ((v, u) in arcs)

    found = []
    for i, j, k in itertools.combinations(range(g.n), 3):
        ij = one_way(i, j)
        if ij and ij == one_way(j, k) == one_way(k, i):
            found.append((i, j, k))
    return found


def ref_detect_induced_cycle_sets(g):
    found = []
    for triple in itertools.combinations(range(g.n), 3):
        arcs = _cycle_orientation(g, triple)
        if arcs is not None and all(
            _breaking_cycle_via(g, arcs, a) is None for a in arcs
        ):
            found.append(triple)
    return found


# ---------------------------------------------------------------------------
# comparison helpers


def check_undirected(s):
    violation = _erdos_gallai_violation(s)
    assert violation == ref_erdos_gallai_violation(s), s
    report = is_graphical(s)
    assert report.graphical == (violation is None)
    if report.graphical:
        assert report.witness.edges() == ref_havel_hakimi(s), s
        assert canonical_key(report.witness).bits == ref_key_bits(report.witness)
    return violation


def check_directed(s):
    violation = _fulkerson_chen_violation(s)
    assert violation == ref_fulkerson_chen_violation(s), s
    report = is_digraphical(s)
    assert report.graphical == (violation is None)
    if report.graphical:
        assert report.witness.arcs() == ref_kleitman_wang(s), s
        assert canonical_key(report.witness).bits == ref_key_bits(report.witness)
    return violation


def check_digraph(g):
    triples = induced_3cycles(g)
    assert triples == ref_induced_3cycles(g)
    assert count_directed_3cycles(g) == len(triples)
    assert canonical_key(g).bits == ref_key_bits(g)


def outcome(violation):
    if violation is None:
        return "graphical"
    return "inequality" if "inequality" in violation else "other"


def random_graph(rng, n, p):
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def random_digraph(rng, n, p, anti):
    """Arcs with probability p; a present arc gets its reversal with probability anti."""
    arcs = set()
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            a = (u, v) if rng.random() < 0.5 else (v, u)
            arcs.add(a)
            if rng.random() < anti:
                arcs.add((a[1], a[0]))
    arcs = sorted(arcs)
    rng.shuffle(arcs)
    return Digraph(n, arcs)


def perturbed(rng, values, n):
    """Values with one entry moved by a small amount, kept in 0..n."""
    values = list(values)
    i = rng.randrange(len(values))
    values[i] = min(n, max(0, values[i] + rng.choice((-2, -1, 1, 2))))
    return values


def shifted(rng, values, n):
    """Values with up to n // 4 units moved from one entry to another; same total."""
    values = list(values)
    i, j = rng.randrange(len(values)), rng.randrange(len(values))
    t = min(rng.randint(1, max(1, n // 4)), values[j], n - 1 - values[i])
    if i != j and t > 0:
        values[i] += t
        values[j] -= t
    return values


def skewed_degrees(rng, n):
    """Degrees in 0..n-1 leaning low, with an even total."""
    degs = [int((n - 1) * rng.random() ** 3) for _ in range(n)]
    if sum(degs) % 2:
        i = degs.index(max(degs))
        degs[i] -= 1
    return degs


# ---------------------------------------------------------------------------
# tests


def test_undirected_exhaustive_small():
    graphical = 0
    for n in range(1, 6):
        for degs in itertools.product(range(n + 1), repeat=n):
            graphical += check_undirected(DegreeSequence(degs)) is None
    assert graphical > 100


def test_directed_exhaustive_small():
    graphical = 0
    vals = [(a, b) for a in range(4) for b in range(4)]
    for n in (1, 2, 3):
        for combo in itertools.product(vals, repeat=n):
            graphical += check_directed(DiDegreeSequence(combo)) is None is None
    vals = [(a, b) for a in range(3) for b in range(3)]
    for combo in itertools.product(vals, repeat=4):
        graphical += check_directed(DiDegreeSequence(combo)) is None
    assert graphical > 500


def test_undirected_random_up_to_n80():
    rng = random.Random(SEED)
    outcomes = collections.Counter()
    for case in range(150):
        n = rng.randint(2, 80)
        g = random_graph(rng, n, rng.choice((0.02, 0.05, 0.1, 0.3, 0.7)))
        degs = g.degree_sequence().degrees
        if case % 3 == 1:
            degs = shifted(rng, degs, n) if case % 2 else perturbed(rng, degs, n)
        elif case % 3 == 2:
            degs = skewed_degrees(rng, n)
        outcomes[outcome(check_undirected(DegreeSequence(degs)))] += 1
        assert canonical_key(g).bits == ref_key_bits(g)
    assert min(outcomes.values()) >= 10 and len(outcomes) == 3, outcomes


def test_directed_random_up_to_n80():
    rng = random.Random(SEED + 1)
    outcomes = collections.Counter()
    for case in range(150):
        n = rng.randint(2, 80)
        g = random_digraph(rng, n, rng.choice((0.02, 0.05, 0.1, 0.3, 0.7)), 0.3)
        pairs = g.degree_sequence().pairs
        outs, ins = [a for a, _ in pairs], [b for _, b in pairs]
        if case % 3 == 1:
            pairs = list(zip(shifted(rng, outs, n), shifted(rng, ins, n)))
        elif case % 3 == 2:
            outs = skewed_degrees(rng, n)
            ins = rng.sample(outs, n)
            pairs = list(zip(outs, ins))
        if case % 10 == 9:
            pairs = list(zip(perturbed(rng, outs, n), ins))
        outcomes[outcome(check_directed(DiDegreeSequence(pairs)))] += 1
    assert min(outcomes.values()) >= 10 and len(outcomes) == 3, outcomes


def test_keys_after_removals_match_reference():
    # removals move the last edge into the freed slot, so list order is no
    # longer insertion order
    rng = random.Random(SEED + 2)
    for _ in range(40):
        n = rng.randint(2, 40)
        g = random_graph(rng, n, 0.3)
        h = random_digraph(rng, n, 0.3, 0.5)
        for e in rng.sample(g.edges(), g.m // 3):
            g._remove_edge(*e)
        for a in rng.sample(h.arcs(), h.m // 3):
            h._remove_arc(*a)
        assert canonical_key(g).bits == ref_key_bits(g)
        assert canonical_key(h).bits == ref_key_bits(h)


def test_3cycle_scan_matches_reference():
    rng = random.Random(SEED + 3)
    with_cycles = 0
    for _ in range(200):
        n = rng.randint(3, 80)
        p = rng.choice((0.03, 0.1, 0.2, 0.4))
        g = random_digraph(rng, n, p, rng.choice((0.0, 0.2, 0.6)))
        check_digraph(g)
        with_cycles += bool(induced_3cycles(g))
    assert with_cycles > 100
    check_digraph(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
    check_digraph(Digraph(3, [(0, 2), (2, 1), (1, 0)]))
    check_digraph(Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)]))


def test_detect_matches_triple_loop():
    rng = random.Random(SEED + 4)
    for _ in range(60):
        g = random_digraph(rng, rng.randint(3, 12), 0.4, 0.2)
        sets = [cs.vertices for cs in detect_induced_cycle_sets(g)]
        assert sets == ref_detect_induced_cycle_sets(g)
    blocked = Digraph(6, [(0, 1), (1, 2), (2, 0)]
                      + [(i, j) for i in range(3) for j in range(3, 6)])
    assert [cs.vertices for cs in detect_induced_cycle_sets(blocked)] == [(0, 1, 2)]
    assert ref_detect_induced_cycle_sets(blocked) == [(0, 1, 2)]

"""The fast feasibility tests, greedies, key and 3-cycle scan against references.

The reference functions below are the straightforward quadratic (and, for
the triangle scan, cubic) versions: the feasibility tests recompute every
tail sum, the greedies re-sort all vertices every round, the key ORs one
shifted bit at a time, the scan visits all C(n, 3) triples, the breaking-walk
search retries a breadth-first search over all n in-copies once for each
of the five arcs it may miss, the swap-only
correction walks the full n(n-1) bias report and the step loops draw every
integer through a per-draw ``make_randbelow`` call.  The package's versions
must agree with them exactly: the same violation strings, the same edge/arc
lists in insertion order (chains and ensembles draw by list index), the
same key bits, the same sorted triples, the same cycle sets, the same
corrected frequencies in the same order and, for the step loop, the same
move counts and the same final generator state, at the walk's own degree
and padded past it.  The one-sweep breaking-walk
search must find a walk exactly when a retry does, and a valid one.
"""

import collections
import itertools
import random

from degswap.arcswap import (
    _breaking_walk,
    _cycle_orientation,
    arc_probability_bias,
    cycle_set_arcs,
    detect_induced_cycle_sets,
    induced_3cycles,
)
from degswap.chain import (
    MODE_FULL,
    MODE_PLAIN,
    MODE_UNDIRECTED,
    _run,
    ChainConfig,
    run_chain,
    step_window,
    universe_for,
)
from degswap.core import (
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    canonical_key,
)
from degswap.realize import (
    _erdos_gallai_violation,
    _fulkerson_chen_violation,
    is_digraphical,
    is_graphical,
    realize_directed,
)
from degswap.generators import BlockedInstanceSpec, generate_blocked
from degswap.stats import correct_frozen_arcs, count_directed_3cycles

from .conftest import hub_with_back_arc, reorient_triangle, swap_arcs, swap_edges

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
    for u, v in g.pairs():
        bits |= 1 << g.index(g.n, u, v)
    return bits


def ref_induced_3cycles(g):
    arcs = g.pair_set()

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
            ref_alternating_path(g, probe, excluded) is None
            for probe in arcs
            for excluded in other_arcs(arcs, probe)
        ):
            found.append(triple)
    return found


def other_arcs(arcs, probe):
    """The five arcs of the cycle and its reversal besides the probe.

    A walk through the probe breaks the triangle iff it misses one of them.
    """
    return [e for e in list(arcs) + [(b, a) for a, b in arcs] if e != probe]


def ref_alternating_path(g, probe, excluded):
    """Breadth-first alternating v+ -> w- path missing ``excluded``, as arcs, or None.

    Split nodes: x+ (out-copy) emits absent arcs, y- (in-copy) consumes
    present arcs; every in-copy is scanned from every out-copy.
    """
    n = g.n
    v, w = probe
    pos = g._pos
    tails = g.adjacency()[1]
    start, goal = ("out", v), ("in", w)
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt_frontier = []
        for node in frontier:
            side, x = node
            if side == "out":
                for y in range(n):
                    if y == x or (x, y) in pos:
                        continue
                    if (x, y) == probe or (x, y) == excluded:
                        continue
                    tgt = ("in", y)
                    if tgt in parent:
                        continue
                    parent[tgt] = node
                    if tgt == goal:
                        return ref_collect_path(parent, start, goal)
                    nxt_frontier.append(tgt)
            else:
                for z in tails[x]:
                    if (z, x) == probe or (z, x) == excluded:
                        continue
                    tgt = ("out", z)
                    if tgt in parent:
                        continue
                    parent[tgt] = node
                    if tgt == goal:
                        return ref_collect_path(parent, start, goal)
                    nxt_frontier.append(tgt)
        frontier = nxt_frontier
    return None


def ref_collect_path(parent, start, goal):
    nodes = [goal]
    while nodes[-1] != start:
        nodes.append(parent[nodes[-1]])
    nodes.reverse()
    return [
        (a[1], b[1]) if a[0] == "out" else (b[1], a[1])
        for a, b in zip(nodes, nodes[1:])
    ]


def ref_corrected_frequency(s, g0, freq):
    """The swap-only correction built from the full n(n-1) bias report."""
    bias = arc_probability_bias(s, g0)
    if all(b.category == "unbiased" for b in bias.values()):
        return None
    corrected = {}
    for arc, b in sorted(bias.items()):
        if b.corrected_probability is not None:
            corrected[arc] = b.corrected_probability
        elif arc in freq:
            corrected[arc] = freq[arc]
    return corrected


# ---------------------------------------------------------------------------
# comparison helpers


def make_randbelow(rng):
    """Exactly uniform integer in [0, n) via rejection on getrandbits."""
    grb = rng.getrandbits

    def randbelow(n):
        if n <= 1:
            return 0
        k = (n - 1).bit_length()
        r = grb(k)
        while r >= n:
            r = grb(k)
        return r

    return randbelow


def ref_run_undirected(g, universe, rb, tau, on_move=None, walk_degree=None):
    # walk_degree pads every reference loop: slots past the elements loop
    loop_start = 2 * universe.n_pairs
    d = loop_start + 1 if walk_degree is None else walk_degree
    pos = g._pos
    edges = g._pairs
    m = len(edges)
    mm = m * (m - 1)
    moves = 0
    for t in range(tau):
        slot = rb(d)
        if slot >= loop_start:
            continue
        while True:
            k = rb(mm)
            i, j = divmod(k, m - 1)
            if j >= i:
                j += 1
            e1 = edges[i]
            e2 = edges[j]
            a, b = e1
            c, dd = e2
            if a != c and a != dd and b != c and b != dd:
                break
        if slot & 1:
            f1 = (a, dd) if a < dd else (dd, a)
            f2 = (b, c) if b < c else (c, b)
        else:
            f1 = (a, c) if a < c else (c, a)
            f2 = (b, dd) if b < dd else (dd, b)
        if f1 in pos or f2 in pos:
            continue
        swap_edges(g, e1, e2, f1, f2)
        moves += 1
        if on_move is not None:
            on_move(t, (e1, e2), (f1, f2))
    return moves


def ref_run_plain(g, universe, rb, tau, on_move=None, walk_degree=None):
    loop_start = universe.n_pairs + universe.n_2paths
    d = loop_start + 1 if walk_degree is None else walk_degree
    pos = g._pos
    arcs = g._pairs
    m = len(arcs)
    mm = m * (m - 1)
    moves = 0
    for t in range(tau):
        if rb(d) >= loop_start:
            continue
        while True:
            k = rb(mm)
            i, j = divmod(k, m - 1)
            if j >= i:
                j += 1
            a, b = arcs[i]
            c, dd = arcs[j]
            if a != c and b != dd:
                break
        if a == dd or b == c:
            continue
        if (a, dd) in pos or (c, b) in pos:
            continue
        swap_arcs(g, a, b, c, dd)
        moves += 1
        if on_move is not None:
            on_move(t, ((a, b), (c, dd)), ((a, dd), (c, b)))
    return moves


def ref_run_full(g, universe, rb, tau, on_move=None, walk_degree=None):
    # ref_run_plain, padded only when there are no 2-paths, and sending each
    # proper 2-path to the reorientation gate
    loop_start = universe.n_pairs + universe.n_2paths
    d = loop_start + (universe.n_2paths == 0) if walk_degree is None else walk_degree
    pos = g._pos
    arcs = g._pairs
    m = len(arcs)
    mm = m * (m - 1)
    moves = 0
    for t in range(tau):
        if rb(d) >= loop_start:
            continue
        while True:
            k = rb(mm)
            i, j = divmod(k, m - 1)
            if j >= i:
                j += 1
            a, b = arcs[i]
            c, dd = arcs[j]
            if a != c and b != dd:
                break
        if a == dd and b == c:
            continue
        if b == c or a == dd:
            u, v, w = (a, b, dd) if b == c else (c, a, b)
            if w <= u or w <= v:
                continue
            if (w, u) not in pos or (v, u) in pos or (w, v) in pos or (u, w) in pos:
                continue
            reorient_triangle(g, u, v, w)
            moves += 1
            if on_move is not None:
                on_move(t, ((u, v), (v, w), (w, u)), ((v, u), (w, v), (u, w)))
            continue
        if (a, dd) in pos or (c, b) in pos:
            continue
        swap_arcs(g, a, b, c, dd)
        moves += 1
        if on_move is not None:
            on_move(t, ((a, b), (c, dd)), ((a, dd), (c, b)))
    return moves


REF_RUNS = {
    MODE_UNDIRECTED: ref_run_undirected,
    MODE_FULL: ref_run_full,
    MODE_PLAIN: ref_run_plain,
}


def check_undirected(s):
    violation = _erdos_gallai_violation(s)
    assert violation == ref_erdos_gallai_violation(s), s
    report = is_graphical(s)
    assert report.graphical == (violation is None)
    if report.graphical:
        assert report.witness.pairs() == ref_havel_hakimi(s), s
        assert canonical_key(report.witness).bits == ref_key_bits(report.witness)
    return violation


def check_directed(s):
    violation = _fulkerson_chen_violation(s)
    assert violation == ref_fulkerson_chen_violation(s), s
    report = is_digraphical(s)
    assert report.graphical == (violation is None)
    if report.graphical:
        assert report.witness.pairs() == ref_kleitman_wang(s), s
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
        for e in rng.sample(g.pairs(), g.m // 3):
            g._remove(*e)
        for a in rng.sample(h.pairs(), h.m // 3):
            h._remove(*a)
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
    for g in chain_mutated_digraphs():
        sets = [cs.vertices for cs in detect_induced_cycle_sets(g)]
        assert sets == ref_detect_induced_cycle_sets(g)
    # example1: every probe of every block is a cycle set's, so each sweep
    # opens all five arcs of its reorientation path
    for k in (2, 3, 4, 5):
        g = relabelled(rng, generate_blocked(BlockedInstanceSpec(blocks=k)))
        sets = [cs.vertices for cs in detect_induced_cycle_sets(g)]
        assert len(sets) == k and sets == ref_detect_induced_cycle_sets(g)
    # planted 3-cycles in random digraphs of every density, some of them
    # cycle sets
    planted = 0
    for _ in range(150):
        n = rng.randint(3, 11)
        g = random_digraph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.8)), rng.choice((0.0, 0.3)))
        g = with_planted_3cycles(rng, g)
        sets = [cs.vertices for cs in detect_induced_cycle_sets(g)]
        assert sets == ref_detect_induced_cycle_sets(g)
        planted += bool(sets)
    assert planted > 10, planted


def relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Digraph(g.n, [(perm[u], perm[v]) for u, v in g.pairs()])


def with_planted_3cycles(rng, g):
    """g with up to three vertex-disjoint directed 3-cycles forced in, induced."""
    arcs = set(g.pairs())
    vs = list(range(g.n))
    rng.shuffle(vs)
    for i in range(0, 3 * rng.randint(1, min(3, g.n // 3)), 3):
        a, b, c = vs[i : i + 3]
        arcs.update(((a, b), (b, c), (c, a)))
        arcs.difference_update(((b, a), (c, b), (a, c)))
    arcs = sorted(arcs)
    rng.shuffle(arcs)
    return Digraph(g.n, arcs)


def chain_mutated_digraphs():
    """The graphs two ``full`` runs return, their arc lists reordered by moves.

    Swaps and reorientations (and, on hub_with_back_arc(), antiparallel
    pairs forming and breaking) leave in-neighbor lists in neither vertex
    nor insertion order.
    """
    out = []
    for g0 in (realize_directed(DiDegreeSequence(((2, 2),) * 5)), hub_with_back_arc()):
        res = run_chain(g0, ChainConfig(tau=5000, mode="full", seed=13))
        assert res.moves > 0 and res.graph.pairs() != g0.pairs()
        out.append(res.graph)
    return out


def check_walk_searches(g, triples):
    """Every probe of every triangle: the one sweep against the five retries.

    The sweep must find a walk iff some excluded-arc search does, and its
    walk must be a simple alternating v+ -> w- path in the split digraph
    that avoids the probe and misses one of the five other arcs.
    """
    heads, tails = g.adjacency()
    found = 0
    for triple in triples:
        arcs = _cycle_orientation(g, triple)
        for i, probe in enumerate(arcs):
            others = other_arcs(arcs, probe)
            walk = _breaking_walk(g, *probe, arcs[(i + 1) % 3][1], heads, tails)
            ref_found = any(ref_alternating_path(g, probe, e) is not None for e in others)
            assert (walk is not None) == ref_found, probe
            if walk is not None:
                check_breaking_walk(g, probe, others, walk)
                found += 1
    return found


def check_breaking_walk(g, probe, others, walk):
    # out-copies at even positions, in-copies at odd ones
    nodes = [(i % 2, x) for i, x in enumerate(walk)]
    assert len(set(nodes)) == len(nodes), walk
    assert walk[0] == probe[0] and walk[-1] == probe[1] and len(walk) % 2 == 0
    used = set()
    for i in range(len(walk) - 1):
        a, b = walk[i], walk[i + 1]
        if i % 2:
            assert g.has(b, a), walk  # present arc (b, a) into a-
            used.add((b, a))
        else:
            assert a != b and not g.has(a, b), walk  # absent arc out of a+
            used.add((a, b))
    assert probe not in used and not used.issuperset(others), walk


def test_walk_search_matches_full_scan():
    rng = random.Random(SEED + 5)
    found = missed = 0
    for i in range(150):
        n = rng.randint(3, 40) if i % 2 else rng.randint(3, 9)
        g = random_digraph(rng, n, rng.choice((0.05, 0.2, 0.5, 0.8)), 0.3)
        if not i % 2:
            g = with_planted_3cycles(rng, g)
        triples = induced_3cycles(g)[:3]
        hits = check_walk_searches(g, triples)
        found += hits
        missed += 3 * len(triples) - hits
    assert found > 200 and missed > 20, (found, missed)
    blocked = generate_blocked(BlockedInstanceSpec(blocks=2))
    assert check_walk_searches(blocked, induced_3cycles(blocked)) == 0
    # through the probe (3, 2) of 3 -> 2 -> 0 -> 3, every breaking walk runs
    # along the first four arcs of the reorientation path and misses (0, 2)
    late = Digraph(5, [(0, 3), (3, 4), (2, 4), (1, 4), (3, 2), (2, 0)])
    path_arcs = [(3, 0), (2, 0), (2, 3), (0, 3), (0, 2)]
    assert [ref_alternating_path(late, (3, 2), e) is None for e in path_arcs] == [
        True, True, True, True, False]
    assert check_walk_searches(late, [(0, 2, 3)]) == 3
    # hub_with_back_arc() has no triangle to probe
    mutated = chain_mutated_digraphs()
    assert sum(check_walk_searches(g, induced_3cycles(g)) for g in mutated) > 0


def test_walk_search_matches_full_scan_at_scale():
    # the shape of tests/test_scale.py: n = 20 000, m = 10^5, realized the
    # way recognize realizes it; one of its candidate triangles
    from .test_scale import M, N, sparse_pairs

    rng = random.Random(2014)
    outs, ins = [0] * N, [0] * N
    for u, v in sparse_pairs(rng, N, M, directed=True):
        outs[u] += 1
        ins[v] += 1
    g = is_digraphical(DiDegreeSequence(zip(outs, ins))).witness
    triples = induced_3cycles(g)
    assert triples
    assert check_walk_searches(g, triples[:1]) > 0


def test_frozen_arc_correction_matches_bias_report():
    rng = random.Random(SEED + 6)
    checked = corrected = 0
    instances = [generate_blocked(BlockedInstanceSpec(blocks=k)) for k in (1, 2, 4)]
    instances += [random_digraph(rng, rng.randint(3, 30), 0.3, 0.2) for _ in range(60)]
    for g0 in instances:
        s = g0.degree_sequence()
        # any frequency table over ordered pairs will do: sample some
        pairs = [(u, v) for u in range(g0.n) for v in range(g0.n) if u != v]
        freq = {arc: rng.randrange(1, 50) / 50 for arc in rng.sample(pairs, len(pairs) // 3)}
        freq.update((arc, 1.0) for arc in g0.pairs() if rng.random() < 0.5)
        freq = dict(sorted(freq.items()))
        want = ref_corrected_frequency(s, g0, freq)
        got = correct_frozen_arcs(freq, cycle_set_arcs(g0))
        assert got == want
        assert got is None or list(got) == list(want)
        checked += 1
        corrected += got is not None
    assert checked == 63 and corrected >= 3


def loop_cases():
    """(label, start graph) pairs covering every branch of the inline draws."""
    rng = random.Random(SEED + 7)
    twocycles = [(2 * i + d, 2 * i + 1 - d) for i in range(20) for d in (0, 1)]
    yield "d=1 undirected", Graph(2, [(0, 1)])
    yield "d=1 directed", Digraph(2, [(0, 1)])
    yield "m=2 undirected", Graph(4, [(0, 1), (2, 3)])
    yield "m=2 directed", Digraph(4, [(0, 1), (2, 3)])
    yield "3-cycle", Digraph(3, [(0, 1), (1, 2), (2, 0)])
    yield "bidirected triangle", Digraph(3, [(u, v) for u in range(3) for v in range(3) if u != v])
    yield "2-cycles and a triangle", Digraph(43, twocycles + [(40, 41), (41, 42), (42, 40)])
    yield "random antiparallel", random_digraph(rng, 12, 0.5, 0.3)
    yield "random sparse", random_digraph(rng, 20, 0.15, 0.0)
    yield "near-complete", realize_directed(DiDegreeSequence([(6, 6)] * 8))
    yield "star and matching", Graph(15, [(0, v) for v in range(1, 9)] + [(9, 10), (11, 12), (13, 14)])
    yield "random graph", random_graph(rng, 14, 0.4)


def run_loop(run, g0, universe, rng, undo, walk_degree=None):
    """Final pair list, move count and move log of one run from a copy of g0.

    With ``undo`` the hook logs each move and then restores the graph, as the
    fidelity check of degswap.statespace does.  The walk has ``walk_degree``
    slots, by default the universe's own.
    """
    g = g0.copy()
    log = []
    hook = None
    if undo:
        add, remove = g._add, g._remove

        def hook(t, removed, added):
            log.append((t, removed, added))
            for u, v in added:
                remove(u, v)
            for u, v in removed:
                add(u, v)

    moves = run(g, universe, rng, 2000, hook, walk_degree)
    g._check_index()
    return g.pairs(), moves, log


def test_inline_draw_loops_match_randbelow_loops():
    # equal graphs and seeds: the same walk, move count and generator state,
    # bare and with a hook that undoes every move.  The loops write each move
    # into the lists themselves; the references call the reference mutators
    # of conftest.
    reorientations = collections.Counter()
    for label, g0 in loop_cases():
        modes = (MODE_UNDIRECTED,) if isinstance(g0, Graph) else (MODE_FULL, MODE_PLAIN)
        for mode, seed, undo in itertools.product(modes, range(3), (False, True)):
            universe = universe_for(g0, mode)
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = run_loop(_run, g0, universe, rng, undo)
            want = run_loop(REF_RUNS[mode], g0, universe, make_randbelow(ref_rng), undo)
            assert got == want, (label, mode, seed, undo)
            assert rng.getstate() == ref_rng.getstate(), (label, mode, seed, undo)
            if mode == MODE_FULL:
                reorientations[label] += sum(len(removed) == 3 for _, removed, _ in got[2])
    # the three-slot reorientation write is compared too
    assert reorientations["3-cycle"] and reorientations["2-cycles and a triangle"]


def test_inline_draw_loops_match_randbelow_loops_when_padded():
    # the same at walk degrees d with L + 1 < d < 3L, L the universe's
    # elements: the walk is padded past its own degree, as a complement walk
    # is, and the window is still one slot per step, so each reference loop
    # draws the same slots.  Every loop_cases() graph with L >= 2 takes part;
    # below that no such d exists.
    padded = collections.Counter()
    for label, g0 in loop_cases():
        modes = (MODE_UNDIRECTED,) if isinstance(g0, Graph) else (MODE_FULL, MODE_PLAIN)
        for mode in modes:
            universe = universe_for(g0, mode)
            elements = universe.elements
            for d in sorted({elements + 2, 2 * elements, 3 * elements - 1}):
                if not elements + 1 < d < 3 * elements:
                    continue
                assert step_window(d, elements).width == 1
                padded[mode] += 1
                for seed, undo in itertools.product(range(3), (False, True)):
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    got = run_loop(_run, g0, universe, rng, undo, d)
                    want = run_loop(
                        REF_RUNS[mode], g0, universe, make_randbelow(ref_rng), undo, d
                    )
                    assert got == want, (label, mode, d, seed, undo)
                    assert rng.getstate() == ref_rng.getstate(), (label, mode, d, seed, undo)
    assert padded == {MODE_UNDIRECTED: 8, MODE_FULL: 18, MODE_PLAIN: 18}

"""No super-linear cliff: realize and recognize at n = 20 000, recognize
example1 with 60 cycle sets, cycle-set detection on 10^4 disjoint
3-cycles, the triangle scan on a hub digraph, chains on a hub and on a
sparse digraph with n = 10^5, and the state-graph checks of ``enumerate``
on 6057 states.

With per-round re-sorting greedies, tail-sum feasibility tests and a scan
over all vertex triples the cold-path instance takes minutes; the
near-linear versions need seconds.  The hub-star chains would rebuild a
pair list of 5 * 10^7 candidates per move if they materialized the rare
pairs instead of drawing them by rejection.  The sparse chains check that a
move costs O(1) whatever n is: a step that touched per-vertex state in
proportion to n or m would take minutes.  The budget leaves a wide margin
for a slow machine.  ``enumerate`` answers its checks from reach bitsets;
a breadth-first search from every state, run once per check, did not finish
within a minute.
"""

import random
import time

from degswap.arcswap import detect_induced_cycle_sets, induced_3cycles, recognize
from degswap.chain import ChainConfig, run_chain, universe_for
from degswap.core import DegreeSequence, DiDegreeSequence, Digraph
from degswap.generators import BlockedInstanceSpec, generate_blocked
from degswap.realize import realize_directed, realize_undirected
from .conftest import hub_with_matching

N = 20_000
M = 100_000
BUDGET_S = 60.0


def sparse_pairs(rng, n, m, directed):
    """m distinct random vertex pairs (ordered when directed), no loops."""
    pairs = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((u, v) if directed or u < v else (v, u))
    return pairs


def test_cold_path_has_no_cliff_at_20000_vertices():
    rng = random.Random(2014)
    outs, ins, degs = [0] * N, [0] * N, [0] * N
    for u, v in sparse_pairs(rng, N, M, directed=True):
        outs[u] += 1
        ins[v] += 1
    for u, v in sparse_pairs(rng, N, M, directed=False):
        degs[u] += 1
        degs[v] += 1
    di = DiDegreeSequence(zip(outs, ins))
    un = DegreeSequence(degs)

    start = time.perf_counter()
    g = realize_directed(di)
    assert g.m == M and g.degree_sequence() == di
    h = realize_undirected(un)
    assert h.m == M and h.degree_sequence() == un
    report = recognize(di)
    assert report.component_count == 1 << len(report.cycle_sets)
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"cold path took {elapsed:.1f} s"


def test_recognize_example1_with_60_cycle_sets():
    # n = 180, m = 16 110: every probe of every cycle set sweeps the whole
    # split digraph and opens all five arcs of its reorientation path
    s = generate_blocked(BlockedInstanceSpec(blocks=60)).degree_sequence()
    start = time.perf_counter()
    report = recognize(s)
    elapsed = time.perf_counter() - start
    assert len(report.cycle_sets) == 60
    assert elapsed < BUDGET_S, f"recognize took {elapsed:.1f} s"


def test_cycle_set_detection_on_30000_vertices():
    # 10^4 disjoint directed 3-cycles, 3000 noise arcs among them, and one
    # planted cycle set (0, 1, 2): a 3-cycle whose vertices point at every
    # other vertex, so every realization holds it, in one orientation or the
    # other.  Each of the other induced 3-cycles is broken by a short walk,
    # and its sweep must not pay O(n) before finding it.  The 10^4 probes run
    # on the digraph itself, where stats --mode plain detects; recognize
    # realizes the sequence afresh and would not reach them.
    n, noise = 30_000, 3_000
    rng = random.Random(2016)
    arcs = {(0, 1), (1, 2), (2, 0)}
    arcs.update((p, v) for p in range(3) for v in range(3, n))
    for t in range(3, n, 3):
        arcs.update(((t, t + 1), (t + 1, t + 2), (t + 2, t)))
    while len(arcs) < 4 * n - 6 + noise:
        u, v = rng.randrange(3, n), rng.randrange(3, n)
        if u != v:
            arcs.add((u, v))
    g = Digraph(n, arcs)
    best = BUDGET_S
    for _ in range(2):
        start = time.process_time()
        sets = detect_induced_cycle_sets(g)
        best = min(best, time.process_time() - start)
    assert [cs.vertices for cs in sets] == [(0, 1, 2)]
    assert best < 1.0, f"detection took {best:.2f} s of CPU"


def test_triangle_scan_on_a_hub_digraph():
    # k arcs into the hub h, k arcs out of it and one arc back from each
    # out-neighbor k + i to the in-neighbor i: k induced 3-cycles i -> h ->
    # k + i -> i.  Scanning h's k heads from each in-arc (i, h) costs k^2;
    # the in-list of i holds one vertex.
    k = 4000
    h = 2 * k
    arcs = [(i, h) for i in range(k)] + [(h, k + i) for i in range(k)]
    arcs += [(k + i, i) for i in range(k)]
    g = Digraph(h + 1, arcs)
    best = BUDGET_S
    for _ in range(2):
        start = time.process_time()
        triples = induced_3cycles(g)
        best = min(best, time.process_time() - start)
    assert triples == [(i, k + i, h) for i in range(k)]
    assert best < 0.25, f"the triangle scan took {best:.2f} s of CPU"


def test_hub_star_chains_have_no_cliff():
    # K_{1,10^4} plus a 400-edge matching: universe pairs are under a tenth
    # of all slot pairs, so a rejection draw takes about 13 tries.
    # Rebuilding a pair list after each move would scan 5 * 10^7 slot pairs.
    leaves, matching, tau = 10_000, 400, 10_000
    start = time.perf_counter()
    for kind, mode in (("undirected", "undirected"), ("out", "full"), ("out", "plain")):
        g0 = hub_with_matching(leaves, matching, kind)
        u = universe_for(g0, mode)
        assert 10 * (u.n_pairs + u.n_2paths) < u.m * (u.m - 1) // 2
        res = run_chain(g0, ChainConfig(tau=tau, mode=mode, seed=7))
        assert res.moves > tau // 2, (mode, res.moves)
        assert res.graph.degree_sequence() == g0.degree_sequence()
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"hub-star chains took {elapsed:.1f} s"


def test_sparse_chains_at_100000_vertices():
    # the timed region includes building g0: Digraph(n, arcs) and the copy
    # each run_chain makes must stay O(m) with a small constant
    n, m, tau = 100_000, 500_000, 100_000
    pairs = sparse_pairs(random.Random(2015), n, m, directed=True)
    start = time.perf_counter()
    g0 = Digraph(n, pairs)
    for mode in ("full", "plain"):
        res = run_chain(g0, ChainConfig(tau=tau, mode=mode, seed=7))
        assert res.moves > tau // 2, (mode, res.moves)
        assert res.graph.degree_sequence() == g0.degree_sequence()
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"sparse chains took {elapsed:.1f} s"


def test_enumerate_checks_6057_states_end_to_end():
    # psi on 3 3 3 3 2 2 2 2, n = 8, inside the default bound: the command
    # builds the state graph, checks its properties and checks the distance
    # bound of each of its 3.7 * 10^7 ordered state pairs
    import json
    import os
    import subprocess
    import sys

    import degswap

    src = os.path.dirname(os.path.dirname(os.path.abspath(degswap.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["enumerate", "--degrees", "3 3 3 3 2 2 2 2", "--kind", "psi"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "degswap", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "kind": "psi",
        "node_count": 6057,
        "degree": 59,
        "symmetric": True,
        "regular": True,
        "non_bipartite": True,
        "components": [6057],
        "diameter": 6,
        "bounds_ok": True,
        "bounds_applicable": True,
    }
    assert elapsed < 15.0, f"enumerate took {elapsed:.1f} s"

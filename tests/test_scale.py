"""No super-linear cliff on the cold path: realize and recognize at n = 20 000.

With per-round re-sorting greedies, tail-sum feasibility tests and a scan
over all vertex triples this instance takes minutes; the near-linear
versions need seconds.  The budget leaves a wide margin for a slow machine.
"""

import random
import time

from degswap.arcswap import recognize
from degswap.core import DegreeSequence, DiDegreeSequence
from degswap.realize import realize_directed, realize_undirected

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

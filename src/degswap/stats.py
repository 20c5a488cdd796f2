"""Ensemble statistics over many independent chain runs.

Runs K chains with split seeds, then aggregates per-arc presence
frequencies and the induced-directed-3-cycle (motif) count distribution of
the sampled realizations.  For swap-only sampling of a non-arc-swap
sequence, the per-arc frequencies are additionally bias-corrected: arcs of
induced cycle sets sit frozen at frequency 1 (their reversals at 0) inside
one state-graph component, while unbiased sampling would give both 1/2.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from . import arcswap
from .chain import MODE_UNDIRECTED, ChainConfig, derive_seed, run_chain
from .core import UNDIRECTED, DegreeSequence, DiDegreeSequence, Digraph, Graph, canonical_key
from .errors import InvalidInputError
from .realize import realize_directed, realize_undirected


@dataclass
class StatsReport:
    runs: int
    arc_frequency: dict[tuple[int, int], float]
    motif_counts: Optional[Counter]  # induced directed 3-cycles per sample
    corrected_frequency: Optional[dict[tuple[int, int], float]]
    final_keys: Counter  # canonical key hex -> visits


def count_directed_3cycles(g: Digraph) -> int:
    """Induced directed 3-cycles (exactly 3 cyclic arcs on the triple).

    Counts :func:`arcswap.induced_3cycles`, so O(m * max degree).
    """
    return len(arcswap.induced_3cycles(g))


def correct_frozen_arcs(
    freq: dict[tuple[int, int], float], cycle_arcs: set[tuple[int, int]]
) -> Optional[dict[tuple[int, int], float]]:
    """Swap-only arc frequencies with the frozen cycle-set arcs set to 1/2.

    ``cycle_arcs`` comes from :func:`arcswap.cycle_set_arcs`; the arcs and
    their reversals get 1/2 and every other sampled arc keeps its frequency,
    in sorted arc order.  None when there is nothing to correct.  Costs
    O(|freq| log |freq|), never n(n-1).
    """
    if not cycle_arcs:
        return None
    frozen = cycle_arcs | {(v, u) for u, v in cycle_arcs}
    return {
        arc: 0.5 if arc in frozen else freq[arc] for arc in sorted(frozen | set(freq))
    }


def run_one(job):
    """One chain of an ensemble: ``(key_hex, moves, loops, sorted_final_pairs)``.

    ``job`` is ``(kind, n, g0_pairs, cfg)``, with ``kind`` the graph kind of
    the start graph.  Both ``stats`` and ``sample --runs`` fan this out
    through :func:`map_runs`, so it is module-level (picklable).
    """
    kind, n, g0_pairs, cfg = job
    g0 = Graph(n, g0_pairs) if kind == UNDIRECTED else Digraph(n, g0_pairs)
    result = run_chain(g0, cfg)
    g = result.graph
    pairs = g.edges() if kind == UNDIRECTED else g.arcs()
    return canonical_key(g).hex(), result.moves, result.loops, tuple(sorted(pairs))


def map_runs(fn, jobs, workers: int, chunksize: int):
    """Yield ``fn(job)`` for each job, in job order, as the results arrive.

    The jobs run on a process pool of ``min(workers, len(jobs), CPUs)``
    processes when that is more than one, so ``fn`` must be a module-level
    function; the cap matters because a pool may start all of its processes
    on the first submit.  Callers aggregate while iterating, so no list of
    all results is ever held.
    """
    size = min(workers, len(jobs), os.cpu_count() or 1)
    if size > 1:
        with ProcessPoolExecutor(max_workers=size) as pool:
            yield from pool.map(fn, jobs, chunksize=chunksize)
    else:
        for job in jobs:
            yield fn(job)


def ensemble_stats(
    s: DegreeSequence | DiDegreeSequence,
    cfg: ChainConfig,
    runs: int,
    workers: int = 1,
) -> StatsReport:
    """Aggregate K independent chains; deterministic in (cfg.seed, runs).

    g0 is realized once; every chain starts from its insertion-ordered pair
    list.  Chain ``index`` uses the split seed ``derive_seed(cfg.seed,
    index)``, so the aggregate is independent of worker scheduling.
    """
    directed = isinstance(s, DiDegreeSequence)
    if directed == (cfg.mode == MODE_UNDIRECTED):
        raise InvalidInputError(f"mode {cfg.mode!r} does not fit the sequence kind")
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")

    g0 = realize_directed(s) if directed else realize_undirected(s)
    g0_pairs = tuple(g0.arcs() if directed else g0.edges())
    jobs = [
        (g0.kind, s.n, g0_pairs, ChainConfig(cfg.tau, cfg.mode, derive_seed(cfg.seed, i)))
        for i in range(runs)
    ]

    arc_counts: Counter = Counter()
    key_counts: Counter = Counter()
    motifs: Optional[Counter] = Counter() if directed else None
    for key, _, _, pairs in map_runs(run_one, jobs, workers, chunksize=64):
        arc_counts.update(pairs)
        key_counts[key] += 1
        if directed:
            motifs[count_directed_3cycles(Digraph(s.n, pairs))] += 1

    freq = {arc: c / runs for arc, c in sorted(arc_counts.items())}

    corrected = None
    if directed and cfg.mode == "plain":
        corrected = correct_frozen_arcs(freq, arcswap.cycle_set_arcs(g0))

    return StatsReport(
        runs=runs,
        arc_frequency=freq,
        motif_counts=motifs,
        corrected_frequency=corrected,
        final_keys=key_counts,
    )

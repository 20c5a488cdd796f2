"""Ensemble statistics over many independent chain runs.

Runs K chains from one start graph with split seeds, one block of runs per
worker process, then aggregates per-arc presence frequencies and the
induced-directed-3-cycle (motif) count distribution of the sampled
realizations.  For swap-only sampling of a non-arc-swap sequence, the
per-arc frequencies are additionally bias-corrected: arcs of induced cycle
sets sit frozen at frequency 1 (their reversals at 0) inside one
state-graph component, while unbiased sampling would give both 1/2.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple, Optional

from . import arcswap
from .chain import MODE_UNDIRECTED, ChainConfig, derive_seed, plan_chain, run_chain
from .core import UNDIRECTED, DegreeSequence, DiDegreeSequence, Digraph, Graph, canonical_key
from .errors import InvalidInputError
from .realize import realize_directed, realize_undirected


class StatsReport(NamedTuple):
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


class Ensemble:
    """Counts merged over a block of an ensemble's runs, or over all of them."""

    __slots__ = ("keys", "arcs", "motifs", "moves", "last")

    def __init__(self):
        self.keys = Counter()  # canonical key hex -> runs
        self.arcs = Counter()  # final pair -> runs (tally)
        self.motifs = Counter()  # induced 3-cycles -> runs (tally)
        self.moves = 0  # each of the runs' tau steps is a move or a loop
        self.last: Optional[tuple] = None  # sorted final pairs of run ``runs - 1``

    def merge(self, later: "Ensemble") -> "Ensemble":
        """Add the counts of the block that follows this one."""
        for name in ("keys", "arcs", "motifs"):
            getattr(self, name).update(getattr(later, name))
        self.moves += later.moves
        self.last = later.last
        return self


_pool_g0 = None  # a pool process's start graph, built once by its initializer


def _build_pool_g0(graph_type: type, n: int, pairs: tuple) -> None:
    global _pool_g0
    _pool_g0 = graph_type(n, pairs)


def _run_block(block, g0=None) -> Ensemble:
    """Runs ``lo .. hi - 1`` of ``block = (lo, hi, cfg, runs, tally)``, merged.

    The block plans its runs once (:func:`degswap.chain.plan_chain`) and
    hands the plan to one ``run_chain`` call per run.  ``run_chain``
    (config as second positional argument) and ``count_directed_3cycles``
    are module globals: a tracer that rebinds them sees every run, in pool
    processes too.
    """
    lo, hi, cfg, runs, tally = block
    g0 = _pool_g0 if g0 is None else g0
    directed = g0.kind != UNDIRECTED
    plan = plan_chain(g0, cfg.mode)
    out = Ensemble()
    for i in range(lo, hi):
        result = run_chain(plan, ChainConfig(cfg.tau, cfg.mode, derive_seed(cfg.seed, i)))
        g = result.graph
        out.keys[canonical_key(g).hex()] += 1
        out.moves += result.moves
        pairs = g.arcs() if directed else g.edges()
        if tally:
            out.arcs.update(pairs)
            if directed:
                out.motifs[count_directed_3cycles(g)] += 1
        if i == runs - 1:
            out.last = tuple(sorted(pairs))
    return out


def run_ensemble(
    g0: Graph | Digraph, cfg: ChainConfig, runs: int, workers: int, tally: bool = False
) -> Ensemble:
    """Chains ``0 .. runs - 1`` from g0, chain ``i`` seeded ``derive_seed(cfg.seed, i)``.

    ``tally`` adds the arc and motif counts.  The runs are cut into ``size =
    min(workers, runs, CPUs)`` contiguous blocks, one per process; the cap
    matters because a fork pool starts all of its processes at once.  g0's
    pairs reach each pool process once, through its initializer, and each
    block sends back one merged :class:`Ensemble`.
    """
    size = min(workers, runs, os.cpu_count() or 1)
    blocks = [(runs * b // size, runs * (b + 1) // size, cfg, runs, tally) for b in range(size)]
    if size == 1:
        return _run_block(blocks[0], g0)
    init = (type(g0), g0.n, tuple(g0.edges() if g0.kind == UNDIRECTED else g0.arcs()))
    with ProcessPoolExecutor(size, initializer=_build_pool_g0, initargs=init) as pool:
        # in block order, so ``last`` ends up from the last block
        return functools.reduce(Ensemble.merge, pool.map(_run_block, blocks))


def ensemble_stats(
    s: DegreeSequence | DiDegreeSequence,
    cfg: ChainConfig,
    runs: int,
    workers: int = 1,
    g0: Optional[Graph | Digraph] = None,
) -> StatsReport:
    """Aggregate K independent chains from g0; deterministic in (g0, cfg.seed, runs).

    g0 defaults to the greedy realization of ``s``; a given g0 must realize
    ``s``.  The aggregate does not depend on ``workers``.
    """
    directed = isinstance(s, DiDegreeSequence)
    if directed == (cfg.mode == MODE_UNDIRECTED):
        raise InvalidInputError(f"mode {cfg.mode!r} does not fit the sequence kind")
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")

    if g0 is None:
        g0 = realize_directed(s) if directed else realize_undirected(s)
    elif g0.degree_sequence() != s:
        raise InvalidInputError("g0 does not realize the sequence")
    total = run_ensemble(g0, cfg, runs, workers, tally=True)
    freq = {arc: c / runs for arc, c in sorted(total.arcs.items())}

    corrected = None
    if directed and cfg.mode == "plain":
        corrected = correct_frozen_arcs(freq, arcswap.cycle_set_arcs(g0))

    return StatsReport(
        runs=runs,
        arc_frequency=freq,
        motif_counts=total.motifs if directed else None,
        corrected_frequency=corrected,
        final_keys=total.keys,
    )

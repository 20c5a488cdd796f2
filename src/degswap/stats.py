"""Ensemble statistics over many independent chain runs.

Runs K chains from one start graph with split seeds, one block of runs per
process (the caller's and forked children), then aggregates per-arc
presence frequencies and the induced-directed-3-cycle (motif) count
distribution of the sampled realizations.  For swap-only sampling of a
non-arc-swap sequence, the per-arc frequencies are additionally
bias-corrected: arcs of induced cycle sets sit frozen at frequency 1
(their reversals at 0) inside one state-graph component, while unbiased
sampling would give both 1/2.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter
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


def _run_block(block, g0: Graph | Digraph) -> Ensemble:
    """Runs ``lo .. hi - 1`` of ``block = (lo, hi, cfg, runs, tally)`` from g0, merged.

    The block plans its runs once (:func:`degswap.chain.plan_chain`) and
    hands the plan to one ``run_chain`` call per run.  ``run_chain``
    (config as second positional argument) and ``count_directed_3cycles``
    are module globals: a tracer that rebinds them sees every run, in
    forked block processes too.
    """
    lo, hi, cfg, runs, tally = block
    directed = g0.kind != UNDIRECTED
    plan = plan_chain(g0, cfg.mode)
    out = Ensemble()
    for i in range(lo, hi):
        result = run_chain(plan, ChainConfig(cfg.tau, cfg.mode, derive_seed(cfg.seed, i)))
        g = result.graph
        out.keys[canonical_key(g).hex()] += 1
        out.moves += result.moves
        pairs = g.pairs()
        if tally:
            out.arcs.update(pairs)
            if directed:
                out.motifs[count_directed_3cycles(g)] += 1
        if i == runs - 1:
            out.last = tuple(sorted(pairs))
    return out


def _fork_block(block, g0: Graph | Digraph) -> tuple[int, int]:
    """Fork a process that runs ``block`` from its inherited g0: (pid, read end).

    The child pickles the block's :class:`Ensemble`, or the exception the
    block raised, down a pipe and ends with ``os._exit``, so it never
    returns into the caller's frames and never flushes the stdio buffers
    it inherited.  A child that cannot send sends nothing.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    try:
        os.close(read_end)
        try:
            sent = _run_block(block, g0)
        except BaseException as exc:  # sent to the parent, which re-raises it
            sent = exc
        data = pickle.dumps(sent)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _reap_block(pid: int, read_end: int) -> bytes:
    """Everything the child ``pid`` sent down ``read_end``, after reaping it."""
    try:
        with open(read_end, "rb") as pipe:
            return pipe.read()
    finally:
        os.waitpid(pid, 0)


def run_ensemble(
    g0: Graph | Digraph, cfg: ChainConfig, runs: int, workers: int, tally: bool = False
) -> Ensemble:
    """Chains ``0 .. runs - 1`` from g0, chain ``i`` seeded ``derive_seed(cfg.seed, i)``.

    ``tally`` adds the arc and motif counts.  The runs are cut into ``size =
    min(workers, runs, CPUs)`` contiguous blocks (1 where ``os.fork`` is
    missing).  The caller's process forks one child per block after the
    first, each inheriting g0, runs the first block itself, then reads and
    reaps the children in block order, whether or not its own block
    raised.  Each child sends back one merged :class:`Ensemble`, or the
    exception its block raised, which is raised here.  Forking is safe
    only in a process without threads; the command line starts none.
    """
    size = min(workers, runs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    blocks = [(runs * b // size, runs * (b + 1) // size, cfg, runs, tally) for b in range(size)]
    children = []
    try:
        for block in blocks[1:]:
            children.append(_fork_block(block, g0))
        total = _run_block(blocks[0], g0)
    finally:
        sent = [_reap_block(pid, read_end) for pid, read_end in children]
    # in block order, so ``last`` ends up from the last block
    for (pid, _), data in zip(children, sent):
        if not data:
            raise RuntimeError(f"ensemble block process {pid} ended without a result")
        part = pickle.loads(data)
        if isinstance(part, BaseException):
            raise part
        total.merge(part)
    return total


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

"""The benchmark's workloads: fixed command lists over seeded instances.

Instance shapes are fixed; only the chain seeds and the instances' random
draws follow the workload seed.  Sizes are chosen so one pass over a
command list takes a few seconds on a 2-CPU machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from inputs import sub_seed

WORKERS = 2  # the largest pool any command asks for


@dataclass(frozen=True)
class Command:
    """One ``degswap`` invocation; ``label`` is unique across workloads."""

    label: str
    sub: str  # realize | sample | recognize | stats
    instance: str
    mode: Optional[str] = None
    tau: int = 0
    runs: int = 1
    workers: int = 1

    @property
    def steps(self) -> int:
        """Chain steps the command runs (tau per run)."""
        return self.tau * self.runs if self.sub in ("sample", "stats") else 0

    def argv(self, path: str, edgelist: bool, seed: int) -> list[str]:
        args = [self.sub, "--edgelist" if edgelist else "--degrees-file", path]
        if self.sub in ("sample", "stats"):
            args += ["--mode", self.mode, "--tau", str(self.tau)]
            args += ["--seed", str(sub_seed(seed, "chain/" + self.label))]
            args += ["--runs", str(self.runs), "--workers", str(self.workers)]
        return args


WORKLOADS: dict[str, list[Command]] = {
    # Mutation-bound chains on sparse inputs, plus the O(n^2)-bit key of the
    # 3000-vertex output; realize, arcswap and stats do no work here.
    "sparse-chain": [
        Command("sparse-full", "sample", "sparse-di", "full", tau=100_000),
        Command("sparse-plain", "sample", "sparse-di", "plain", tau=100_000),
        Command("sparse-undirected", "sample", "sparse-un", "undirected", tau=100_000),
    ],
    # The same chain layer used differently: a gate-bound near-complete
    # digraph (under 1 % of steps move) and the hub star that takes the
    # exhaustive-pair path, rebuilding O(m^2) pairs after every move.
    "skewed-chain": [
        Command("dense-full", "sample", "dense-di", "full", tau=2_000_000),
        Command("star-undirected", "sample", "star", "undirected", tau=60),
    ],
    # Greedy realizers and the recognizer do nearly all the work; no chain.
    "cold-start": [
        Command("realize-directed", "realize", "realize-di"),
        Command("realize-undirected", "realize", "realize-un"),
        Command("recognize-sparse", "recognize", "recognize-sparse"),
        Command("recognize-example1", "recognize", "ex1-k20"),
    ],
    # Many short chains: per-run set-up, pool fan-out and aggregation
    # dominate, including stats' per-run re-realization and motif scan.
    "ensemble": [
        Command("tri-stats", "stats", "tri", "full", tau=10_000, runs=100, workers=WORKERS),
        Command("n60-stats", "stats", "n60", "full", tau=2000, runs=10, workers=WORKERS),
        Command("ex1-plain-stats", "stats", "ex1-k8", "plain", tau=1000, runs=100, workers=WORKERS),
        Command("n60-sample-runs", "sample", "n60", "full", tau=200, runs=1000, workers=WORKERS),
    ],
}


def chain_labels() -> list[str]:
    """Labels of every command that runs a chain, in workload order."""
    return [c.label for cmds in WORKLOADS.values() for c in cmds if c.steps]

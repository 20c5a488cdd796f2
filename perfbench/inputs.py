"""Seeded input instances for the benchmark, built without the package.

Every instance is drawn from ``random.Random`` streams derived from the
workload seed, so one seed always yields byte-identical input files and a
new seed yields a new instance of the same shape.  Nothing here imports
``degswap``: a change to the program cannot change its own inputs.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Optional


def sub_seed(seed: int, label: str) -> int:
    """Stable 63-bit seed for one named stream of a workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class Instance:
    """One input: a graph (edge-list file) or its degree sequence (file)."""

    name: str
    kind: str  # "undirected" | "directed"
    n: int
    pairs: list[tuple[int, int]]
    as_sequence: bool = False
    planted: Optional[list[tuple[int, int, int]]] = None  # example1 cycle sets
    path: str = field(default="", repr=False)

    @property
    def m(self) -> int:
        return len(self.pairs)

    def degrees(self) -> list:
        """Degree list (undirected) or (out, in) pair list (directed)."""
        if self.kind == "undirected":
            deg = [0] * self.n
            for u, v in self.pairs:
                deg[u] += 1
                deg[v] += 1
            return deg
        outs = [0] * self.n
        ins = [0] * self.n
        for u, v in self.pairs:
            outs[u] += 1
            ins[v] += 1
        return list(zip(outs, ins))

    def text(self) -> str:
        if self.as_sequence:
            if self.kind == "undirected":
                return " ".join(map(str, self.degrees())) + "\n"
            return " ".join(f"{a}/{b}" for a, b in self.degrees()) + "\n"
        lines = [f"{self.kind} n={self.n}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.pairs))
        return "\n".join(lines) + "\n"

    def write(self, directory: str) -> str:
        ext = ".deg" if self.as_sequence else ".edges"
        self.path = os.path.join(directory, self.name + ext)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.text())
        return self.path


# ---------------------------------------------------------------------------
# shapes


def sparse_digraph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct loopless arcs drawn uniformly."""
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return sorted(arcs)


def sparse_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct loopless edges drawn uniformly, stored as (low, high)."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges)


def near_complete_digraph(rng: random.Random, n: int, missing: int) -> list[tuple[int, int]]:
    """Complete digraph minus ``missing`` disjoint fixed-point-free permutations.

    Every vertex ends with out-degree = in-degree = n - 1 - missing.
    """
    while True:
        removed: set[tuple[int, int]] = set()
        for _ in range(missing):
            for _attempt in range(1000):
                perm = list(range(n))
                rng.shuffle(perm)
                if all(perm[u] != u and (u, perm[u]) not in removed for u in range(n)):
                    break
            else:
                break
            removed.update((u, perm[u]) for u in range(n))
        if len(removed) == missing * n:
            break
    return [(u, v) for u in range(n) for v in range(n) if u != v and (u, v) not in removed]


def hub_star_matching(
    rng: random.Random, leaves: int, matching: int
) -> tuple[int, list[tuple[int, int]]]:
    """Star K_{1,leaves} with hub 0 plus a disjoint matching, other labels shuffled.

    The hub keeps label 0: its position in the edge tuples sets how early
    the exhaustive pair scan rejects a star-star pair, which would otherwise
    make the run time depend on the seed.
    """
    n = 1 + leaves + 2 * matching
    rest = list(range(1, n))
    rng.shuffle(rest)
    edges = [(0, v) for v in rest[:leaves]]
    matched = rest[leaves:]
    edges.extend((matched[2 * j], matched[2 * j + 1]) for j in range(matching))
    return n, sorted((u, v) if u < v else (v, u) for u, v in edges)


def example1(
    rng: random.Random, k: int
) -> tuple[int, list[tuple[int, int]], list[tuple[int, int, int]]]:
    """k stacked directed 3-cycles, each block pointing at all later blocks.

    The paper's Example 1 under a random relabeling.  Returns (n, arcs,
    planted cycle sets as sorted triples); the planted triples are exactly
    the sequence's induced cycle sets.
    """
    n = 3 * k
    label = list(range(n))
    rng.shuffle(label)
    arcs = []
    for i in range(k):
        a, b, c = (label[3 * i + t] for t in range(3))
        arcs.extend([(a, b), (b, c), (c, a)])
        for j in range(i + 1, k):
            arcs.extend(
                (label[3 * i + s], label[3 * j + t]) for s in range(3) for t in range(3)
            )
    planted = sorted(tuple(sorted(label[3 * i : 3 * i + 3])) for i in range(k))
    return n, sorted(arcs), planted


# ---------------------------------------------------------------------------
# named instances


def _build(name: str, seed: int) -> Instance:
    rng = random.Random(sub_seed(seed, name))
    if name == "sparse-di":
        return Instance(name, "directed", 3000, sparse_digraph(rng, 3000, 15000))
    if name == "sparse-un":
        return Instance(name, "undirected", 3000, sparse_graph(rng, 3000, 15000))
    if name == "dense-di":
        return Instance(name, "directed", 40, near_complete_digraph(rng, 40, 3))
    if name == "star":
        n, edges = hub_star_matching(rng, 1000, 40)
        return Instance(name, "undirected", n, edges)
    if name == "realize-di":
        return Instance(name, "directed", 2000, sparse_digraph(rng, 2000, 10_000), True)
    if name == "realize-un":
        return Instance(name, "undirected", 2000, sparse_graph(rng, 2000, 10_000), True)
    if name == "recognize-sparse":
        return Instance(name, "directed", 150, sparse_digraph(rng, 150, 600), True)
    if name in ("ex1-k20", "ex1-k8"):
        n, arcs, planted = example1(rng, int(name[len("ex1-k") :]))
        return Instance(name, "directed", n, arcs, True, planted)
    if name == "tri":
        # 1/1 1/1 1/1: fixed, two realizations (the two directed 3-cycles)
        return Instance(name, "directed", 3, [(0, 1), (1, 2), (2, 0)], True)
    if name == "n60":
        return Instance(name, "directed", 60, sparse_digraph(rng, 60, 180), True)
    raise KeyError(name)


def build_instances(names, seed: int, directory: str) -> dict[str, Instance]:
    """Build and write the named instances; same seed, same bytes."""
    os.makedirs(directory, exist_ok=True)
    out = {}
    for name in names:
        inst = _build(name, seed)
        inst.write(directory)
        out[name] = inst
    return out

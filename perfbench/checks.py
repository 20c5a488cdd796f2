"""Output checks for every benchmarked command.

Each check takes the parsed JSON a command printed, the command and the
instance it ran on, and returns a list of problems; an empty list passes.
The canonical key is recomputed here with a linear-time encoder on the
package's ``pair_index`` / ``arc_index`` grid, independently of the package.
"""

from __future__ import annotations

import math

from inputs import Instance
from workloads import Command


def key_hex(kind: str, n: int, pairs) -> str:
    """Hex of the bitstring over the fixed vertex-pair grid, in O(n^2/8 + m)."""
    if kind == "undirected":
        buf = bytearray((n * (n - 1) // 2 + 7) // 8)
        for u, v in pairs:
            if u > v:
                u, v = v, u
            i = u * n - u * (u + 1) // 2 + v - u - 1
            buf[i >> 3] |= 1 << (i & 7)
    else:
        buf = bytearray((n * (n - 1) + 7) // 8)
        for u, v in pairs:
            i = u * (n - 1) + v - (v > u)
            buf[i >> 3] |= 1 << (i & 7)
    return format(int.from_bytes(buf, "little"), "x")


def check_graph(g: dict, inst: Instance) -> list[str]:
    """Simple, the input's exact degree sequence, and a matching key."""
    errs = []
    if g.get("kind") != inst.kind or g.get("n") != inst.n:
        return [f"graph is {g.get('kind')} n={g.get('n')}, want {inst.kind} n={inst.n}"]
    pairs = [tuple(p) for p in g["edges"]]
    n = inst.n
    if any(not (0 <= u < n and 0 <= v < n) or u == v for u, v in pairs):
        errs.append("edge out of range or loop")
    if inst.kind == "undirected":
        if any(u > v for u, v in pairs):
            errs.append("undirected edge not stored low-high")
        pairs = [(min(u, v), max(u, v)) for u, v in pairs]
    if len(set(pairs)) != len(pairs):
        errs.append("parallel edges")
    if not errs:
        got = Instance("out", inst.kind, n, pairs).degrees()
        if got != inst.degrees():
            drift = sum(1 for a, b in zip(got, inst.degrees()) if a != b)
            errs.append(f"degree sequence drifted at {drift} vertices")
        if g.get("canonical_key") != key_hex(inst.kind, n, pairs):
            errs.append("canonical_key does not match the edges")
    return errs


def check_counts(freq: dict, runs: int, what: str) -> list[str]:
    """Every value is k/runs for a whole k with 1 <= k <= runs."""
    counts = [f * runs for f in freq.values()]
    if any(abs(c - round(c)) > 1e-6 or not 1 <= round(c) <= runs for c in counts):
        return [f"{what} holds a value that is not a multiple of 1/runs in (0, 1]"]
    return []


def check_frequencies(freq: dict, runs: int, what: str) -> list[str]:
    """Values are multiples of 1/runs and sum to 1."""
    errs = check_counts(freq, runs, what)
    if not errs and round(sum(f * runs for f in freq.values())) != runs:
        errs.append(f"{what} does not sum to 1")
    return errs


def check_sample(out: dict, cmd: Command, inst: Instance) -> list[str]:
    errs = []
    if (out.get("mode"), out.get("tau")) != (cmd.mode, cmd.tau):
        errs.append("mode or tau not echoed")
    if out["moves"] + out["loops"] != cmd.tau * cmd.runs:
        errs.append(f"moves+loops={out['moves'] + out['loops']} != tau*runs={cmd.tau * cmd.runs}")
    errs += check_graph(out["final"], inst)
    if cmd.runs > 1:
        if out.get("runs") != cmd.runs:
            errs.append("runs not echoed")
        errs += check_frequencies(out["visit_frequency"], cmd.runs, "visit_frequency")
        if out["final"].get("canonical_key") not in out["visit_frequency"]:
            errs.append("final realization missing from visit_frequency")
    return errs


def check_realize(out: dict, cmd: Command, inst: Instance) -> list[str]:
    return check_graph(out, inst)


def check_recognize(out: dict, cmd: Command, inst: Instance) -> list[str]:
    errs = []
    sets = [tuple(t) for t in out["cycle_sets"]]
    if out["component_count_log2"] != len(sets):
        errs.append("component_count_log2 != number of cycle sets")
    if out["is_arc_swap"] != (not sets):
        errs.append("is_arc_swap disagrees with the cycle sets")
    if (out["reduced_sequence"] is None) != out["is_arc_swap"]:
        errs.append("reduced_sequence must be null exactly for arc-swap sequences")
    verts = [v for t in sets for v in t]
    if any(len(set(t)) != 3 for t in sets) or len(set(verts)) != len(verts):
        errs.append("cycle sets are not disjoint triples")
    elif sets:
        want = [list(p) for p in inst.degrees()]
        for v in verts:
            want[v][0] -= 1
            want[v][1] -= 1
        if out["reduced_sequence"] != " ".join(f"{a}/{b}" for a, b in want):
            errs.append("reduced_sequence is not the input minus one 3-cycle per set")
    if inst.planted is not None:
        got = sorted(tuple(sorted(t)) for t in sets)
        if got != inst.planted:
            errs.append(f"cycle sets {len(got)} differ from the {len(inst.planted)} planted")
    return errs


def _arc_totals(freq: dict, runs: int, n: int) -> tuple[list[int], list[int]]:
    outs = [0] * n
    ins = [0] * n
    for arc, f in freq.items():
        u, v = map(int, arc.split())
        c = round(f * runs)
        outs[u] += c
        ins[v] += c
    return outs, ins


def check_stats(out: dict, cmd: Command, inst: Instance) -> list[str]:
    runs = cmd.runs
    errs = []
    if (out.get("mode"), out.get("tau"), out.get("runs")) != (cmd.mode, cmd.tau, runs):
        errs.append("mode, tau or runs not echoed")
    errs += check_frequencies(out["visit_frequency"], runs, "visit_frequency")
    errs += check_counts(out["arc_frequency"], runs, "arc_frequency")
    if not errs:
        # every realization has each vertex's degrees, so do the run totals
        outs, ins = _arc_totals(out["arc_frequency"], runs, inst.n)
        want = inst.degrees()
        if [(a * runs, b * runs) for a, b in want] != list(zip(outs, ins)):
            errs.append("arc_frequency totals drift from the degree sequence")
    if inst.kind == "directed":
        if sum(out["motif_counts"].values()) != runs:
            errs.append("motif_counts do not sum to runs")
    if inst.name == "tri":
        # 1/1 1/1 1/1 has two realizations, each drawn with probability 1/2
        keys = {key_hex("directed", 3, c) for c in ([(0, 1), (1, 2), (2, 0)], [(1, 0), (2, 1), (0, 2)])}
        sigma = math.sqrt(0.25 / runs)
        visits = out["visit_frequency"]
        if set(visits) != keys:
            errs.append("visit_frequency keys are not the two directed 3-cycles")
        elif any(abs(f - 0.5) > 4 * sigma for f in visits.values()):
            errs.append(f"a 3-cycle frequency lies beyond 4 sigma of 1/2: {sorted(visits.values())}")
    if inst.planted is not None and cmd.mode == "plain":
        corrected = out.get("corrected_frequency") or {}
        for t in inst.planted:
            for u in t:
                for v in t:
                    if u != v and corrected.get(f"{u} {v}") != 0.5:
                        errs.append(f"cycle arc {u} {v} not corrected to 0.5")
    return errs


CHECKS = {
    "sample": check_sample,
    "realize": check_realize,
    "recognize": check_recognize,
    "stats": check_stats,
}


def check(out: dict, cmd: Command, inst: Instance) -> list[str]:
    """All problems with one command's output; malformed JSON is a problem too."""
    try:
        return CHECKS[cmd.sub](out, cmd, inst)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed {cmd.sub} output: {exc!r}"]

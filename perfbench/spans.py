"""Spans around calls into the package's public functions, and their arithmetic.

A :class:`Recorder` wraps each measured function under every name a caller
looks it up by (``degswap.stats.run_chain`` as well as
``degswap.chain.run_chain``), keeps finished spans in memory and writes them
as JSON lines to ``<dir>/spans-<pid>.jsonl``.  The main process writes once
at the end; a forked pool worker, where ``atexit`` never runs, writes after
each of its top-level spans.  Parents are tracked within one process only,
so a span's self time excludes work done in other processes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# measured layer -> functions timed at its boundary
MEASURED = {
    "core": ("parse_edgelist", "canonical_key"),
    "realize": ("realize_directed", "realize_undirected", "is_digraphical"),
    "chain": ("run_chain",),
    "arcswap": ("recognize", "detect_induced_cycle_sets", "arc_probability_bias"),
    "stats": ("ensemble_stats", "count_directed_3cycles"),
}


def _chain_counts(args, result) -> dict:
    return {"steps": args[1].tau, "moves": result.moves}


EXTRAS = {"chain.run_chain": _chain_counts}


class Recorder:
    def __init__(self, directory: str):
        self.directory = directory
        self.spans: list[list] = []  # [name, id, parent, start, end, extra]
        self.stack: list[int] = []
        self.next_id = 0
        self.main_pid = os.getpid()
        os.register_at_fork(after_in_child=self._forget_parent_state)

    def _forget_parent_state(self) -> None:
        self.spans = []
        self.stack = []

    def add(self, name: str, start: float, end: float, extra=None) -> None:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.next_id, parent, start, end, extra])
        self.next_id += 1

    def wrap(self, name: str, fn):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                if extra_of is not None and result is not None:
                    extra = extra_of(args, result)
                self.spans.append([name, sid, parent, start, end, extra])
                if not self.stack and os.getpid() != self.main_pid:
                    self.flush()

        return wrapper

    def install(self) -> None:
        """Replace every module-level reference to each measured function."""
        modules = [m for k, m in sys.modules.items() if k == "degswap" or k.startswith("degswap.")]
        for layer, names in MEASURED.items():
            home = sys.modules[f"degswap.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        data = "".join(json.dumps(s) + "\n" for s in self.spans).encode()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self.spans = []


def load(directory: str) -> list[dict]:
    """Every span written under ``directory``, tagged with its process id."""
    spans = []
    for fname in sorted(os.listdir(directory)):
        if not (fname.startswith("spans-") and fname.endswith(".jsonl")):
            continue
        pid = int(fname[len("spans-") : -len(".jsonl")])
        with open(os.path.join(directory, fname), encoding="utf-8") as fh:
            for line in fh:
                name, sid, parent, start, end, extra = json.loads(line)
                spans.append(
                    {"name": name, "pid": pid, "id": sid, "parent": parent,
                     "start": start, "end": end, "extra": extra or {}}
                )
    return spans


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its same-process children cover."""
    children: dict[tuple[int, int], list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["pid"], s["parent"]), []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"])
        - covered(children.get((s["pid"], s["id"]), ()), s["start"], s["end"])
        for s in spans
    ]

"""Compare the chain's CPU cost per step between two checkouts of the repository.

Usage (from anywhere):

    python3 scripts/step_cost.py PARENT_DIR CHANGE_DIR --rounds 6

It builds the benchmark's ``sparse-di``, ``sparse-un``, ``dense-di`` and
``star`` inputs with ``perfbench/inputs.py`` and times ``run_chain`` on
them in six cases: ``full`` and ``plain`` on ``sparse-di``, ``undirected``
on ``sparse-un``, ``full`` and ``plain`` on ``dense-di`` and ``undirected``
on ``star``.
Each round runs every case in one fresh process per tree, ``src`` of that
tree on the path, and the trees take turns at going first.  A process
plans each run once, then takes the best of ``REPEATS`` runs of
``time.process_time``, so a figure is CPU time in the loop (plus one O(m)
copy of the start graph) divided by the steps.  After the timed runs it
runs each case once more with ``random.Random`` in ``degswap.chain``
replaced by a subclass that counts the ``getrandbits`` calls and the bits
they draw: counts, unlike times, repeat exactly.

For each case it prints the µs per step of both trees, as the minimum and
the median over the rounds, the median over the rounds of the change's
time divided by the parent's, and in how many rounds the change was
faster; then the ``getrandbits`` calls and random bits per step of both
trees.  The ``perfbench`` modules are imported from this script's checkout without
writing bytecode, so the benchmark directory is left as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from inputs import build_instances  # noqa: E402

REPEATS = 5  # timed runs per case and process; the best one counts
SEED = 7  # benchmark input seed

# (label, instance, mode, steps per run)
CASES = [
    ("sparse-full", "sparse-di", "full", 100_000),
    ("sparse-plain", "sparse-di", "plain", 100_000),
    ("sparse-undirected", "sparse-un", "undirected", 100_000),
    ("dense-full", "dense-di", "full", 2_000_000),
    ("dense-plain", "dense-di", "plain", 2_000_000),
    ("star-undirected", "star", "undirected", 100_000),
]

# argv: src dir, repeats, then (path, mode, steps) per case; prints, as JSON,
# [µs, getrandbits calls, random bits] per step for each case
CHILD = """
import json, random, sys, time, types
sys.path.insert(0, sys.argv[1])
import degswap.chain
from degswap.chain import ChainConfig, plan_chain, run_chain
from degswap.core import parse_edgelist


class Counting(random.Random):
    calls = bits = 0

    def getrandbits(self, k):
        Counting.calls += 1
        Counting.bits += k
        return super().getrandbits(k)


repeats = int(sys.argv[2])
rest = sys.argv[3:]
out = []
for path, mode, steps in zip(rest[0::3], rest[1::3], rest[2::3]):
    with open(path, encoding="utf-8") as fh:
        plan = plan_chain(parse_edgelist(fh.read()), mode)
    cfg = ChainConfig(tau=int(steps), mode=mode, seed=7)
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        run_chain(plan, cfg)
        best = min(best, time.process_time() - start)
    Counting.calls = Counting.bits = 0
    degswap.chain.random = types.SimpleNamespace(Random=Counting)
    run_chain(plan, cfg)
    degswap.chain.random = random
    out.append([x / int(steps) for x in (best * 1e6, Counting.calls, Counting.bits)])
print(json.dumps(out))
"""


def measure(tree: str, case_argv: list[str]) -> list[list[float]]:
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, os.path.join(tree, "src"), str(REPEATS), *case_argv],
        capture_output=True, text=True, cwd=tree, check=True,
    )
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout to compare against")
    parser.add_argument("change", help="checkout under test")
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    trees = (os.path.abspath(args.parent), os.path.abspath(args.change))
    times: dict[str, list[list[float]]] = {t: [] for t in trees}
    with tempfile.TemporaryDirectory() as work:
        instances = build_instances(sorted({c[1] for c in CASES}), SEED, work)
        case_argv = [
            x for _, name, mode, steps in CASES for x in (instances[name].path, mode, str(steps))
        ]
        for r in range(args.rounds):
            for tree in trees if r % 2 == 0 else trees[::-1]:
                times[tree].append(measure(tree, case_argv))
    parent, change = (times[t] for t in trees)
    print(f"{'case':<18} {'parent min':>10} {'change min':>10} "
          f"{'parent med':>10} {'change med':>10} {'ratio med':>9}  change faster")
    for k, (label, *_) in enumerate(CASES):
        a = [row[k][0] for row in parent]
        b = [row[k][0] for row in change]
        faster = sum(y < x for x, y in zip(a, b))
        ratio = statistics.median(y / x for x, y in zip(a, b))
        print(f"{label:<18} {min(a):>10.3f} {min(b):>10.3f} {statistics.median(a):>10.3f} "
              f"{statistics.median(b):>10.3f} {ratio:>9.3f}  {faster}/{len(a)}")
    print(f"\n{'case':<18} {'parent calls':>12} {'change calls':>12} "
          f"{'parent bits':>11} {'change bits':>11}  (per step)")
    for k, (label, *_) in enumerate(CASES):
        (_, ca, ba), (_, cb, bb) = parent[-1][k], change[-1][k]
        print(f"{label:<18} {ca:>12.4f} {cb:>12.4f} {ba:>11.2f} {bb:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

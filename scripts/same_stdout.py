"""Compare the command line's output between two checkouts of the repository.

Usage (from anywhere):

    python3 scripts/same_stdout.py PARENT_DIR CHANGE_DIR --seeds 1 7

For each seed it builds the benchmark's inputs with ``perfbench/inputs.py``
and runs every command of ``perfbench/workloads.py`` on both trees, then a
fixed list of ``enumerate``, ``generate`` and invalid-input commands once.
Each command runs as ``degswap.cli.main`` with ``src`` of its tree on the
path, as the benchmark runs it.  Every difference in exit code, stdout or
stderr is printed; the exit status is 1 when there is one, else 0.

The ``perfbench`` modules are imported from this script's checkout without
writing bytecode, so the benchmark directory is left as it is.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from inputs import build_instances  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BOOT = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from degswap.cli import main; sys.exit(main(sys.argv[1:]))"
)
TIMEOUT_S = 300

# (label, command line, stdin) run once per tree, beside the benchmark commands
EXTRA = [
    ("enumerate-psi", "enumerate --degrees '2 2 2 2 2' --kind psi", None),
    ("enumerate-phi", "enumerate --degrees '1/1 1/1 1/1 1/1' --kind phi", None),
    ("enumerate-phibar-dot", "enumerate --degrees '2/1 1/2 1/1 1/1' --kind phibar --format dot", None),
    ("enumerate-psi-dot", "enumerate --degrees '2 2 2 2 1 1' --kind psi --format dot", None),
    ("enumerate-phi-antiparallel-dot", "enumerate --degrees '2/2 2/2 2/2 2/2' --kind phi --format dot", None),
    ("enumerate-phi-no-2paths-dot", "enumerate --degrees '1/0 0/1 1/0 0/1' --kind phi --format dot", None),
    ("generate-example1", "generate --family example1 --blocks 3", None),
    ("generate-one-direction", "generate --family one-direction --format edgelist", None),
    ("generate-clique-partition", "generate --family clique-partition --blocks 2", None),
    ("realize-edgelist", "realize --degrees '3 3 2 2 2' --format edgelist", None),
    ("sample-stdin", "sample --edgelist - --tau 500", "undirected n=5\n0 1\n1 2\n2 3\n3 4\n4 0\n"),
    ("bad-header", "sample --edgelist -", "mixed n=3\n0 1\n"),
    ("bad-range", "recognize --edgelist -", "directed n=3\n5 1\n"),
    ("duplicate-edge", "recognize --edgelist -", "undirected n=3\n0 1\n1 0\n"),
    ("not-graphical", "realize --degrees '3 1'", None),
    ("enumerate-too-large", "enumerate --degrees '1 1 1 1 1 1 1 1 1 1 1 1' --kind psi", None),
    ("enumerate-unrealizable-psi", "enumerate --degrees '3 3 1 1' --kind psi", None),
    ("enumerate-unrealizable-phi-dot", "enumerate --degrees '1/1' --kind phi --format dot", None),
    ("enumerate-unrealizable-phibar", "enumerate --degrees '1/1' --kind phibar", None),
]


def run(tree: str, argv: list[str], stdin: str | None) -> tuple[int, bytes, bytes]:
    done = subprocess.run(
        [sys.executable, "-c", BOOT, os.path.join(tree, "src"), *argv],
        input=None if stdin is None else stdin.encode(),
        capture_output=True, cwd=tree, timeout=TIMEOUT_S,
    )
    return done.returncode, done.stdout, done.stderr


def compare(label: str, trees: tuple[str, str], argv: list[str], stdin=None) -> list[str]:
    (code_a, out_a, err_a), (code_b, out_b, err_b) = (run(t, argv, stdin) for t in trees)
    problems = []
    if code_a != code_b:
        problems.append(f"exit code {code_a} -> {code_b}")
    if out_a != out_b:
        problems.append(f"stdout differs ({len(out_a)} -> {len(out_b)} bytes)")
    if err_a != err_b:
        problems.append(f"stderr {err_a[-200:]!r} -> {err_b[-200:]!r}")
    status = "; ".join(problems) or f"same (exit {code_a}, {len(out_a)} stdout bytes)"
    print(f"{label}: {status}", flush=True)
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout to compare against")
    parser.add_argument("change", help="checkout under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args(argv)
    trees = (os.path.abspath(args.parent), os.path.abspath(args.change))
    differing = 0
    cmds = [c for cmds in WORKLOADS.values() for c in cmds]
    with tempfile.TemporaryDirectory() as work:
        for seed in args.seeds:
            instances = build_instances(
                sorted({c.instance for c in cmds}), seed, os.path.join(work, str(seed))
            )
            for c in cmds:
                inst = instances[c.instance]
                cmd_argv = c.argv(inst.path, not inst.as_sequence, seed)
                differing += bool(compare(f"seed {seed} {c.label}", trees, cmd_argv))
    for label, line, stdin in EXTRA:
        differing += bool(compare(label, trees, shlex.split(line), stdin))
    print(f"{differing} command(s) differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands: realize, sample, recognize, enumerate, generate, stats.  JSON
goes to stdout by default; exit code 0 on success, 2 on invalid input, 3 on
a resource limit or when memory runs out.  Seeds default to a fixed
constant so published runs reproduce; pass ``--seed entropy`` to opt into
randomness.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import sys
from typing import Optional

from .core import (
    DegreeSequence,
    DiDegreeSequence,
    Digraph,
    Graph,
    canonical_key,
    format_degree_sequence,
    format_edgelist,
    parse_degree_sequence,
    parse_edgelist,
)
from .errors import InvalidInputError, RealizationError, ResourceLimitError
from .names import (
    DEFAULT_SEED,
    FAMILIES,
    FAMILY_EXAMPLE1,
    KINDS,
    MODE_FULL,
    MODE_UNDIRECTED,
    MODES,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _on_first_use(name: str):
    """The package's submodule ``name``, executed on its first attribute access.

    The module is registered in ``sys.modules`` (and on the package) at once,
    so anything that looks it up there after ``import degswap.cli`` finds it,
    but only a subcommand that uses it pays for loading it.
    """
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


# the realizers, the chain, the recognizer, and the ensemble layer, which
# forks its blocks of runs; statespace, generators and secrets are imported
# inside the subcommands that use them
realize = _on_first_use("realize")
chain = _on_first_use("chain")
arcswap = _on_first_use("arcswap")
stats = _on_first_use("stats")


def _read_text(path: str) -> str:
    """The text of file ``path``, or of stdin for ``-``, which must be UTF-8."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise InvalidInputError(f"{name} is not UTF-8 text: {exc}") from exc


def _parse_seed(text: str) -> int:
    if text == "entropy":
        import secrets

        return secrets.randbits(63)
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad seed {text!r}") from exc


def _load_sequence(args) -> DegreeSequence | DiDegreeSequence:
    if args.degrees is not None:
        return parse_degree_sequence(args.degrees)
    if args.degrees_file is not None:
        return parse_degree_sequence(_read_text(args.degrees_file))
    raise InvalidInputError("need --degrees or --degrees-file")


def _realize(s: DegreeSequence | DiDegreeSequence) -> Graph | Digraph:
    if isinstance(s, DiDegreeSequence):
        return realize.realize_directed(s)
    return realize.realize_undirected(s)


def _load_graph_or_sequence(args):
    """(graph, sequence) with the graph realized on demand."""
    if getattr(args, "edgelist", None) is not None:
        g = parse_edgelist(_read_text(args.edgelist))
        return g, g.degree_sequence()
    s = _load_sequence(args)
    return _realize(s), s


def _emit(payload: str) -> None:
    sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


_CONTAINERS = (dict, list, tuple)


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, without its slow path.

    With ``indent`` set, :mod:`json` encodes in pure Python.  Here the C
    encoder writes every container whose members are all scalars in one
    call, with the indented item separator (an encoded scalar never holds a
    raw newline); a list of equal-length int lists (the edge list) is filled
    from one ``%d`` template; only the containers that hold containers are
    walked in Python.  The pieces go into one list, joined once.
    """
    out: list[str] = []
    _put(payload, "\n", out)
    return "".join(out)


def _put(value, nl: str, out: list[str]) -> None:
    """Append the pieces of ``value`` to ``out``; ``nl`` is its own line start."""
    if not isinstance(value, _CONTAINERS):
        out.append(json.dumps(value))
        return
    is_dict = isinstance(value, dict)
    if not value:
        out.append("{}" if is_dict else "[]")
        return
    inner = nl + "  "
    sep = "," + inner
    members = value.values() if is_dict else value
    out.append("{" + inner if is_dict else "[" + inner)
    if not any(isinstance(v, _CONTAINERS) for v in members):
        out.append(json.dumps(value, separators=(sep, ": "))[1:-1])
    elif not is_dict and _int_rows(value):
        row = "[" + ",".join([inner + "  %d"] * len(value[0])) + inner + "]"
        out.append(sep.join([row] * len(value)) % tuple(itertools.chain.from_iterable(value)))
    else:
        for i, item in enumerate(value.items() if is_dict else value):
            if i:
                out.append(sep)
            if is_dict:
                key, item = item
                # the key as json.dumps converts and quotes it
                out.append(json.dumps({key: 0})[1:-4] + ": ")
            _put(item, inner, out)
    out.append(nl + ("}" if is_dict else "]"))


def _int_rows(value) -> bool:
    """True when ``value`` is a list of int lists of one non-zero length."""
    return (
        set(map(type, value)) <= {list, tuple}
        and len(set(map(len, value))) == 1
        and len(value[0]) > 0
        and set(map(type, itertools.chain.from_iterable(value))) == {int}
    )


def _graph_json(g: Graph | Digraph) -> dict:
    return {
        "kind": g.kind,
        "n": g.n,
        "edges": sorted(g.pairs()),
        "canonical_key": canonical_key(g).hex(),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_realize(args) -> int:
    g = _realize(_load_sequence(args))
    if args.format == "edgelist":
        _emit(format_edgelist(g))
    else:
        _emit(_dumps(_graph_json(g)))
    return EXIT_OK


def _mode_for(args, s) -> str:
    if args.mode is not None:
        return args.mode
    return MODE_UNDIRECTED if isinstance(s, DegreeSequence) else MODE_FULL


def _cmd_sample(args) -> int:
    if args.runs < 1:
        raise InvalidInputError("--runs must be >= 1")
    if args.workers < 1:
        raise InvalidInputError("--workers must be >= 1")
    if args.runs > 1 and args.format == "edgelist":
        raise InvalidInputError("--emit edgelist prints one graph; it needs --runs 1")
    g0, s = _load_graph_or_sequence(args)
    mode = _mode_for(args, s)
    seed = _parse_seed(args.seed)
    cfg = chain.ChainConfig(tau=args.tau, mode=mode, seed=seed)
    if args.runs == 1:
        result = chain.run_chain(g0, cfg)
        if args.format == "edgelist":
            _emit(format_edgelist(result.graph))
            return EXIT_OK
        _emit(
            _dumps(
                {
                    "mode": mode,
                    "tau": args.tau,
                    "seed": seed,
                    "moves": result.moves,
                    "loops": result.loops,
                    "final": _graph_json(result.graph),
                }
            )
        )
        return EXIT_OK

    total = stats.run_ensemble(g0, cfg, args.runs, args.workers)
    _emit(
        _dumps(
            {
                "mode": mode,
                "tau": args.tau,
                "seed": seed,
                "runs": args.runs,
                "moves": total.moves,
                "loops": args.runs * args.tau - total.moves,
                "visit_frequency": {
                    k: v / args.runs for k, v in sorted(total.keys.items())
                },
                "final": _graph_json(type(g0)(g0.n, total.last)),
            }
        )
    )
    return EXIT_OK


def _cmd_recognize(args) -> int:
    if args.edgelist is not None:
        g = parse_edgelist(_read_text(args.edgelist))
        if not isinstance(g, Digraph):
            raise InvalidInputError("recognize needs a directed input")
        s = g.degree_sequence()
    else:
        s = _load_sequence(args)
        if not isinstance(s, DiDegreeSequence):
            raise InvalidInputError("recognize needs a directed degree sequence")
    report = arcswap.recognize(s)
    _emit(
        _dumps(
            {
                "is_arc_swap": report.is_arc_swap,
                "cycle_sets": [list(cs.vertices) for cs in report.cycle_sets],
                "component_count_log2": len(report.cycle_sets),
                "reduced_sequence": (
                    None
                    if report.reduced_sequence is None
                    else format_degree_sequence(report.reduced_sequence)
                ),
            }
        )
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from . import statespace

    s = _load_sequence(args)
    realize.require_realizable(s)  # fails as under realize, before the size bound
    sg = statespace.build_state_graph(s, args.kind, max_n=args.max_n)
    if args.format == "dot":
        _emit(statespace.to_dot(sg))
        return EXIT_OK
    props = statespace.check_properties(sg)
    if sg.kind == statespace.KIND_PHIBAR:
        arc_swap = arcswap.recognize(s).is_arc_swap
    else:
        arc_swap = None
    bounds = statespace.check_diameter_bounds(sg, arc_swap=arc_swap)
    _emit(
        _dumps(
            {
                "kind": sg.kind,
                "node_count": sg.node_count,
                "degree": props.degree,
                "symmetric": props.symmetric,
                "regular": props.regular,
                "non_bipartite": props.non_bipartite,
                "components": props.component_sizes,
                "diameter": max(props.diameters) if props.diameters else 0,
                "bounds_ok": bounds.ok,
                "bounds_applicable": bounds.applicable,
            }
        )
    )
    return EXIT_OK


def _cmd_generate(args) -> int:
    from .generators import BlockedInstanceSpec, generate_blocked

    spec = BlockedInstanceSpec(
        blocks=args.blocks,
        family=args.family,
        attachment_size=args.attachment_size,
        independent_size=args.independent_size,
    )
    g = generate_blocked(spec)
    if args.format == "json":
        payload = _graph_json(g)
        payload["degree_sequence"] = format_degree_sequence(g.degree_sequence())
        _emit(_dumps(payload))
    else:
        _emit(format_edgelist(g))
    return EXIT_OK


def _cmd_stats(args) -> int:
    g0, s = _load_graph_or_sequence(args)
    mode = _mode_for(args, s)
    seed = _parse_seed(args.seed)
    cfg = chain.ChainConfig(tau=args.tau, mode=mode, seed=seed)
    report = stats.ensemble_stats(s, cfg, args.runs, workers=args.workers, g0=g0)
    payload = {
        "mode": mode,
        "tau": args.tau,
        "runs": report.runs,
        "seed": seed,
        "arc_frequency": {f"{u} {v}": f for (u, v), f in report.arc_frequency.items()},
        "visit_frequency": {
            k: v / report.runs for k, v in sorted(report.final_keys.items())
        },
    }
    if report.motif_counts is not None:
        payload["motif_counts"] = {
            str(k): v for k, v in sorted(report.motif_counts.items())
        }
    if report.corrected_frequency is not None:
        payload["corrected_frequency"] = {
            f"{u} {v}": f for (u, v), f in report.corrected_frequency.items()
        }
    _emit(_dumps(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_sequence_args(p: argparse.ArgumentParser, with_edgelist: bool = False):
    p.add_argument("--degrees", help="degree sequence, e.g. '2 2 2' or '1/1 1/1 1/1'")
    p.add_argument("--degrees-file", help="file with a degree sequence ('-' = stdin)")
    if with_edgelist:
        p.add_argument("--edgelist", help="edge-list file ('-' = stdin)")


_WORKERS_HELP = (
    "processes for --runs: the runs are cut into this many blocks (at most "
    "runs or CPUs); the command runs the first and forks one process for each other"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degswap",
        description="Sample graphs/digraphs with prescribed degrees by switching chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="construct one realization of a degree sequence")
    _add_sequence_args(p)
    p.add_argument("--format", choices=["edgelist", "json"], default="json")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("sample", help="run a switching chain")
    _add_sequence_args(p, with_edgelist=True)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--tau", type=int, default=1000, help="step count")
    p.add_argument("--seed", default=str(DEFAULT_SEED), help="integer or 'entropy'")
    p.add_argument("--runs", type=int, default=1, help="independent chains")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument(
        "--emit",
        "--format",
        dest="format",
        choices=["edgelist", "json"],
        default="json",
    )
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("recognize", help="detect induced cycle sets / arc-swap status")
    _add_sequence_args(p, with_edgelist=True)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("enumerate", help="build and check the explicit state graph")
    _add_sequence_args(p)
    p.add_argument(
        "--kind",
        choices=KINDS,
        required=True,
    )
    p.add_argument("--max-n", type=int, default=None, help="enumeration bound override")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("generate", help="emit a blocked instance")
    p.add_argument("--family", choices=FAMILIES, default=FAMILY_EXAMPLE1)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--attachment-size", type=int, default=3)
    p.add_argument("--independent-size", type=int, default=2)
    p.add_argument("--format", choices=["edgelist", "json"], default="json")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("stats", help="ensemble statistics over many chains")
    _add_sequence_args(p, with_edgelist=True)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--tau", type=int, default=1000)
    p.add_argument("--seed", default=str(DEFAULT_SEED))
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, RealizationError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INVALID
    except (ResourceLimitError, MemoryError) as exc:
        print(json.dumps({"error": str(exc) or "out of memory"}), file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

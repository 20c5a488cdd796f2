"""Switching Markov chains for graphs and digraphs with prescribed degrees.

The package constructs realizations of degree sequences, samples them
uniformly via degree-preserving switching chains, recognizes the degree
sequences for which plain arc swaps already suffice, and enumerates the
explicit chain state graphs at desk scale to verify their structure.

Importing the package loads no submodule: each name below, and each
submodule, is imported on first use (PEP 562), so the command line starts
without the modules its subcommand does not need.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_NAMES = {
    "arcswap": (
        "ArcBias",
        "ArcSwapReport",
        "InducedCycleSet",
        "arc_probability_bias",
        "detect_induced_cycle_sets",
        "find_breaking_walk",
        "recognize",
        "reduce_sequence",
    ),
    "chain": (
        "DEFAULT_SEED",
        "ChainConfig",
        "ChainPlan",
        "ChainResult",
        "MoveUniverse",
        "derive_seed",
        "plan_chain",
        "run_chain",
    ),
    "core": (
        "AlternatingCycle",
        "CanonicalKey",
        "DegreeSequence",
        "DiDegreeSequence",
        "Digraph",
        "Graph",
        "canonical_key",
        "format_degree_sequence",
        "format_edgelist",
        "parse_degree_sequence",
        "parse_edgelist",
    ),
    "errors": (
        "InternalInconsistencyError",
        "InvalidInputError",
        "RealizationError",
        "ResourceLimitError",
    ),
    "generators": ("BlockedInstanceSpec", "generate_blocked"),
    "realize": (
        "RealizabilityReport",
        "is_digraphical",
        "is_graphical",
        "realize_directed",
        "realize_undirected",
    ),
    "statespace": (
        "AlternatingWalk",
        "BoundReport",
        "ComparisonReport",
        "PropertyReport",
        "StateGraph",
        "SymmetricDifference",
        "build_state_graph",
        "check_diameter_bounds",
        "check_properties",
        "decompose_alternating",
        "empirical_transition_check",
        "enumerate_realizations",
        "find_disjoint_3walk",
        "symmetric_difference",
    ),
    "stats": ("StatsReport", "count_directed_3cycles", "ensemble_stats"),
}

# public name -> submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}

_SUBMODULES = frozenset(_NAMES) | {"cli", "names"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule as a package attribute
        return import_module(f"{__name__}.{name}")
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys() | _SUBMODULES)

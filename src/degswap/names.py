"""Names the command line offers as choices before it loads their modules.

The chain modes and default seed belong to :mod:`degswap.chain`, the
state-graph kinds to :mod:`degswap.statespace` and the blocked instance
families to :mod:`degswap.generators`; each re-exports its own.  They live
here so that building the parser imports none of those modules.
"""

MODE_UNDIRECTED = "undirected"
MODE_FULL = "full"
MODE_PLAIN = "plain"

MODES = (MODE_UNDIRECTED, MODE_FULL, MODE_PLAIN)

DEFAULT_SEED = 1729

KIND_PSI = "psi"
KIND_PHI = "phi"
KIND_PHIBAR = "phibar"

KINDS = (KIND_PSI, KIND_PHI, KIND_PHIBAR)

FAMILY_EXAMPLE1 = "example1"
FAMILY_ONE_DIRECTION = "one-direction"
FAMILY_CLIQUE_PARTITION = "clique-partition"

FAMILIES = (FAMILY_EXAMPLE1, FAMILY_ONE_DIRECTION, FAMILY_CLIQUE_PARTITION)

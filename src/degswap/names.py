"""Names the command line offers as choices before it loads their modules.

The state-graph kinds belong to :mod:`degswap.statespace` and the blocked
instance families to :mod:`degswap.generators`; both re-export them.  They
live here so that building the parser imports neither module.
"""

KIND_PSI = "psi"
KIND_PHI = "phi"
KIND_PHIBAR = "phibar"

KINDS = (KIND_PSI, KIND_PHI, KIND_PHIBAR)

FAMILY_EXAMPLE1 = "example1"
FAMILY_ONE_DIRECTION = "one-direction"
FAMILY_CLIQUE_PARTITION = "clique-partition"

FAMILIES = (FAMILY_EXAMPLE1, FAMILY_ONE_DIRECTION, FAMILY_CLIQUE_PARTITION)

"""rigikit: combinatorial and linear-algebraic rigidity, cross-validated.

Two independent engines answer the same question about a framework graph:

  * a count-matroid engine (vertex-capacitated pebble game, exhaustive
    partition oracles, M/P-connected decompositions), and
  * an exact linear-algebra engine over a large prime field (Pluecker
    coordinates, randomized rigidity matrices, Dilworth truncation).

The analysis layer compares them instance by instance; the CLI wraps it.
"""

from .analysis import analyze, fuzz_equivalence
from .count_matroid import (
    Decomposition,
    RankCertificate,
    fhat,
    fhat_bruteforce,
    is_independent,
    m_components,
    p_components,
    rank,
    rank_bruteforce,
    rank_value,
)
from .field import DEFAULT_PRIME, SplitMix64
from .graph import (
    CountProfile,
    GraphError,
    Multigraph,
    VertexKind,
    build_graph,
    expand_f,
    f_value,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME",
    "CountProfile",
    "Decomposition",
    "GraphError",
    "Multigraph",
    "RankCertificate",
    "SplitMix64",
    "VertexKind",
    "analyze",
    "build_graph",
    "expand_f",
    "f_value",
    "fhat",
    "fhat_bruteforce",
    "fuzz_equivalence",
    "is_independent",
    "m_components",
    "p_components",
    "rank",
    "rank_bruteforce",
    "rank_value",
]

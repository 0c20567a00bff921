"""rigikit: combinatorial and linear-algebraic rigidity, cross-validated.

Two independent engines answer the same question about a framework graph:

  * a count-matroid engine (vertex-capacitated pebble game, exhaustive
    partition oracles, M/P-connected decompositions), and
  * an exact linear-algebra engine over a large prime field (Pluecker
    coordinates, randomized rigidity matrices, Dilworth truncation).

The analysis layer compares them instance by instance; the CLI wraps it.
"""

from .analysis import analyze, decompose, fuzz_equivalence, truncate
from .graph import GraphError, build_graph

__version__ = "0.1.0"

# the public names, each described in README.md's "Library sketch"
__all__ = [
    "GraphError",
    "analyze",
    "build_graph",
    "decompose",
    "fuzz_equivalence",
    "truncate",
]

"""Shared helpers for the test suite: small random instances, brute oracles."""

from __future__ import annotations

from rigikit.field import SplitMix64, mod_inv
from rigikit.graph import Multigraph, VertexKind, build_graph


def random_kinded_graph(
    rng: SplitMix64,
    max_vertices: int = 6,
    max_edges: int = 8,
    rod_pct: int = 50,
    kinds=None,
) -> Multigraph:
    """Uniform edge count in [1, max_edges]; random body/rod kinds."""
    nv = 2 + rng.below(max_vertices - 1)
    if kinds is None:
        ks = [
            VertexKind.ROD if rng.below(100) < rod_pct else VertexKind.BODY
            for _ in range(nv)
        ]
    else:
        ks = [kinds] * nv
    ne = 1 + rng.below(max_edges)
    edges = []
    for _ in range(ne):
        u = rng.below(nv)
        v = rng.below(nv)
        while v == u:
            v = rng.below(nv)
        edges.append(("v%d" % u, "v%d" % v))
    return build_graph([("v%d" % i, k) for i, k in enumerate(ks)], edges)


def cube_graph(kind: VertexKind = VertexKind.ROD) -> Multigraph:
    vs = [("v%d" % i, kind) for i in range(8)]
    es = []
    for i in range(4):
        es.append(("v%d" % i, "v%d" % ((i + 1) % 4)))
        es.append(("v%d" % (i + 4), "v%d" % ((i + 1) % 4 + 4)))
        es.append(("v%d" % i, "v%d" % (i + 4)))
    return build_graph(vs, es)


def subsets_of(items):
    n = len(items)
    for mask in range(1 << n):
        yield [items[i] for i in range(n) if mask >> i & 1]


def rref_reference(rows, p: int):
    """Textbook Gauss-Jordan RREF (leftmost column, topmost row), the linalg reference.

    Returns (R, pivot_cols) with R the same shape as the input.
    """
    R = [[x % p for x in row] for row in rows]
    if not R:
        return R, []
    ncols = len(R[0])
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = -1
        for i in range(r, len(R)):
            if R[i][c]:
                pivot = i
                break
        if pivot < 0:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = mod_inv(R[r][c], p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][c]:
                m = R[i][c]
                R[i] = [(a - m * b) % p for a, b in zip(R[i], R[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(R):
            break
    return R, pivot_cols


def rank_reference(rows, p: int) -> int:
    return len(rref_reference(rows, p)[1])


def dense_rows(m):
    """A RigidityMatrix's sparse rows written out dense, m.ncols entries each."""
    out = []
    for row in m.rows:
        vec = [0] * m.ncols
        for c, x in row:
            vec[c] = x
        out.append(vec)
    return out


def mat_vec_reference(rows, vec, p: int):
    """Dense rows times a dense vector."""
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]

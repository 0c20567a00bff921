"""Shared helpers for the test suite: small random instances, brute oracles."""

from __future__ import annotations

from rigikit import linalg
from rigikit import rigidity as rg
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


def nullspace_reference(rows, ncols, p):
    """Kernel basis of dense rows from rref_reference, one vector per free column."""
    R, pivots = rref_reference(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r][fc]) % p
        basis.append(v)
    return basis


def kernel_basis_reference(m, trivials):
    """(kernel_dim, trivial_span_dim, nontrivial_dim) of a RigidityMatrix, the
    reference for rigidity.kernel_basis's rank-nullity read.

    It classifies an explicit kernel basis: trivials, the formal trivial
    family as (kind, sparse row) pairs, go first, written out dense, then
    each kernel vector that raises the rank of the growing span counts as
    nontrivial.
    """
    kern = nullspace_reference(dense_rows(m), m.ncols, m.p)
    current = [linalg.dense(motion, m.ncols) for _, motion in trivials]
    trivial_dim = cur_rank = rank_reference(current, m.p)
    nontrivial = 0
    for vec in kern:
        if cur_rank == len(kern):
            break
        cand = current + [vec]
        r = rank_reference(cand, m.p)
        if r > cur_rank:
            current, cur_rank = cand, r
            nontrivial += 1
    return len(kern), trivial_dim, nontrivial


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


def trivial_missed_reference(m, motions):
    """Kinds of the motions, (kind, sparse row) pairs, that some row of m does
    not annihilate: one dense product per motion, the reference for
    rigidity.verify_trivial_motions's one pass over the rows."""
    rows = dense_rows(m)
    return tuple(
        kind for kind, motion in motions
        if any(mat_vec_reference(rows, linalg.dense(motion, m.ncols), m.p))
    )


def det_reference(rows, p):
    """Exact determinant by cofactor expansion along the first row, mod p
    unless p is None; the reference for exterior.wedge_list's minors."""
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    n = len(rows)
    if n == 1:
        return norm(rows[0][0])
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += (-1) ** j * a * det_reference(minor, p)
    return norm(total)


def proportional(x, y) -> bool:
    """Projective equality of two KVectors: all 2 x 2 cross minors vanish."""
    n = len(x.coords)
    return not any(
        (x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i]) % x.p
        for i in range(n) for j in range(i + 1, n)
    )


def fundamental_circuit_reference(state, x, reach):
    """Basis part of the circuit in basis + x by candidate tests, the reference
    for count_matroid's reach-region read.

    Only the basis edges the reach region induces are tested: y is in the
    circuit when x fits once y is released.
    """
    edge = state.graph.edge
    return tuple(
        y for y in state.inserted
        if {edge(y).u, edge(y).v} <= reach and state.released([y]).try_insert(x)
    )


def graphic_union_reference(graph, d, rng, p):
    """The union of D = (d+1 choose 2) graphic matroids, untruncated: one free
    nonzero D-vector per edge, drawn from rng.spawn(edge index) and placed by
    rigidity.two_block_matrix; the reference for matrix_graphic_union's rows
    when no edge meets a rod normal."""
    D = d * (d + 1) // 2
    idx = graph.edge_index
    return rg.two_block_matrix(
        graph, D, p, lambda e: (rng.spawn(idx[e.id]).nonzero_vector(D, p),)
    )

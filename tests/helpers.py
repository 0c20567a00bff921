"""Shared helpers for the test suite: small random instances, brute oracles."""

from __future__ import annotations

from itertools import combinations, permutations, product

from rigikit import count_matroid as cm
from rigikit import linalg
from rigikit import rigidity as rg
from rigikit.analysis import FUZZ_MAX_EDGES
from rigikit.count_matroid import PebbleState
from rigikit.exterior import MAX_SAMPLE_RETRIES, ksubsets
from rigikit.field import SplitMix64, mod_inv
from rigikit.graph import Multigraph, VertexKind, build_graph, f_value
from rigikit.partitions import min_partition_table

MASK64 = (1 << 64) - 1


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
    """Determinant by cofactor expansion along the first row, mod p; the
    reference for exterior.wedge_list's minors."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            total += (-1) ** j * a * det_reference(minor, p)
    return total % p


def proportional(x, y, p) -> bool:
    """Projective equality of two coordinate tuples mod p: all 2 x 2 cross
    minors vanish."""
    n = len(x)
    return not any(
        (x[i] * y[j] - x[j] * y[i]) % p for i in range(n) for j in range(i + 1, n)
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


def p_components_reference(expanded, cert, prof):
    """count_matroid.p_components_of_expansion with its components sorted by
    first edge and each part re-checked as a union of whole copy sets: the
    reference for the one-pass grouping in edge order."""
    exp_graph, copies = expanded
    part_of = {cid: i for i, part in enumerate(cert.parts) for cid in part}
    result = []
    members = {}
    for e, ids in copies.items():
        idxs = {part_of.get(cid) for cid in ids}
        if idxs == {None}:
            result.append((e,))
        elif len(idxs) != 1:
            raise RuntimeError("copies of edge %r straddle several M-components" % e)
        else:
            members.setdefault(idxs.pop(), []).append(e)
    for i, es in members.items():
        if sorted(cert.parts[i]) != sorted(cid for e in es for cid in copies[e]):
            raise RuntimeError("M-component is not a union of whole copy sets")
        result.append(tuple(es))
    position = {e: k for k, e in enumerate(copies)}
    result.sort(key=lambda c: position[c[0]])
    dec = cm.Decomposition(kind="P", components=tuple(result))
    if copies:
        total = sum(f_value(exp_graph, [copies[e][0] for e in comp], prof)
                    for comp in dec.components)
        if total != cert.value:
            raise RuntimeError(
                "P-component decomposition is not a minimizer: "
                "sum f = %d but fhat(E) = %d" % (total, cert.value)
            )
    return dec


def expand_hinge_reference(graph):
    """rigidity.expand_hinge's rewrite of a valid body-hinge graph as a fresh
    build_graph over the same vertices and edges, hinges made rods and the
    rest bodies: the reference for the kinds swap."""
    kinds = [
        VertexKind.ROD if graph.kinds[v] == VertexKind.HINGE else VertexKind.BODY
        for v in graph.vertex_ids
    ]
    return build_graph(
        list(zip(graph.vertex_ids, kinds)), [(e.u, e.v, e.id) for e in graph.edges]
    )


# ---------------------------------------------------------------------------
# The draw stream, one call per coordinate


def splitmix64_step(state: int):
    """(next state, output) of the textbook splitmix64 step (Steele, Lea and
    Flood, OOPSLA 2014), the reference for field.SplitMix64's stream."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return state, z ^ (z >> 31)


def below_reference(state: int, n: int):
    """(next state, draw) of one uniform draw in [0, n) from splitmix64_step,
    by rejection on the top 64-bit range."""
    limit = (1 << 64) - (1 << 64) % n
    while True:
        state, x = splitmix64_step(state)
        if x < limit:
            return state, x % n


def random_point_in_span_reference(vectors, rng, p):
    """exterior.random_point_in_span one coordinate at a time: one rng.below(p)
    per vector, then the point's coordinates summed mod p term by term."""
    n = len(vectors[0])
    for _ in range(MAX_SAMPLE_RETRIES):
        coeffs = [rng.below(p) for _ in vectors]
        point = [0] * n
        for c, v in zip(coeffs, vectors):
            if c:
                for i in range(n):
                    point[i] = (point[i] + c * v[i]) % p
        if any(point):
            return tuple(point)
    raise ValueError("could not sample a nonzero point in the span at prime %d" % p)


def wedge2_reference(a, b, d, p):
    """a ^ b one 2 x 2 minor at a time, over the 1-based k-subsets."""
    return tuple(
        (a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]) % p for i, j in ksubsets(d, 2)
    )


def check_degree(x, k, d):
    """Reject coordinates that are not one per k-subset of {1..d+1}."""
    expected = len(ksubsets(d, k))
    if len(x) != expected:
        raise ValueError(
            "degree-%d vector over W=F^%d needs %d coordinates, got %d"
            % (k, d + 1, expected, len(x))
        )


def pairing(x, kx, y, ky, d, p):
    """The complementary pairing of coordinates x of degree kx and y of
    degree ky = d+1-kx:

        <x, y> = sum over k-subsets I of (-1)^(k(k+1)/2 + sum I) * x_I * y_{I^c},

    for decomposable arguments the determinant of their stacked spanning
    vectors.  rigidity reads a rod as its normal, the star of its Pluecker
    coordinates, and the tests pin this pairing against that dot product."""
    if kx + ky != d + 1:
        raise ValueError(
            "pairing needs complementary degrees k and d+1-k, got %d and %d" % (kx, ky)
        )
    check_degree(x, kx, d)
    check_degree(y, ky, d)
    index = {s: i for i, s in enumerate(ksubsets(d, ky))}
    universe = set(range(1, d + 2))
    total = 0
    for subset, c in zip(ksubsets(d, kx), x):
        sign = -1 if (kx * (kx + 1) // 2 + sum(subset)) % 2 else 1
        total += sign * c * y[index[tuple(sorted(universe - set(subset)))]]
    return total % p


def grassmann_check(x, k, d, p) -> bool:
    """All quadratic Pluecker relations for coordinates x of degree k = 2.

    x_ij x_mn - x_im x_jn + x_in x_jm = 0 for every i<j<m<n; for k=2 this
    characterizes decomposability, and the zero vector passes vacuously.
    """
    if k != 2:
        raise ValueError("grassmann_check applies to degree-2 elements")
    check_degree(x, k, d)
    idx = {s: i for i, s in enumerate(ksubsets(d, 2))}
    for i, j, m, n in combinations(range(1, d + 2), 4):
        val = (
            x[idx[(i, j)]] * x[idx[(m, n)]]
            - x[idx[(i, m)]] * x[idx[(j, n)]]
            + x[idx[(i, n)]] * x[idx[(j, m)]]
        )
        if val % p:
            return False
    return True


def check_pebble_invariant(state: PebbleState) -> None:
    """pebbles[v] + outdegree(v) == capacity(v), and no negative pebble count,
    at every vertex of the game."""
    for v, peb in state.pebbles.items():
        cap = state.prof.capacity_of(state.graph, v)
        if peb < 0 or peb + len(state.out[v]) != cap:
            raise RuntimeError("pebble invariant broken at vertex %r" % v)


def bar_config_reference(graph, rods, rng, p):
    """rigidity.sample_bar_config from the per-coordinate references: per edge
    from rng.spawn(edge index), a point of u's rod (or a free nonzero point),
    then one of v's, and their wedge, redrawn both while the wedge is zero."""
    d = rods.d
    bars = {}
    for idx, e in enumerate(graph.edges):
        sub = rng.spawn(idx)
        for _ in range(MAX_SAMPLE_RETRIES):
            x, y = (
                random_point_in_span_reference(rods.spans[v], sub, p)
                if v in rods.spans else sub.nonzero_vector(d + 1, p)
                for v in (e.u, e.v)
            )
            q = wedge2_reference(x, y, d, p)
            if any(q):
                bars[e.id] = q
                break
        else:
            raise ValueError("no bar for edge %r at prime %d" % (e.id, p))
    return bars


# ---------------------------------------------------------------------------
# The pebble game with its out-arcs walked in sorted order


class SortedPebbleState(PebbleState):
    """The pebble game whose searches walk each vertex's out-arcs in ascending
    edge-id order, the reference for PebbleState's insertion-order walk: the
    two differ only in which arcs they reverse."""

    def _find_pebble(self, u, v):
        visited = {u, v}
        parent = {}
        for root in (u, v):
            frames = [(root, iter(sorted(self.out[root])))]
            while frames:
                a, arcs = frames[-1]
                for eidx in arcs:
                    b = self.out[a][eidx]
                    if b in visited:
                        continue
                    visited.add(b)
                    parent[b] = (a, eidx)
                    if self.pebbles[b] > 0:
                        got = self._reverse_path(b, parent)
                        self.pebbles[b] -= 1
                        self.pebbles[got] += 1
                        return True, visited
                    frames.append((b, iter(sorted(self.out[b]))))
                    break
                else:
                    frames.pop()
        return False, visited


def sorted_pebble_game(graph, prof):
    """The final state of the sorted-order game over every edge, in edge order."""
    state = SortedPebbleState(graph, prof)
    for eid in graph.edge_ids:
        state.try_insert(eid)
    return state


def subset_check_reference(graph, prof):
    """(subsets checked, the first failure's reason or None) of fuzz_case's
    subset check one subset at a time: in mask order over the edge order, a
    fresh fhat game and a brute force of its own per subset."""
    order = graph.edge_ids
    checks = 0
    for mask in range(1, 1 << len(order)):
        F = [e for i, e in enumerate(order) if mask >> i & 1]
        lhs = cm.fhat(graph, F, prof)
        rhs = cm.fhat_bruteforce(graph, F, prof)
        checks += 1
        if lhs != rhs:
            return checks, "fhat(%r) = %d != brute force %d" % (F, lhs, rhs)
    return checks, None


def rank_bruteforce_reference(graph, eids, prof):
    """count_matroid.rank_bruteforce with its witness's parts from a second
    partition DP, over the non-free edges alone: the reference for the
    readback of the parts from bruteforce_tables' fhat table.

    The free part is the first submask, in numeric order, of least
    |F0| + fhat(rest); the rest's edges are re-indexed 0..k-1, and each part
    is the first, in the small table's submask order, attaining its minimum.
    """
    order, fmask, fhat_table = cm.bruteforce_tables(graph, eids, prof)
    n = len(order)
    full = (1 << n) - 1
    best_val, best_free = None, 0
    for m in range(full + 1):
        v = bin(m).count("1") + fhat_table[full ^ m]
        if best_val is None or v < best_val:
            best_val, best_free = v, m
    kept = [i for i in range(n) if not best_free >> i & 1]

    def cost(small):
        return fmask[sum(1 << i for j, i in enumerate(kept) if small >> j & 1)]

    best = min_partition_table(len(kept), cost)
    parts, m = [], (1 << len(kept)) - 1
    while m:
        low = m & (-m)
        rest = m ^ low
        t = rest
        while cost(t | low) + best[m ^ t ^ low] != best[m]:
            t = (t - 1) & rest
        parts.append(t | low)
        m ^= t | low
    return cm.RankCertificate(
        value=best_val,
        free_part=tuple(order[i] for i in range(n) if best_free >> i & 1),
        parts=tuple(tuple(order[i] for j, i in enumerate(kept) if part >> j & 1)
                    for part in parts),
    )


# ---------------------------------------------------------------------------
# Every small multigraph, for the bounded-exhaustive tier


def small_multigraphs(model, d):
    """Every multigraph on 2 and 3 vertices of a bar model, up to isomorphism,
    with at least one edge and at most analysis.FUZZ_MAX_EDGES in all.

    Each vertex pair carries 0..D+1 parallel bars, D = (d+1 choose 2); the
    kinds run over every mix the model takes (body-rod-bar: 1 to n-1 rods,
    listed first).  Of the labelled graphs the one kept per class is the
    least multiplicity tuple over the permutations that fix the kinds.
    Graphs come in a fixed order: by vertex count, then kind mix, then tuple.
    """
    D = d * (d + 1) // 2
    for n in (2, 3):
        pairs = list(combinations(range(n), 2))
        if model == "body-rod-bar":
            mixes = [["rod"] * r + ["body"] * (n - r) for r in range(1, n)]
        else:
            mixes = [[{"body-bar": "body", "rod-bar": "rod"}[model]] * n]
        for kinds in mixes:
            relabel = [[pairs.index(tuple(sorted((s[i], s[j])))) for i, j in pairs]
                       for s in permutations(range(n))
                       if all(kinds[s[i]] == kinds[i] for i in range(n))]
            for mult in product(range(D + 2), repeat=len(pairs)):
                if not 1 <= sum(mult) <= FUZZ_MAX_EDGES:
                    continue
                if any(tuple(mult[k] for k in r) < mult for r in relabel):
                    continue
                yield build_graph(
                    [("v%d" % i, k) for i, k in enumerate(kinds)],
                    [("v%d" % i, "v%d" % j)
                     for (i, j), m in zip(pairs, mult) for _ in range(m)],
                )

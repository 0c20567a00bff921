"""Exact prime-field rigidity matrices for each structural model.

Every matrix is a graph plus a map from edge to vectors: two_block_matrix
turns each vector alpha of an edge e = uv, a sparse row over one block,
into one row with alpha in the column block of u and -alpha in the block
of v.  The builders differ only in the vectors they contribute per edge:
a D-vector, free or in the flat its rod endpoints' normals cut out
(truncated graphic union), the bar's degree-2 Pluecker coordinates q_e
(body-bar, body-rod-bar), a basis of the bar flat on an endpoint pair's
first edge (edge flats), or a basis of (p(u) - p(v))^perp (direction;
block width d, else D = (d+1 choose 2)).
Column blocks hold motion vectors in the star-identified coordinates, so a
block vector x_v represents the degree-(d-1) motion whose star image is
x_v; under that identification row-times-motion is exactly the
complementary pairing.

An identified body-hinge graph is realized with each hinge read as a rod:
expand_hinge is the one rewrite of it, shared with the count side, and a
trial samples the rewrite's f-expansion (D-1 parallel bars per edge, the
graph count_side counts on) as a body-rod-bar framework.

Configurations are sampled uniformly over F_p.  A bar is the tuple of its
Pluecker coordinates q, the wedge of two points, and a rod is its normal in
F^D, the Hodge star of the rod's Pluecker coordinates: a bar q meets it
exactly when q . normal = 0.  Bars are built by the shared-point rule,
through a random point of each rod endpoint's subspace, so they are
decomposable and incident at once; the rod spins (trivial_motions) are the
one incidence check.

The edge-flat family is ranked without a matrix: flat_family_rank reads
its rank off the kernel, a small system over the DFS back edges of the
endpoint pairs, and matrix_edge_flats, the family as a matrix, is its
reference.

two_block_matrix is the only constructor of a RigidityMatrix in this
package and marks what it builds two_block: every row is +alpha in one
block and -alpha in another, so the columns j of all the blocks sum to
zero, the D constant motions lie in every kernel, and rank() grounds one
body (drops its block's columns) without changing the rank.  A direction
matrix also records its joints, and rank() grounds its dilation too: one
more column.  A two-block rank stops offering rows once the echelon holds
a pivot per kept column.  A matrix built by hand is unmarked and ranked
whole.

The formal trivial motions are sparse rows in linalg's format, written
only where they are nonzero: a constant motion meets every block, a rod
spin its rod's block alone.  verify_trivial_motions checks them against
every row in one pass over the rows, so its cost grows with the matrix's
pairs, not with rows times motions.  The motion space is read off the
rank by rank-nullity: kernel_basis gives its dimension, ncols - rank, and
the rank of the formal trivial family, once the trivial check has shown
that family to lie in the kernel.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Optional

from . import linalg
from .exterior import (
    MAX_SAMPLE_RETRIES, hodge_star, random_point_in_span, sample_span, wedge2,
)
from .field import SplitMix64
from .graph import GraphError, Multigraph, VertexKind


class ConfigError(ValueError):
    """Invalid rod/bar/joint configuration for the requested model."""


class RodConfig(NamedTuple):
    """Rod subspaces: a spanning (d-1)-set of vectors, and the normal in F^D
    (the star of the Pluecker vector) whose hyperplane holds the rod's bars."""

    d: int
    spans: Mapping[str, tuple[tuple[int, ...], ...]]
    normals: Mapping[str, tuple[int, ...]]


class BarConfig(NamedTuple):
    d: int
    p: int
    bars: Mapping[str, tuple[int, ...]]  # edge id -> degree-2 Pluecker coordinates


def sample_rod_config(graph: Multigraph, d: int, rng: SplitMix64, p: int) -> RodConfig:
    """One random (d-1)-dimensional subspace per rod vertex, all distinct.

    Two nonzero Pluecker vectors span the same subspace exactly when they
    are proportional, and so are their normals, the star being a signed
    permutation: they agree once each is scaled so that its first nonzero
    coordinate is 1.  A set of the scaled normals finds a repeated rod
    without comparing it to every earlier one.
    """
    spans: dict[str, tuple[tuple[int, ...], ...]] = {}
    normals: dict[str, tuple[int, ...]] = {}
    taken: set[tuple] = set()
    for i, v in enumerate(graph.vertex_ids):
        if graph.kinds[v] != VertexKind.ROD:
            continue
        sub = rng.spawn(i)
        for attempt in range(MAX_SAMPLE_RETRIES):
            vectors, minors = sample_span(d, d - 1, sub, p)
            normal = hodge_star(minors, d, d - 1, p)
            point = linalg.monic(normal, p)
            if point not in taken:
                break
        else:
            raise ConfigError("could not sample distinct rods at prime %d" % p)
        spans[v] = vectors
        normals[v] = normal
        taken.add(point)
    return RodConfig(d=d, spans=spans, normals=normals)


def sample_bar_config(
    graph: Multigraph, rods: RodConfig, rng: SplitMix64, p: int
) -> BarConfig:
    """One random bar per edge, pinned to its rod endpoints' subspaces.

    Edge e draws from rng.spawn(edge index): a point of u's rod (a free
    nonzero point of W if u is a body), then one of v's, and the bar is
    their wedge; both are redrawn while it is zero.
    """
    d, spans = rods.d, rods.spans
    bars: dict[str, tuple[int, ...]] = {}
    for idx, e in enumerate(graph.edges):
        sub = rng.spawn(idx)
        for attempt in range(MAX_SAMPLE_RETRIES):
            x, y = [random_point_in_span(spans[v], sub, p) if v in spans
                    else sub.nonzero_vector(d + 1, p) for v in (e.u, e.v)]
            q = wedge2(x, y, d, p)
            if any(q):
                bars[e.id] = q
                break
        else:
            raise ConfigError("could not sample a bar for edge %r at prime %d" % (e.id, p))
    return BarConfig(d=d, p=p, bars=bars)


def sample_body_rod_bar(graph: Multigraph, d: int, rng: SplitMix64, p: int):
    """(rods, matrix) of a body-rod-bar framework: rods from rng.spawn(0), bars from spawn(1)."""
    rods = sample_rod_config(graph, d, rng.spawn(0), p)
    bars = sample_bar_config(graph, rods, rng.spawn(1), p)
    return rods, matrix_body_rod_bar(graph, bars)


# ---------------------------------------------------------------------------
# Matrices


class RigidityMatrix(NamedTuple):
    """Row matrix over F_p with sparse rows (linalg's format).  two_block and
    joints are set only by two_block_matrix: every row of edge uv is then
    +alpha in u's block and -alpha in v's, and a direction matrix's rows
    annihilate the dilation of its joints, which rank() relies on."""

    p: int
    block: int
    vertex_order: tuple[str, ...]
    rows: tuple  # sparse rows: tuples of (column, value) pairs
    two_block: bool = False
    joints: Optional[Mapping] = None  # a direction matrix's joints

    @property
    def ncols(self) -> int:
        return self.block * len(self.vertex_order)

    def rank(self) -> int:
        """The rank; a two-block matrix is ranked with one body grounded.

        Each row is +alpha in one block and -alpha in another, so for every
        j the columns j of all the blocks sum to zero, any one block's
        columns are minus the sum of the others', and deleting them keeps
        the rank at every sample and prime.  The block g met by the most
        rows (the first on a tie) goes.  A direction matrix's rows also
        annihilate the dilation m(v) = p(v), so, less the translation by
        p(g), they annihilate m(v) = p(v) - p(g), zero on g: one column
        (w, j) where that motion is nonzero, the first in column order, is
        minus a combination of the other kept columns and goes too.  The
        grounded rows, now single-block, are offered first, then the rest
        in row order, until the echelon holds as many pivots as there are
        kept columns.  The echelon pivots each row at its highest column,
        so a two-block row pivots in its later vertex's block: the blocks
        are eliminated in reverse order.  Any other matrix is ranked whole.
        """
        if not (self.two_block and self.rows):
            return linalg.rank(self.rows, self.p)
        B, p = self.block, self.p
        met = [0] * len(self.vertex_order)
        for row in self.rows:
            if row:  # a row's pairs lie in its lower block, then its upper
                met[row[0][0] // B] += 1
                met[row[-1][0] // B] += 1
        g = met.index(max(met))
        lo, hi = g * B, g * B + B
        kept = self.ncols - B
        drop = wlo = whi = -1  # the dilation's column and its block
        if self.joints is not None:
            base = self.joints[self.vertex_order[g]]
            drop = next((w * B + j for w, v in enumerate(self.vertex_order)
                         for j, (a, b) in enumerate(zip(self.joints[v], base))
                         if (a - b) % p), -1)
            if drop >= 0:
                kept -= 1
                wlo = drop - drop % B
                whi = wlo + B
        grounded, rest = [], []
        for row in self.rows:
            if row and (lo <= row[0][0] < hi or lo <= row[-1][0] < hi):
                grounded.append(tuple([pr for pr in row
                                       if not lo <= pr[0] < hi and pr[0] != drop]))
            elif row and (wlo <= row[0][0] < whi or wlo <= row[-1][0] < whi):
                rest.append(tuple([pr for pr in row if pr[0] != drop]))
            else:
                rest.append(row)
        ech = linalg.Echelon(p)
        for row in grounded + rest:
            if ech.add(row) and ech.rank == kept:
                break
        return ech.rank


def two_block_matrix(
    graph: Multigraph, block: int, p: int, vectors_of, joints: Optional[Mapping] = None
) -> RigidityMatrix:
    """One row per vector alpha of each edge uv: +alpha in u's block, -alpha in v's.

    vectors_of(e) gives the edge's vectors, each a row in linalg's format
    over one block: (offset, value) pairs with offsets ascending in
    [0, block) and values in [1, p).  Rows come in edge order, then vector
    order; each is alpha's pairs in both blocks, the lower block first,
    where the negated block holds p - x for each value x.  A direction
    matrix passes its joints, which the matrix records for rank().
    """
    order = graph.vertex_ids
    pos = {v: i * block for i, v in enumerate(order)}
    rows = []
    for e in graph.edges:
        su, sv = pos[e.u], pos[e.v]
        for alpha in vectors_of(e):
            plus = [(su + k, x) for k, x in alpha]
            minus = [(sv + k, p - x) for k, x in alpha]
            rows.append(tuple(plus + minus if su < sv else minus + plus))
    return RigidityMatrix(
        p=p, block=block, vertex_order=order, rows=tuple(rows), two_block=True,
        joints=joints,
    )


def matrix_body_bar(graph: Multigraph, bars: BarConfig) -> RigidityMatrix:
    """|E| x D|V| matrix: one row per bar, its Pluecker vector q_e.

    Reads no rods: the rod spins check incidence (verify_trivial_motions).
    """
    D, p = bars.d * (bars.d + 1) // 2, bars.p
    return two_block_matrix(graph, D, p, lambda e: (linalg.sparse(bars.bars[e.id], p),))


def matrix_graphic_union(
    graph: Multigraph, d: int, rng: SplitMix64, p: int, normals: Optional[Mapping] = None
) -> RigidityMatrix:
    """The union of D graphic matroids, truncated once per rod in normals.

    normals maps a rod to its normal in F^D.  Edge e gets one random point,
    drawn from rng.spawn(edge index), of the flat its endpoints' normals cut
    out, or a free nonzero D-vector if neither end has one.  With no normal
    the generic row matroid is the union of D copies of the graphic matroid;
    the paper truncates it at one rod after another to reach the
    body-rod-bar count matroid (analysis.truncate).
    """
    D = d * (d + 1) // 2
    idx = graph.edge_index
    normals = normals or {}

    def point(e):
        sub = rng.spawn(idx[e.id])
        cut = [normals[v] for v in (e.u, e.v) if v in normals]
        if not cut:
            return (linalg.sparse(sub.nonzero_vector(D, p), p),)
        return (linalg.sparse(random_point_in_span(linalg.nullspace(cut, D, p), sub, p), p),)

    return two_block_matrix(graph, D, p, point)


def matrix_body_rod_bar(graph: Multigraph, bars: BarConfig) -> RigidityMatrix:
    """Body-rod-bar matrix: the body-bar rows of a bar config sampled at rods."""
    return matrix_body_bar(graph, bars)


def matrix_edge_flats(graph: Multigraph, rods: RodConfig, p: int) -> RigidityMatrix:
    """Stack a basis of each endpoint pair's whole bar space (f(e) rows).

    The flat of edge uv is {alpha : alpha . n_u = 0 = alpha . n_v} over the
    normals of its rod ends, placed two-block; its generic span rank over all
    edges is the polymatroid rank of the edge set (the Dilworth-truncation
    side).  A repeated flat adds nothing to a span, so later parallels get
    no rows.  Trials rank the family with flat_family_rank; this matrix is
    its reference.
    """
    D = rods.d * (rods.d + 1) // 2

    def flat_basis(e):
        if graph.first_parallel[e.id] != e.id:
            return ()
        normals = [rods.normals[v] for v in (e.u, e.v) if v in rods.normals]
        return [linalg.sparse(vec, p) for vec in linalg.nullspace(normals, D, p)]

    return two_block_matrix(graph, D, p, flat_basis)


def flat_family_rank(graph: Multigraph, rods: RodConfig, p: int) -> int:
    """The rank of matrix_edge_flats(graph, rods, p), read off its kernel K.

    x lies in K exactly when x_u - x_v lies in S_uv, the span of the normals
    of uv's rod ends, for every endpoint pair uv.  Write x_u - x_v as a sum
    of lam * n over those normals, each scaled to lead with 1, a zero one
    dropped and a repeat kept once: L unknowns lam in all.  A depth-first
    forest fixes x from one root per component through its tree pairs.  Any
    other pair joins a vertex u to an ancestor a; with its lams written for
    x_a - x_u it holds iff the lams of the tree path from a to u and its own
    sum to zero: D rows over the lams.  With R their rank and c components,
    isolated vertices included, dim K = D*c + L - R.
    """
    D = rods.d * (rods.d + 1) // 2
    scaled = {v: linalg.monic(normal, p) for v, normal in rods.normals.items()}
    adj = {v: [] for v in graph.vertex_ids}
    pairs = []  # (u, v, the scaled normals of its rod ends)
    for e in graph.edges:
        if graph.first_parallel[e.id] != e.id:
            continue
        basis = []
        for v in (e.u, e.v):
            if scaled.get(v) and scaled[v] not in basis:
                basis.append(scaled[v])
        adj[e.u].append((e.v, len(pairs)))
        adj[e.v].append((e.u, len(pairs)))
        pairs.append((e.u, e.v, basis))
    depth, up, cols = {}, {}, {}  # up: vertex -> (parent, tree pair)
    L = c = 0
    for root in graph.vertex_ids:
        if root in depth:
            continue
        c += 1
        depth[root] = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w, i in it:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    up[w] = (v, i)
                    cols[i] = [(L + j, n) for j, n in enumerate(pairs[i][2])]
                    L += len(pairs[i][2])
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
    ech = linalg.Echelon(p)
    for i, (u, a, basis) in enumerate(pairs):
        if i in cols:
            continue
        if depth[u] < depth[a]:
            u, a = a, u
        terms = []
        while u != a:
            u, j = up[u]
            terms += cols[j]
        terms.sort()  # the path's columns, then the pair's own, ascending
        terms += [(L + j, n) for j, n in enumerate(basis)]
        L += len(basis)
        for k in range(D):
            ech.add(tuple([(col, n[k]) for col, n in terms if n[k]]))
    return D * (len(graph.vertex_ids) - c) - L + ech.rank


# ---------------------------------------------------------------------------
# Identified body-hinge graphs


def expand_hinge(graph: Multigraph) -> Multigraph:
    """The same graph with hinges made rods and the rest bodies: only the kinds change.

    This is the one rewrite of an identified body-hinge graph: each hinge is
    a rod, each body-hinge edge a rod-body bar edge.  Both engines work on
    its f-expansion, D-1 parallel bars per edge (count_side's count graph).
    Raises GraphError on an edge that does not join a body to a hinge.
    """
    for e in graph.edges:
        ku, kv = graph.kinds[e.u], graph.kinds[e.v]
        if {ku, kv} != {VertexKind.BODY, VertexKind.HINGE}:
            raise GraphError(
                "edge %r must join a body to a hinge, got %s-%s"
                % (e.id, ku.value, kv.value)
            )
    return graph._replace(kinds={
        v: VertexKind.ROD if graph.kinds[v] == VertexKind.HINGE else VertexKind.BODY
        for v in graph.vertex_ids
    })


# ---------------------------------------------------------------------------
# Direction-constrained frameworks


def sample_joints(graph: Multigraph, d: int, rng: SplitMix64, p: int):
    """Random joint per vertex with distinct endpoints on every edge."""
    for attempt in range(MAX_SAMPLE_RETRIES):
        sub = rng.spawn(attempt)
        joints = {v: sub.spawn(i).vector(d, p) for i, v in enumerate(graph.vertex_ids)}
        if all(joints[e.u] != joints[e.v] for e in graph.edges):
            return joints
    raise ConfigError("could not sample distinct joints at prime %d" % p)


def matrix_direction(graph: Multigraph, joints, d: int, p: int) -> RigidityMatrix:
    """Direction matrix: d-1 rows per edge, blocks of width d.

    Each row places a basis vector of the orthogonal complement of
    delta = p(u) - p(v) in block u and its negative in block v.  With c the
    first nonzero column of delta, column j != c gives
    delta_c e_j - delta_j e_c, written as its at most two pairs: each
    annihilates delta, and their values at the columns j are independent,
    so the d-1 of them span the complement with no inverse taken.  The
    matrix records the joints, so rank() grounds the dilation too.
    """

    def complement(e):
        delta = [(a - b) % p for a, b in zip(joints[e.u], joints[e.v])]
        c = next((k for k, x in enumerate(delta) if x), None)
        if c is None:
            raise ConfigError(
                "edge %r has coincident joints at %r and %r" % (e.id, e.u, e.v)
            )
        lead = delta[c]
        # delta_j = 0 leaves one pair; otherwise c < j, c being the first nonzero
        return [((c, p - delta[j]), (j, lead)) if delta[j] else ((j, lead),)
                for j in range(d) if j != c]

    return two_block_matrix(graph, d, p, complement, joints)


# ---------------------------------------------------------------------------
# Rank, kernel, and trivial motions


class MotionBasis(NamedTuple):
    """The motion space's dimensions: the kernel's and the trivial family's span."""

    kernel_dim: int
    trivial_span_dim: int

    @property
    def nontrivial_dim(self) -> int:
        return self.kernel_dim - self.trivial_span_dim


def trivial_motions(
    m: RigidityMatrix,
    rods: Optional[RodConfig] = None,
    joints: Optional[Mapping] = None,
):
    """The formal trivial family for the matrix's model, as (kind, row) pairs.

    Each motion is a sparse row in linalg's format, written where it is
    nonzero.  Body models: the block-constant motions, one per coordinate j
    of the block, 1 at column j of every block; and one spin per rod, the
    rod's normal in the rod's block alone, annihilated by a bar's row
    exactly when the bar meets the rod.
    Direction model: the d translations plus the dilation m(v) = p(v), in
    every block where the joint is nonzero.
    """
    p, B = m.p, m.block
    starts = range(0, m.ncols, B)
    out = [("constant", tuple((s + j, 1) for s in starts)) for j in range(B)]
    if rods is not None:
        for s, v in zip(starts, m.vertex_order):
            if v in rods.normals:
                spin = tuple((s + j, c) for j, c in enumerate(rods.normals[v]) if c)
                out.append(("rod-spin", spin))
    if joints is not None:
        dilation = tuple(
            (s + j, c % p)
            for s, v in zip(starts, m.vertex_order)
            for j, c in enumerate(joints[v])
            if c % p
        )
        out.append(("dilation", dilation))
    return out


class TrivialCheck(NamedTuple):
    """The formal trivial family of one matrix, checked against its rows once."""

    motions: tuple  # (kind, sparse row) pairs, as trivial_motions lists them
    missed: tuple  # kinds of the motions the matrix does not annihilate

    @property
    def checked(self) -> int:
        return len(self.motions)


def verify_trivial_motions(
    m: RigidityMatrix,
    rods: Optional[RodConfig] = None,
    joints: Optional[Mapping] = None,
) -> TrivialCheck:
    """Every row of m against every formal trivial motion, in one pass over the rows.

    The motions are indexed by column first.  Each row then sums b * x over
    its pairs (c, b) and the motions' values x at c, one sum per motion that
    meets the row; a sum nonzero mod p puts that motion in check.missed, in
    family order.  A valid configuration misses none.  The sums are the
    row-times-motion products, so the check holds for any matrix, two-block
    or not.
    """
    motions = tuple(trivial_motions(m, rods=rods, joints=joints))
    at = [[] for _ in range(m.ncols)]  # column -> (motion index, value) pairs
    for i, (_, motion) in enumerate(motions):
        for c, x in motion:
            at[c].append((i, x))
    p, n = m.p, len(motions)
    hit = set()
    for row in m.rows:
        sums = [0] * n
        for c, b in row:
            for i, x in at[c]:
                sums[i] += b * x
        for i, total in enumerate(sums):
            if total % p:
                hit.add(i)
    missed = tuple(kind for i, (kind, _) in enumerate(motions) if i in hit)
    return TrivialCheck(motions=motions, missed=missed)


def kernel_basis(m: RigidityMatrix, rank: int, check: TrivialCheck) -> MotionBasis:
    """The motion space of m by rank-nullity, given m's rank and its trivial check.

    Raises if a formally trivial motion is not actually in the kernel: that
    can only happen on an invalid configuration.  Otherwise the trivial
    family spans a subspace of the kernel, and any completion to a kernel
    basis adds kernel_dim - trivial_span_dim nontrivial vectors; none is
    built.
    """
    if check.missed:
        raise ConfigError("%s motion is not in the kernel" % check.missed[0])
    span = linalg.Echelon(m.p)
    for _, motion in check.motions:
        span.add(motion)
    return MotionBasis(kernel_dim=m.ncols - rank, trivial_span_dim=span.rank)


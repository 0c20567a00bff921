"""Exact prime-field rigidity matrices for each structural model.

Every matrix is a graph plus a map from edge to vectors: two_block_matrix
turns each vector alpha of an edge e = uv into one row with alpha in the
column block of u and -alpha in the block of v.  The builders differ only
in the vectors they contribute per edge: a free D-vector (graphic union),
the bar's degree-2 Pluecker coordinates q_e (body-bar, body-rod-bar), a
basis of the edge's bar flat (edge flats), or a basis of (p(u) - p(v))^perp
(direction; block width d, else D = (d+1 choose 2)).  Column blocks hold
motion vectors in the star-identified coordinates, so a block vector x_v
represents the degree-(d-1) motion whose star image is x_v; under that
identification row-times-motion is exactly the complementary pairing.

Configurations are sampled uniformly over F_p.  Incident bars are built by
the shared-point rule: a bar at a rod endpoint passes through a random
point of the rod's subspace, which guarantees both decomposability and the
incidence condition pairing(q_e, r_v) = 0 at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import linalg
from .exterior import (
    KVector,
    MAX_SAMPLE_RETRIES,
    hodge_star,
    pairing,
    proportional,
    random_point_in_span,
    sample_span,
    wedge2,
)
from .field import SplitMix64
from .graph import (
    CountProfile,
    GraphError,
    Multigraph,
    VertexKind,
    expand_f,
    hinges_as_rods,
)


class ConfigError(ValueError):
    """Invalid rod/bar/joint configuration for the requested model."""


@dataclass(frozen=True)
class RodConfig:
    """Rod subspaces: a spanning (d-1)-set of vectors and the Pluecker image."""

    d: int
    p: int
    spans: Mapping[str, tuple[tuple[int, ...], ...]]
    plueckers: Mapping[str, KVector]

    @property
    def rods(self) -> tuple[str, ...]:
        return tuple(self.plueckers)


@dataclass(frozen=True)
class BarConfig:
    d: int
    p: int
    bars: Mapping[str, KVector]  # edge id -> degree-2 Pluecker vector


def sample_rod_config(graph: Multigraph, d: int, rng: SplitMix64, p: int) -> RodConfig:
    """One random (d-1)-dimensional subspace per rod vertex, all distinct."""
    spans: dict[str, tuple[tuple[int, ...], ...]] = {}
    plueckers: dict[str, KVector] = {}
    taken: list[KVector] = []
    for i, v in enumerate(graph.vertex_ids):
        if graph.kinds[v] != VertexKind.ROD:
            continue
        sub = rng.spawn(i)
        for attempt in range(MAX_SAMPLE_RETRIES):
            vectors, kv = sample_span(d, d - 1, sub, p)
            if all(not proportional(kv, other) for other in taken):
                break
        else:
            raise RuntimeError("could not sample distinct rods")
        spans[v] = vectors
        plueckers[v] = kv
        taken.append(kv)
    return RodConfig(d=d, p=p, spans=spans, plueckers=plueckers)


def sample_bar_config(
    graph: Multigraph, rods: RodConfig, rng: SplitMix64, p: int
) -> BarConfig:
    """One random bar per edge, pinned to its rod endpoints' subspaces."""
    d = rods.d
    bars: dict[str, KVector] = {}
    for idx, e in enumerate(graph.edges):
        sub = rng.spawn(idx)
        for attempt in range(MAX_SAMPLE_RETRIES):
            x = _endpoint_point(e.u, rods, sub, d, p)
            y = _endpoint_point(e.v, rods, sub, d, p)
            q = wedge2(x, y, d, p)
            if not q.is_zero():
                bars[e.id] = q
                break
        else:
            raise RuntimeError("could not sample a bar for edge %r" % e.id)
    return BarConfig(d=d, p=p, bars=bars)


def _endpoint_point(v: str, rods: RodConfig, rng: SplitMix64, d: int, p: int):
    if v in rods.spans:
        return random_point_in_span(rods.spans[v], d, rng, p)
    return rng.nonzero_vector(d + 1, p)


# ---------------------------------------------------------------------------
# Matrices


@dataclass(frozen=True)
class RigidityMatrix:
    """Row matrix over F_p with sparse rows (linalg's format): each row of an
    edge uv has pairs only in u's and v's column blocks."""

    p: int
    block: int
    vertex_order: tuple[str, ...]
    row_labels: tuple  # (edge id, j): the j-th vector of that edge
    rows: tuple  # sparse rows: tuples of (column, value) pairs

    @property
    def ncols(self) -> int:
        return self.block * len(self.vertex_order)

    def block_of(self, v: str) -> int:
        return self.vertex_order.index(v) * self.block

    def rank(self) -> int:
        return linalg.rank(self.rows, self.p)

    def kernel_dim(self) -> int:
        return self.ncols - self.rank()

    def apply(self, vec) -> list[int]:
        """The matrix times the dense vector vec; each row reads only its own pairs."""
        return linalg.mat_vec(self.rows, vec, self.p)


def two_block_matrix(
    graph: Multigraph, block: int, p: int, vectors_of
) -> RigidityMatrix:
    """One row per vector alpha of each edge uv: +alpha in u's block, -alpha in v's.

    vectors_of(e) gives the edge's vectors (each of length block); rows come
    in edge order, then vector order, labelled (edge id, j).  Each row is
    sparse: alpha's nonzero entries in both blocks, the lower block first.
    """
    order = graph.vertex_ids
    pos = {v: i * block for i, v in enumerate(order)}
    rows = []
    labels = []
    for e in graph.edges:
        bu, bv = pos[e.u], pos[e.v]
        for j, alpha in enumerate(vectors_of(e)):
            nonzero = [(k, c % p) for k, c in enumerate(alpha) if c % p]
            plus = tuple((bu + k, c) for k, c in nonzero)
            minus = tuple((bv + k, p - c) for k, c in nonzero)
            rows.append(plus + minus if bu < bv else minus + plus)
            labels.append((e.id, j))
    return RigidityMatrix(
        p=p, block=block, vertex_order=order, row_labels=tuple(labels), rows=tuple(rows)
    )


def matrix_body_bar(graph: Multigraph, bars: BarConfig) -> RigidityMatrix:
    """|E| x D|V| matrix: one row per bar, its Pluecker vector q_e.

    Ignores rod incidence entirely; meant for all-body graphs (rod-aware
    construction is matrix_body_rod_bar).
    """
    D = bars.d * (bars.d + 1) // 2
    return two_block_matrix(graph, D, bars.p, lambda e: (bars.bars[e.id].coords,))


def matrix_graphic_union(
    graph: Multigraph, d: int, rng: SplitMix64, p: int
) -> RigidityMatrix:
    """Unconstrained D-copies-of-graphic-matroid realization.

    Same block pattern, but each edge gets a free random D-vector instead
    of a point of the Grassmannian; its generic row matroid is the union of
    D copies of the graphic matroid.
    """
    D = d * (d + 1) // 2
    idx = graph.edge_index
    return two_block_matrix(
        graph, D, p, lambda e: (rng.spawn(idx[e.id]).nonzero_vector(D, p),)
    )


def check_incidence(graph: Multigraph, rods: RodConfig, bars: BarConfig) -> None:
    """Every bar must meet the rod subspace of each rod endpoint."""
    for e in graph.edges:
        q = bars.bars[e.id]
        for v in (e.u, e.v):
            if v in rods.plueckers:
                if pairing(q, rods.plueckers[v]) != 0:
                    raise ConfigError(
                        "bar %r misses its rod endpoint %r" % (e.id, v)
                    )


def matrix_body_rod_bar(
    graph: Multigraph, rods: RodConfig, bars: BarConfig
) -> RigidityMatrix:
    """Body-rod-bar matrix: body-bar row pattern over an incident bar config."""
    check_incidence(graph, rods, bars)
    return matrix_body_bar(graph, bars)


def matrix_edge_flats(graph: Multigraph, rods: RodConfig, p: int) -> RigidityMatrix:
    """Stack a basis of each edge's whole bar space (f(e) rows per edge).

    The flat of edge uv is {alpha : pairing(alpha, r_u) = 0 = pairing(alpha,
    r_v)} placed two-block; its generic span rank over all edges is the
    polymatroid rank of the edge set (the Dilworth-truncation side).
    """
    D = rods.d * (rods.d + 1) // 2
    bases: dict = {}  # the flat depends only on the endpoints: one basis per pair

    def flat_basis(e):
        key = frozenset((e.u, e.v))
        if key not in bases:
            constraints = [
                list(hodge_star(rods.plueckers[v]).coords)
                for v in (e.u, e.v)
                if v in rods.plueckers
            ]
            bases[key] = linalg.nullspace(constraints, D, p)
        return bases[key]

    return two_block_matrix(graph, D, p, flat_basis)


# ---------------------------------------------------------------------------
# Identified body-hinge pipeline


@dataclass(frozen=True)
class HingeExpansion:
    graph: Multigraph  # hinge vertices re-kinded as rods, edges duplicated
    rods: RodConfig
    bars: BarConfig


def expand_hinge(
    graph: Multigraph, d: int, rng: SplitMix64, p: int
) -> HingeExpansion:
    """Convert an identified body-hinge graph to a body-rod-bar framework.

    Each hinge becomes a rod with a sampled (d-1)-subspace; each body-hinge
    edge becomes f(e) = D-1 parallel bars of the rod count (ids "<eid>~<k>"),
    every bar through a random point of the hinge subspace and a random point
    of space.  The bar graph is the one count_side counts on.
    """
    for e in graph.edges:
        ku, kv = graph.kinds[e.u], graph.kinds[e.v]
        if {ku, kv} != {VertexKind.BODY, VertexKind.HINGE}:
            raise GraphError(
                "edge %r must join a body to a hinge, got %s-%s"
                % (e.id, ku.value, kv.value)
            )
    expanded, _ = expand_f(hinges_as_rods(graph), CountProfile.body_rod_bar(d))
    rods = sample_rod_config(expanded, d, rng.spawn(0), p)
    bars = sample_bar_config(expanded, rods, rng.spawn(1), p)
    return HingeExpansion(graph=expanded, rods=rods, bars=bars)


# ---------------------------------------------------------------------------
# Direction-constrained frameworks


def sample_joints(graph: Multigraph, d: int, rng: SplitMix64, p: int):
    """Random joint per vertex with distinct endpoints on every edge."""
    for attempt in range(MAX_SAMPLE_RETRIES):
        joints = {
            v: rng.spawn(attempt).spawn(i).vector(d, p)
            for i, v in enumerate(graph.vertex_ids)
        }
        if all(joints[e.u] != joints[e.v] for e in graph.edges):
            return joints
    raise RuntimeError("could not sample distinct joints")


def matrix_direction(graph: Multigraph, joints, d: int, p: int) -> RigidityMatrix:
    """Direction matrix: d-1 rows per edge, blocks of width d.

    Each row places a basis vector of the orthogonal complement of
    p(u) - p(v) in block u and its negative in block v.
    """

    def complement(e):
        delta = [(a - b) % p for a, b in zip(joints[e.u], joints[e.v])]
        if not any(delta):
            raise ConfigError(
                "edge %r has coincident joints at %r and %r" % (e.id, e.u, e.v)
            )
        return linalg.nullspace([delta], d, p)

    return two_block_matrix(graph, d, p, complement)


# ---------------------------------------------------------------------------
# Rank, kernel, and trivial motions


@dataclass(frozen=True)
class MotionBasis:
    """Tagged kernel vectors: the formal trivial family plus a nontrivial completion."""

    entries: tuple  # (kind, vector) pairs; kinds: constant, rod-spin, dilation, nontrivial
    kernel_dim: int
    trivial_span_dim: int

    @property
    def nontrivial_dim(self) -> int:
        return self.kernel_dim - self.trivial_span_dim

    def of_kind(self, kind: str):
        return tuple(vec for k, vec in self.entries if k == kind)


def trivial_motions(
    m: RigidityMatrix,
    rods: Optional[RodConfig] = None,
    joints: Optional[Mapping] = None,
):
    """The formal trivial family for the matrix's model.

    Body models: the block-constant motions (one per coordinate of the
    block) and one spin per rod, the motion supported on the rod's block
    with the rod's own Pluecker vector (star coordinates).  Direction
    model: the d translations plus the dilation m(v) = p(v).
    """
    n = len(m.vertex_order)
    out = []
    for j in range(m.block):
        vec = [0] * m.ncols
        for i in range(n):
            vec[i * m.block + j] = 1
        out.append(("constant", tuple(vec)))
    if rods is not None:
        for v in m.vertex_order:
            if v in rods.plueckers:
                vec = [0] * m.ncols
                base = m.block_of(v)
                for j, c in enumerate(hodge_star(rods.plueckers[v]).coords):
                    vec[base + j] = c % m.p
                out.append(("rod-spin", tuple(vec)))
    if joints is not None:
        vec = [0] * m.ncols
        for v in m.vertex_order:
            base = m.block_of(v)
            for j, c in enumerate(joints[v]):
                vec[base + j] = c % m.p
        out.append(("dilation", tuple(vec)))
    return out


@dataclass(frozen=True)
class TrivialCheck:
    """The formal trivial family of one matrix, each motion applied to it once."""

    motions: tuple  # (kind, vector) pairs, as trivial_motions lists them
    missed: tuple  # kinds of the motions the matrix does not annihilate

    @property
    def checked(self) -> int:
        return len(self.motions)

    @property
    def violations(self) -> int:
        return len(self.missed)


def verify_trivial_motions(
    m: RigidityMatrix,
    rods: Optional[RodConfig] = None,
    joints: Optional[Mapping] = None,
) -> TrivialCheck:
    """Apply every formal trivial motion to m; check.violations must be zero."""
    trivials = tuple(trivial_motions(m, rods=rods, joints=joints))
    missed = tuple(kind for kind, vec in trivials if any(m.apply(vec)))
    return TrivialCheck(motions=trivials, missed=missed)


def kernel_basis(
    m: RigidityMatrix,
    rods: Optional[RodConfig] = None,
    joints: Optional[Mapping] = None,
    check: Optional[TrivialCheck] = None,
) -> MotionBasis:
    """Kernel of the matrix, classified against the trivial family.

    Raises if a formally trivial motion is not actually in the kernel:
    that can only happen on an invalid configuration.  check is m's own
    verify_trivial_motions result, if the caller already has it.
    """
    if check is None:
        check = verify_trivial_motions(m, rods=rods, joints=joints)
    if check.missed:
        raise ConfigError("%s motion is not in the kernel" % check.missed[0])
    kern = linalg.nullspace([linalg.dense(row, m.ncols) for row in m.rows], m.ncols, m.p)
    span = linalg.Echelon(m.p)
    for _, vec in check.motions:
        span.add(linalg.sparse(vec, m.p))
    trivial_dim = span.rank
    entries = list(check.motions)
    for vec in kern:
        if span.rank == len(kern):
            break
        if span.add(linalg.sparse(vec, m.p)):
            entries.append(("nontrivial", tuple(vec)))
    return MotionBasis(
        entries=tuple(entries),
        kernel_dim=len(kern),
        trivial_span_dim=trivial_dim,
    )


def required_rank_body(graph: Multigraph, d: int) -> int:
    """Full rank for rigidity: D|V| - D - |R| (rods counted from the graph)."""
    D = d * (d + 1) // 2
    n_rods = sum(1 for v in graph.vertex_ids if graph.kinds[v] == VertexKind.ROD)
    return D * len(graph.vertex_ids) - D - n_rods


def required_rank_direction(graph: Multigraph, d: int) -> int:
    return d * len(graph.vertex_ids) - (d + 1)

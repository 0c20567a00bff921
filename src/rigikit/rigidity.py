"""Exact prime-field rigidity matrices for each structural model.

Rows follow the two-block pattern: the row of a bar e = uv carries the
bar's degree-2 Pluecker coordinates q_e in the column block of u and -q_e
in the block of v (block width D = (d+1 choose 2)).  Column blocks hold
motion vectors in the star-identified coordinates, so a block vector x_v
represents the degree-(d-1) motion whose star image is x_v; under that
identification row-times-motion is exactly the complementary pairing.

Configurations are sampled uniformly over F_p.  Incident bars are built by
the shared-point rule: a bar at a rod endpoint passes through a random
point of the rod's subspace, which guarantees both decomposability and the
incidence condition pairing(q_e, r_v) = 0 at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .graph import GraphError, Multigraph, VertexKind, build_graph


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
    """Sparse-pattern row matrix over F_p, stored dense (desk-scale sizes)."""

    model: str
    d: int
    p: int
    block: int
    vertex_order: tuple[str, ...]
    row_labels: tuple
    rows: tuple[tuple[int, ...], ...]
    seed: Optional[int] = None

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
        return linalg.mat_vec(self.rows, vec, self.p)


def _two_block_row(ncols: int, bu: int, bv: int, coords, p: int):
    row = [0] * ncols
    for j, c in enumerate(coords):
        row[bu + j] = c % p
        row[bv + j] = (-c) % p
    return tuple(row)


def matrix_body_bar(graph: Multigraph, bars: BarConfig, seed=None) -> RigidityMatrix:
    """|E| x D|V| matrix with the +q_e / -q_e block pattern.

    Ignores rod incidence entirely; meant for all-body graphs (rod-aware
    construction is matrix_body_rod_bar).
    """
    d, p = bars.d, bars.p
    D = d * (d + 1) // 2
    order = graph.vertex_ids
    pos = {v: i * D for i, v in enumerate(order)}
    rows = []
    labels = []
    for e in graph.edges:
        q = bars.bars[e.id]
        rows.append(_two_block_row(D * len(order), pos[e.u], pos[e.v], q.coords, p))
        labels.append(e.id)
    return RigidityMatrix(
        model="body-bar",
        d=d,
        p=p,
        block=D,
        vertex_order=order,
        row_labels=tuple(labels),
        rows=tuple(rows),
        seed=seed,
    )


def matrix_graphic_union(
    graph: Multigraph, d: int, rng: SplitMix64, p: int, seed=None
) -> RigidityMatrix:
    """Unconstrained D-copies-of-graphic-matroid realization.

    Same block pattern, but each edge gets a free random D-vector instead
    of a point of the Grassmannian; its generic row matroid is the union of
    D copies of the graphic matroid.
    """
    D = d * (d + 1) // 2
    order = graph.vertex_ids
    pos = {v: i * D for i, v in enumerate(order)}
    rows = []
    labels = []
    for idx, e in enumerate(graph.edges):
        alpha = rng.spawn(idx).nonzero_vector(D, p)
        rows.append(_two_block_row(D * len(order), pos[e.u], pos[e.v], alpha, p))
        labels.append(e.id)
    return RigidityMatrix(
        model="graphic-union",
        d=d,
        p=p,
        block=D,
        vertex_order=order,
        row_labels=tuple(labels),
        rows=tuple(rows),
        seed=seed,
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
    graph: Multigraph, rods: RodConfig, bars: BarConfig, seed=None
) -> RigidityMatrix:
    """Body-rod-bar matrix: body-bar row pattern over an incident bar config."""
    check_incidence(graph, rods, bars)
    return replace(matrix_body_bar(graph, bars, seed=seed), model="body-rod-bar")


def matrix_edge_flats(
    graph: Multigraph, rods: RodConfig, p: int, seed=None
) -> RigidityMatrix:
    """Stack a basis of each edge's whole bar space (f(e) rows per edge).

    The flat of edge uv is {alpha : pairing(alpha, r_u) = 0 = pairing(alpha,
    r_v)} placed two-block; its generic span rank over all edges is the
    polymatroid rank of the edge set (the Dilworth-truncation side).
    """
    d = rods.d
    D = d * (d + 1) // 2
    order = graph.vertex_ids
    pos = {v: i * D for i, v in enumerate(order)}
    rows = []
    labels = []
    for e in graph.edges:
        constraints = []
        for v in (e.u, e.v):
            if v in rods.plueckers:
                constraints.append(list(hodge_star(rods.plueckers[v]).coords))
        basis = linalg.nullspace(constraints, D, p)
        for j, alpha in enumerate(basis):
            rows.append(_two_block_row(D * len(order), pos[e.u], pos[e.v], alpha, p))
            labels.append((e.id, j))
    return RigidityMatrix(
        model="body-rod-flats",
        d=d,
        p=p,
        block=D,
        vertex_order=order,
        row_labels=tuple(labels),
        rows=tuple(rows),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Identified body-hinge pipeline


@dataclass(frozen=True)
class HingeExpansion:
    graph: Multigraph  # hinge vertices re-kinded as rods, edges duplicated
    rods: RodConfig
    bars: BarConfig
    copies: Mapping[str, tuple[str, ...]]  # original edge -> bar copies


def expand_hinge(
    graph: Multigraph, d: int, rng: SplitMix64, p: int
) -> HingeExpansion:
    """Convert an identified body-hinge graph to a body-rod-bar framework.

    Each hinge becomes a rod with a sampled (d-1)-subspace; each body-hinge
    edge becomes D-1 parallel bars, every bar through a random point of the
    hinge subspace and a random point of space.
    """
    D = d * (d + 1) // 2
    for e in graph.edges:
        ku, kv = graph.kinds[e.u], graph.kinds[e.v]
        if {ku, kv} != {VertexKind.BODY, VertexKind.HINGE}:
            raise GraphError(
                "edge %r must join a body to a hinge, got %s-%s"
                % (e.id, ku.value, kv.value)
            )
    vertices = [
        (v, VertexKind.ROD if graph.kinds[v] == VertexKind.HINGE else VertexKind.BODY)
        for v in graph.vertex_ids
    ]
    edges = []
    copies: dict[str, tuple[str, ...]] = {}
    for e in graph.edges:
        ids = tuple("%s~%d" % (e.id, k) for k in range(D - 1))
        copies[e.id] = ids
        edges.extend((e.u, e.v, cid) for cid in ids)
    expanded = build_graph(vertices, edges)
    rods = sample_rod_config(expanded, d, rng.spawn(0), p)
    bars = sample_bar_config(expanded, rods, rng.spawn(1), p)
    return HingeExpansion(graph=expanded, rods=rods, bars=bars, copies=copies)


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


def matrix_direction(
    graph: Multigraph, joints, d: int, p: int, seed=None
) -> RigidityMatrix:
    """Direction matrix: d-1 rows per edge, blocks of width d.

    Each row places a basis vector of the orthogonal complement of
    p(u) - p(v) in block u and its negative in block v.
    """
    order = graph.vertex_ids
    pos = {v: i * d for i, v in enumerate(order)}
    rows = []
    labels = []
    for e in graph.edges:
        pu, pv = joints[e.u], joints[e.v]
        delta = [(a - b) % p for a, b in zip(pu, pv)]
        if not any(delta):
            raise ConfigError(
                "edge %r has coincident joints at %r and %r" % (e.id, e.u, e.v)
            )
        for j, alpha in enumerate(linalg.nullspace([delta], d, p)):
            rows.append(_two_block_row(d * len(order), pos[e.u], pos[e.v], alpha, p))
            labels.append((e.id, j))
    return RigidityMatrix(
        model="direction",
        d=d,
        p=p,
        block=d,
        vertex_order=order,
        row_labels=tuple(labels),
        rows=tuple(rows),
        seed=seed,
    )


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


def verify_trivial_motions(
    m: RigidityMatrix,
    rods: Optional[RodConfig] = None,
    joints: Optional[Mapping] = None,
):
    """(number checked, number NOT in the kernel); the second must be zero."""
    trivials = trivial_motions(m, rods=rods, joints=joints)
    bad = sum(1 for _, vec in trivials if any(m.apply(vec)))
    return len(trivials), bad


def kernel_basis(
    m: RigidityMatrix,
    rods: Optional[RodConfig] = None,
    joints: Optional[Mapping] = None,
) -> MotionBasis:
    """Kernel of the matrix, classified against the trivial family.

    Raises if a formally trivial motion is not actually in the kernel:
    that can only happen on an invalid configuration.
    """
    kern = linalg.nullspace(m.rows, m.ncols, m.p)
    trivials = trivial_motions(m, rods=rods, joints=joints)
    for kind, vec in trivials:
        if any(m.apply(vec)):
            raise ConfigError("%s motion is not in the kernel" % kind)
    span = linalg.Echelon(m.p)
    for _, vec in trivials:
        span.add(vec)
    trivial_dim = span.rank
    entries = list(trivials)
    for vec in kern:
        if span.rank == len(kern):
            break
        if span.add(vec):
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

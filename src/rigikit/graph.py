"""Multigraphs with a body/rod/hinge vertex classification and counting data.

A framework's combinatorics live on a loopless multigraph: vertices carry a
kind (body, rod, or hinge), parallel edges are allowed and individually
addressable by stable edge ids.  The counting side is driven by a
CountProfile, which assigns each vertex kind a capacity and the whole count
an offset, so that the value of an edge set F is

    f(F) = sum of capacities over vertices spanned by F  -  offset.

For the body-rod profile in dimension d this is
f(F) = D*|B(F)| + (D-1)*|R(F)| - D with D = (d+1 choose 2), equivalently
D*(|V(F)|-1) - |R(F)|.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence


class GraphError(ValueError):
    """Malformed graph input (duplicate ids, loops, dangling endpoints...)."""


class VertexKind(str, Enum):
    BODY = "body"
    ROD = "rod"
    HINGE = "hinge"


_KIND_BY_NAME = {k.value: k for k in VertexKind}


class Edge(NamedTuple):
    id: str
    u: str
    v: str


class Multigraph(NamedTuple):
    """Immutable loopless multigraph with kinded vertices.

    vertex_ids preserves construction order; edges preserve construction
    order and carry unique ids so parallel edges stay distinguishable, and
    first_parallel maps each edge id to the first edge on its two endpoints.
    """

    vertex_ids: tuple[str, ...]
    kinds: Mapping[str, VertexKind]
    edges: tuple[Edge, ...]
    edge_index: Mapping[str, int]
    first_parallel: Mapping[str, str]

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def edge(self, eid: str) -> Edge:
        try:
            return self.edges[self.edge_index[eid]]
        except KeyError:
            raise GraphError("unknown edge id %r" % eid) from None

    def sorted_edge_ids(self, eids: Iterable[str]) -> tuple[str, ...]:
        """Edge ids in construction order (the deterministic order everywhere)."""
        try:
            return tuple(sorted(eids, key=self.edge_index.__getitem__))
        except KeyError as exc:
            raise GraphError("unknown edge id %r" % exc.args[0]) from None


def build_graph(vertices: Sequence, edges: Sequence) -> Multigraph:
    """Validate and build a Multigraph.

    vertices: iterable of (id, kind) pairs, kind a VertexKind or its name.
    edges: iterable of (u, v) pairs or (u, v, edge_id) triples; omitted edge
    ids are assigned "e0", "e1", ... by position.

    Raises GraphError naming the offending element: duplicate vertex or edge
    id, dangling endpoint, or loop edge.
    """
    ids: list[str] = []
    kinds: dict[str, VertexKind] = {}
    for item in vertices:
        vid, kind = item
        vid = str(vid)
        if not isinstance(kind, VertexKind):
            if not isinstance(kind, str) or kind not in _KIND_BY_NAME:
                raise GraphError("vertex %r has unknown kind %r" % (vid, kind))
            kind = _KIND_BY_NAME[kind]
        if vid in kinds:
            raise GraphError("duplicate vertex id %r" % vid)
        ids.append(vid)
        kinds[vid] = kind

    out_edges: list[Edge] = []
    edge_index: dict[str, int] = {}
    first_parallel: dict[str, str] = {}
    first_of_pair: dict[tuple[str, str], str] = {}
    for pos, item in enumerate(edges):
        if len(item) == 3:
            u, v, eid = item
        else:
            u, v = item
            eid = "e%d" % pos
        u, v, eid = str(u), str(v), str(eid)
        if eid in edge_index:
            raise GraphError("duplicate edge id %r" % eid)
        for w in (u, v):
            if w not in kinds:
                raise GraphError("edge %r has dangling endpoint %r" % (eid, w))
        if u == v:
            raise GraphError("edge %r is a loop at %r" % (eid, u))
        edge_index[eid] = len(out_edges)
        out_edges.append(Edge(eid, u, v))
        first_parallel[eid] = first_of_pair.setdefault((min(u, v), max(u, v)), eid)

    return Multigraph(
        vertex_ids=tuple(ids),
        kinds=kinds,
        edges=tuple(out_edges),
        edge_index=edge_index,
        first_parallel=first_parallel,
    )


# ---------------------------------------------------------------------------
# Counting profiles


MIN_DIMENSION, MAX_DIMENSION = 2, 6  # every model's d; documents.MODELS has its least


def _check_dimension(d: int) -> None:
    if not MIN_DIMENSION <= d <= MAX_DIMENSION:
        raise ValueError("dimension d must be in [%d, %d], got %d"
                         % (MIN_DIMENSION, MAX_DIMENSION, d))


class CountProfile(NamedTuple):
    """Capacity-per-kind count function f(F) = sum(capacity over V(F)) - offset."""

    d: int
    D: int
    capacities: Mapping[VertexKind, int]
    offset: int
    name: str

    @classmethod
    def body_rod_bar(cls, d: int) -> "CountProfile":
        """Bodies get D = (d+1 choose 2) freedoms, rods D-1; offset D.

        Hinge vertices are deliberately absent: hinges must be converted to
        rods (see rigidity.expand_hinge) before any counting happens.
        """
        _check_dimension(d)
        D = d * (d + 1) // 2
        return cls(
            d=d,
            D=D,
            capacities={VertexKind.BODY: D, VertexKind.ROD: D - 1},
            offset=D,
            name="body-rod",
        )

    @classmethod
    def direction(cls, d: int) -> "CountProfile":
        """Direction-constraint count f'(F) = d*|V(F)| - (d+1), kind-blind."""
        _check_dimension(d)
        return cls(
            d=d,
            D=d * (d + 1) // 2,
            capacities={VertexKind.BODY: d, VertexKind.ROD: d},
            offset=d + 1,
            name="direction",
        )

    def capacity(self, kind: VertexKind) -> int:
        try:
            return self.capacities[kind]
        except KeyError:
            raise GraphError(
                "%s-kind vertices are not countable under the %s profile"
                % (kind.value, self.name)
            )

    def capacity_of(self, graph: Multigraph, vid: str) -> int:
        return self.capacity(graph.kinds[vid])


def f_value(graph: Multigraph, eids: Iterable[str], prof: CountProfile) -> int:
    """Count value of a nonempty edge set; rejects the empty set."""
    spanned: set[str] = set()
    for eid in eids:
        e = graph.edge(eid)
        spanned.add(e.u)
        spanned.add(e.v)
    if not spanned:
        raise ValueError("f is not defined on the empty edge set")
    return sum(prof.capacity_of(graph, v) for v in spanned) - prof.offset


def expand_f(graph: Multigraph, prof: CountProfile):
    """Replace each edge e by f(e) parallel copies.

    Returns (expanded graph, map edge id -> tuple of copy ids).  Copy ids are
    "<eid>~<k>".  Requires f(e) >= 1 for every edge, which holds for every
    profile this package builds when d >= 2.

    One pass over the checked graph writes the copies with their
    edge_index and first_parallel, and the vertices and kinds are the
    graph's own: the result is what build_graph would return for the same
    vertices and copy edges, with nothing re-validated.  The copy ids are
    distinct because the edge ids are, and copies share endpoints exactly
    when their edges do, so a copy's first parallel is the first copy of
    its edge's first parallel.
    """
    capacity, offset = prof.capacity, prof.offset
    kinds, first = graph.kinds, graph.first_parallel
    edges: list[Edge] = []
    edge_index: dict[str, int] = {}
    first_parallel: dict[str, str] = {}
    copies: dict[str, tuple[str, ...]] = {}
    for e in graph.edges:
        eid, u, v = e
        m = capacity(kinds[u]) + capacity(kinds[v]) - offset
        if m < 1:
            raise GraphError("edge %r has f(e) = %d < 1; cannot expand" % (eid, m))
        ids = copies[eid] = tuple(["%s~%d" % (eid, k) for k in range(m)])
        head = copies[first[eid]][0]
        for cid in ids:
            edge_index[cid] = len(edges)
            edges.append(Edge(cid, u, v))
            first_parallel[cid] = head
    expanded = Multigraph(
        vertex_ids=graph.vertex_ids,
        kinds=kinds,
        edges=tuple(edges),
        edge_index=edge_index,
        first_parallel=first_parallel,
    )
    return expanded, copies

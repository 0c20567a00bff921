"""Count matroids induced by capacity counts, and their polymatroids.

An edge set F is independent when every nonempty subset F' satisfies
|F'| <= f(F').  Independence is decided by a vertex-capacitated pebble
game: every vertex starts with capacity(v) pebbles, and inserting an edge
uv requires gathering offset+1 pebbles on {u, v} by reversing directed
paths of previously inserted edges.  The game is our algorithmic choice;
its exactness for these weighted counts is enforced by tests against the
partition-minimum brute force (rank_bruteforce), never assumed.  Any
disagreement the library itself can detect raises instead of being
silently patched.

The polymatroid rank fhat(F) (the partition minimum of sums of f) is
computed by expanding each edge e into f(e) parallel copies and taking
the matroid rank of the copies, which is an exact reduction.  P-connected
components are pulled back from M-connected components of the expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import (
    CountProfile,
    Multigraph,
    VertexKind,
    build_graph,
    expand_f,
    f_value,
)
from .partitions import min_partition, min_partition_table


def _check_countable(graph: Multigraph, prof: CountProfile) -> None:
    for v in graph.vertex_ids:
        prof.capacity(graph.kinds[v])  # raises GraphError on hinge kinds


# ---------------------------------------------------------------------------
# Pebble game


class PebbleState:
    """Mutable state of one pebble-game run.

    Invariant (checked by tests): pebbles[v] + outdegree(v) == capacity(v)
    for every vertex touched so far.  A state is single-use: feed it edges
    via try_insert and read off the inserted independent set.
    """

    def __init__(self, graph: Multigraph, prof: CountProfile):
        self.graph = graph
        self.prof = prof
        self.need = prof.offset + 1
        self.pebbles: dict[str, int] = {}
        self.out: dict[str, dict[int, str]] = {}
        self.inserted: list[str] = []
        self.last_reach: frozenset[str] = frozenset()

    def _touch(self, v: str) -> int:
        if v not in self.pebbles:
            self.pebbles[v] = self.prof.capacity_of(self.graph, v)
            self.out[v] = {}
        return self.pebbles[v]

    def _reverse_path(self, end: str, parent) -> str:
        """Flip every arc on the parent chain of end; return the chain's root."""
        b = end
        while b in parent:
            a, eidx = parent[b]
            del self.out[a][eidx]
            self.out[b][eidx] = a
            b = a
        return b

    def _find_pebble(self, u: str, v: str):
        """Move one pebble from outside {u,v} onto u or v if possible.

        Depth-first over out-arcs in ascending edge-id order, u's tree
        first.  Returns (True, visited) on success, (False, visited) when
        no free pebble is reachable; visited is the reach region.
        """
        visited = {u, v}
        parent: dict[str, tuple[str, int]] = {}
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
                    if self._touch(b) > 0:
                        got = self._reverse_path(b, parent)
                        self.pebbles[b] -= 1
                        self.pebbles[got] += 1
                        return True, visited
                    frames.append((b, iter(sorted(self.out[b]))))
                    break
                else:
                    frames.pop()
        return False, visited

    def try_insert(self, eid: str) -> bool:
        """Insert eid if independent of the inserted set; report success."""
        e = self.graph.edge(eid)
        self._touch(e.u)
        self._touch(e.v)
        while self.pebbles[e.u] + self.pebbles[e.v] < self.need:
            found, visited = self._find_pebble(e.u, e.v)
            if not found:
                self.last_reach = frozenset(visited)
                return False
        tail = e.u if self.pebbles[e.u] > 0 else e.v
        self.pebbles[tail] -= 1
        self.out[tail][self.graph.edge_index[eid]] = e.other(tail)
        self.inserted.append(eid)
        return True

    def check_invariant(self) -> None:
        for v, peb in self.pebbles.items():
            cap = self.prof.capacity_of(self.graph, v)
            if peb < 0 or peb + len(self.out[v]) != cap:
                raise RuntimeError("pebble invariant broken at vertex %r" % v)


def _run_game(graph: Multigraph, prof: CountProfile, eids: Sequence[str]):
    state = PebbleState(graph, prof)
    basis: list[str] = []
    rejected: list[tuple[str, frozenset[str]]] = []
    for eid in eids:
        if state.try_insert(eid):
            basis.append(eid)
        else:
            rejected.append((eid, state.last_reach))
    return basis, rejected


def _edge_order(graph: Multigraph, eids: Optional[Iterable[str]]):
    if eids is None:
        return graph.edge_ids
    return graph.sorted_edge_ids(eids)


def is_independent(graph: Multigraph, eids, prof: CountProfile) -> bool:
    """|F'| <= f(F') for every nonempty F' of the given edge set?"""
    _check_countable(graph, prof)
    order = _edge_order(graph, eids)
    state = PebbleState(graph, prof)
    return all(state.try_insert(e) for e in order)


def rank_value(graph: Multigraph, eids, prof: CountProfile) -> int:
    """Matroid rank of the edge set, without a certificate."""
    _check_countable(graph, prof)
    basis, _ = _run_game(graph, prof, _edge_order(graph, eids))
    return len(basis)


# ---------------------------------------------------------------------------
# Certificates and connectivity


@dataclass(frozen=True)
class RankCertificate:
    """Witness for the rank formula: value == |free_part| + sum f(part)."""

    value: int
    free_part: tuple[str, ...]
    parts: tuple[tuple[str, ...], ...]

    def check(self, graph: Multigraph, prof: CountProfile, eids) -> None:
        covered = [e for e in self.free_part]
        for part in self.parts:
            if not part:
                raise RuntimeError("certificate has an empty f-part")
            covered.extend(part)
        if sorted(covered) != sorted(_edge_order(graph, eids)):
            raise RuntimeError("certificate parts do not partition the query set")
        total = len(self.free_part) + sum(
            f_value(graph, part, prof) for part in self.parts
        )
        if total != self.value:
            raise RuntimeError(
                "certificate value mismatch: %d != %d" % (total, self.value)
            )


@dataclass(frozen=True)
class Decomposition:
    kind: str  # "M" or "P"
    components: tuple[tuple[str, ...], ...]

    @property
    def nontrivial(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.components if len(c) > 1)


def _independent_list(graph, prof, eids) -> bool:
    state = PebbleState(graph, prof)
    return all(state.try_insert(e) for e in eids)


def _fundamental_circuit_rest(graph, prof, basis, x, reach):
    """Basis part of the unique circuit in basis + x.

    The circuit is confined to x plus the basis edges induced by the
    failed search's reach region, so only those are tested.
    """
    candidates = []
    for y in basis:
        e = graph.edge(y)
        if e.u in reach and e.v in reach:
            candidates.append(y)
    rest = []
    basis_set = list(basis)
    for y in candidates:
        trial = [z for z in basis_set if z != y] + [x]
        if _independent_list(graph, prof, trial):
            rest.append(y)
    return tuple(rest)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _components_via_circuits(graph, prof, order):
    basis, rejected = _run_game(graph, prof, order)
    uf = _UnionFind(order)
    circuit_cache: dict[tuple[str, str], tuple[str, ...]] = {}
    for x, reach in rejected:
        e = graph.edge(x)
        key = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        rest = circuit_cache.get(key)
        if rest is None:
            rest = _fundamental_circuit_rest(graph, prof, basis, x, reach)
            circuit_cache[key] = rest
        for y in rest:
            uf.union(x, y)
    groups: dict[str, list[str]] = {}
    for e in order:
        groups.setdefault(uf.find(e), []).append(e)
    comps = sorted(groups.values(), key=lambda g: graph.edge_index[g[0]])
    return basis, tuple(tuple(c) for c in comps)


def m_components(graph: Multigraph, eids, prof: CountProfile) -> Decomposition:
    """Partition of the edge set into M-connected components of the count matroid."""
    _check_countable(graph, prof)
    order = _edge_order(graph, eids)
    _, comps = _components_via_circuits(graph, prof, order)
    return Decomposition(kind="M", components=comps)


def rank(graph: Multigraph, eids, prof: CountProfile) -> RankCertificate:
    """Matroid rank with a minimizing partition certificate.

    The certificate's free part collects the trivial M-components of the
    query set; each nontrivial M-component becomes an f-counted part.  The
    identity value == |F0| + sum f(Fi) is re-verified before returning.
    """
    _check_countable(graph, prof)
    order = _edge_order(graph, eids)
    basis, comps = _components_via_circuits(graph, prof, order)
    free = tuple(c[0] for c in comps if len(c) == 1)
    parts = tuple(c for c in comps if len(c) > 1)
    cert = RankCertificate(value=len(basis), free_part=free, parts=parts)
    cert.check(graph, prof, order)
    return cert


# ---------------------------------------------------------------------------
# Polymatroid rank via expansion


def fhat(graph: Multigraph, eids, prof: CountProfile, expanded=None) -> int:
    """Polymatroid rank: the matroid rank of the copies of F in the expansion."""
    _check_countable(graph, prof)
    if expanded is None:
        expanded = expand_f(graph, prof)
    exp_graph, copies = expanded
    order = _edge_order(graph, eids)
    copy_ids = [cid for e in order for cid in copies[e]]
    return rank_value(exp_graph, copy_ids, prof)


def p_components(graph: Multigraph, prof: CountProfile) -> Decomposition:
    """P-connected components, pulled back from the expansion's M-components.

    Also certifies the decomposition as a minimizer: fhat(E) must equal the
    sum of f over the components (raises RuntimeError otherwise).
    """
    _check_countable(graph, prof)
    exp_graph, copies = expand_f(graph, prof)
    return p_components_of_expansion(
        (exp_graph, copies), rank(exp_graph, None, prof), prof
    )


def p_components_of_expansion(expanded, cert: RankCertificate, prof: CountProfile):
    """P-components of a graph, read from the rank certificate of its f-expansion.

    expanded is expand_f's (expanded graph, copy map).  The certificate's
    parts are the expansion's nontrivial M-components; each must be the
    union of the copy sets of whole edges, and the sum of f over the
    components must equal the certified fhat(E) = cert.value.
    """
    exp_graph, copies = expanded
    part_of = {cid: i for i, part in enumerate(cert.parts) for cid in part}
    result: list[tuple[str, ...]] = []
    members: dict[int, list[str]] = {}
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
    dec = Decomposition(kind="P", components=tuple(result))

    if copies:
        total = sum(
            f_value(exp_graph, [copies[e][0] for e in comp], prof)
            for comp in dec.components
        )
        if total != cert.value:
            raise RuntimeError(
                "P-component decomposition is not a minimizer: "
                "sum f = %d but fhat(E) = %d" % (total, cert.value)
            )
    return dec


def simplify_component(
    graph: Multigraph,
    component: Iterable[str],
    prof: CountProfile,
    center_id: Optional[str] = None,
) -> Multigraph:
    """Replace a nontrivial P-connected edge set by a star on a new body.

    The component's edges are removed, a fresh body vertex is added, and
    one edge joins it to every vertex the component spanned.
    """
    _check_countable(graph, prof)
    comp = _edge_order(graph, component)
    if len(comp) < 2:
        raise ValueError("only nontrivial P-connected components are simplified")
    sub_vertices = sorted(
        {w for e in comp for w in (graph.edge(e).u, graph.edge(e).v)},
        key=graph.vertex_ids.index,
    )
    sub = build_graph(
        [(v, graph.kinds[v]) for v in sub_vertices],
        [(graph.edge(e).u, graph.edge(e).v, e) for e in comp],
    )
    dec = p_components(sub, prof)
    if len(dec.components) != 1:
        raise ValueError("edge set is not P-connected; cannot simplify")

    if center_id is None:
        center_id = "vc"
        taken = set(graph.vertex_ids)
        k = 0
        while center_id in taken:
            k += 1
            center_id = "vc%d" % k
    comp_set = set(comp)
    vertices = [(v, graph.kinds[v]) for v in graph.vertex_ids]
    vertices.append((center_id, VertexKind.BODY))
    edges = [
        (e.u, e.v, e.id) for e in graph.edges if e.id not in comp_set
    ]
    edges.extend((center_id, w, "s:%s" % w) for w in sub_vertices)
    return build_graph(vertices, edges)


# ---------------------------------------------------------------------------
# Brute-force oracles (exponential; the ground truth in tests)

BRUTEFORCE_LIMIT = 12


def _mask_costs(graph: Multigraph, prof: CountProfile, order):
    """f(mask) for every nonempty submask of the edge list."""
    n = len(order)
    vidx = {v: i for i, v in enumerate(graph.vertex_ids)}
    caps = [prof.capacity_of(graph, v) for v in graph.vertex_ids]
    evmask = []
    for e in order:
        edge = graph.edge(e)
        evmask.append((1 << vidx[edge.u]) | (1 << vidx[edge.v]))
    spanned = [0] * (1 << n)
    fmask = [0] * (1 << n)
    capsum: dict[int, int] = {0: 0}
    for m in range(1, 1 << n):
        low = m & (-m)
        sp = spanned[m ^ low] | evmask[low.bit_length() - 1]
        spanned[m] = sp
        cs = capsum.get(sp)
        if cs is None:
            cs = 0
            s = sp
            while s:
                b = s & (-s)
                cs += caps[b.bit_length() - 1]
                s ^= b
            capsum[sp] = cs
        fmask[m] = cs - prof.offset
    return fmask


def fhat_bruteforce(graph: Multigraph, eids, prof: CountProfile) -> int:
    """Exact partition minimum of sums of f, by exhaustive enumeration."""
    _check_countable(graph, prof)
    order = _edge_order(graph, eids)
    n = len(order)
    if n == 0:
        return 0
    if n > BRUTEFORCE_LIMIT:
        raise ValueError("brute force limited to %d edges" % BRUTEFORCE_LIMIT)
    fmask = _mask_costs(graph, prof, order)
    value, _ = min_partition(n, fmask.__getitem__)
    return value


def rank_bruteforce_table(graph: Multigraph, eids, prof: CountProfile):
    """(order, rank-by-mask list) for all subsets of the edge set at once."""
    _check_countable(graph, prof)
    order = _edge_order(graph, eids)
    n = len(order)
    if n > BRUTEFORCE_LIMIT:
        raise ValueError("brute force limited to %d edges" % BRUTEFORCE_LIMIT)
    if n == 0:
        return order, [0]
    fmask = _mask_costs(graph, prof, order)
    fhat_table = min_partition_table(n, fmask.__getitem__)
    ranks = [0] * (1 << n)
    for m in range(1, 1 << n):
        best = fhat_table[m]
        s = m
        while s:
            b = s & (-s)
            cand = 1 + ranks[m ^ b]
            if cand < best:
                best = cand
            s ^= b
        ranks[m] = best
    return order, ranks


def rank_bruteforce(graph: Multigraph, eids, prof: CountProfile) -> RankCertificate:
    """Exact minimum of |F0| + sum f(Fi) over all partitions, with a witness."""
    _check_countable(graph, prof)
    order = _edge_order(graph, eids)
    n = len(order)
    if n > BRUTEFORCE_LIMIT:
        raise ValueError("brute force limited to %d edges" % BRUTEFORCE_LIMIT)
    if n == 0:
        return RankCertificate(value=0, free_part=(), parts=())
    fmask = _mask_costs(graph, prof, order)
    fhat_table = min_partition_table(n, fmask.__getitem__)
    full = (1 << n) - 1
    best_val = None
    best_free = 0
    for m in range(full + 1):  # free part F0 ranges over all submasks
        v = bin(m).count("1") + fhat_table[full ^ m]
        if best_val is None or v < best_val:
            best_val, best_free = v, m
    _, parts = min_partition(
        bin(full ^ best_free).count("1"),
        # re-run the small DP on the non-free elements only
        _restricted_cost(fmask, full ^ best_free, n),
    )
    kept = [i for i in range(n) if (full ^ best_free) >> i & 1]
    part_sets = tuple(
        tuple(order[kept[i]] for i in range(len(kept)) if p >> i & 1)
        for p in parts
    )
    free = tuple(order[i] for i in range(n) if best_free >> i & 1)
    cert = RankCertificate(value=best_val, free_part=free, parts=part_sets)
    cert.check(graph, prof, order)
    return cert


def _restricted_cost(fmask, keep_mask, n):
    kept = [i for i in range(n) if keep_mask >> i & 1]

    def cost(small_mask: int) -> int:
        m = 0
        for j, i in enumerate(kept):
            if small_mask >> j & 1:
                m |= 1 << i
        return fmask[m]

    return cost


# ---------------------------------------------------------------------------
# Model-level count target


def global_count_target(graph: Multigraph, prof: CountProfile) -> int:
    """Count target over all graph vertices: sum capacity(v) - offset."""
    return (
        sum(prof.capacity_of(graph, v) for v in graph.vertex_ids) - prof.offset
    )

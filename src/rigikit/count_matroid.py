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
One game per matroid answers every question about it.  The fundamental
circuit of a rejected edge is read off the reach region of its failed
search: the basis edges offered before it that the region induces (Lee
and Streinu's closure step, for these mixed capacities), once per class
of parallel clones.  Releasing an inserted edge gives its pebble back to
the arc's tail, a valid state of the game over the other edges, so ranks
after deletion are read off released copies of the final state.

The brute-force oracles share one table, bruteforce_tables: f and fhat of
every subset, from which rank_bruteforce reads its witness back.
"""

from __future__ import annotations

import copy
from typing import Iterable, NamedTuple, Optional

from .graph import (
    CountProfile,
    Multigraph,
    expand_f,
    f_value,
)
from .partitions import min_partition, min_partition_table


# ---------------------------------------------------------------------------
# Pebble game


class PebbleState:
    """Mutable state of one pebble-game run.

    Invariant (checked by tests): pebbles[v] + outdegree(v) == capacity(v)
    for every vertex.  Every vertex starts with its capacity, so a graph with
    a vertex the profile cannot count raises GraphError here.  It keeps the
    inserted independent set in offer order and each rejected edge with the
    reach region of its failed search, from which circuits are read.  A finished state is never
    changed: ranks after deletion come from released copies.

    A parallel class (the edges keyed by graph.first_parallel) is dead once
    one of its edges x has failed a search, and a later clone x' of a dead
    class is rejected with reach None and no search.  That is exact: x is
    in the closure of the inserted set I it failed against, and swapping x
    and x' is a matroid automorphism that fixes I (x' was not offered yet,
    x was rejected), so x' is in the closure of I, and of every later
    inserted set, which contains I.  _components_via_circuits reads a reach
    region only for the first rejected edge of each class.
    """

    def __init__(self, graph: Multigraph, prof: CountProfile):
        self.graph = graph
        self.prof = prof
        self.need = prof.offset + 1
        self.pebbles = {v: prof.capacity_of(graph, v) for v in graph.vertex_ids}
        self.out: dict[str, dict[int, str]] = {v: {} for v in graph.vertex_ids}
        self.inserted: list[str] = []
        self.rejected: list[tuple[str, Optional[frozenset[str]]]] = []
        self.dead: set[str] = set()  # first_parallel keys of classes with a failed search

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

        Depth-first over out-arcs in the order they were placed, u's tree
        first.  Returns (True, visited) on success, (False, visited) when
        no free pebble is reachable; visited is the reach region.
        """
        out, pebbles = self.out, self.pebbles
        visited = {u, v}
        parent: dict[str, tuple[str, int]] = {}
        for root in (u, v):
            frames = [(root, iter(out[root].items()))]
            while frames:
                a, arcs = frames[-1]
                for eidx, b in arcs:
                    if b in visited:
                        continue
                    visited.add(b)
                    parent[b] = (a, eidx)
                    if pebbles[b] > 0:
                        got = self._reverse_path(b, parent)
                        pebbles[b] -= 1
                        pebbles[got] += 1
                        return True, visited
                    frames.append((b, iter(out[b].items())))
                    break
                else:
                    frames.pop()
        return False, visited

    def try_insert(self, eid: str) -> bool:
        """Insert eid if independent of the inserted set; report success."""
        graph = self.graph
        key = graph.first_parallel[eid]
        if key in self.dead:
            self.rejected.append((eid, None))
            return False
        idx = graph.edge_index[eid]
        _, u, v = graph.edges[idx]
        pebbles = self.pebbles
        while pebbles[u] + pebbles[v] < self.need:
            found, visited = self._find_pebble(u, v)
            if not found:
                self.dead.add(key)
                self.rejected.append((eid, frozenset(visited)))
                return False
        if pebbles[u] > 0:
            pebbles[u] -= 1
            self.out[u][idx] = v
        else:
            pebbles[v] -= 1
            self.out[v][idx] = u
        self.inserted.append(eid)
        return True

    def released(self, eids: Iterable[str]) -> "PebbleState":
        """A copy of the game over the inserted edges other than eids.

        Each released arc gives its pebble back to its tail.  A copy that
        releases an edge has no dead class, as that can make one insertable;
        one that releases none keeps them, its inserted set being the same.
        """
        drop = set(eids)
        new = copy.copy(self)
        new.pebbles = dict(self.pebbles)
        new.out = {v: dict(arcs) for v, arcs in self.out.items()}
        new.inserted = [e for e in self.inserted if e not in drop]
        new.rejected = []
        new.dead = set() if drop else set(self.dead)
        for eid in drop:
            e, idx = self.graph.edge(eid), self.graph.edge_index[eid]
            tail = e.u if idx in new.out[e.u] else e.v
            del new.out[tail][idx]
            new.pebbles[tail] += 1
        return new

    def rank_without(self, eids: Iterable[str]) -> int:
        """Rank of the offered edges other than eids.

        Release eids and re-offer the rejected edges: by the greedy property
        the grown independent set is a basis of the rest.
        """
        drop = set(eids)
        state = self.released(e for e in self.inserted if e in drop)
        for x, _ in self.rejected:
            if len(state.inserted) == len(self.inserted):
                break  # the rest cannot have a higher rank
            if x not in drop:
                state.try_insert(x)
        return len(state.inserted)


def _edge_order(graph: Multigraph, eids: Optional[Iterable[str]]):
    return graph.edge_ids if eids is None else graph.sorted_edge_ids(eids)


def is_independent(graph: Multigraph, eids, prof: CountProfile) -> bool:
    """|F'| <= f(F') for every nonempty F' of the given edge set?"""
    return not pebble_game(graph, eids, prof).rejected


def pebble_game(graph: Multigraph, eids, prof: CountProfile) -> PebbleState:
    """The final state of one game over the edge set (None: every edge)."""
    state = PebbleState(graph, prof)
    for eid in _edge_order(graph, eids):
        state.try_insert(eid)
    return state


def rank_value(graph: Multigraph, eids, prof: CountProfile) -> int:
    """Matroid rank of the edge set, without a certificate."""
    return len(pebble_game(graph, eids, prof).inserted)


# ---------------------------------------------------------------------------
# Certificates and connectivity


class RankCertificate(NamedTuple):
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


class Decomposition(NamedTuple):
    components: tuple[tuple[str, ...], ...]

    @property
    def nontrivial(self) -> tuple[tuple[str, ...], ...]:
        return tuple(c for c in self.components if len(c) > 1)


def _fundamental_circuit_rest(state: PebbleState, x, reach):
    """Basis part of the unique circuit in basis + x, read off the reach region.

    x = uv was rejected with u and v holding offset pebbles and no pebble
    reachable, so the reach region R has no out-arcs and is tight.  A tight
    set holding u and v has no out-arcs either and so contains R: R is the
    minimal tight set containing u and v.  Hence every basis edge y that R
    induces is in the circuit (a dependent basis - y + x would need a tight
    set holding u and v but not y), and no other edge is.  The circuit lies
    in the edges offered before x, so the walk stops at x.
    """
    graph = state.graph
    stop = graph.edge_index[x]
    rest = []
    for y in state.inserted:
        idx = graph.edge_index[y]
        if idx > stop:
            break
        e = graph.edges[idx]
        if e.u in reach and e.v in reach:
            rest.append(y)
    return tuple(rest)


def _components_via_circuits(state: PebbleState):
    """M-components of the edges a finished game was offered, in edge order.

    A parallel class reads the circuit C of its first rejected edge x only;
    the game stores no reach region for its later rejected clones.  Swapping
    clones is a matroid automorphism and f(e) >= 1 leaves no loop, so a
    later rejected clone x' has circuit C - x + x' and joins x by one union.
    The groups fill in edge order, so they come in first-edge order unsorted.
    """
    graph = state.graph
    order = graph.sorted_edge_ids(state.inserted + [x for x, _ in state.rejected])
    parent = {e: e for e in order}

    def find(e):  # union-find root, halving the path on the way
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    first_rejected: dict[str, str] = {}  # parallel class -> its first rejected edge
    for x, reach in state.rejected:
        head = first_rejected.setdefault(graph.first_parallel[x], x)
        joined = (head,) if head != x else _fundamental_circuit_rest(state, x, reach)
        for y in joined:
            parent[find(y)] = find(x)
    groups: dict[str, list[str]] = {}
    for e in order:
        groups.setdefault(find(e), []).append(e)
    return tuple(tuple(c) for c in groups.values())


def m_components(graph: Multigraph, eids, prof: CountProfile) -> Decomposition:
    """Partition of the edge set into M-connected components of the count matroid."""
    comps = _components_via_circuits(pebble_game(graph, eids, prof))
    return Decomposition(components=comps)


def rank(graph: Multigraph, eids, prof: CountProfile) -> RankCertificate:
    """Matroid rank with a minimizing partition certificate."""
    return certificate(pebble_game(graph, eids, prof), eids)


def certificate(state: PebbleState, eids) -> RankCertificate:
    """Rank certificate of a finished game over the query set eids (None: all).

    Trivial M-components form the free part, nontrivial ones the f-counted
    parts; value == |F0| + sum f(Fi) and the partition of eids are re-verified.
    """
    comps = _components_via_circuits(state)
    free = tuple(c[0] for c in comps if len(c) == 1)
    parts = tuple(c for c in comps if len(c) > 1)
    cert = RankCertificate(value=len(state.inserted), free_part=free, parts=parts)
    cert.check(state.graph, state.prof, eids)
    return cert


# ---------------------------------------------------------------------------
# Polymatroid rank via expansion


def fhat(graph: Multigraph, eids, prof: CountProfile) -> int:
    """Polymatroid rank: the matroid rank of the copies of F in the expansion."""
    exp_graph, copies = expand_f(graph, prof)
    copy_ids = [cid for e in _edge_order(graph, eids) for cid in copies[e]]
    return rank_value(exp_graph, copy_ids, prof)


def p_components(graph: Multigraph, prof: CountProfile) -> Decomposition:
    """P-connected components, pulled back from the expansion's M-components.

    Also certifies the decomposition as a minimizer: fhat(E) must equal the
    sum of f over the components (raises RuntimeError otherwise).
    """
    expanded = expand_f(graph, prof)
    return p_components_of_expansion(expanded, rank(expanded[0], None, prof), prof)


def p_components_of_expansion(expanded, cert: RankCertificate, prof: CountProfile):
    """P-components of a graph, read from the rank certificate of its f-expansion.

    expanded is expand_f's (expanded graph, copy map); cert must be a checked
    certificate of every copy, as certificate() returns, so its free part and
    parts (the nontrivial M-components) partition the copies.  No edge's
    copies may straddle several parts, which makes each part the union of
    its edges' copy sets, and the sum of f over the components must equal
    the certified fhat(E) = cert.value.  Each edge joins its part's group,
    or its own when its copies are free; the groups fill in edge order, so
    the components come in first-edge order without a sort.
    """
    exp_graph, copies = expanded
    part_of = {cid: i for i, part in enumerate(cert.parts) for cid in part}
    groups: dict[object, list[str]] = {}  # part index, or the edge when its copies are free
    for e, ids in copies.items():
        idxs = {part_of.get(cid) for cid in ids}
        if len(idxs) != 1:
            raise RuntimeError("copies of edge %r straddle several M-components" % e)
        i = idxs.pop()
        groups.setdefault(e if i is None else i, []).append(e)
    dec = Decomposition(components=tuple(tuple(c) for c in groups.values()))

    total = sum(f_value(exp_graph, [copies[e][0] for e in comp], prof)
                for comp in dec.components)
    if total != cert.value:
        raise RuntimeError(
            "P-component decomposition is not a minimizer: "
            "sum f = %d but fhat(E) = %d" % (total, cert.value)
        )
    return dec


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


def bruteforce_tables(graph: Multigraph, eids, prof: CountProfile):
    """(order, f, fhat) of the edge set: f and the exhaustive partition minimum
    fhat of every subset, as lists indexed by bitmask over order."""
    order = _edge_order(graph, eids)
    if len(order) > BRUTEFORCE_LIMIT:
        raise ValueError("brute force limited to %d edges" % BRUTEFORCE_LIMIT)
    fmask = _mask_costs(graph, prof, order)
    return order, fmask, min_partition_table(len(order), fmask.__getitem__)


def fhat_bruteforce(graph: Multigraph, eids, prof: CountProfile) -> int:
    """Exact partition minimum of sums of f, by exhaustive enumeration."""
    return bruteforce_tables(graph, eids, prof)[2][-1]


def rank_bruteforce_table(graph: Multigraph, eids, prof: CountProfile):
    """(order, rank-by-mask list) for all subsets of the edge set at once."""
    order, _, fhat_table = bruteforce_tables(graph, eids, prof)
    ranks = [0] * len(fhat_table)
    for m in range(1, len(fhat_table)):
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
    """Exact minimum of |F0| + sum f(Fi) over all partitions, with a witness:
    the first F0, in mask order, of least |F0| + fhat(rest), and the rest's
    parts as min_partition reads them back from the fhat table."""
    order, fmask, fhat_table = bruteforce_tables(graph, eids, prof)
    n = len(order)
    full = (1 << n) - 1
    best_val, best_free = min(
        (bin(m).count("1") + fhat_table[full ^ m], m) for m in range(full + 1))

    def edges(mask):
        return tuple(order[i] for i in range(n) if mask >> i & 1)

    parts = min_partition(fhat_table, fmask.__getitem__, full ^ best_free)
    cert = RankCertificate(value=best_val, free_part=edges(best_free),
                           parts=tuple(edges(part) for part in parts))
    cert.check(graph, prof, order)
    return cert


# ---------------------------------------------------------------------------
# Model-level count target


def global_count_target(graph: Multigraph, prof: CountProfile) -> int:
    """Count target over all graph vertices: sum capacity(v) - offset, at
    least 0 (a lone rod, hinge once expanded, or direction joint sums to -1)."""
    return max(0, sum(prof.capacity_of(graph, v) for v in graph.vertex_ids) - prof.offset)

"""Count-matroid engine vs its exhaustive oracles.

The pebble game is never trusted on its own: ranks are checked against the
partition-minimum brute force, and both decompositions are checked against
definitional recomputations (minimal dependent sets from the rank table;
additive-bipartition signatures on fhat for P-components).
"""

import pytest

from rigikit.count_matroid import (
    PebbleState,
    fhat,
    fhat_bruteforce,
    is_independent,
    m_components,
    p_components,
    rank,
    rank_bruteforce,
    rank_bruteforce_table,
    rank_value,
    simplify_component,
)
from rigikit.field import SplitMix64
from rigikit.graph import (
    CountProfile,
    GraphError,
    VertexKind,
    build_graph,
    expand_f,
    f_value,
)

from helpers import cube_graph, random_kinded_graph, subsets_of

PROF3 = CountProfile.body_rod_bar(3)


def rods(n):
    return build_graph([("r%d" % i, "rod") for i in range(n)], [])


def parallel(n_edges, kind_u="rod", kind_v="rod"):
    return build_graph(
        [("u", kind_u), ("v", kind_v)], [("u", "v")] * n_edges
    )


# ---------------------------------------------------------------------------
# Independence and rank: worked instances


def test_single_edge_always_independent():
    for d in (2, 3, 4):
        prof = CountProfile.body_rod_bar(d)
        for ku in ("body", "rod"):
            for kv in ("body", "rod"):
                g = parallel(1, ku, kv)
                assert is_independent(g, None, prof)


def test_parallel_rod_rod_threshold():
    assert is_independent(parallel(4), None, PROF3)
    assert not is_independent(parallel(5), None, PROF3)
    assert rank_value(parallel(5), None, PROF3) == 4


def test_parallel_body_body_threshold():
    g = parallel(7, "body", "body")
    assert not is_independent(g, None, PROF3)
    assert rank_value(parallel(10, "body", "body"), None, PROF3) == 6


def test_k4_bodies_rank():
    vs = [("v%d" % i, "body") for i in range(4)]
    es = [("v%d" % i, "v%d" % j) for i in range(4) for j in range(i + 1, 4)]
    g = build_graph(vs, es)
    assert rank_value(g, None, PROF3) == 6
    assert rank_bruteforce(g, None, PROF3).value == 6


def test_two_rods_four_bars_minimal():
    g = parallel(4)
    cert = rank(g, None, PROF3)
    assert cert.value == 4 == 5 * 2 - 6


def test_hinge_vertex_rejected():
    g = build_graph([("a", "body"), ("h", "hinge")], [("a", "h")])
    with pytest.raises(GraphError, match="hinge"):
        rank_value(g, None, PROF3)


# ---------------------------------------------------------------------------
# Brute-force oracle


def test_bruteforce_examples():
    single = parallel(1)
    cert = rank_bruteforce(single, None, PROF3)
    assert cert.value == 1
    cert.check(single, PROF3, None)

    five = parallel(5)
    cert = rank_bruteforce(five, None, PROF3)
    assert cert.value == 4
    assert cert.free_part == ()
    assert len(cert.parts) == 1  # one f-counted block of all five copies

    empty = rods(2)
    assert rank_bruteforce(empty, None, PROF3).value == 0


def test_bruteforce_size_limit():
    g = parallel(13, "body", "body")
    with pytest.raises(ValueError, match="limited"):
        rank_bruteforce(g, None, PROF3)


def test_pebble_equals_bruteforce_randomized():
    rng = SplitMix64(2024)
    for case in range(60):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_vertices=6, max_edges=8)
        order, table = rank_bruteforce_table(g, None, prof)
        n = len(order)
        for mask in range(1 << n):
            F = [order[i] for i in range(n) if mask >> i & 1]
            assert rank_value(g, F, prof) == table[mask]


def test_pebble_invariant_held():
    rng = SplitMix64(31)
    for case in range(10):
        g = random_kinded_graph(rng.spawn(case))
        state = PebbleState(g, PROF3)
        for eid in g.edge_ids:
            state.try_insert(eid)
            state.check_invariant()


def test_rank_certificate_is_minimizer():
    rng = SplitMix64(47)
    for case in range(30):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_edges=8)
        cert = rank(g, None, prof)
        cert.check(g, prof, None)
        bf = rank_bruteforce(g, None, prof)
        bf.check(g, prof, None)
        assert cert.value == bf.value


def test_deterministic_certificates():
    g = random_kinded_graph(SplitMix64(123), max_edges=8)
    a = rank(g, None, PROF3)
    b = rank(g, None, PROF3)
    assert a == b


# ---------------------------------------------------------------------------
# Circuits, M-connectivity (definitional recomputation)


def brute_circuits(g, prof, order, table):
    n = len(order)
    circuits = []
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        if table[mask] >= size:
            continue  # independent
        minimal = True
        m = mask
        while m:
            b = m & (-m)
            sub = mask ^ b
            if sub and table[sub] < size - 1:
                minimal = False
                break
            m ^= b
        if minimal:
            circuits.append(mask)
    return circuits


def brute_m_components(g, prof, order, table):
    n = len(order)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cmask in brute_circuits(g, prof, order, table):
        bits = [i for i in range(n) if cmask >> i & 1]
        for b in bits[1:]:
            parent[find(b)] = find(bits[0])
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(order[i])
    return sorted(tuple(v) for v in groups.values())


def test_circuit_size_and_rank():
    # every circuit C has |C| = f(C) + 1 and rank f(C)
    rng = SplitMix64(88)
    for case in range(25):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_vertices=5, max_edges=7)
        order, table = rank_bruteforce_table(g, None, prof)
        for cmask in brute_circuits(g, prof, order, table):
            C = [order[i] for i in range(len(order)) if cmask >> i & 1]
            assert len(C) == f_value(g, C, prof) + 1
            assert table[cmask] == f_value(g, C, prof)


def test_m_components_match_bruteforce():
    rng = SplitMix64(89)
    for case in range(25):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_vertices=5, max_edges=7)
        order, table = rank_bruteforce_table(g, None, prof)
        dec = m_components(g, None, prof)
        assert sorted(dec.components) == brute_m_components(g, prof, order, table)


def test_m_connected_tightness_and_closure():
    # nontrivial M-connected set: rank = f, and edges on its vertices add no rank
    rng = SplitMix64(90)
    found = 0
    for case in range(40):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_vertices=5, max_edges=8)
        for comp in m_components(g, None, prof).nontrivial:
            found += 1
            assert rank_value(g, comp, prof) == f_value(g, comp, prof)
            spanned = {w for e in comp for w in (g.edge(e).u, g.edge(e).v)}
            extended = build_graph(
                [(v, g.kinds[v]) for v in g.vertex_ids],
                [(e.u, e.v, e.id) for e in g.edges] + [(min(spanned), max(spanned), "probe")],
            )
            assert rank_value(extended, list(comp) + ["probe"], prof) == rank_value(
                g, comp, prof
            )
    assert found > 5


def test_component_additivity():
    rng = SplitMix64(91)
    for case in range(20):
        sub = rng.spawn(case)
        g = random_kinded_graph(sub, max_edges=8)
        dec = m_components(g, None, PROF3)
        assert rank_value(g, None, PROF3) == sum(
            rank_value(g, c, PROF3) for c in dec.components
        )
        pdec = p_components(g, PROF3)
        assert fhat(g, None, PROF3) == sum(
            fhat(g, c, PROF3) for c in pdec.components
        )


# ---------------------------------------------------------------------------
# Polymatroid rank fhat


def test_fhat_examples():
    assert fhat(parallel(1), None, PROF3) == 4  # single rod-rod edge
    tri = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    assert fhat(tri, None, PROF3) == 12
    assert fhat_bruteforce(tri, None, PROF3) == 12


def test_fhat_disjoint_additivity():
    g = build_graph(
        [("a", "rod"), ("b", "rod"), ("c", "body"), ("d", "body")],
        [("a", "b"), ("c", "d")],
    )
    assert fhat(g, None, PROF3) == fhat(g, ["e0"], PROF3) + fhat(g, ["e1"], PROF3)


def test_fhat_matches_bruteforce_randomized():
    rng = SplitMix64(92)
    for case in range(25):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_vertices=5, max_edges=6)
        expansion = expand_f(g, prof)
        for F in subsets_of(g.edge_ids):
            if not F:
                continue
            assert fhat(g, F, prof, expanded=expansion) == fhat_bruteforce(g, F, prof)


# ---------------------------------------------------------------------------
# P-components


def brute_p_components(g, prof):
    """Additive-bipartition signatures on fhat (definitional)."""
    order = g.edge_ids
    n = len(order)
    total = fhat_bruteforce(g, None, prof)

    def fh(mask):
        return fhat_bruteforce(
            g, [order[i] for i in range(n) if mask >> i & 1], prof
        )

    sig = [0] * n
    full = (1 << n) - 1
    for side in range(1, 1 << (n - 1)):
        mask = side << 1
        if fh(mask) + fh(full ^ mask) == total:
            for i in range(n):
                sig[i] = (sig[i] << 1) | (mask >> i & 1)
    groups = {}
    for i in range(n):
        groups.setdefault(sig[i], []).append(order[i])
    return sorted(tuple(v) for v in groups.values())


def test_p_components_examples():
    # two vertex-disjoint triangles on bodies: two components
    vs = [("a%d" % i, "body") for i in range(3)] + [("b%d" % i, "body") for i in range(3)]
    es = [("a0", "a1"), ("a1", "a2"), ("a2", "a0"),
          ("b0", "b1"), ("b1", "b2"), ("b2", "b0")]
    g = build_graph(vs, es)
    dec = p_components(g, PROF3)
    assert [len(c) for c in dec.components] == [3, 3]

    single = parallel(1)
    assert p_components(single, PROF3).components == (("e0",),)

    tri = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    assert len(p_components(tri, PROF3).nontrivial) == 1


def test_p_components_match_bruteforce():
    rng = SplitMix64(93)
    for case in range(20):
        sub = rng.spawn(case)
        d = 2 + sub.below(2)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_vertices=5, max_edges=6)
        dec = p_components(g, prof)
        assert sorted(dec.components) == brute_p_components(g, prof)


def test_cube_all_trivial_d2():
    dec = p_components(cube_graph(VertexKind.ROD), CountProfile.body_rod_bar(2))
    assert len(dec.components) == 12
    assert all(len(c) == 1 for c in dec.components)


# ---------------------------------------------------------------------------
# Simplification


def test_simplify_triangle_to_star():
    tri = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    g2 = simplify_component(tri, tri.edge_ids, PROF3)
    assert len(g2.vertex_ids) == 4
    assert len(g2.edges) == 3
    center = [v for v in g2.vertex_ids if v not in tri.vertex_ids]
    assert len(center) == 1 and g2.kinds[center[0]] == VertexKind.BODY
    for e in g2.edges:
        assert center[0] in (e.u, e.v)


def test_simplify_rejects_singleton():
    g = parallel(1)
    with pytest.raises(ValueError, match="nontrivial"):
        simplify_component(g, ["e0"], PROF3)


def test_simplify_rejects_disconnected():
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body"), ("d", "body")],
        [("a", "b"), ("c", "d")],
    )
    with pytest.raises(ValueError, match="not P-connected"):
        simplify_component(g, None, PROF3)


def test_simplified_star_copies_are_coloops():
    # each expanded copy of a new star edge is in every base
    rng = SplitMix64(94)
    done = 0
    for case in range(30):
        sub = rng.spawn(case)
        g = random_kinded_graph(sub, max_vertices=5, max_edges=7)
        comps = p_components(g, PROF3).nontrivial
        if not comps:
            continue
        done += 1
        g2 = simplify_component(g, comps[0], PROF3)
        exp, copies = expand_f(g2, PROF3)
        total = rank_value(exp, None, PROF3)
        star_edges = [e for e in g2.edge_ids if e.startswith("s:")]
        for se in star_edges:
            for cid in copies[se]:
                keep = [x for x in exp.edge_ids if x != cid]
                assert rank_value(exp, keep, PROF3) == total - 1
        if done >= 5:
            break
    assert done >= 3


def test_rank_capped_by_size_and_f():
    rng = SplitMix64(95)
    for case in range(25):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_edges=8)
        for F in subsets_of(g.edge_ids):
            if not F:
                continue
            r = rank_value(g, F, prof)
            assert r <= min(len(F), f_value(g, F, prof))

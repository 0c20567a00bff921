"""Count-matroid engine vs its exhaustive oracles.

The pebble game is never trusted on its own: ranks are checked against the
partition-minimum brute force, and both decompositions are checked against
definitional recomputations (minimal dependent sets from the rank table;
additive-bipartition signatures on fhat for P-components).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit.count_matroid import (
    BRUTEFORCE_LIMIT,
    PebbleState,
    RankCertificate,
    _fundamental_circuit_rest,
    certificate,
    fhat,
    fhat_bruteforce,
    is_independent,
    m_components,
    p_components,
    p_components_of_expansion,
    pebble_game,
    rank,
    rank_bruteforce,
    rank_bruteforce_table,
    rank_value,
    simplify_component,
)
from rigikit.analysis import count_side, random_multigraph
from rigikit.field import SplitMix64
from rigikit.graph import (
    CountProfile,
    GraphError,
    VertexKind,
    build_graph,
    expand_f,
    f_value,
)

from helpers import (
    check_pebble_invariant,
    cube_graph,
    fundamental_circuit_reference,
    p_components_reference,
    random_kinded_graph,
    rank_bruteforce_reference,
    sorted_pebble_game,
    subsets_of,
)

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


def hinged_triangles():
    """A body triangle beside an isolated hinge, and with a hinge edge."""
    vs = [("a", "body"), ("b", "body"), ("c", "body"), ("h", "hinge")]
    tri = [("a", "b"), ("b", "c"), ("c", "a")]
    return build_graph(vs, tri), build_graph(vs, tri + [("a", "h")])


@pytest.mark.parametrize("g", hinged_triangles(), ids=("isolated-hinge", "hinge-edge"))
def test_every_entry_point_rejects_an_uncountable_vertex(g):
    # the game's capacities, expand_f's f(e) and the brute force's costs
    # reject a hinge; simplify_component checks the whole graph, as the
    # triangle it simplifies never meets the hinge
    for call in (lambda: rank_value(g, None, PROF3), lambda: fhat(g, None, PROF3),
                 lambda: p_components(g, PROF3), lambda: fhat_bruteforce(g, None, PROF3),
                 lambda: rank_bruteforce(g, None, PROF3),
                 lambda: simplify_component(g, ("e0", "e1", "e2"), PROF3)):
        with pytest.raises(GraphError, match="not countable"):
            call()


@pytest.mark.parametrize("eids", (["zz"], ["e1", "zz", "e0"]), ids=("alone", "among-known"))
@pytest.mark.parametrize("entry", (fhat, rank_value, rank, is_independent, m_components,
                                   fhat_bruteforce, rank_bruteforce, simplify_component,
                                   f_value), ids=lambda f: f.__name__)
def test_an_unknown_edge_id_is_a_graph_error_naming_it(entry, eids):
    g = build_graph([("a", "body"), ("b", "body"), ("r", "rod")],
                    [("a", "b"), ("b", "r"), ("r", "a")])
    with pytest.raises(GraphError, match="^unknown edge id 'zz'$"):
        entry(g, eids, PROF3)


def test_brute_force_size_error_comes_before_the_hinge_error():
    g = build_graph([("a", "body"), ("b", "body"), ("h", "hinge")],
                    [("a", "b")] * 12 + [("a", "h")])
    for oracle in (fhat_bruteforce, rank_bruteforce):
        with pytest.raises(ValueError, match="limited") as exc:
            oracle(g, None, PROF3)
        assert not isinstance(exc.value, GraphError)
    with pytest.raises(GraphError, match="not countable"):
        fhat(g, None, PROF3)


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
        sub = rng.spawn(case)
        prof = (CountProfile.body_rod_bar(2 + case % 3), CountProfile.direction(2))[case % 2]
        g = random_kinded_graph(sub, max_vertices=5, max_edges=16)
        state = PebbleState(g, prof)
        for eid in g.edge_ids:
            state.try_insert(eid)
            check_pebble_invariant(state)
        before = (dict(state.pebbles), {v: dict(a) for v, a in state.out.items()})
        # copies with random subsets released: still valid states, and a
        # retried edge fits exactly when a fresh game over the rest takes it
        for _ in range(4):
            drop = [e for e in state.inserted if sub.below(2)]
            released = state.released(drop)
            check_pebble_invariant(released)
            assert released.inserted == [e for e in state.inserted if e not in drop]
            for x in drop + [x for x, _ in state.rejected]:
                retry = state.released(drop)
                fits = retry.try_insert(x)
                check_pebble_invariant(retry)
                assert fits == is_independent(g, released.inserted + [x], prof)
        assert (state.pebbles, state.out) == before  # copies leave the state as it was


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


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1), st.integers(2, 4), st.sampled_from((0, 50, 100)),
       st.booleans())
def test_bruteforce_witness_is_read_from_the_fhat_table(seed, d, rod_pct, subset):
    # the parts read back from the one fhat table are the parts of a second
    # DP over the non-free edges alone: value, free part and parts, in order
    prof = CountProfile.body_rod_bar(d)
    g = random_kinded_graph(SplitMix64(seed), max_vertices=6, max_edges=9, rod_pct=rod_pct)
    eids = g.edge_ids[::2] if subset else None
    assert rank_bruteforce(g, eids, prof) == rank_bruteforce_reference(g, eids, prof)


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
    # f-expansions, where every edge has parallel clones: only the first
    # rejected clone of a class has its circuit read
    expansions = 0
    for case in range(40):
        sub = rng.spawn(100 + case)
        d = 2 + sub.below(2)
        prof = (CountProfile.body_rod_bar(d), CountProfile.direction(d + 1))[sub.below(2)]
        g = random_kinded_graph(sub, max_vertices=4, max_edges=4, rod_pct=70)
        exp, _ = expand_f(g, prof)
        if len(exp.edges) > BRUTEFORCE_LIMIT:
            continue
        expansions += 1
        order, table = rank_bruteforce_table(exp, None, prof)
        dec = m_components(exp, None, prof)
        assert sorted(dec.components) == brute_m_components(exp, prof, order, table)
    assert expansions >= 15


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
        for F in subsets_of(g.edge_ids):
            if not F:
                continue
            assert fhat(g, F, prof) == fhat_bruteforce(g, F, prof)


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


@st.composite
def expansion_cases(draw):
    """(graph or None, expand_f's pair, checked certificate, profile) at d = 3, 4:
    a random kinded graph's f-expansion under either profile, or a
    body-hinge or direction model's count graph (graph None)."""
    d = draw(st.integers(3, 4))
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    source = draw(st.sampled_from(("kinded", "body-hinge", "direction")))
    if source == "kinded":
        prof = draw(st.sampled_from((CountProfile.body_rod_bar(d), CountProfile.direction(d))))
        g = random_kinded_graph(rng)
        expanded = expand_f(g, prof)
        return g, expanded, rank(expanded[0], None, prof), prof
    cs = count_side(random_multigraph(rng, source), source, d)
    return None, (cs.count_graph, cs.copies), certificate(cs.state, None), cs.profile


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(expansion_cases())
def test_p_components_match_the_sorted_whole_copy_reference(case):
    g, expanded, cert, prof = case
    expected = p_components_reference(expanded, cert, prof)
    assert p_components_of_expansion(expanded, cert, prof) == expected
    if g is not None:
        assert p_components(g, prof) == expected


def test_straddling_copies_raise_on_a_checked_certificate():
    # two parallel body-body edges at d = 2 expand to 2 x 3 copies; each
    # certificate below partitions them and passes its check, yet splits e1
    prof = CountProfile.body_rod_bar(2)
    expanded = expand_f(parallel(2, "body", "body"), prof)
    e0, e1 = expanded[1]["e0"], expanded[1]["e1"]
    split = (RankCertificate(value=6, free_part=(), parts=(e0 + e1[:1], e1[1:])),
             RankCertificate(value=4, free_part=e1[2:], parts=(e0 + e1[:2],)))
    for cert in split:
        cert.check(expanded[0], prof, None)
        with pytest.raises(RuntimeError, match="copies of edge 'e1' straddle"):
            p_components_of_expansion(expanded, cert, prof)


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


# ---------------------------------------------------------------------------
# Matroid axioms of pebble rank, past the brute-force limit

AXIOMS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def count_matroids(draw):
    """(graph, profile, ground set): 12-20 edges of a multigraph or its f-expansion."""
    d = draw(st.integers(2, 4))
    prof = draw(st.sampled_from((CountProfile.body_rod_bar(d), CountProfile.direction(d))))
    nv = draw(st.integers(2, 7))
    kinds = draw(st.lists(st.sampled_from(("body", "rod")), min_size=nv, max_size=nv))
    pair = st.tuples(st.integers(0, nv - 1), st.integers(1, nv - 1))
    pairs = draw(st.lists(pair, min_size=12, max_size=20))
    g = build_graph(
        [("v%d" % i, k) for i, k in enumerate(kinds)],
        [("v%d" % u, "v%d" % ((u + k) % nv)) for u, k in pairs],
    )
    if draw(st.booleans()):
        g, _ = expand_f(g, prof)  # the ground set is then the first copies
    return g, prof, g.edge_ids[:20]


@AXIOMS
@given(count_matroids(), st.data())
def test_pebble_rank_is_a_matroid_rank(case, data):
    g, prof, ground = case
    subset = st.lists(st.sampled_from(ground), unique=True)
    A, B = set(data.draw(subset)), set(data.draw(subset))

    def r(F):
        return rank_value(g, F, prof)

    assert r([]) == 0
    assert 0 <= r(A) <= len(A)
    for e in set(ground) - A:
        assert r(A | {e}) - r(A) in (0, 1)
    assert r(A & B) <= r(A) <= r(A | B)
    assert r(A) + r(B) >= r(A | B) + r(A & B)
    # the one game over the ground set answers the same by release and re-offer
    full = pebble_game(g, ground, prof)
    for F in (A, B, A & B, A | B):
        assert full.rank_without(set(ground) - F) == r(F)


# ---------------------------------------------------------------------------
# Fundamental circuits read off the reach region


@st.composite
def finished_games(draw):
    """A finished game over a small multigraph or its f-expansion, either profile, d = 2..4."""
    d = draw(st.integers(2, 4))
    prof = draw(st.sampled_from((CountProfile.body_rod_bar(d), CountProfile.direction(d))))
    nv = draw(st.integers(2, 5))
    kinds = draw(st.lists(st.sampled_from(("body", "rod")), min_size=nv, max_size=nv))
    pair = st.tuples(st.integers(0, nv - 1), st.integers(1, nv - 1))
    pairs = draw(st.lists(pair, min_size=2, max_size=12))
    g = build_graph(
        [("v%d" % i, k) for i, k in enumerate(kinds)],
        [("v%d" % u, "v%d" % ((u + k) % nv)) for u, k in pairs],
    )
    if draw(st.booleans()):
        g, _ = expand_f(g, prof)
    return pebble_game(g, None, prof)


def rejected_classes(state):
    """(x, reach, clones) per parallel class with a rejection: its first
    rejected edge x, the reach region of x's failed search, and the later
    rejected clones, which the game rejects with no search (reach None)."""
    classes = {}
    for x, reach in state.rejected:
        key = state.graph.first_parallel[x]
        if key in classes:
            assert reach is None
            classes[key][2].append(x)
        else:
            assert reach is not None
            classes[key] = (x, reach, [])
    return list(classes.values())


def fundamental_circuits(state):
    """Each class's circuit C = rest + x, read off x's region, and C - x + x'
    for each later rejected clone x'."""
    out = []
    for x, reach, clones in rejected_classes(state):
        rest = _fundamental_circuit_rest(state, x, reach)
        out.extend(rest + (y,) for y in [x] + clones)
    return out


@AXIOMS
@given(count_matroids())
def test_m_components_come_sorted_by_first_edge(case):
    g, prof, ground = case
    comps = m_components(g, ground, prof).components
    assert all(c == g.sorted_edge_ids(c) for c in comps)
    assert list(comps) == sorted(comps, key=lambda c: g.edge_index[c[0]])
    assert sorted(e for c in comps for e in c) == sorted(ground)


@AXIOMS
@given(finished_games())
def test_reach_region_circuits_match_candidate_tests(state):
    for x, reach, _ in rejected_classes(state):
        assert _fundamental_circuit_rest(state, x, reach) == fundamental_circuit_reference(
            state, x, reach
        )
    checked = set()
    for circuit in fundamental_circuits(state):
        if len(circuit) > BRUTEFORCE_LIMIT or frozenset(circuit) in checked:
            continue
        checked.add(frozenset(circuit))
        # a circuit: dependent, and every one-element deletion independent
        order, table = rank_bruteforce_table(state.graph, circuit, state.prof)
        full = (1 << len(order)) - 1
        assert table[full] < len(order)
        assert all(table[full ^ (1 << i)] == len(order) - 1 for i in range(len(order)))


@AXIOMS
@given(finished_games())
def test_fundamental_circuits_satisfy_elimination(state):
    # distinct circuits C1, C2 sharing e: (C1 | C2) - e is dependent; one
    # brute-force rank table per union of at most 8 edges answers every e
    circuits = list({frozenset(c) for c in fundamental_circuits(state)})
    shared: dict[frozenset, set] = {}
    for i, c1 in enumerate(circuits):
        for c2 in circuits[i + 1:]:
            if c1 & c2 and len(c1 | c2) <= 8:
                shared.setdefault(c1 | c2, set()).update(c1 & c2)
    for union, common in shared.items():
        order, table = rank_bruteforce_table(state.graph, union, state.prof)
        full = (1 << len(order)) - 1
        for i, e in enumerate(order):
            if e in common:
                assert table[full ^ (1 << i)] < len(order) - 1


@AXIOMS
@given(finished_games())
def test_insertion_order_walk_matches_the_sorted_walk(state):
    # the order a search walks out-arcs moves only which arcs it reverses:
    # the basis, the rejections with their reach regions, the certificate
    # and the P-components are the same as the sorted walk's
    g, prof = state.graph, state.prof
    ref = sorted_pebble_game(g, prof)
    assert state.inserted == ref.inserted and state.rejected == ref.rejected
    assert certificate(state, None) == certificate(ref, None)
    expanded = expand_f(g, prof)
    ref_cert = certificate(sorted_pebble_game(expanded[0], prof), None)
    assert p_components(g, prof) == p_components_of_expansion(expanded, ref_cert, prof)


@AXIOMS
@given(finished_games(), st.data())
def test_an_empty_release_continues_the_game_move_for_move(state, data):
    # the subset check grows each subset's game from a copy of its parent's:
    # a copy that releases nothing keeps the dead classes, so offering the
    # remaining edges makes the moves of one game over all of them
    g, prof = state.graph, state.prof
    k = data.draw(st.integers(0, len(g.edge_ids)))
    game = pebble_game(g, g.edge_ids[:k], prof).released(())
    for eid in g.edge_ids[k:]:
        game.try_insert(eid)
    assert (game.pebbles, game.out, game.inserted, game.dead) == (
        state.pebbles, state.out, state.inserted, state.dead)
    assert game.rejected == [r for r in state.rejected if g.edge_index[r[0]] >= k]


def test_one_failed_search_per_rejected_class(monkeypatch):
    # the body-bar ring's f-expansion at n = 64, d = 3: every bar has six
    # clones, and only the first rejected clone of a class is searched
    n = 64
    edges = []
    for i in range(n):
        edges += [(i, (i + 1) % n)] * 2 + [(i, (i + 2) % n)]
    g = build_graph([(i, "body") for i in range(n)], edges)
    exp, _ = expand_f(g, PROF3)
    failed = []
    real = PebbleState._find_pebble

    def counted(self, u, v):
        found, visited = real(self, u, v)
        if not found:
            failed.append((u, v))
        return found, visited

    monkeypatch.setattr(PebbleState, "_find_pebble", counted)
    state = pebble_game(exp, None, PROF3)
    classes = {exp.first_parallel[x] for x, _ in state.rejected}
    assert len(failed) == len(classes) == 66
    assert len(state.rejected) == 774

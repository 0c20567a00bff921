import pytest

from rigikit.field import SplitMix64
from rigikit.graph import (
    CountProfile,
    GraphError,
    VertexKind,
    build_graph,
    expand_f,
    f_edge,
    f_value,
    vertex_counts,
)

from helpers import random_kinded_graph, subsets_of


def test_minimal_graph():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    assert len(g.vertex_ids) == 2
    assert len(g.edges) == 1
    assert g.edge("e0").u == "a"


def test_loop_rejected():
    with pytest.raises(GraphError, match="loop"):
        build_graph([("a", "body")], [("a", "a")])


def test_parallel_edges_accepted():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b"), ("a", "b")])
    assert len(g.edges) == 2
    assert g.edge_ids == ("e0", "e1")


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphError, match="duplicate vertex id 'a'"):
        build_graph([("a", "body"), ("a", "rod")], [])


def test_dangling_endpoint_rejected():
    with pytest.raises(GraphError, match="dangling endpoint 'z'"):
        build_graph([("a", "body")], [("a", "z")])


def test_unknown_kind_rejected():
    for kind in ("panel", 7, 5, None, True, ["rod"]):
        with pytest.raises(GraphError, match="vertex 'a' has unknown kind"):
            build_graph([("a", kind)], [])


def test_profile_invariants():
    for d in range(2, 7):
        prof = CountProfile.body_rod_bar(d)
        assert prof.D == d * (d + 1) // 2
        assert prof.capacity(VertexKind.BODY) == prof.D
        assert prof.capacity(VertexKind.ROD) == prof.D - 1
        assert prof.offset == prof.D
    with pytest.raises(ValueError):
        CountProfile.body_rod_bar(1)
    with pytest.raises(ValueError):
        CountProfile.body_rod_bar(7)


def test_profile_rejects_hinge():
    prof = CountProfile.body_rod_bar(3)
    with pytest.raises(GraphError, match="hinge"):
        prof.capacity(VertexKind.HINGE)


def test_direction_profile():
    prof = CountProfile.direction(2)
    assert prof.capacity(VertexKind.BODY) == 2
    assert prof.offset == 3


def test_f_value_examples():
    prof = CountProfile.body_rod_bar(3)
    bb = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    assert f_value(bb, ["e0"], prof) == 6
    rr = build_graph([("a", "rod"), ("b", "rod")], [("a", "b")])
    assert f_value(rr, ["e0"], prof) == 4
    tri = build_graph(
        [("a", "rod"), ("b", "rod"), ("c", "rod")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    assert f_value(tri, tri.edge_ids, prof) == 6 * 2 - 3


def test_f_empty_rejected():
    prof = CountProfile.body_rod_bar(3)
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    with pytest.raises(ValueError):
        f_value(g, [], prof)


def test_vertex_counts():
    g = build_graph(
        [("a", "body"), ("b", "rod"), ("c", "rod")],
        [("a", "b"), ("b", "c")],
    )
    assert vertex_counts(g, []) == (0, 0, 0)
    assert vertex_counts(g, ["e0"]) == (2, 1, 1)
    # shared rod counted once
    assert vertex_counts(g, ["e0", "e1"]) == (3, 1, 2)


def test_expand_f_copy_counts():
    prof = CountProfile.body_rod_bar(3)
    g = build_graph(
        [("a", "rod"), ("b", "rod"), ("c", "body")], [("a", "b"), ("a", "c")]
    )
    exp, copies = expand_f(g, prof)
    assert len(copies["e0"]) == 4  # rod-rod
    assert len(copies["e1"]) == 5  # body-rod
    assert len(exp.edges) == 9


def test_expand_f_fig_pattern_d2():
    # D=3 profile: body-body edges triple, rod-rod edges stay single
    prof = CountProfile.body_rod_bar(2)
    g = build_graph(
        [("a", "body"), ("b", "body"), ("r", "rod"), ("s", "rod")],
        [("a", "b"), ("r", "s"), ("a", "r")],
    )
    _, copies = expand_f(g, prof)
    assert len(copies["e0"]) == 3
    assert len(copies["e1"]) == 1
    assert len(copies["e2"]) == 2


def test_expand_f_partitions_edges():
    rng = SplitMix64(71)
    prof = CountProfile.body_rod_bar(3)
    for case in range(20):
        g = random_kinded_graph(rng.spawn(case))
        exp, copies = expand_f(g, prof)
        seen = [cid for e in g.edge_ids for cid in copies[e]]
        assert sorted(seen) == sorted(exp.edge_ids)
        assert len(seen) == len(set(seen))
        assert len(seen) == sum(f_edge(g, e, prof) for e in g.edge_ids)


def test_f_of_expansion_equals_f():
    rng = SplitMix64(72)
    for case in range(20):
        d = 2 + rng.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(rng.spawn(case), max_edges=5)
        exp, copies = expand_f(g, prof)
        for F in subsets_of(g.edge_ids):
            if not F:
                continue
            expanded_F = [cid for e in F for cid in copies[e]]
            assert f_value(exp, expanded_F, prof) == f_value(g, F, prof)


def test_f_monotone_and_submodular():
    rng = SplitMix64(73)
    for case in range(15):
        d = 2 + rng.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(rng.spawn(case), max_edges=5)
        sets = [F for F in subsets_of(g.edge_ids) if F]

        def f(F):
            return f_value(g, F, prof)

        f_empty = -prof.offset  # the count formula evaluated on no edges
        for X in sets:
            for Y in sets:
                xs, ys = set(X), set(Y)
                if xs <= ys:
                    assert f(X) <= f(Y)
                union = sorted(xs | ys)
                inter = sorted(xs & ys)
                lhs = f(X) + f(Y)
                rhs = f(union) + (f(inter) if inter else f_empty)
                assert lhs >= rhs


def test_graph_is_hashable_order():
    g = build_graph([("b", "body"), ("a", "body")], [("b", "a"), ("a", "b")])
    assert g.vertex_ids == ("b", "a")
    assert g.sorted_edge_ids(["e1", "e0"]) == ("e0", "e1")

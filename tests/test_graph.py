import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit.analysis import random_multigraph
from rigikit.field import SplitMix64
from rigikit.graph import (
    CountProfile,
    GraphError,
    Multigraph,
    VertexKind,
    build_graph,
    expand_f,
    f_value,
)
from rigikit.rigidity import expand_hinge

from helpers import expand_f_reference, random_kinded_graph, subsets_of


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


def test_first_parallel_on_reversed_and_repeated_pairs():
    g = build_graph(
        [("a", "body"), ("b", "rod"), ("c", "body")],
        [("a", "b", "x"), ("b", "c"), ("b", "a", "y"), ("c", "b"), ("a", "b"), ("c", "a")],
    )
    assert dict(g.first_parallel) == {
        "x": "x", "e1": "e1", "y": "x", "e3": "e1", "e4": "x", "e5": "e5"
    }


def test_first_parallel_of_expansion_copies():
    # every copy of an edge, and every copy of a parallel edge, maps to the
    # first copy of the pair's first edge
    g = build_graph(
        [("a", "body"), ("b", "rod"), ("c", "rod")], [("a", "b"), ("c", "b"), ("b", "a")]
    )
    exp, copies = expand_f(g, CountProfile.body_rod_bar(3))
    assert [len(copies[e]) for e in g.edge_ids] == [5, 4, 5]
    for e in g.edge_ids:
        first = copies[g.first_parallel[e]][0]
        assert all(exp.first_parallel[cid] == first for cid in copies[e])
    assert sorted(set(exp.first_parallel.values())) == ["e0~0", "e1~0"]


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
        assert len(seen) == sum(f_value(g, [e], prof) for e in g.edge_ids)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.sampled_from(("body-bar", "rod-bar", "body-rod-bar", "body-hinge", "direction",
                        "either-way")),
       st.integers(2, 4), st.integers(0, 2**64 - 1))
def test_expand_f_equals_a_rebuild(model, d, seed):
    # the one-pass expansion writes what build_graph would build from the
    # same vertices and copy edges, parallel classes included; "either-way"
    # draws parallels with their endpoints in both orders
    if model == "either-way":
        g = random_kinded_graph(SplitMix64(seed), max_vertices=4, max_edges=10)
    else:
        g = random_multigraph(SplitMix64(seed), model)
    if model == "body-hinge":
        g = expand_hinge(g)
    prof = CountProfile.direction(d) if model == "direction" else CountProfile.body_rod_bar(d)
    (expanded, copies), (rebuilt, ref_copies) = expand_f(g, prof), expand_f_reference(g, prof)
    for field in Multigraph._fields:
        assert getattr(expanded, field) == getattr(rebuilt, field), field
    assert list(expanded.kinds) == list(rebuilt.kinds)
    assert list(expanded.edge_index) == list(rebuilt.edge_index)
    assert copies == ref_copies and list(copies) == list(ref_copies)


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

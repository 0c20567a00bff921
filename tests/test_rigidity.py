import pytest

from rigikit import linalg
from rigikit.exterior import grassmann_check, hodge_star, pairing, proportional
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import CountProfile, GraphError, build_graph, f_edge
from rigikit.rigidity import (
    ConfigError,
    check_incidence,
    expand_hinge,
    kernel_basis,
    matrix_body_bar,
    matrix_body_rod_bar,
    matrix_direction,
    matrix_edge_flats,
    matrix_graphic_union,
    required_rank_body,
    required_rank_direction,
    sample_bar_config,
    sample_joints,
    sample_rod_config,
    verify_trivial_motions,
)

from helpers import dense_rows, random_kinded_graph, rank_reference
from rigikit.analysis import count_side, random_multigraph

P = DEFAULT_PRIME
PROF3 = CountProfile.body_rod_bar(3)


def two_rods(n_bars):
    return build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * n_bars)


def sampled(graph, d=3, seed=1):
    rng = SplitMix64(seed)
    rods = sample_rod_config(graph, d, rng.spawn(0), P)
    bars = sample_bar_config(graph, rods, rng.spawn(1), P)
    return rods, bars


# ---------------------------------------------------------------------------
# Configuration sampling


def test_rod_config_empty_without_rods():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    rods = sample_rod_config(g, 3, SplitMix64(1), P)
    assert rods.rods == ()


def test_rod_config_distinct_decomposable():
    g = build_graph([("r%d" % i, "rod") for i in range(4)], [])
    rods = sample_rod_config(g, 3, SplitMix64(2), P)
    assert len(rods.rods) == 4
    names = list(rods.rods)
    for i, v in enumerate(names):
        kv = rods.plueckers[v]
        assert not kv.is_zero()
        # d=3 rods are degree-2 under the star identification of Gr(d-1, W)
        assert grassmann_check(hodge_star(kv))
        for w in names[i + 1:]:
            assert not proportional(kv, rods.plueckers[w])


def test_bar_config_incidence_by_construction():
    g = build_graph(
        [("r1", "rod"), ("r2", "rod"), ("b", "body")],
        [("r1", "r2"), ("r1", "b"), ("b", "r2")],
    )
    rods, bars = sampled(g, seed=3)
    # rod-rod edge: both pairings vanish; rod-body: exactly the rod side
    q0 = bars.bars["e0"]
    assert pairing(q0, rods.plueckers["r1"]) == 0
    assert pairing(q0, rods.plueckers["r2"]) == 0
    q1 = bars.bars["e1"]
    assert pairing(q1, rods.plueckers["r1"]) == 0
    q2 = bars.bars["e2"]
    assert pairing(q2, rods.plueckers["r2"]) == 0
    for q in bars.bars.values():
        assert grassmann_check(q)
    check_incidence(g, rods, bars)


def test_incidence_violation_named():
    g = two_rods(1)
    rods, bars = sampled(g, seed=4)
    other = two_rods(1)
    bad_rods = sample_rod_config(other, 3, SplitMix64(55), P)
    with pytest.raises(ConfigError, match="e0.*r1"):
        matrix_body_rod_bar(g, bad_rods, bars)


# ---------------------------------------------------------------------------
# Matrix structure


def row_blocks(m, row):
    blocks = []
    for i in range(len(m.vertex_order)):
        chunk = row[i * m.block:(i + 1) * m.block]
        if any(chunk):
            blocks.append((i, chunk))
    return blocks


def test_row_pattern_two_opposite_blocks():
    # every builder: a row is +alpha in u's block, -alpha in v's, zero
    # elsewhere, labelled (edge id, j) with j counting that edge's vectors;
    # stored sparse, its pairs sorted, nonzero and inside those two blocks
    rng = SplitMix64(5)
    for case in range(8):
        g = random_kinded_graph(rng.spawn(case), max_edges=6)
        rods, bars = sampled(g, seed=100 + case)
        joints = sample_joints(g, 3, rng.spawn(50 + case), P)
        builds = [
            (matrix_body_bar(g, bars), lambda e: 1),
            (matrix_body_rod_bar(g, rods, bars), lambda e: 1),
            (matrix_graphic_union(g, 3, rng.spawn(100 + case), P), lambda e: 1),
            (matrix_edge_flats(g, rods, P), lambda e: f_edge(g, e.id, PROF3)),
            (matrix_direction(g, joints, 3, P), lambda e: 2),
        ]
        for m, n_vectors in builds:
            assert m.row_labels == tuple(
                (e.id, j) for e in g.edges for j in range(n_vectors(e))
            )
            for (eid, _), pairs, row in zip(m.row_labels, m.rows, dense_rows(m)):
                e = g.edge(eid)
                cols = [c for c, _ in pairs]
                assert cols == sorted(set(cols))
                assert all(0 < x < P for _, x in pairs)
                ends = {m.vertex_order.index(v) for v in (e.u, e.v)}
                assert {c // m.block for c in cols} <= ends
                blocks = row_blocks(m, row)
                assert [i for i, _ in blocks] == sorted(
                    m.vertex_order.index(v) for v in (e.u, e.v)
                )
                bu, bv = m.block_of(e.u), m.block_of(e.v)
                a, b = row[bu:bu + m.block], row[bv:bv + m.block]
                assert all((x + y) % P == 0 for x, y in zip(a, b))


def test_single_edge_rank_one():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    rods, bars = sampled(g, seed=6)
    m = matrix_body_bar(g, bars)
    assert len(m.rows) == 1
    assert m.ncols == 12
    assert m.rank() == 1


def test_six_parallel_bars_rank_six():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 6)
    rods, bars = sampled(g, seed=7)
    assert matrix_body_bar(g, bars).rank() == 6


def test_constant_motions_in_kernel():
    g = build_graph([("a", "body"), ("b", "body"), ("c", "body")],
                    [("a", "b"), ("b", "c")])
    _, bars = sampled(g, seed=8)
    m = matrix_body_bar(g, bars)
    check = verify_trivial_motions(m)
    assert (check.checked, check.violations) == (6, 0)


def test_body_rod_bar_rank_bound_and_kernel():
    g = two_rods(4)
    rods, bars = sampled(g, seed=9)
    m = matrix_body_rod_bar(g, rods, bars)
    assert m.rank() == 4 == required_rank_body(g, 3)
    basis = kernel_basis(m, rods=rods)
    assert basis.kernel_dim == 8  # D + |R| exactly
    assert basis.trivial_span_dim == 8
    assert basis.nontrivial_dim == 0
    kinds = [k for k, _ in basis.entries]
    assert kinds.count("constant") == 6
    assert kinds.count("rod-spin") == 2


def test_rank_never_exceeds_body_bound():
    rng = SplitMix64(10)
    for case in range(10):
        g = random_kinded_graph(rng.spawn(case), max_edges=10)
        rods, bars = sampled(g, seed=200 + case)
        m = matrix_body_rod_bar(g, rods, bars)
        assert m.rank() <= max(0, required_rank_body(g, 3))


def test_lone_rod_motion_space():
    g = build_graph([("r", "rod")], [])
    rods, bars = sampled(g, seed=11)
    m = matrix_body_rod_bar(g, rods, bars)
    assert len(m.rows) == 0
    basis = kernel_basis(m, rods=rods)
    assert basis.kernel_dim == 6  # whole block space
    assert len(basis.of_kind("constant")) == 6
    assert len(basis.of_kind("rod-spin")) == 1  # formal list keeps D + |R| entries
    assert basis.trivial_span_dim == 6  # the spin lies inside the constants here


def test_edge_flats_rank_matches_f():
    g = build_graph([("r1", "rod"), ("b", "body")], [("r1", "b")])
    rods, _ = sampled(g, seed=12)
    m = matrix_edge_flats(g, rods, P)
    assert len(m.rows) == 5  # f(e) = D - 1 for one rod endpoint
    assert m.rank() == 5


def test_edge_flats_one_nullspace_per_endpoint_pair(monkeypatch):
    # 10 edges over 2 endpoint pairs (some reversed): 2 bases, same rows
    g = build_graph(
        [("r1", "rod"), ("r2", "rod"), ("b", "body")],
        [("r1", "r2"), ("r2", "r1")] * 3 + [("r1", "b"), ("b", "r1")] * 2,
    )
    rods, _ = sampled(g, seed=15)
    real = linalg.nullspace
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "nullspace", counted)
    m = matrix_edge_flats(g, rods, P)
    assert len(calls) == 2
    vertices = [(v, g.kinds[v]) for v in g.vertex_ids]
    for e in g.edges:  # each edge's rows, as a one-edge matrix computes them
        own = tuple(r for r, (eid, _) in zip(m.rows, m.row_labels) if eid == e.id)
        alone = matrix_edge_flats(build_graph(vertices, [(e.u, e.v)]), rods, P)
        assert own == alone.rows


def test_graphic_union_rank():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 8)
    m = matrix_graphic_union(g, 3, SplitMix64(13), P)
    assert m.rank() == 6  # D copies of a 2-vertex graphic matroid


def test_matrix_determinism():
    g = two_rods(3)
    m1 = matrix_body_rod_bar(g, *sampled(g, seed=14))
    m2 = matrix_body_rod_bar(g, *sampled(g, seed=14))
    assert m1.rows == m2.rows


# ---------------------------------------------------------------------------
# Hinge expansion


def test_expand_hinge_counts():
    g = build_graph([("b", "body"), ("h", "hinge")], [("b", "h")])
    exp = expand_hinge(g, 3, SplitMix64(15), P)
    assert len(exp.graph.edges) == 5  # D - 1 parallel bars
    assert exp.graph.edge_ids == tuple("e0~%d" % k for k in range(5))
    assert exp.rods.rods == ("h",)
    check_incidence(exp.graph, exp.rods, exp.bars)
    # the linear side realizes exactly the graph the count side counts on
    rng = SplitMix64(18)
    for d in (3, 4):
        for case in range(6):
            g = random_multigraph(rng.spawn(10 * d + case), "body-hinge")
            bars = expand_hinge(g, d, rng.spawn(case), P).graph
            counted = count_side(g, "body-hinge", d).count_graph
            assert bars.vertex_ids == counted.vertex_ids
            assert dict(bars.kinds) == dict(counted.kinds)
            assert bars.edges == counted.edges


def test_expand_hinge_rejects_nonbipartite():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    with pytest.raises(GraphError, match="must join a body to a hinge"):
        expand_hinge(g, 3, SplitMix64(16), P)


def test_kernel_basis_rejects_trivial_motions_outside_the_kernel():
    # bars that miss the rods: the rods' spins are not in the kernel
    g = two_rods(2)
    rods, bars = sampled(g, seed=4)
    bad_rods = sample_rod_config(two_rods(1), 3, SplitMix64(55), P)
    m = matrix_body_bar(g, bars)
    check = verify_trivial_motions(m, rods=bad_rods)
    assert check.missed == ("rod-spin", "rod-spin")
    with pytest.raises(ConfigError, match="rod-spin motion is not in the kernel"):
        kernel_basis(m, rods=bad_rods)  # a standalone call checks on its own
    with pytest.raises(ConfigError, match="rod-spin motion is not in the kernel"):
        kernel_basis(m, rods=bad_rods, check=check)
    good = verify_trivial_motions(m, rods=rods)
    assert good.violations == 0
    assert kernel_basis(m, rods=rods, check=good) == kernel_basis(m, rods=rods)


def test_hinge_motion_constraint_equivalence():
    # kernel motions of the expanded framework satisfy
    # m(u) - m(v) in span(hinge) for bodies u, v sharing hinge w
    g = build_graph(
        [("u", "body"), ("v", "body"), ("w", "hinge")],
        [("u", "w"), ("v", "w")],
    )
    exp = expand_hinge(g, 3, SplitMix64(17), P)
    m = matrix_body_rod_bar(exp.graph, exp.rods, exp.bars)
    basis = kernel_basis(m, rods=exp.rods)
    spin = list(hodge_star(exp.rods.plueckers["w"]).coords)
    bu, bv = m.block_of("u"), m.block_of("v")
    for _, vec in basis.entries:
        diff = [(vec[bu + j] - vec[bv + j]) % P for j in range(6)]
        assert linalg.rank([linalg.sparse(spin, P), linalg.sparse(diff, P)], P) <= 1


# ---------------------------------------------------------------------------
# Direction model


def test_direction_single_edge():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    joints = {"a": (0, 0), "b": (1, 0)}
    m = matrix_direction(g, joints, 2, P)
    assert len(m.rows) == 1
    assert m.rank() == 1


def test_direction_triangle_rigid():
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    joints = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    m = matrix_direction(g, joints, 2, P)
    assert m.rank() == 3 == required_rank_direction(g, 2)
    basis = kernel_basis(m, joints=joints)
    assert basis.kernel_dim == 3
    assert len(basis.of_kind("constant")) == 2
    assert len(basis.of_kind("dilation")) == 1


def test_direction_coincident_joints_rejected():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    with pytest.raises(ConfigError, match="coincident"):
        matrix_direction(g, {"a": (1, 1), "b": (1, 1)}, 2, P)


def test_sample_joints_distinct():
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    joints = sample_joints(g, 3, SplitMix64(18), P)
    for e in g.edges:
        assert joints[e.u] != joints[e.v]


def test_zero_matrix_kernel():
    g = build_graph([("a", "body"), ("b", "body")], [])
    rods, bars = sampled(g, seed=19)
    m = matrix_body_bar(g, bars)
    assert m.rank() == 0
    assert kernel_basis(m).kernel_dim == 12


def test_kernel_dim_at_least_trivial_count():
    rng = SplitMix64(20)
    for case in range(10):
        g = random_kinded_graph(rng.spawn(case), max_edges=10)
        rods, bars = sampled(g, seed=300 + case)
        m = matrix_body_rod_bar(g, rods, bars)
        n_rods = len(rods.rods)
        assert m.kernel_dim() >= 6 + n_rods


def test_edge_flats_subset_ranks_match_polymatroid():
    # span rank of any subfamily of edge flats equals the count polymatroid
    from rigikit.count_matroid import fhat
    from helpers import subsets_of

    rng = SplitMix64(21)
    for case in range(12):
        g = random_kinded_graph(rng.spawn(case), max_vertices=5, max_edges=5)
        rods, _ = sampled(g, seed=400 + case)
        m = matrix_edge_flats(g, rods, P)
        prof = CountProfile.body_rod_bar(3)
        for F in subsets_of(g.edge_ids):
            if not F:
                continue
            keep = set(F)
            rows = [r for r, (eid, _) in zip(m.rows, m.row_labels) if eid in keep]
            dense = [r for r, (eid, _) in zip(dense_rows(m), m.row_labels) if eid in keep]
            assert linalg.rank(rows, P) == rank_reference(dense, P) == fhat(g, F, prof)

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rigikit import count_matroid as cm
from rigikit import linalg
from rigikit.exterior import (
    hodge_star,
    random_point_in_span,
    wedge2,
    wedge_list,
)
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import (
    CountProfile, GraphError, Multigraph, VertexKind, build_graph, expand_f, f_edge,
)
from rigikit.rigidity import (
    ConfigError,
    RigidityMatrix,
    RodConfig,
    expand_hinge,
    flat_family_rank,
    kernel_basis,
    matrix_body_bar,
    matrix_body_rod_bar,
    matrix_direction,
    matrix_edge_flats,
    matrix_graphic_union,
    sample_bar_config,
    sample_joints,
    sample_rod_config,
    trivial_motions,
    verify_trivial_motions,
)

from helpers import (
    dense_rows,
    direction_reference,
    expand_hinge_reference,
    grassmann_check,
    proportional,
    random_kinded_graph,
    rank_reference,
    trivial_missed_reference,
)
from rigikit.analysis import count_side, linear_trial, random_multigraph
from rigikit.documents import MODELS

P = DEFAULT_PRIME
PROF3 = CountProfile.body_rod_bar(3)


def two_rods(n_bars):
    return build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * n_bars)


def motion_space(m, rods=None, joints=None):
    """kernel_basis as a standalone caller runs it: m's rank and trivial check."""
    return kernel_basis(m, m.rank(), verify_trivial_motions(m, rods=rods, joints=joints))


def sampled(graph, d=3, seed=1):
    rng = SplitMix64(seed)
    rods = sample_rod_config(graph, d, rng.spawn(0), P)
    bars = sample_bar_config(graph, rods, rng.spawn(1), P)
    return rods, bars


def dot(q, normal, p=P):
    """q . normal mod p: zero exactly when the bar q meets the rod of that normal."""
    return sum(a * b for a, b in zip(q, normal)) % p


def hinge_framework(graph, d, rng, p):
    """(bar graph, rods, bars): the body-hinge graph's rewrite f-expanded, then
    sampled as a body-rod-bar framework, as a linear trial realizes it."""
    bars_graph, _ = expand_f(expand_hinge(graph), CountProfile.body_rod_bar(d))
    rods = sample_rod_config(bars_graph, d, rng.spawn(0), p)
    return bars_graph, rods, sample_bar_config(bars_graph, rods, rng.spawn(1), p)


# ---------------------------------------------------------------------------
# Configuration sampling


def test_rod_config_empty_without_rods():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    rods = sample_rod_config(g, 3, SplitMix64(1), P)
    assert tuple(rods.normals) == ()


def test_rod_config_distinct_decomposable():
    g = build_graph([("r%d" % i, "rod") for i in range(4)], [])
    rods = sample_rod_config(g, 3, SplitMix64(2), P)
    names = list(rods.normals)
    assert len(names) == 4
    for i, v in enumerate(names):
        # the normal is the star of the rod's Pluecker vector
        normal = rods.normals[v]
        assert normal == hodge_star(wedge_list(rods.spans[v], 3, P), 3, 2, P)
        assert any(normal)
        # d=3 rods are degree-2 under the star identification of Gr(d-1, W)
        assert grassmann_check(normal, 2, 3, P)
        for w in names[i + 1:]:
            assert not proportional(normal, rods.normals[w], P)


def test_bar_config_incidence_by_construction():
    g = build_graph(
        [("r1", "rod"), ("r2", "rod"), ("b", "body")],
        [("r1", "r2"), ("r1", "b"), ("b", "r2")],
    )
    rods, bars = sampled(g, seed=3)
    # rod-rod edge: both products with the normals vanish; rod-body: the rod side
    q0 = bars.bars["e0"]
    assert dot(q0, rods.normals["r1"]) == 0
    assert dot(q0, rods.normals["r2"]) == 0
    q1 = bars.bars["e1"]
    assert dot(q1, rods.normals["r1"]) == 0
    q2 = bars.bars["e2"]
    assert dot(q2, rods.normals["r2"]) == 0
    for q in bars.bars.values():
        assert grassmann_check(q, 2, 3, P)
    assert verify_trivial_motions(matrix_body_rod_bar(g, bars), rods=rods).missed == ()


def test_incidence_violation_named():
    # bar e0 of one rod config misses both rods of another: the spins of r1
    # and r2 are the motions the matrix does not annihilate
    g = two_rods(1)
    rods, bars = sampled(g, seed=4)
    other = two_rods(1)
    bad_rods = sample_rod_config(other, 3, SplitMix64(55), P)
    m = matrix_body_rod_bar(g, bars)
    assert all(dot(bars.bars["e0"], bad_rods.normals[v]) for v in ("r1", "r2"))
    assert verify_trivial_motions(m, rods=bad_rods).missed == ("rod-spin", "rod-spin")
    assert verify_trivial_motions(m, rods=rods).missed == ()


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
    # elsewhere, the rows in edge order, each edge's vectors in turn;
    # stored sparse, its pairs sorted, nonzero and inside those two blocks.
    # Edge flats give f(e) rows to the first edge of an endpoint pair and
    # none to its later parallels.
    rng = SplitMix64(5)
    for case in range(8):
        g = random_kinded_graph(rng.spawn(case), max_edges=6)
        rods, bars = sampled(g, seed=100 + case)
        joints = sample_joints(g, 3, rng.spawn(50 + case), P)
        builds = [
            (matrix_body_bar(g, bars), lambda e: 1),
            (matrix_body_rod_bar(g, bars), lambda e: 1),
            (matrix_graphic_union(g, 3, rng.spawn(100 + case), P), lambda e: 1),
            (
                matrix_edge_flats(g, rods, P),
                lambda e: f_edge(g, e.id, PROF3) if g.first_parallel[e.id] == e.id else 0,
            ),
            (matrix_direction(g, joints, 3, P), lambda e: 2),
        ]
        for m, n_vectors in builds:
            row_edges = [e for e in g.edges for _ in range(n_vectors(e))]
            assert len(m.rows) == len(row_edges)
            for e, pairs, row in zip(row_edges, m.rows, dense_rows(m)):
                cols = [c for c, _ in pairs]
                assert cols == sorted(set(cols))
                assert all(0 < x < P for _, x in pairs)
                ends = {m.vertex_order.index(v) for v in (e.u, e.v)}
                assert {c // m.block for c in cols} <= ends
                blocks = row_blocks(m, row)
                assert [i for i, _ in blocks] == sorted(
                    m.vertex_order.index(v) for v in (e.u, e.v)
                )
                bu, bv = (m.vertex_order.index(v) * m.block for v in (e.u, e.v))
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
    assert (check.checked, check.missed) == (6, ())


def test_body_rod_bar_rank_bound_and_kernel():
    g = two_rods(4)
    rods, bars = sampled(g, seed=9)
    m = matrix_body_rod_bar(g, bars)
    assert m.rank() == 4 == cm.global_count_target(g, PROF3)
    basis = motion_space(m, rods=rods)
    assert basis.kernel_dim == 8  # D + |R| exactly
    assert basis.trivial_span_dim == 8
    assert basis.nontrivial_dim == 0
    kinds = [k for k, _ in verify_trivial_motions(m, rods=rods).motions]
    assert kinds.count("constant") == 6
    assert kinds.count("rod-spin") == 2


def test_rank_never_exceeds_body_bound():
    rng = SplitMix64(10)
    for case in range(10):
        g = random_kinded_graph(rng.spawn(case), max_edges=10)
        rods, bars = sampled(g, seed=200 + case)
        m = matrix_body_rod_bar(g, bars)
        assert m.rank() <= cm.global_count_target(g, PROF3)


def test_lone_rod_motion_space():
    g = build_graph([("r", "rod")], [])
    rods, bars = sampled(g, seed=11)
    m = matrix_body_rod_bar(g, bars)
    assert len(m.rows) == 0
    basis = motion_space(m, rods=rods)
    assert basis.kernel_dim == 6  # whole block space
    kinds = [k for k, _ in verify_trivial_motions(m, rods=rods).motions]
    assert kinds == ["constant"] * 6 + ["rod-spin"]  # formal list keeps D + |R| entries
    assert basis.trivial_span_dim == 6  # the spin lies inside the constants here


def test_edge_flats_rank_matches_f():
    g = build_graph([("r1", "rod"), ("b", "body")], [("r1", "b")])
    rods, _ = sampled(g, seed=12)
    m = matrix_edge_flats(g, rods, P)
    assert len(m.rows) == 5  # f(e) = D - 1 for one rod endpoint
    assert m.rank() == 5


def test_edge_flats_one_nullspace_per_endpoint_pair(monkeypatch):
    # 10 edges over 2 endpoint pairs (some reversed): 2 bases; the first edge
    # of each pair carries its one-edge rows, every later parallel none
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
    assert [e.id for e in g.edges if g.first_parallel[e.id] == e.id] == ["e0", "e6"]
    start = 0
    for e in g.edges:  # rows in edge order: each first edge's, as a one-edge matrix computes them
        alone = matrix_edge_flats(build_graph(vertices, [(e.u, e.v)]), rods, P)
        own = alone.rows if g.first_parallel[e.id] == e.id else ()
        assert m.rows[start:start + len(own)] == own
        start += len(own)
    assert start == len(m.rows)


def test_graphic_union_rank():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 8)
    m = matrix_graphic_union(g, 3, SplitMix64(13), P)
    assert m.rank() == 6  # D copies of a 2-vertex graphic matroid


def test_matrix_determinism():
    g = two_rods(3)
    m1 = matrix_body_rod_bar(g, sampled(g, seed=14)[1])
    m2 = matrix_body_rod_bar(g, sampled(g, seed=14)[1])
    assert m1.rows == m2.rows


# ---------------------------------------------------------------------------
# Hinge expansion


def test_expand_hinge_counts():
    g = build_graph([("b", "body"), ("h", "hinge")], [("b", "h")])
    rewrite = expand_hinge(g)
    assert rewrite.vertex_ids == g.vertex_ids and rewrite.edges == g.edges
    assert dict(rewrite.kinds) == {"b": VertexKind.BODY, "h": VertexKind.ROD}
    bars_graph, rods, bars = hinge_framework(g, 3, SplitMix64(15), P)
    assert len(bars_graph.edges) == 5  # D - 1 parallel bars
    assert bars_graph.edge_ids == tuple("e0~%d" % k for k in range(5))
    assert tuple(rods.normals) == ("h",)
    assert verify_trivial_motions(matrix_body_rod_bar(bars_graph, bars), rods=rods).missed == ()
    # the linear side realizes exactly the graph the count side counts on
    rng = SplitMix64(18)
    for d in (3, 4):
        for case in range(6):
            g = random_multigraph(rng.spawn(10 * d + case), "body-hinge")
            bars_graph = hinge_framework(g, d, rng.spawn(case), P)[0]
            counted = count_side(g, "body-hinge", d).count_graph
            assert bars_graph.vertex_ids == counted.vertex_ids
            assert dict(bars_graph.kinds) == dict(counted.kinds)
            assert bars_graph.edges == counted.edges


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**64 - 1))
def test_expand_hinge_swaps_kinds_as_a_rebuild_would(seed):
    g = random_multigraph(SplitMix64(seed), "body-hinge")
    swapped, rebuilt = expand_hinge(g), expand_hinge_reference(g)
    for field in Multigraph._fields:
        assert getattr(swapped, field) == getattr(rebuilt, field), field
    assert list(swapped.kinds) == list(rebuilt.kinds)


def test_expand_hinge_rejects_nonbipartite():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    with pytest.raises(GraphError, match="must join a body to a hinge"):
        expand_hinge(g)
    # the count side rewrites through it, so no trial is ever sampled
    with pytest.raises(GraphError, match="edge 'e0' must join a body to a hinge, got body-body"):
        count_side(g, "body-hinge", 3)


def test_kernel_basis_rejects_trivial_motions_outside_the_kernel():
    # bars that miss the rods: the rods' spins are not in the kernel
    g = two_rods(2)
    rods, bars = sampled(g, seed=4)
    bad_rods = sample_rod_config(two_rods(1), 3, SplitMix64(55), P)
    m = matrix_body_bar(g, bars)
    check = verify_trivial_motions(m, rods=bad_rods)
    assert check.missed == ("rod-spin", "rod-spin")
    with pytest.raises(ConfigError, match="rod-spin motion is not in the kernel"):
        kernel_basis(m, m.rank(), check)
    good = verify_trivial_motions(m, rods=rods)
    assert good.missed == ()
    assert kernel_basis(m, m.rank(), good).kernel_dim == m.ncols - m.rank()


TRIVIAL_CASES = (
    ("body-bar", 2), ("body-bar", 3), ("rod-bar", 3), ("body-rod-bar", 3),
    ("body-rod-bar", 4), ("body-hinge", 3), ("direction", 2), ("direction", 3),
)
TRIVIAL_PROPERTY = settings(derandomize=True, max_examples=80, deadline=None, database=None)


def checked_against_reference(m, rods=None, joints=None):
    """verify_trivial_motions's one pass, asserted equal to one dense product per motion."""
    check = verify_trivial_motions(m, rods=rods, joints=joints)
    assert check.motions == tuple(trivial_motions(m, rods=rods, joints=joints))
    assert check.missed == trivial_missed_reference(m, check.motions)
    return check


def perturbed(m, rng):
    """m with one value of one nonempty row changed: a row off the kernel's invariant."""
    filled = [i for i, row in enumerate(m.rows) if row]
    if not filled:
        return m
    i = filled[rng.below(len(filled))]
    row = list(m.rows[i])
    k = rng.below(len(row))
    c, b = row[k]
    row[k] = (c, (b + 1 + rng.below(m.p - 2)) % m.p or 1)
    return m._replace(rows=m.rows[:i] + (tuple(row),) + m.rows[i + 1:])


@TRIVIAL_PROPERTY
@given(st.sampled_from(TRIVIAL_CASES), st.sampled_from((5, 7, P)), st.integers(0, 2**32 - 1))
def test_one_pass_trivial_check_matches_per_motion_products(case, p, seed):
    # every builder, the same rows unmarked, a perturbed row, and the wrong
    # configuration: the one pass misses exactly the motions the dense
    # per-motion products miss, in family order
    model, d = case
    rng = SplitMix64(seed)
    g = random_multigraph(rng.spawn(0), model, max_vertices=6, max_edges=10)
    try:
        if model == "direction":
            joints = sample_joints(g, d, rng.spawn(1), p)
            built = [(matrix_direction(g, joints, d, p), None, joints, True)]
            wrong = (None, sample_joints(g, d, rng.spawn(2), p))
        elif model == "body-hinge":
            bars_graph, rods, bars = hinge_framework(g, d, rng.spawn(1), p)
            m = matrix_body_rod_bar(bars_graph, bars)
            built = [(m, rods, None, True)]
            wrong = (None, None)  # the constants alone
        else:
            rods = sample_rod_config(g, d, rng.spawn(1), p)
            bars = sample_bar_config(g, rods, rng.spawn(2), p)
            built = [
                (matrix_body_rod_bar(g, bars), rods, None, True),
                (matrix_edge_flats(g, rods, p), rods, None, True),
                (matrix_graphic_union(g, d, rng.spawn(3), p), rods, None, not rods.normals),
            ]
            wrong = (sample_rod_config(g, d, rng.spawn(4), p), None)
    except ConfigError:
        reject()
    for m, rods, joints, valid in built:
        check = checked_against_reference(m, rods=rods, joints=joints)
        assert check.missed == () or not valid
        unmarked = checked_against_reference(m._replace(two_block=False), rods=rods, joints=joints)
        assert unmarked == check
        checked_against_reference(perturbed(m, rng.spawn(5)), rods=rods, joints=joints)
        checked_against_reference(m, rods=wrong[0], joints=wrong[1])


@st.composite
def hand_built(draw):
    """(matrix, rods, joints): random sparse rows over 1-4 blocks of width 3,
    rods of d = 2 on some vertices (their star images have width 3), joints
    of width 3 or none."""
    p = draw(st.sampled_from((5, 7, P)))
    n = draw(st.integers(1, 4))
    order = tuple("v%d" % i for i in range(n))
    value = st.integers(1, p - 1)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cols = draw(st.sets(st.integers(0, 3 * n - 1)))
        rows.append(tuple((c, draw(value)) for c in sorted(cols)))
    m = RigidityMatrix(p=p, block=3, vertex_order=order, rows=tuple(rows))
    kinds = [draw(st.sampled_from(("rod", "body"))) for _ in order]
    g = build_graph(list(zip(order, kinds)), [])
    rods = sample_rod_config(g, 2, SplitMix64(draw(st.integers(0, 2**32 - 1))), p)
    vec = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1), st.integers(0, p - 1))
    joints = draw(st.one_of(st.none(), st.fixed_dictionaries({v: vec for v in order})))
    return m, rods, joints


@TRIVIAL_PROPERTY
@given(hand_built())
def test_one_pass_trivial_check_matches_on_hand_built_matrices(case):
    m, rods, joints = case
    checked_against_reference(m, rods=rods, joints=joints)
    checked_against_reference(m)


@TRIVIAL_PROPERTY
@given(st.sampled_from(("rod-bar", "body-rod-bar")), st.sampled_from((3, 4)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_rod_spins_are_the_bar_rod_incidence_check(model, d, seed, both_ends):
    # the rod spins are the one incidence check: an incident configuration
    # misses nothing, and one bar moved off one rod end's hyperplane (or off
    # both ends) makes the matrix miss one rod spin per rod end the bar left,
    # and never a constant motion
    rng = SplitMix64(seed)
    g = random_multigraph(rng.spawn(0), model, max_vertices=6, max_edges=10)
    rods = sample_rod_config(g, d, rng.spawn(1), P)
    bars = sample_bar_config(g, rods, rng.spawn(2), P)
    assert verify_trivial_motions(matrix_body_rod_bar(g, bars), rods=rods).missed == ()
    at_rods = [e for e in g.edges if e.u in rods.normals or e.v in rods.normals]
    if not at_rods:
        reject()
    e = at_rods[rng.below(len(at_rods))]
    ends = [v for v in (e.u, e.v) if v in rods.normals]
    leave = ends[rng.below(len(ends))]
    kept = e.v if leave == e.u else e.u
    move = rng.spawn(3)
    if kept in rods.normals and not both_ends:
        x = random_point_in_span(rods.spans[kept], move, P)  # still on the kept rod
    else:
        x = move.nonzero_vector(d + 1, P)
    q = wedge2(x, move.nonzero_vector(d + 1, P), d, P)
    left = [v for v in ends if dot(q, rods.normals[v])]
    if leave not in left:
        reject()  # the free point fell in the rod's hyperplane: probability about 1/P
    if not both_ends:
        assert left == [leave]
    moved = bars._replace(bars={**bars.bars, e.id: q})
    missed = verify_trivial_motions(matrix_body_rod_bar(g, moved), rods=rods).missed
    assert missed == ("rod-spin",) * len(left)


def test_hinge_motion_constraint_equivalence():
    # kernel motions of the expanded framework satisfy
    # m(u) - m(v) in span(hinge) for bodies u, v sharing hinge w
    g = build_graph(
        [("u", "body"), ("v", "body"), ("w", "hinge")],
        [("u", "w"), ("v", "w")],
    )
    bars_graph, rods, bars = hinge_framework(g, 3, SplitMix64(17), P)
    m = matrix_body_rod_bar(bars_graph, bars)
    kern = linalg.nullspace(dense_rows(m), m.ncols, P)
    assert len(kern) == motion_space(m, rods=rods).kernel_dim
    spin = list(rods.normals["w"])
    bu, bv = (m.vertex_order.index(v) * m.block for v in ("u", "v"))
    for vec in kern:
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
    assert m.rank() == 3 == cm.global_count_target(g, CountProfile.direction(2))
    assert motion_space(m, joints=joints).kernel_dim == 3
    kinds = [k for k, _ in verify_trivial_motions(m, joints=joints).motions]
    assert kinds == ["constant"] * 2 + ["dilation"]


def test_direction_coincident_joints_rejected():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    with pytest.raises(ConfigError, match="coincident"):
        matrix_direction(g, {"a": (1, 1), "b": (1, 1)}, 2, P)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(2, 4), st.sampled_from((2, 3, 7, P)), st.integers(0, 2**32 - 1))
def test_direction_rows_span_the_complement_of_delta(d, p, seed):
    # each edge's d-1 rows are a basis of delta's orthogonal complement,
    # written without an inverse: the matrix ranks as the nullspace rows do
    rng = SplitMix64(seed)
    g = random_multigraph(rng.spawn(0), "direction", max_vertices=5, max_edges=8)
    try:
        joints = sample_joints(g, d, rng.spawn(1), p)
    except ConfigError:
        reject()
    m = matrix_direction(g, joints, d, p)
    rows = dense_rows(m)
    assert len(rows) == (d - 1) * len(g.edges)
    for i, e in enumerate(g.edges):
        delta = [(a - b) % p for a, b in zip(joints[e.u], joints[e.v])]
        u = m.vertex_order.index(e.u) * d
        alphas = [row[u:u + d] for row in rows[i * (d - 1):(i + 1) * (d - 1)]]
        assert all(dot(alpha, delta, p) == 0 for alpha in alphas)
        assert rank_reference(alphas, p) == d - 1
    assert m.rank() == direction_reference(g, joints, d, p).rank()


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
    assert motion_space(m).kernel_dim == 12


def test_kernel_dim_at_least_trivial_count():
    rng = SplitMix64(20)
    for case in range(10):
        g = random_kinded_graph(rng.spawn(case), max_edges=10)
        rods, bars = sampled(g, seed=300 + case)
        m = matrix_body_rod_bar(g, bars)
        basis = motion_space(m, rods=rods)
        assert basis.kernel_dim >= basis.trivial_span_dim == 6 + len(rods.normals)


def test_edge_flats_subset_ranks_match_polymatroid():
    # span rank of any subfamily of edge flats equals the count polymatroid;
    # each subset gets its own matrix, since it may hold only a later parallel
    from rigikit.count_matroid import fhat
    from helpers import subsets_of

    rng = SplitMix64(21)
    prof = CountProfile.body_rod_bar(3)
    later_only = 0  # subsets holding a later parallel but not its first edge
    for case in range(12):
        g = random_kinded_graph(rng.spawn(case), max_vertices=5, max_edges=5)
        rods, _ = sampled(g, seed=400 + case)
        vertices = [(v, g.kinds[v]) for v in g.vertex_ids]
        for F in subsets_of(g.edge_ids):
            if not F:
                continue
            later_only += any(g.first_parallel[e] not in F for e in F)
            sub = build_graph(vertices, [(g.edge(e).u, g.edge(e).v, e) for e in F])
            m = matrix_edge_flats(sub, rods, P)
            rank = linalg.rank(m.rows, P)
            assert rank == rank_reference(dense_rows(m), P) == fhat(g, F, prof)
    assert later_only > 0


# ---------------------------------------------------------------------------
# Grounded rank

SMALL_PRIMES = (2, 3, 5, 7, 2**31 - 1)  # tiny primes make rank drops common
GROUNDED = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def small_frameworks(draw):
    """(d, p, seed, graph): 1-5 vertices, 0-8 edges, parallels drawn often."""
    d = draw(st.integers(2, 4))
    p = draw(st.sampled_from(SMALL_PRIMES))
    n = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(("body", "rod")), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    n_edges = draw(st.integers(0, 8)) if pairs else 0
    edges = [draw(st.sampled_from(pairs)) for _ in range(n_edges)]
    graph = build_graph(
        [("v%d" % i, k) for i, k in enumerate(kinds)],
        [("v%d" % u, "v%d" % v) for u, v in edges],
    )
    return d, p, draw(st.integers(0, 2**16)), graph


def every_builder(d, p, seed, g):
    """The matrices of all six builders on g (the graphic union both whole and
    truncated at every rod; hinge: rods read as hinges, and the body-hinge
    edges kept); a sampler out of retries skips its builder."""
    rng = SplitMix64(seed)
    hinged = build_graph(
        [(v, "hinge" if g.kinds[v] == VertexKind.ROD else "body") for v in g.vertex_ids],
        [(e.u, e.v) for e in g.edges if g.kinds[e.u] != g.kinds[e.v]],
    )
    builds = [
        lambda: matrix_graphic_union(g, d, rng.spawn(3), p),
        lambda: matrix_direction(g, sample_joints(g, d, rng.spawn(2), p), d, p),
    ]
    try:
        rods = sample_rod_config(g, d, rng.spawn(0), p)
        bars = sample_bar_config(g, rods, rng.spawn(1), p)
    except ConfigError:
        pass
    else:
        builds += [
            lambda: matrix_body_bar(g, bars),
            lambda: matrix_body_rod_bar(g, bars),
            lambda: matrix_edge_flats(g, rods, p),
            lambda: matrix_graphic_union(g, d, rng.spawn(3), p, rods.normals),
        ]

    def hinge():
        bars_graph, _, hinge_bars = hinge_framework(hinged, d, rng.spawn(4), p)
        return matrix_body_rod_bar(bars_graph, hinge_bars)

    out = []
    for build in builds + [hinge]:
        try:
            out.append(build())
        except ConfigError:
            pass
    return out


@GROUNDED
@given(small_frameworks())
def test_grounded_rank_equals_the_full_rank(case):
    for m in every_builder(*case):
        assert m.rank() == rank_reference(dense_rows(m), m.p)


def test_rank_never_offers_the_grounded_block(monkeypatch):
    # RigidityMatrix.rank drops the columns of the block met by the most rows
    # (the first in vertex order on a tie): every row reaches the echelon
    # with that block's pairs removed and no row is lost
    offered = []
    ranking = []
    real_rank, real_linalg_rank = RigidityMatrix.rank, linalg.rank

    def rank(self):
        ranking.append(self)
        try:
            return real_rank(self)
        finally:
            ranking.pop()

    def linalg_rank(rows, p):
        if ranking:
            offered.append((ranking[-1], list(rows)))
        return real_linalg_rank(rows, p)

    monkeypatch.setattr(RigidityMatrix, "rank", rank)
    monkeypatch.setattr(linalg, "rank", linalg_rank)
    rng = SplitMix64(808)
    seen = set()
    for i, model in enumerate(MODELS):
        for d in (2, 3, 4):
            before = len(offered)
            g = random_multigraph(rng.spawn(10 * i + d), model, max_vertices=5)
            if model == "body-hinge":  # a trial realizes the rewrite's bar graph
                g = expand_f(expand_hinge(g), CountProfile.body_rod_bar(d))[0]
            linear_trial(g, model, d, P, rng.spawn(100 + 10 * i + d))
            if len(offered) > before:
                seen.add(model)
    assert seen == set(MODELS)
    for m, rows in offered:
        met = [0] * len(m.vertex_order)
        for row in m.rows:
            for b in {c // m.block for c, _ in row}:
                met[b] += 1
        ground = met.index(max(met))
        assert all(c // m.block != ground for row in rows for c, _ in row)
        assert sorted(rows) == sorted(
            tuple(pr for pr in row if pr[0] // m.block != ground) for row in m.rows
        )


def test_hand_built_matrix_is_ranked_whole():
    # one row in one block: grounding the block it meets would read rank 0;
    # only two_block_matrix marks a matrix safe to ground
    m = RigidityMatrix(
        p=P, block=1, vertex_order=("a", "b"), rows=(((0, 1),),)
    )
    assert not m.two_block
    assert m.rank() == rank_reference(dense_rows(m), P) == 1
    assert m._replace(two_block=True).rank() == 0
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    assert matrix_graphic_union(g, 2, SplitMix64(1), P).two_block


# ---------------------------------------------------------------------------
# Flat-family rank

FLATS = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def flat_ranks(g, rods, p):
    """flat_family_rank beside its references: the edge-flat matrix's rank and
    the textbook rank of that matrix's dense rows."""
    m = matrix_edge_flats(g, rods, p)
    return flat_family_rank(g, rods, p), m.rank(), rank_reference(dense_rows(m), p)


@FLATS
@given(small_frameworks())
def test_flat_family_rank_matches_the_edge_flat_matrix(case):
    # the rod models' dimensions, 3 and 4, in place of the drawn d
    _, p, seed, g = case
    for d in (3, 4):
        try:
            rods = sample_rod_config(g, d, SplitMix64(seed).spawn(d), p)
        except ConfigError:
            continue
        new, matrix, reference = flat_ranks(g, rods, p)
        assert new == matrix == reference


@st.composite
def hand_built_normals(draw):
    """(graph, rods, p): each rod's normal is zero, drawn freely, or a
    multiple of an earlier rod's, so one pair can hold a zero normal or two
    proportional ones."""
    d, p, _, g = draw(small_frameworks())
    D = d * (d + 1) // 2
    normals = {}
    for v in g.vertex_ids:
        if g.kinds[v] != VertexKind.ROD:
            continue
        how = draw(st.sampled_from(("zero", "free", "multiple")))
        if how == "multiple" and normals:
            base = normals[draw(st.sampled_from(sorted(normals)))]
            k = draw(st.integers(1, p - 1))
            normals[v] = tuple(k * x % p for x in base)
        elif how == "zero":
            normals[v] = (0,) * D
        else:
            normals[v] = tuple(draw(st.integers(0, p - 1)) for _ in range(D))
    return g, RodConfig(d=d, spans={}, normals=normals), p


@FLATS
@given(hand_built_normals())
def test_flat_family_rank_keeps_an_independent_subset_of_normals(case):
    new, matrix, reference = flat_ranks(*case)
    assert new == matrix == reference


def test_flat_family_rank_of_degenerate_pairs():
    # one pair: a zero normal cuts nothing, two proportional normals cut one
    # hyperplane; on a triangle the same normals reach the back-edge rows
    n = (1, 2, 0, 3, 0, 5)
    pair = build_graph([("a", "rod"), ("b", "rod")], [("a", "b")])
    triangle = build_graph([("a", "rod"), ("b", "rod"), ("c", "rod")],
                           [("a", "b"), ("b", "c"), ("c", "a")])
    for normals, one_pair in (
        ({"a": (0,) * 6, "b": (0,) * 6}, 6),
        ({"a": (0,) * 6, "b": n}, 5),
        ({"a": n, "b": tuple(3 * x for x in n)}, 5),
        ({"a": n, "b": tuple(P - x for x in n)}, 5),
        ({"a": n, "b": (0, 1, 0, 0, 0, 0)}, 4),
    ):
        rods = RodConfig(d=3, spans={}, normals=normals)
        assert flat_ranks(pair, rods, P) == (one_pair,) * 3
        rods = rods._replace(normals={**normals, "c": normals["b"]})
        new, matrix, reference = flat_ranks(triangle, rods, P)
        assert new == matrix == reference


def grid_graph(k):
    """A k x k grid, 2-connected, with every third vertex a body and the rest rods."""
    vertices = [("v%d" % i, "body" if i % 3 == 0 else "rod") for i in range(k * k)]
    edges = [("v%d" % (i * k + j), "v%d" % (i * k + j + 1)) for i in range(k) for j in range(k - 1)]
    edges += [("v%d" % (i * k + j), "v%d" % (i * k + k + j)) for i in range(k - 1) for j in range(k)]
    return build_graph(vertices, edges)


def test_flat_family_rank_on_a_grid():
    g = grid_graph(4)
    for p in (5, P):
        rods = sample_rod_config(g, 3, SplitMix64(31), p)
        new, matrix, reference = flat_ranks(g, rods, p)
        assert new == matrix == reference


@pytest.mark.parametrize("family", ["rod-bar-ring", "body-rod-bar-tree"])
def test_flat_family_rank_on_the_scaling_families(family, monkeypatch):
    # n = 64: too large for the dense reference, so the matrix's rank alone
    from pathlib import Path

    from rigikit.documents import parse_document

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    import scaling

    g, _, d, _ = parse_document(scaling.FAMILIES[family](64))
    rods = sample_rod_config(g, d, SplitMix64(1), P)
    assert flat_family_rank(g, rods, P) == matrix_edge_flats(g, rods, P).rank()

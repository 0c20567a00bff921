"""The paper's main theorem as a gate: the body-rod-bar rigidity matroid is
the union of D = (d+1 choose 2) graphic matroids, cut by one Dilworth
truncation per rod.

Every rod gets a uniformly random hyperplane of F^D (its normal), and every
edge one random vector in its rod endpoints' hyperplanes.  Truncating the
rods one at a time, as the paper's induction does, the generic rank after k
of them is the count rank of the graph whose first k rods are rods and
whose other rods are bodies; after the last one it is the rank of the
Pluecker realization, so decomposable bars and rods lose no rank.  A
body-hinge graph runs the same induction on its count side's bar graph,
D-1 bars per edge and each hinge a rod (Tay's identified body-hinge
theorem).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit import count_matroid as cm
from rigikit import linalg
from rigikit import rigidity as rg
from rigikit.analysis import EngineDisagreement, count_side, random_multigraph, truncate
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import CountProfile, build_graph

from helpers import graphic_union_reference

P = DEFAULT_PRIME
TRIALS = 3


def check_truncation_steps(g, model, d, seed):
    """Truncate g's rods one at a time; at each step the best rank of TRIALS
    samples is the count rank, with no escalation."""
    doc = truncate(g, model, d, P, seed, TRIALS)
    steps = doc["steps"]
    assert doc["trials"]["run"] == TRIALS
    rng = SplitMix64(seed)
    for t in range(TRIALS):  # no rod truncated: the plain union of D graphic matroids
        sub = rng.spawn(2).spawn(t)
        assert (rg.matrix_graphic_union(g, d, sub, P, normals={}).rows
                == graphic_union_reference(g, d, sub, P).rows)
    for step in steps:
        k, best, count = step["k"], step["best_rank"], step["count_rank"]
        assert best == count, (k, best, count)
        if k == len(steps) - 1:
            assert best == step["pluecker_rank"]


GATE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@GATE
@given(
    st.sampled_from(("rod-bar", "body-rod-bar")),
    st.sampled_from((3, 4)),
    st.integers(0, 2**32 - 1),
)
def test_truncated_graphic_union_has_the_count_rank(model, d, seed):
    g = random_multigraph(SplitMix64(seed).spawn(0), model)
    check_truncation_steps(g, model, d, seed)


@st.composite
def dense_rod_graphs(draw):
    """(d, graph): 2-4 vertices, the first a rod, and D-1 to 3D edges, so
    that the counts bind; fuzz graphs are almost always independent."""
    d = draw(st.sampled_from((3, 4)))
    D = d * (d + 1) // 2
    n = draw(st.integers(2, 4))
    kinds = ["rod"] + draw(st.lists(st.sampled_from(("rod", "body")), min_size=n - 1,
                                    max_size=n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=D - 1, max_size=3 * D))
    graph = build_graph(
        [("v%d" % i, k) for i, k in enumerate(kinds)],
        [("v%d" % u, "v%d" % v) for u, v in edges],
    )
    return d, graph


@GATE
@given(dense_rod_graphs(), st.integers(0, 2**32 - 1))
def test_truncated_graphic_union_has_the_count_rank_where_it_binds(case, seed):
    d, g = case
    check_truncation_steps(g, "body-rod-bar", d, seed)


@pytest.mark.parametrize("d", [3, 4])
def test_genericity_matters_two_rods_sharing_a_normal(d):
    # two rods on D-1 parallel edges: distinct normals leave each edge a
    # (D-2)-flat and the count rank D-2; one shared normal leaves a
    # hyperplane, and the rank passes the count
    D = d * (d + 1) // 2
    g = build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * (D - 1))
    rng = SplitMix64(d)
    n1, n2 = rng.spawn(0).nonzero_vector(D, P), rng.spawn(1).nonzero_vector(D, P)
    distinct = rg.matrix_graphic_union(g, d, rng.spawn(2), P, {"r1": n1, "r2": n2})
    shared = rg.matrix_graphic_union(g, d, rng.spawn(2), P, {"r1": n1, "r2": n1})
    count = cm.rank_value(g, None, CountProfile.body_rod_bar(d))
    assert (count, distinct.rank(), shared.rank()) == (D - 2, D - 2, D - 1)
    for row in distinct.rows:  # alpha in r1's block lies in both rods' hyperplanes
        alpha = linalg.dense(row, 2 * D)[:D]
        assert all(sum(a * x for a, x in zip(alpha, n)) % P == 0 for n in (n1, n2))


# graphs, steps, binding steps, count-rank drops, rigid graphs
HINGE_TRUNCATION_COUNTS = (100, 363, 52, 25, 12)


def test_random_body_hinge_graphs_truncate_to_their_count_rank():
    # Tay's identified body-hinge theorem through the same induction: the
    # steps run on count_side's bar graph (D-1 bars per edge, each hinge a
    # rod), and the last step's count and Pluecker ranks are cs.rank.  A
    # step binds when its count rank is below the count graph's edge count.
    graphs = steps = binding = drops = rigid = 0
    failures = []
    for i in range(100):
        g = random_multigraph(SplitMix64(i), "body-hinge")
        cs = count_side(g, "body-hinge", 3)
        graphs += 1
        try:
            doc = truncate(g, "body-hinge", 3, P, i, TRIALS)
        except EngineDisagreement as exc:
            failures.append(exc.dump)
            continue
        assert all(s["best_rank"] == s["count_rank"] for s in doc["steps"]), i
        assert doc["steps"][-1]["pluecker_rank"] == cs.rank, i
        ranks = [s["count_rank"] for s in doc["steps"]]
        steps += len(ranks)
        binding += sum(rank < len(cs.count_graph.edges) for rank in ranks)
        drops += sum(b < a for a, b in zip(ranks, ranks[1:]))
        rigid += ranks[-1] == cs.target
    assert failures == []
    assert (graphs, steps, binding, drops, rigid) == HINGE_TRUNCATION_COUNTS

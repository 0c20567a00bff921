"""The paper's main theorem as a gate: the body-rod-bar rigidity matroid is
the union of D = (d+1 choose 2) graphic matroids, cut by one Dilworth
truncation per rod.

Every rod gets a uniformly random hyperplane of F^D (its normal), and every
edge one random vector in its rod endpoints' hyperplanes.  Truncating the
rods one at a time, as the paper's induction does, the generic rank after k
of them is the count rank of the graph whose first k rods are rods and
whose other rods are bodies; after the last one it is the rank of the
Pluecker realization, so decomposable bars and rods lose no rank.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit import count_matroid as cm
from rigikit import rigidity as rg
from rigikit.analysis import random_multigraph
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import CountProfile, VertexKind, build_graph

from helpers import truncated_union_matrix

P = DEFAULT_PRIME
TRIALS = 3


def first_rods_kept(graph, k):
    """graph with its first k rods (in vertex order) kept and the other rods made bodies."""
    rods = [v for v in graph.vertex_ids if graph.kinds[v] == VertexKind.ROD]
    kept = set(rods[:k])
    return build_graph(
        [(v, VertexKind.ROD if v in kept else VertexKind.BODY) for v in graph.vertex_ids],
        [(e.u, e.v, e.id) for e in graph.edges],
    )


def pluecker_rank(graph, d, rng):
    """Best rank over TRIALS body-rod-bar (Pluecker) realizations of graph."""
    best = 0
    for t in range(TRIALS):
        sub = rng.spawn(t)
        rods = rg.sample_rod_config(graph, d, sub.spawn(0), P)
        bars = rg.sample_bar_config(graph, rods, sub.spawn(1), P)
        best = max(best, rg.matrix_body_rod_bar(graph, rods, bars).rank())
    return best


def check_truncation_steps(g, d, rng):
    """Truncate g's rods one at a time; at each step the best rank of TRIALS
    samples is the count rank."""
    D = d * (d + 1) // 2
    prof = CountProfile.body_rod_bar(d)
    rods = [v for v in g.vertex_ids if g.kinds[v] == VertexKind.ROD]
    normals = {v: rng.spawn(1).spawn(i).nonzero_vector(D, P) for i, v in enumerate(rods)}
    for k in range(len(rods) + 1):
        gk = first_rods_kept(g, k)
        best = 0
        for t in range(TRIALS):
            sub = rng.spawn(2).spawn(t)
            m = truncated_union_matrix(gk, d, normals, sub, P)
            if k == 0:  # no rod truncated: the plain union of D graphic matroids
                assert m.rows == rg.matrix_graphic_union(gk, d, sub, P).rows
            best = max(best, m.rank())
        count = cm.rank_value(gk, None, prof)
        assert best == count, (k, best, count)
        if k == len(rods):
            assert best == pluecker_rank(g, d, rng.spawn(3))


GATE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@GATE
@given(
    st.sampled_from(("rod-bar", "body-rod-bar")),
    st.sampled_from((3, 4)),
    st.integers(0, 2**32 - 1),
)
def test_truncated_graphic_union_has_the_count_rank(model, d, seed):
    rng = SplitMix64(seed)
    check_truncation_steps(random_multigraph(rng.spawn(0), model), d, rng)


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
    check_truncation_steps(g, d, SplitMix64(seed))

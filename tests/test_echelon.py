"""The echelon primitive and the answers built on it, against kept references.

``rank``, ``rref`` and ``nullspace`` are compared exactly with a textbook
Gauss-Jordan elimination on dense rows (``helpers.rref_reference``); sparse
rows are checked against their dense expansion.  ``kernel_basis`` reads the
motion space's dimensions off the rank by rank-nullity; its dimensions, and
the ones analyze reports, are compared with an explicit kernel basis
classified one vector at a time (``helpers.kernel_basis_reference``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit import analysis, linalg
from rigikit import rigidity as rg
from rigikit.analysis import count_side, linear_trial, random_multigraph
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import build_graph

from helpers import (
    dense_rows,
    kernel_basis_reference,
    mat_vec_reference,
    nullspace_reference,
    rank_reference,
    rref_reference,
)

PRIMES = (2, 3, 7, 2**31 - 1)  # small primes hit zero pivots often
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def matrices(draw):
    """(p, ncols, rows): random rows plus random combinations of them, shuffled."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
    row = st.lists(entry, min_size=n, max_size=n)
    base = draw(st.lists(row, max_size=5))
    combos = []
    if base:
        coefs = st.lists(entry, min_size=len(base), max_size=len(base))
        for cs in draw(st.lists(coefs, max_size=3)):
            combos.append([sum(c * r[j] for c, r in zip(cs, base)) % p for j in range(n)])
    rows = base + combos
    order = draw(st.permutations(range(len(rows))))
    return p, n, [rows[i] for i in order]


@PROPERTY
@given(matrices())
def test_rank_rref_nullspace_match_reference(case):
    p, n, rows = case
    sparse = [linalg.sparse(row, p) for row in rows]
    assert linalg.rank(sparse, p) == rank_reference(rows, p)
    assert linalg.rref(rows, p) == rref_reference(rows, p)
    kern = linalg.nullspace(rows, n, p)
    assert kern == nullspace_reference(rows, n, p)
    for vec in kern:
        assert not any(linalg.mat_vec(sparse, vec, p))


@PROPERTY
@given(matrices(), st.data())
def test_add_is_false_exactly_on_the_span(case, data):
    p, n, rows = case
    ech = linalg.Echelon(p)
    for row in rows:
        ech.add(linalg.sparse(row, p))
    assert len(set(ech.table)) == ech.rank
    assert set(ech.inverse) == set(ech.table)
    for c, row in ech.table.items():
        cols = [col for col, _ in row]
        assert row[-1][0] == c  # unscaled, ending at the pivot: everything else left of it
        assert cols == sorted(set(cols)) and all(0 < x < p for _, x in row)
        assert ech.inverse[c] * row[-1][1] % p == 1
    if rows and data.draw(st.booleans()):
        vec = rows[data.draw(st.integers(0, len(rows) - 1))]
    else:
        vec = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    in_span = rank_reference(rows + [vec], p) == rank_reference(rows, p)
    before = (list(ech.table.values()), list(ech.table))
    arg = linalg.sparse(vec, p)
    residual = ech.reduce(arg)
    assert (not residual) == in_span
    if residual:
        assert residual[-1][0] not in ech.table
    grew = ech.add(arg)
    assert grew == (not in_span)
    if in_span:
        assert (list(ech.table.values()), list(ech.table)) == before
    else:
        assert ech.rank == len(before[0]) + 1
        assert not ech.reduce(arg)


@PROPERTY
@given(matrices(), st.data())
def test_a_row_past_every_pivot_is_stored_as_given(case, data):
    p, n, rows = case
    ech = linalg.Echelon(p)
    for row in rows:
        ech.add(linalg.sparse(row, p))
    top = data.draw(st.sampled_from([c for c in range(n + 1) if c not in ech.table]))
    below = data.draw(st.lists(st.integers(1, p - 1), min_size=top, max_size=top))
    row = tuple((c, x) for c, x in enumerate(below) if data.draw(st.booleans()))
    row += ((top, data.draw(st.integers(1, p - 1))),)
    assert ech.reduce(row) is row
    assert ech.add(row)
    assert ech.table[top] is row


@st.composite
def sparse_matrices(draw):
    """(p, ncols, rows): zero, repeated and random sparse rows in linalg's format."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 9))
    value = st.integers(1, p - 1)
    rows = []
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "random")), max_size=8)):
        if kind == "zero":
            rows.append(())
        elif kind == "repeat" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            cols = draw(st.sets(st.integers(0, n - 1)))
            rows.append(tuple((c, draw(value)) for c in sorted(cols)))
    return p, n, rows


@PROPERTY
@given(sparse_matrices(), st.data())
def test_sparse_rows_match_their_dense_expansion(case, data):
    p, n, rows = case
    m = rg.RigidityMatrix(
        p=p, block=1, vertex_order=tuple("v%d" % i for i in range(n)), rows=tuple(rows)
    )
    dense = dense_rows(m)
    assert [linalg.sparse(row, p) for row in dense] == rows
    assert linalg.rank(rows, p) == rank_reference(dense, p)
    vec = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    assert linalg.mat_vec(m.rows, vec, p) == mat_vec_reference(dense, vec, p)


def rod_ring(n):
    """n rods on a cycle, 5 bars each: two to the next rod, two to the one after, one beyond.

    That is 5n bars against a rank of at most 5n - 6, so the last rows are
    dependent and their walks run back across the ring.
    """
    edges = []
    for i in range(n):
        for hop in (1, 1, 2, 2, 3):
            edges.append(("r%d" % i, "r%d" % ((i + hop) % n)))
    return build_graph([("r%d" % i, "rod") for i in range(n)], edges)


def henneberg_2d(n, braces):
    """A 2-D direction framework: each new joint joins two earlier ones, then
    braces from the first joints to the last, each of them dependent."""
    rng = SplitMix64(n)
    edges = [("j0", "j1")]
    for v in range(2, n):
        a = rng.below(v)
        b = (a + 1 + rng.below(v - 1)) % v
        edges += [("j%d" % a, "j%d" % v), ("j%d" % b, "j%d" % v)]
    edges += [("j%d" % i, "j%d" % (n - 1 - i)) for i in range(braces)]
    return build_graph([("j%d" % i, "body") for i in range(n)], edges)


def closed_hinge_ladder(n):
    """n bodies on a cycle, each consecutive pair sharing one hinge."""
    vertices = [("b%d" % i, "body") for i in range(n)] + [("h%d" % i, "hinge") for i in range(n)]
    edges = [e for i in range(n) for e in (("b%d" % i, "h%d" % i), ("h%d" % i, "b%d" % ((i + 1) % n)))]
    return build_graph(vertices, edges)


@pytest.mark.parametrize("p", [2**31 - 1, 7])
@pytest.mark.parametrize("model, d, graph", [
    ("rod-bar", 3, rod_ring(24)),
    ("direction", 2, henneberg_2d(24, 3)),
    ("body-hinge", 3, closed_hinge_ladder(12)),
])
def test_rank_of_long_fill_chains_matches_reference(model, d, graph, p):
    # each graph closes a long cycle, so some row's walk meets pivots many
    # blocks left of its own lowest column; the hypothesis matrices above
    # are too small for that
    realized = graph if model == "direction" else count_side(graph, model, d).count_graph
    m = linear_trial(realized, model, d, p, SplitMix64(34)).matrix
    assert m.rank() == rank_reference(dense_rows(m), p)


# ---------------------------------------------------------------------------
# kernel_basis


MODEL_DIMS = [
    ("body-bar", 2), ("body-bar", 3),
    ("rod-bar", 3),
    ("body-rod-bar", 3), ("body-rod-bar", 4),
    ("body-hinge", 3),
    ("direction", 2), ("direction", 3),
]


def dims(basis):
    return basis.kernel_dim, basis.trivial_span_dim, basis.nontrivial_dim


def check_report_dims(monkeypatch, g, model, d, p, seed):
    """analyze's motion-space fields are the reference's on its best trial."""
    trials = []

    def recorded(*args, **kwargs):
        trials.append(linear_trial(*args, **kwargs))
        return trials[-1]

    with monkeypatch.context() as mp:
        mp.setattr(analysis, "linear_trial", recorded)
        rep = analysis.analyze(g, model, d, prime=p, seed=seed)
    best = max(trials, key=lambda t: t.rank)  # the first trial of the highest rank
    ref = kernel_basis_reference(best.matrix, best.trivial.motions)
    lin = rep["linear"]
    assert (lin["kernel_dim"], lin["trivial_span_dim"], lin["nontrivial_dim"]) == ref
    assert lin["trivial_motions"] == len(best.trivial.motions)


@pytest.mark.parametrize("model, d", MODEL_DIMS)
def test_kernel_basis_matches_rank_per_vector(monkeypatch, model, d):
    rng = SplitMix64(31)
    kinds = set()
    nontrivial = 0
    for case in range(6):
        sub = rng.spawn(case)
        g = random_multigraph(sub.spawn(0), model, max_vertices=6, max_edges=10)
        # body models realize the count side's graph (body-hinge: its bar graph)
        realized = g if model == "direction" else count_side(g, model, d).count_graph
        t = linear_trial(realized, model, d, DEFAULT_PRIME, sub.spawn(1))
        basis = rg.kernel_basis(t.matrix, t.rank, t.trivial)
        assert dims(basis) == kernel_basis_reference(t.matrix, t.trivial.motions)
        kinds.update(k for k, _ in t.trivial.motions)
        nontrivial += basis.nontrivial_dim
        check_report_dims(monkeypatch, g, model, d, DEFAULT_PRIME, 100 + case)
    expected = {"constant"}
    expected |= {"dilation"} if model == "direction" else set()
    expected |= {"rod-spin"} if model in ("rod-bar", "body-rod-bar", "body-hinge") else set()
    assert kinds == expected
    assert nontrivial > 0


def test_kernel_basis_small_prime_matches_rank_per_vector(monkeypatch):
    # over F_7 formal trivial motions coincide often, so the span check matters
    p = 7
    rng = SplitMix64(32)
    for case in range(20):
        g = random_multigraph(rng.spawn(case), "body-rod-bar", max_vertices=5, max_edges=6)
        t = linear_trial(g, "body-rod-bar", 3, p, rng.spawn(100 + case))
        basis = rg.kernel_basis(t.matrix, t.rank, t.trivial)
        assert dims(basis) == kernel_basis_reference(t.matrix, t.trivial.motions)
        check_report_dims(monkeypatch, g, "body-rod-bar", 3, p, 200 + case)


def mechanism(n_links):
    """A chain of bodies joined through rods by one bar each: a wide kernel."""
    vertices = [("b0", "body")]
    edges = []
    for i in range(n_links):
        vertices += [("r%d" % i, "rod"), ("b%d" % (i + 1), "body")]
        edges += [("b%d" % i, "r%d" % i), ("r%d" % i, "b%d" % (i + 1))]
    return build_graph(vertices, edges)


@pytest.mark.parametrize("n_links", [1, 4])
def test_kernel_basis_one_elimination(monkeypatch, n_links):
    g = mechanism(n_links)
    t = linear_trial(g, "body-rod-bar", 3, DEFAULT_PRIME, SplitMix64(33))
    calls = {"nullspace": 0, "rref": 0, "dense": 0, "sparse": 0, "rank": 0, "mat_vec": 0}

    def counting(name):
        orig = getattr(linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name))
    check = rg.verify_trivial_motions(t.matrix)
    assert check == t.trivial
    basis = rg.kernel_basis(t.matrix, t.rank, check)
    assert basis.nontrivial_dim > 0
    # the motions are sparse rows from the start: neither the check nor the
    # echelon writes one out dense, turns one sparse or takes a product, and
    # the trivial family is ranked by one plain elimination
    assert calls == {**dict.fromkeys(calls, 0), "rank": 1}

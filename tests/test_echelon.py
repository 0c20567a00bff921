"""The echelon primitive and the answers built on it, against kept references.

``rank``, ``rref`` and ``nullspace`` are compared exactly with a textbook
Gauss-Jordan elimination on dense rows (``helpers.rref_reference``); sparse
rows are checked against their dense expansion; ``kernel_basis`` is
compared with the rank-per-vector classification it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit import linalg
from rigikit import rigidity as rg
from rigikit.analysis import linear_trial, random_multigraph
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import build_graph

from helpers import dense_rows, mat_vec_reference, rank_reference, rref_reference

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


def nullspace_reference(rows, ncols, p):
    R, pivots = rref_reference(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r][fc]) % p
        basis.append(v)
    return basis


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
    for k, (row, c) in enumerate(zip(ech.rows, ech.pivots)):
        cols = [col for col, _ in row]
        assert row[0] == (c, 1)  # monic at the pivot, nothing left of it
        assert cols == sorted(set(cols)) and all(0 < x < p for _, x in row)
        assert not set(cols) & set(ech.pivots[:k])
    if rows and data.draw(st.booleans()):
        vec = rows[data.draw(st.integers(0, len(rows) - 1))]
    else:
        vec = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    in_span = rank_reference(rows + [vec], p) == rank_reference(rows, p)
    before = (list(ech.rows), list(ech.pivots))
    arg = linalg.sparse(vec, p)
    assert (not ech.reduce(arg)) == in_span
    grew = ech.add(arg)
    assert grew == (not in_span)
    if in_span:
        assert (ech.rows, ech.pivots) == before
    else:
        assert ech.rank == len(before[0]) + 1
        assert not ech.reduce(arg)


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
        p=p, block=1, vertex_order=tuple("v%d" % i for i in range(n)),
        row_labels=tuple(("e", j) for j in range(len(rows))), rows=tuple(rows),
    )
    dense = dense_rows(m)
    assert [linalg.sparse(row, p) for row in dense] == rows
    assert linalg.rank(rows, p) == rank_reference(dense, p)
    vec = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    assert m.apply(vec) == mat_vec_reference(dense, vec, p)


# ---------------------------------------------------------------------------
# kernel_basis


def kernel_basis_reference(m, rods=None, joints=None):
    """The classification by one full rank of the growing span per kernel vector."""
    kern = nullspace_reference(dense_rows(m), m.ncols, m.p)
    trivials = rg.trivial_motions(m, rods=rods, joints=joints)
    current = [list(vec) for _, vec in trivials]
    trivial_dim = rank_reference(current, m.p)
    entries = list(trivials)
    cur_rank = trivial_dim
    for vec in kern:
        if cur_rank == len(kern):
            break
        cand = current + [vec]
        r = rank_reference(cand, m.p)
        if r > cur_rank:
            entries.append(("nontrivial", tuple(vec)))
            current = cand
            cur_rank = r
    return rg.MotionBasis(
        entries=tuple(entries), kernel_dim=len(kern), trivial_span_dim=trivial_dim
    )


MODEL_DIMS = [
    ("body-bar", 2), ("body-bar", 3),
    ("rod-bar", 3),
    ("body-rod-bar", 3), ("body-rod-bar", 4),
    ("body-hinge", 3),
    ("direction", 2), ("direction", 3),
]


@pytest.mark.parametrize("model, d", MODEL_DIMS)
def test_kernel_basis_matches_rank_per_vector(model, d):
    rng = SplitMix64(31)
    kinds = set()
    for case in range(6):
        sub = rng.spawn(case)
        g = random_multigraph(sub.spawn(0), model, max_vertices=6, max_edges=10)
        t = linear_trial(g, model, d, DEFAULT_PRIME, sub.spawn(1))
        basis = rg.kernel_basis(t.matrix, rods=t.rods, joints=t.joints)
        assert basis == kernel_basis_reference(t.matrix, rods=t.rods, joints=t.joints)
        kinds.update(k for k, _ in basis.entries)
    expected = {"constant", "nontrivial"}
    expected |= {"dilation"} if model == "direction" else set()
    expected |= {"rod-spin"} if model in ("rod-bar", "body-rod-bar", "body-hinge") else set()
    assert expected <= kinds


def test_kernel_basis_small_prime_matches_rank_per_vector():
    # over F_7 formal trivial motions coincide often, so the span check matters
    p = 7
    rng = SplitMix64(32)
    for case in range(20):
        g = random_multigraph(rng.spawn(case), "body-rod-bar", max_vertices=5, max_edges=6)
        t = linear_trial(g, "body-rod-bar", 3, p, rng.spawn(100 + case))
        basis = rg.kernel_basis(t.matrix, rods=t.rods)
        assert basis == kernel_basis_reference(t.matrix, rods=t.rods)


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
    t = linear_trial(mechanism(n_links), "body-rod-bar", 3, DEFAULT_PRIME, SplitMix64(33))
    calls = {"rref": 0, "rank": 0}

    def counting(name):
        orig = getattr(linalg, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(linalg, name, counting(name))
    basis = rg.kernel_basis(t.matrix, rods=t.rods)
    assert basis.nontrivial_dim > 0
    assert calls["rref"] <= 1 and calls["rank"] == 0

from itertools import product

import pytest

from rigikit.exterior import (
    hodge_star,
    ksubsets,
    random_point_in_span,
    sample_span,
    wedge2,
    wedge_list,
)
from rigikit.field import DEFAULT_PRIME, SplitMix64

from helpers import det_reference, grassmann_check, pairing, proportional

P = DEFAULT_PRIME


def rand_vec(rng, d, p=P):
    return rng.vector(d + 1, p)


# ---------------------------------------------------------------------------
# wedge2 / wedge_list


def test_wedge2_basis_example():
    assert wedge2((1, 0, 0, 0), (0, 1, 0, 0), 3, P) == (1, 0, 0, 0, 0, 0)


def test_wedge2_alternation():
    rng = SplitMix64(3)
    for _ in range(20):
        d = 2 + rng.below(5)
        a, b = rand_vec(rng, d), rand_vec(rng, d)
        assert not any(wedge2(a, a, d, P))
        ab, ba = wedge2(a, b, d, P), wedge2(b, a, d, P)
        assert all((x + y) % P == 0 for x, y in zip(ab, ba))


def test_wedge2_homogeneous_bar_example():
    # bar through the points (0,0,0) and (1,0,0), homogeneous coordinates
    bar = wedge2((1, 0, 0, 1), (0, 0, 0, 1), 3, P)
    assert bar == (0, 0, 1, 0, 0, 0)
    assert grassmann_check(bar, 2, 3, P)


def test_wedge2_matches_minor_oracle():
    rng = SplitMix64(4)
    for _ in range(25):
        d = 2 + rng.below(5)
        a, b = rand_vec(rng, d), rand_vec(rng, d)
        got = wedge2(a, b, d, P)
        assert len(got) == len(ksubsets(d, 2))
        for (i, j), c in zip(ksubsets(d, 2), got):
            minor = (a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]) % P
            assert c == minor


def test_wedge2_length_mismatch():
    with pytest.raises(ValueError):
        wedge2((1, 0), (0, 1), 3, P)


def test_wedge_list_unit_and_dependent():
    v = wedge_list([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 3, P)
    assert v[ksubsets(3, 3).index((1, 2, 3))] == 1
    assert sum(v) == 1
    dep = wedge_list([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], 3, P)
    assert not any(dep)


def test_wedge_list_intersection_pairing():
    # a random full-rank triple pairs nonzero with an independent complement,
    # zero with a vector inside its own span
    rng = SplitMix64(5)
    for _ in range(20):
        vecs, minors = sample_span(3, 3, rng, P)
        inside = random_point_in_span(vecs, rng, P)
        assert pairing(minors, 3, wedge_list([inside], 3, P), 1, 3, P) == 0
        outside = rng.vector(4, P)
        expected = det_reference([list(v) for v in vecs] + [list(outside)], P)
        assert pairing(minors, 3, wedge_list([outside], 3, P), 1, 3, P) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7, P])
def test_wedge_list_minors_are_cofactor_determinants(p):
    # the level-by-level expansion along the last vector gives the same
    # coordinates as each k x k minor's own determinant, mod p, on small
    # signed integers
    rng = SplitMix64(41)
    for d in range(1, 6):
        for k in range(1, d + 2):
            for _ in range(4):
                vecs = [[rng.below(21) - 10 for _ in range(d + 1)] for _ in range(k)]
                expected = tuple(
                    det_reference([[v[i - 1] for i in subset] for v in vecs], p)
                    for subset in ksubsets(d, k)
                )
                assert wedge_list(vecs, d, p) == expected


# ---------------------------------------------------------------------------
# Hodge star


def test_hodge_star_d3_tuple():
    assert hodge_star((1, 2, 3, 4, 5, 6), 3, 2, P) == (6, P - 5, 4, 3, P - 2, 1)


def test_hodge_star_basis_example():
    e12 = wedge2((1, 0, 0, 0), (0, 1, 0, 0), 3, P)
    assert hodge_star(e12, 3, 2, P)[ksubsets(3, 2).index((3, 4))] == 1


def test_hodge_star_involution_sign():
    for d in range(2, 7):
        for k in range(1, d + 2):
            subs = ksubsets(d, k)
            for i in range(len(subs)):
                coords = [0] * len(subs)
                coords[i] = 1
                ss = hodge_star(hodge_star(coords, d, k, P), d, d + 1 - k, P)
                sign = (-1) ** (k * (d + 1 - k))
                assert ss == tuple(sign * c % P for c in coords)


# ---------------------------------------------------------------------------
# Pairing


def test_pairing_d3_expansion():
    a = (1, 2, 3, 4, 5, 6)
    b = (7, 11, 13, 17, 19, 23)
    manual = 1 * 23 - 2 * 19 + 3 * 17 + 4 * 13 - 5 * 11 + 6 * 7
    assert pairing(a, 2, b, 2, 3, P) == manual % P


def test_pairing_degree_mismatch():
    a = (1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="complementary"):
        pairing(a, 2, (1, 0, 0, 0), 1, 3, P)
    with pytest.raises(ValueError, match="needs 6 coordinates, got 4"):
        pairing(a, 2, (1, 0, 0, 0), 2, 3, P)


def test_pairing_shared_vs_complementary_subspaces():
    e12 = wedge2((1, 0, 0, 0), (0, 1, 0, 0), 3, P)
    e34 = wedge2((0, 0, 1, 0), (0, 0, 0, 1), 3, P)
    assert pairing(e12, 2, e12, 2, 3, P) == 0  # shared directions
    assert pairing(e12, 2, e34, 2, 3, P) in (1, P - 1)  # complementary subspaces


def test_pairing_is_stacked_determinant():
    rng = SplitMix64(6)
    for _ in range(30):
        d = 2 + rng.below(5)
        x, y = rand_vec(rng, d), rand_vec(rng, d)
        rest = [rand_vec(rng, d) for _ in range(d - 1)]
        lhs = pairing(wedge2(x, y, d, P), 2, wedge_list(rest, d, P), d - 1, d, P)
        rhs = det_reference([list(x), list(y)] + [list(r) for r in rest], P)
        assert lhs == rhs


def test_pairing_sign_consistent_with_star():
    rng = SplitMix64(7)
    for d in range(2, 7):
        for k in range(1, d + 1):
            nx = len(ksubsets(d, k))
            ny = len(ksubsets(d, d + 1 - k))
            x, y = rng.vector(nx, P), rng.vector(ny, P)
            sign = (-1) ** (k * (d + 1 - k))
            dot = sum(a * b for a, b in zip(x, hodge_star(y, d, d + 1 - k, P)))
            assert pairing(x, k, y, d + 1 - k, d, P) == (sign * dot) % P


def test_shared_point_pairing_zero():
    # a bar through a point of a rod meets the rod: pairing vanishes
    rng = SplitMix64(8)
    for trial in range(30):
        d = 3 + trial % 4
        vecs, rod = sample_span(d, d - 1, rng, P)
        x = random_point_in_span(vecs, rng, P)
        y = rng.nonzero_vector(d + 1, P)
        assert pairing(wedge2(x, y, d, P), 2, rod, d - 1, d, P) == 0


# ---------------------------------------------------------------------------
# Grassmann relations


def test_grassmann_examples():
    assert not grassmann_check((1, 0, 0, 0, 0, 1), 2, 3, P)
    assert grassmann_check((0,) * 6, 2, 3, P)


def test_grassmann_on_wedges_exhaustive_grid():
    vals = (-1, 0, 1)
    for a in product(vals, repeat=4):
        for b in product(vals, repeat=4):
            assert grassmann_check(wedge2(a, b, 3, P), 2, 3, P)


def test_grassmann_on_random_wedges():
    rng = SplitMix64(9)
    for _ in range(40):
        d = 3 + rng.below(4)
        assert grassmann_check(wedge2(rand_vec(rng, d), rand_vec(rng, d), d, P), 2, d, P)


def test_grassmann_needs_degree_two():
    with pytest.raises(ValueError):
        grassmann_check((1, 0, 0, 0), 1, 3, P)


# ---------------------------------------------------------------------------
# Sampling


def test_sample_grassmannian_properties():
    rng = SplitMix64(10)
    for k in (2, 3):
        minors = sample_span(3, k, rng, P)[1]
        assert any(minors)
        if k == 2:
            assert grassmann_check(minors, 2, 3, P)


def test_rod_star_image_is_decomposable():
    # rods live on the (d-1)-Grassmannian; their star images satisfy the
    # degree-2 quadratic relations
    rng = SplitMix64(12)
    for _ in range(10):
        rod = sample_span(3, 2, rng, P)[1]
        assert grassmann_check(hodge_star(rod, 3, 2, P), 2, 3, P)


def test_proportional():
    a = (1, 2, 3, 4, 5, 6)
    b = tuple(7 * c % P for c in a)
    c = (1, 2, 3, 4, 5, 7)
    assert proportional(a, b, P)
    assert not proportional(a, c, P)

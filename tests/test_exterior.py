from itertools import product

import pytest

from rigikit.exterior import (
    KVector,
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
    v = wedge2((1, 0, 0, 0), (0, 1, 0, 0), 3, P)
    assert v.coords == (1, 0, 0, 0, 0, 0)


def test_wedge2_alternation():
    rng = SplitMix64(3)
    for _ in range(20):
        d = 2 + rng.below(5)
        a, b = rand_vec(rng, d), rand_vec(rng, d)
        assert wedge2(a, a, d, P).is_zero()
        ab, ba = wedge2(a, b, d, P), wedge2(b, a, d, P)
        assert all((x + y) % P == 0 for x, y in zip(ab.coords, ba.coords))


def test_wedge2_homogeneous_bar_example():
    # bar through the points (0,0,0) and (1,0,0), homogeneous coordinates
    bar = wedge2((1, 0, 0, 1), (0, 0, 0, 1), 3, P)
    assert bar.coords == (0, 0, 1, 0, 0, 0)
    assert grassmann_check(bar)


def test_wedge2_matches_minor_oracle():
    rng = SplitMix64(4)
    for _ in range(25):
        d = 2 + rng.below(5)
        a, b = rand_vec(rng, d), rand_vec(rng, d)
        got = wedge2(a, b, d, P)
        for (i, j), c in zip(ksubsets(d, 2), got.coords):
            minor = (a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]) % P
            assert c == minor


def test_wedge2_length_mismatch():
    with pytest.raises(ValueError):
        wedge2((1, 0), (0, 1), 3, P)


def test_wedge_list_unit_and_dependent():
    v = wedge_list([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 3, P)
    assert v.coords[ksubsets(3, 3).index((1, 2, 3))] == 1
    assert sum(v.coords) == 1
    dep = wedge_list([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], 3, P)
    assert dep.is_zero()


def test_wedge_list_intersection_pairing():
    # a random full-rank triple pairs nonzero with an independent complement,
    # zero with a vector inside its own span
    rng = SplitMix64(5)
    for _ in range(20):
        vecs, kv = sample_span(3, 3, rng, P)
        inside = random_point_in_span(vecs, rng, P)
        assert pairing(kv, wedge_list([inside], 3, P)) == 0
        outside = rng.vector(4, P)
        expected = det_reference([list(v) for v in vecs] + [list(outside)], P)
        assert pairing(kv, wedge_list([outside], 3, P)) == expected


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
                assert wedge_list(vecs, d, p).coords == expected


# ---------------------------------------------------------------------------
# Hodge star


def test_hodge_star_d3_tuple():
    q = KVector(d=3, k=2, coords=(1, 2, 3, 4, 5, 6), p=P)
    assert hodge_star(q).coords == (6, P - 5, 4, 3, P - 2, 1)


def test_hodge_star_basis_example():
    e12 = wedge2((1, 0, 0, 0), (0, 1, 0, 0), 3, P)
    assert hodge_star(e12).coords[ksubsets(3, 2).index((3, 4))] == 1


def test_hodge_star_involution_sign():
    for d in range(2, 7):
        for k in range(1, d + 2):
            subs = ksubsets(d, k)
            for i in range(len(subs)):
                coords = [0] * len(subs)
                coords[i] = 1
                v = KVector(d=d, k=k, coords=tuple(coords), p=P)
                ss = hodge_star(hodge_star(v))
                sign = (-1) ** (k * (d + 1 - k))
                assert ss.coords == tuple(sign * c % P for c in v.coords)


# ---------------------------------------------------------------------------
# Pairing


def test_pairing_d3_expansion():
    a = KVector(d=3, k=2, coords=(1, 2, 3, 4, 5, 6), p=P)
    b = KVector(d=3, k=2, coords=(7, 11, 13, 17, 19, 23), p=P)
    manual = 1 * 23 - 2 * 19 + 3 * 17 + 4 * 13 - 5 * 11 + 6 * 7
    assert pairing(a, b) == manual % P


def test_kvector_needs_one_coordinate_per_subset():
    with pytest.raises(ValueError, match="needs 6 coordinates, got 3"):
        KVector(d=3, k=2, coords=(1, 2, 3), p=P)
    assert KVector(3, 1, (1, 2, 3, 4), P).coords == (1, 2, 3, 4)


def test_pairing_degree_mismatch():
    a = KVector(d=3, k=2, coords=(1, 0, 0, 0, 0, 0), p=P)
    with pytest.raises(ValueError, match="complementary"):
        pairing(a, KVector(d=3, k=1, coords=(1, 0, 0, 0), p=P))
    with pytest.raises(ValueError, match="different primes"):
        pairing(a, KVector(d=3, k=2, coords=(1, 0, 0, 0, 0, 0), p=7))


def test_pairing_shared_vs_complementary_subspaces():
    e12 = wedge2((1, 0, 0, 0), (0, 1, 0, 0), 3, P)
    e34 = wedge2((0, 0, 1, 0), (0, 0, 0, 1), 3, P)
    assert pairing(e12, e12) == 0  # shared directions
    assert pairing(e12, e34) in (1, P - 1)  # complementary subspaces


def test_pairing_is_stacked_determinant():
    rng = SplitMix64(6)
    for _ in range(30):
        d = 2 + rng.below(5)
        x, y = rand_vec(rng, d), rand_vec(rng, d)
        rest = [rand_vec(rng, d) for _ in range(d - 1)]
        lhs = pairing(wedge2(x, y, d, P), wedge_list(rest, d, P))
        rhs = det_reference([list(x), list(y)] + [list(r) for r in rest], P)
        assert lhs == rhs


def test_pairing_sign_consistent_with_star():
    rng = SplitMix64(7)
    for d in range(2, 7):
        for k in range(1, d + 1):
            nx = len(ksubsets(d, k))
            ny = len(ksubsets(d, d + 1 - k))
            x = KVector(d=d, k=k, coords=rng.vector(nx, P), p=P)
            y = KVector(d=d, k=d + 1 - k, coords=rng.vector(ny, P), p=P)
            sign = (-1) ** (k * (d + 1 - k))
            dot = sum(a * b for a, b in zip(x.coords, hodge_star(y).coords))
            assert pairing(x, y) == (sign * dot) % P


def test_shared_point_pairing_zero():
    # a bar through a point of a rod meets the rod: pairing vanishes
    rng = SplitMix64(8)
    for trial in range(30):
        d = 3 + trial % 4
        vecs, rod = sample_span(d, d - 1, rng, P)
        x = random_point_in_span(vecs, rng, P)
        y = rng.nonzero_vector(d + 1, P)
        assert pairing(wedge2(x, y, d, P), rod) == 0


# ---------------------------------------------------------------------------
# Grassmann relations


def test_grassmann_examples():
    assert not grassmann_check(KVector(d=3, k=2, coords=(1, 0, 0, 0, 0, 1), p=P))
    assert grassmann_check(KVector(d=3, k=2, coords=(0,) * 6, p=P))


def test_grassmann_on_wedges_exhaustive_grid():
    vals = (-1, 0, 1)
    for a in product(vals, repeat=4):
        for b in product(vals, repeat=4):
            assert grassmann_check(wedge2(a, b, 3, P))


def test_grassmann_on_random_wedges():
    rng = SplitMix64(9)
    for _ in range(40):
        d = 3 + rng.below(4)
        assert grassmann_check(wedge2(rand_vec(rng, d), rand_vec(rng, d), d, P))


def test_grassmann_needs_degree_two():
    with pytest.raises(ValueError):
        grassmann_check(KVector(d=3, k=1, coords=(1, 0, 0, 0), p=P))


# ---------------------------------------------------------------------------
# Sampling


def test_sample_grassmannian_properties():
    rng = SplitMix64(10)
    for k in (2, 3):
        kv = sample_span(3, k, rng, P)[1]
        assert not kv.is_zero()
        if k == 2:
            assert grassmann_check(kv)


def test_rod_star_image_is_decomposable():
    # rods live on the (d-1)-Grassmannian; their star images satisfy the
    # degree-2 quadratic relations
    rng = SplitMix64(12)
    for _ in range(10):
        rod = sample_span(3, 2, rng, P)[1]
        assert grassmann_check(hodge_star(rod))


def test_proportional():
    a = KVector(d=3, k=2, coords=(1, 2, 3, 4, 5, 6), p=P)
    b = KVector(d=3, k=2, coords=tuple(7 * c % P for c in a.coords), p=P)
    c = KVector(d=3, k=2, coords=(1, 2, 3, 4, 5, 7), p=P)
    assert proportional(a, b)
    assert not proportional(a, c)

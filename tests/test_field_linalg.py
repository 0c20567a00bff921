import pytest

from rigikit import linalg
from rigikit.field import DEFAULT_PRIME, SplitMix64, check_prime, is_prime, mod_inv
from rigikit.partitions import min_partition, min_partition_table

P = DEFAULT_PRIME


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME == 2**31 - 1


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 1_000_003}
    for n in range(2, 60):
        assert is_prime(n) == all(n % q for q in range(2, n))
    assert is_prime(1_000_003)
    with pytest.raises(ValueError):
        check_prime(2**31 - 2)


def test_mod_inv():
    rng = SplitMix64(1)
    for _ in range(200):
        a = 1 + rng.below(P - 1)
        assert a * mod_inv(a, P) % P == 1
    with pytest.raises(ZeroDivisionError):
        mod_inv(0, P)


def test_splitmix_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert a.vector(5, 2**64) == b.vector(5, 2**64)
    assert SplitMix64(42).spawn(3).vector(1, 2**64) == SplitMix64(42).spawn(3).vector(1, 2**64)
    assert SplitMix64(42).spawn(3).vector(1, 2**64) != SplitMix64(42).spawn(4).vector(1, 2**64)


def test_splitmix_below_bounds():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(2000):
        x = rng.below(13)
        assert 0 <= x < 13
        seen.add(x)
    assert seen == set(range(13))
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError, match=r"\[1, 2\^64\], got 18446744073709551617"):
        rng.below(2**64 + 1)  # no multiple of it fits in 64 bits: it would loop


def test_rref_rank_nullspace():
    rng = SplitMix64(99)
    for trial in range(30):
        m = 1 + rng.below(6)
        n = 1 + rng.below(8)
        rows = [[rng.below(P) for _ in range(n)] for _ in range(m)]
        sparse = [linalg.sparse(row, P) for row in rows]
        r = linalg.rank(sparse, P)
        kern = linalg.nullspace(rows, n, P)
        assert r + len(kern) == n
        for vec in kern:
            assert all(x == 0 for x in linalg.mat_vec(sparse, vec, P))
        # duplicating rows never changes the rank
        assert linalg.rank(sparse + sparse, P) == r


def test_rank_known_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank([linalg.sparse(row, P) for row in rows], P) == 2
    assert linalg.sparse([0, 0], P) == ()
    assert linalg.sparse([P, 2 * P + 3], P) == ((1, 3),)
    assert linalg.rank([(), ()], P) == 0
    assert linalg.rank([], P) == 0


def test_min_partition_modular_cost():
    # cost = size**2 favours singletons; cost = const favours one block
    def square(m):
        return bin(m).count("1") ** 2

    best = min_partition_table(4, square)
    assert best[15] == 4 and len(min_partition(best, square, 15)) == 4
    best = min_partition_table(4, lambda m: 10)
    assert best[15] == 10 and min_partition(best, lambda m: 10, 15) == [15]
    assert min_partition_table(0, lambda m: 1) == [0]
    assert min_partition([0], lambda m: 1, 0) == []


def test_min_partition_table_matches():
    costs = {}
    rng = SplitMix64(5)
    n = 5
    for m in range(1, 1 << n):
        costs[m] = rng.below(7)
    table = min_partition_table(n, costs.__getitem__)
    for mask in range(1 << n):  # every mask's partition is read from the one table
        parts = min_partition(table, costs.__getitem__, mask)
        assert table[mask] == sum(costs[m] for m in parts)
        assert sum(parts) == mask  # parts partition the mask

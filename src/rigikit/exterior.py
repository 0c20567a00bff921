"""Exterior algebra over W = F^(d+1): wedges and the Hodge star.

A degree-k element is a plain tuple of coordinates indexed by the
lexicographically sorted k-subsets of {1..d+1}; a decomposable one holds
the k x k minors of a spanning matrix (Pluecker coordinates).  The tuple
carries neither d, k nor the prime: each function takes what it needs as
arguments.  Scalars are ints mod p, as every realization in this package
lives over F_p; the wedges and the star reduce their results into [0, p),
so any(x) is the test for a nonzero element.

The star maps degree k to the complementary degree d+1-k, so that the dot
product x . star(y) is, up to a fixed degree-dependent sign, the
complementary pairing: for decomposable arguments the determinant of their
stacked spanning vectors, which vanishes exactly when the two subspaces
intersect nontrivially.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from operator import mul
from typing import Sequence

from .field import SplitMix64


@cache
def ksubsets(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Sorted k-subsets of {1..d+1} in lexicographic order."""
    return tuple(combinations(range(1, d + 2), k))


@cache
def _complements(d: int, k: int) -> tuple[tuple[int, int], ...]:
    """Per k-subset I, in ksubsets order: (index of I^c among the
    (d+1-k)-subsets, sign of the permutation I + I^c)."""
    index = {s: i for i, s in enumerate(ksubsets(d, d + 1 - k))}
    universe = set(range(1, d + 2))
    out = []
    for subset in ksubsets(d, k):
        comp = tuple(sorted(universe - set(subset)))
        out.append((index[comp], _perm_sign(subset + comp)))
    return tuple(out)


def _perm_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


@cache
def _expansion(d: int, r: int) -> tuple:
    """Per r-subset S of {1..d+1}, in ksubsets order, the terms of the r x r
    minor on S expanded along its last row: (column, cofactor sign, index of
    the (r-1)-minor on S without that column among the (r-1)-subsets)."""
    index = {s: i for i, s in enumerate(ksubsets(d, r - 1))}
    return tuple(
        tuple(
            (col - 1, -1 if (r - 1 + j) % 2 else 1, index[sub[:j] + sub[j + 1:]])
            for j, col in enumerate(sub)
        )
        for sub in ksubsets(d, r)
    )


def wedge_list(vectors, d: int, p: int) -> tuple:
    """v1 ^ ... ^ vk: coordinates are the k x k minors of the stacked matrix.

    The minors are built level by level: each r x r minor of v1..vr is its
    expansion along vr, a signed sum of vr's entries times (r-1) x (r-1)
    minors of v1..v(r-1).  Over the integers that is the determinant, so
    reducing mod p at every level gives its coordinates mod p.
    """
    k = len(vectors)
    if not 1 <= k <= d + 1:
        raise ValueError("wedge of %d vectors in dimension %d" % (k, d + 1))
    for v in vectors:
        if len(v) != d + 1:
            raise ValueError(
                "vector length %d does not match ambient dimension %d"
                % (len(v), d + 1)
            )
    minors = [x % p for x in vectors[0]]
    for r in range(2, k + 1):
        v = vectors[r - 1]
        level = []
        for terms in _expansion(d, r):
            total = 0
            for c, sign, sub in terms:
                total += sign * v[c] * minors[sub]
            level.append(total % p)
        minors = level
    return tuple(minors)


@cache
def _pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The 2-subsets of ksubsets(d, 2) as 0-based index pairs."""
    return tuple((i - 1, j - 1) for i, j in ksubsets(d, 2))


def wedge2(a, b, d: int, p: int) -> tuple:
    """a ^ b via the 2 x 2 coordinate minors; zero iff a, b are dependent."""
    if len(a) != d + 1 or len(b) != d + 1:
        raise ValueError("wedge2 needs two vectors of length %d" % (d + 1))
    return tuple([(a[i] * b[j] - a[j] * b[i]) % p for i, j in _pairs(d)])


def hodge_star(coords, d: int, k: int, p: int) -> tuple:
    """Linear star map of a degree-k element to the complementary degree
    d+1-k; involutive up to sign."""
    out = [0] * len(coords)  # C(d+1, k) = C(d+1, d+1-k)
    for (i, sign), c in zip(_complements(d, k), coords):
        out[i] = sign * c % p
    return tuple(out)


MAX_SAMPLE_RETRIES = 64


def sample_span(d: int, k: int, rng: SplitMix64, p: int):
    """(vectors, minors): k uniformly random independent vectors and the
    coordinates of their wedge.

    Resamples until the wedge is nonzero; over a large prime field a
    dependent draw is vanishingly rare, and the retry cap only guards
    against misuse with tiny fields.
    """
    for _ in range(MAX_SAMPLE_RETRIES):
        vectors = tuple(rng.vector(d + 1, p) for _ in range(k))
        minors = wedge_list(vectors, d, p)
        if any(minors):
            return vectors, minors
    raise ValueError("could not sample %d independent vectors at prime %d" % (k, p))


def random_point_in_span(vectors, rng: SplitMix64, p: int):
    """Uniform nonzero point, as long as the vectors, of their (independent) span."""
    for _ in range(MAX_SAMPLE_RETRIES):
        coeffs = rng.vector(len(vectors), p)
        point = tuple([sum(map(mul, coeffs, col)) % p for col in zip(*vectors)])
        if any(point):
            return point
    raise ValueError("could not sample a nonzero point in the span at prime %d" % p)

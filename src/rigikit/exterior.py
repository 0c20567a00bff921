"""Exterior algebra over W = F^(d+1): wedges, Hodge star, and the pairing.

Degree-k elements are coordinate vectors indexed by the lexicographically
sorted k-subsets of {1..d+1}; decomposable elements carry the k x k minors
of a spanning matrix (Pluecker coordinates).  Scalars are exact: either
ints / fractions.Fraction (p is None) or ints mod a prime p.

The complementary-degree pairing used throughout is

    <x, y> = sum over k-subsets I of (-1)^(k(k+1)/2 + sum I) * x_I * y_{I^c},

which for decomposable arguments is the determinant of their stacked
spanning vectors, so it vanishes exactly when the two subspaces intersect
nontrivially.  It agrees with the dot product against the Hodge star up to
a fixed degree-dependent sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Optional, Sequence

from .field import SplitMix64


@cache
def ksubsets(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Sorted k-subsets of {1..d+1} in lexicographic order."""
    return tuple(combinations(range(1, d + 2), k))


@cache
def _complements(d: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """Per k-subset I, in ksubsets order: (index of I^c among the
    (d+1-k)-subsets, sign of the permutation I + I^c, pairing sign
    (-1)^(k(k+1)/2 + sum I))."""
    index = {s: i for i, s in enumerate(ksubsets(d, d + 1 - k))}
    universe = set(range(1, d + 2))
    base = k * (k + 1) // 2
    out = []
    for subset in ksubsets(d, k):
        comp = tuple(sorted(universe - set(subset)))
        pair_sign = -1 if (base + sum(subset)) % 2 else 1
        out.append((index[comp], _perm_sign(subset + comp), pair_sign))
    return tuple(out)


def _perm_sign(seq: Sequence[int]) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _norm(x, p: Optional[int]):
    return x % p if p is not None else x


@dataclass(frozen=True)
class KVector:
    """Element of the degree-k exterior power of F^(d+1)."""

    d: int
    k: int
    coords: tuple
    p: Optional[int] = None

    def __post_init__(self):
        expected = len(ksubsets(self.d, self.k))
        if len(self.coords) != expected:
            raise ValueError(
                "degree-%d vector over W=F^%d needs %d coordinates, got %d"
                % (self.k, self.d + 1, expected, len(self.coords))
            )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def coord(self, subset: tuple[int, ...]):
        return self.coords[ksubsets(self.d, self.k).index(subset)]


def _det(rows, p: Optional[int]):
    """Exact determinant by cofactor expansion (matrices here are tiny)."""
    n = len(rows)
    if n == 1:
        return _norm(rows[0][0], p)
    if n == 2:
        return _norm(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0], p)
    total = 0
    sign = 1
    for j in range(n):
        a = rows[0][j]
        if a:
            minor = [
                [row[c] for c in range(n) if c != j] for row in rows[1:]
            ]
            total += sign * a * _det(minor, p)
        sign = -sign
    return _norm(total, p)


def wedge_list(vectors, d: int, p: Optional[int] = None) -> KVector:
    """v1 ^ ... ^ vk: coordinates are the k x k minors of the stacked matrix."""
    k = len(vectors)
    if not 1 <= k <= d + 1:
        raise ValueError("wedge of %d vectors in dimension %d" % (k, d + 1))
    for v in vectors:
        if len(v) != d + 1:
            raise ValueError(
                "vector length %d does not match ambient dimension %d"
                % (len(v), d + 1)
            )
    coords = []
    for subset in ksubsets(d, k):
        rows = [[v[i - 1] for i in subset] for v in vectors]
        coords.append(_det(rows, p))
    return KVector(d=d, k=k, coords=tuple(coords), p=p)


def wedge2(a, b, d: int, p: Optional[int] = None) -> KVector:
    """a ^ b via the 2 x 2 coordinate minors; zero iff a, b are dependent."""
    if len(a) != d + 1 or len(b) != d + 1:
        raise ValueError("wedge2 needs two vectors of length %d" % (d + 1))
    coords = []
    for i, j in ksubsets(d, 2):
        coords.append(_norm(a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1], p))
    return KVector(d=d, k=2, coords=tuple(coords), p=p)


def hodge_star(x: KVector) -> KVector:
    """Linear star map to the complementary degree; involutive up to sign."""
    d, k = x.d, x.k
    out = [0] * len(x.coords)  # C(d+1, k) = C(d+1, d+1-k)
    for (i, sign, _), c in zip(_complements(d, k), x.coords):
        out[i] = _norm(sign * c, x.p)
    return KVector(d=d, k=d + 1 - k, coords=tuple(out), p=x.p)


def pairing(x: KVector, y: KVector):
    """Complementary pairing; equals det of stacked bases for decomposables."""
    if x.d != y.d or x.k + y.k != x.d + 1:
        raise ValueError(
            "pairing needs complementary degrees k and d+1-k, got %d and %d"
            % (x.k, y.k)
        )
    if x.p != y.p:
        raise ValueError("pairing operands live over different scalars")
    total = 0
    for (i, _, sign), c in zip(_complements(x.d, x.k), x.coords):
        total += sign * c * y.coords[i]
    return _norm(total, x.p)


def dot(x: KVector, y: KVector):
    """Plain coordinatewise dot product of two same-degree elements."""
    if x.d != y.d or x.k != y.k or x.p != y.p:
        raise ValueError("dot needs two elements of the same space")
    return _norm(sum(a * b for a, b in zip(x.coords, y.coords)), x.p)


def grassmann_check(x: KVector) -> bool:
    """All quadratic Pluecker relations for a degree-2 element.

    x_ij x_kl - x_ik x_jl + x_il x_jk = 0 for every i<j<k<l; for k=2 this
    characterizes decomposability, and the zero vector passes vacuously.
    """
    if x.k != 2:
        raise ValueError("grassmann_check applies to degree-2 elements")
    idx = {s: i for i, s in enumerate(ksubsets(x.d, 2))}
    c = x.coords
    for i, j, k, l in combinations(range(1, x.d + 2), 4):
        val = (
            c[idx[(i, j)]] * c[idx[(k, l)]]
            - c[idx[(i, k)]] * c[idx[(j, l)]]
            + c[idx[(i, l)]] * c[idx[(j, k)]]
        )
        if _norm(val, x.p) != 0:
            return False
    return True


def proportional(x: KVector, y: KVector) -> bool:
    """Projective equality test: all 2 x 2 cross minors vanish."""
    if x.d != y.d or x.k != y.k or x.p != y.p:
        raise ValueError("proportionality test needs elements of one space")
    n = len(x.coords)
    for i in range(n):
        for j in range(i + 1, n):
            if _norm(x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i], x.p):
                return False
    return True


MAX_SAMPLE_RETRIES = 64


def sample_span(d: int, k: int, rng: SplitMix64, p: int):
    """k uniformly random independent vectors plus their wedge.

    Resamples until the wedge is nonzero; over a large prime field a
    dependent draw is vanishingly rare, and the retry cap only guards
    against misuse with tiny fields.
    """
    for _ in range(MAX_SAMPLE_RETRIES):
        vectors = tuple(rng.vector(d + 1, p) for _ in range(k))
        kv = wedge_list(vectors, d, p)
        if not kv.is_zero():
            return vectors, kv
    raise RuntimeError("could not sample %d independent vectors" % k)


def sample_grassmannian(
    d: int, k: int, rng: SplitMix64, p: int, distinct_from=()
) -> KVector:
    """Random decomposable degree-k element, optionally avoiding given spans."""
    for _ in range(MAX_SAMPLE_RETRIES):
        _, kv = sample_span(d, k, rng, p)
        if all(not proportional(kv, other) for other in distinct_from):
            return kv
    raise RuntimeError("could not sample a distinct Grassmannian point")


def random_point_in_span(vectors, d: int, rng: SplitMix64, p: int):
    """Uniform nonzero point of the span of the given independent vectors."""
    for _ in range(MAX_SAMPLE_RETRIES):
        coeffs = [rng.field_elem(p) for _ in vectors]
        point = [0] * (d + 1)
        for c, v in zip(coeffs, vectors):
            if c:
                for i in range(d + 1):
                    point[i] = (point[i] + c * v[i]) % p
        if any(point):
            return tuple(point)
    raise RuntimeError("could not sample a nonzero point in the span")

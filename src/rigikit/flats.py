"""Families of projective flats: spans, connectivity, truncation by a hyperplane.

A flat is stored as an independent spanning basis of its underlying linear
subspace of F_p^N; its rank is the basis size.  The two rank formulas this
module realizes randomly (and their exhaustive partition/subset oracles):

  * generic representative points:  one random point per flat; the point
    matroid's rank generically equals min over F of |S \\ F| + span_rank(F);
  * Dilworth truncation:  one shared random hyperplane cuts every flat;
    the truncated span rank generically equals the partition minimum of
    sum (span_rank(part) - 1).

Genericity is replaced by uniform sampling over a large prime field, so
each identity holds with probability 1 - O(size/p) per trial; callers
retry and compare against the brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import linalg
from .exterior import random_point_in_span
from .field import SplitMix64, mod_inv
from .partitions import min_partition

BRUTEFORCE_LIMIT = 10
MAX_HYPERPLANE_RETRIES = 64


class FlatError(ValueError):
    pass


@dataclass(frozen=True)
class Flat:
    ambient: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class FlatFamily:
    ambient: int
    p: int
    flats: Mapping[str, Flat]
    order: tuple[str, ...]

    def subset(self, ids: Optional[Iterable[str]]) -> tuple[str, ...]:
        if ids is None:
            return self.order
        pos = {fid: i for i, fid in enumerate(self.order)}
        return tuple(sorted(ids, key=pos.__getitem__))


def flat_family(ambient: int, p: int, items) -> FlatFamily:
    """Build and validate a family from (id, basis vectors) pairs."""
    flats: dict[str, Flat] = {}
    order: list[str] = []
    for fid, basis in items:
        fid = str(fid)
        if fid in flats:
            raise FlatError("duplicate flat id %r" % fid)
        rows = [[x % p for x in vec] for vec in basis]
        for vec in rows:
            if len(vec) != ambient:
                raise FlatError(
                    "flat %r has a vector of length %d in ambient %d"
                    % (fid, len(vec), ambient)
                )
        if linalg.rank([linalg.sparse(r, p) for r in rows], p) != len(rows):
            raise FlatError("flat %r has a dependent basis" % fid)
        flats[fid] = Flat(ambient=ambient, basis=tuple(tuple(r) for r in rows))
        order.append(fid)
    return FlatFamily(ambient=ambient, p=p, flats=flats, order=tuple(order))


def span_rank(fam: FlatFamily, ids=None) -> int:
    """Rank of the union of the selected flats' basis vectors."""
    rows = []
    for fid in fam.subset(ids):
        rows.extend(linalg.sparse(vec, fam.p) for vec in fam.flats[fid].basis)
    return linalg.rank(rows, fam.p)


def connectivity(fam: FlatFamily, ids=None):
    """Finest partition of the selected flats with additive span ranks.

    Two flats share a component iff no rank-additive bipartition separates
    them; components are read off the side signatures of all additive
    bipartitions.  Exhaustive, capped at BRUTEFORCE_LIMIT flats.
    """
    sel = fam.subset(ids)
    n = len(sel)
    if n == 0:
        return ()
    if n == 1:
        return (sel,)
    if n > BRUTEFORCE_LIMIT:
        raise FlatError("connectivity is exhaustive; limited to %d flats" % BRUTEFORCE_LIMIT)
    total = span_rank(fam, sel)
    rank_cache: dict[int, int] = {}

    def rk(mask: int) -> int:
        if mask not in rank_cache:
            rank_cache[mask] = span_rank(
                fam, [sel[i] for i in range(n) if mask >> i & 1]
            )
        return rank_cache[mask]

    sig = [0] * n
    full = (1 << n) - 1
    # bipartitions {mask, complement} with element 0 fixed in the complement
    for side in range(1, 1 << (n - 1)):
        mask = side << 1
        if rk(mask) + rk(full ^ mask) == total:
            for i in range(n):
                sig[i] = (sig[i] << 1) | (mask >> i & 1)
    groups: dict[int, list[str]] = {}
    for i, fid in enumerate(sel):
        groups.setdefault(sig[i], []).append(fid)
    comps = sorted(groups.values(), key=lambda g: sel.index(g[0]))
    return tuple(tuple(c) for c in comps)


def generic_matroid_rank(fam: FlatFamily, ids=None, rng: SplitMix64 = None, trials: int = 3) -> int:
    """Rank of one random representative point per flat, best of `trials`."""
    sel = fam.subset(ids)
    if rng is None:
        raise ValueError("generic_matroid_rank needs an rng")
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    best = 0
    for t in range(trials):
        sub = rng.spawn(t)
        rows = []
        for fid in sel:
            flat = fam.flats[fid]
            point = random_point_in_span(flat.basis, flat.ambient - 1, sub, fam.p)
            rows.append(linalg.sparse(point, fam.p))
        best = max(best, linalg.rank(rows, fam.p))
    return best


def generic_rank_bruteforce(fam: FlatFamily, ids=None) -> int:
    """min over subsets F of |S \\ F| + span_rank(F): the representative-point bound."""
    sel = fam.subset(ids)
    n = len(sel)
    if n > BRUTEFORCE_LIMIT:
        raise FlatError("brute force limited to %d flats" % BRUTEFORCE_LIMIT)
    best = n  # F = empty set
    for mask in range(1, 1 << n):
        sub = [sel[i] for i in range(n) if mask >> i & 1]
        v = (n - len(sub)) + span_rank(fam, sub)
        if v < best:
            best = v
    return best


def truncation_rhs_bruteforce(fam: FlatFamily, ids=None) -> int:
    """Exact partition minimum of sum (span_rank(part) - 1)."""
    sel = fam.subset(ids)
    n = len(sel)
    if n == 0:
        return 0
    if n > BRUTEFORCE_LIMIT:
        raise FlatError("brute force limited to %d flats" % BRUTEFORCE_LIMIT)

    def cost(mask: int) -> int:
        return span_rank(fam, [sel[i] for i in range(n) if mask >> i & 1]) - 1

    value, _ = min_partition(n, cost)
    return value


def intersect_with_hyperplane(flat: Flat, normal, p: int) -> Optional[Flat]:
    """Basis of flat's subspace cut by the hyperplane {x : normal . x = 0}.

    Returns None when the flat lies inside the hyperplane (rank would not
    drop); a rank-1 flat off the hyperplane truncates to the empty flat.
    """
    vals = [sum(a * b for a, b in zip(normal, vec)) % p for vec in flat.basis]
    pivot = next((i for i, v in enumerate(vals) if v), -1)
    if pivot < 0:
        return None
    inv = mod_inv(vals[pivot], p)
    pv = flat.basis[pivot]
    new_basis = []
    for i, vec in enumerate(flat.basis):
        if i == pivot:
            continue
        c = vals[i] * inv % p
        new_basis.append(tuple((a - c * b) % p for a, b in zip(vec, pv)))
    return Flat(ambient=flat.ambient, basis=tuple(new_basis))


def dilworth_truncate(fam: FlatFamily, rng: SplitMix64 = None, normal=None):
    """Cut every flat of the family with one shared hyperplane.

    With normal=None a uniformly random hyperplane is drawn, resampling
    (bounded) whenever some flat lies inside it.  A forced normal that
    contains a flat raises instead.  Returns (truncated family, normal).
    """
    if normal is not None:
        cut = _truncate_all(fam, tuple(x % fam.p for x in normal))
        if cut is None:
            raise FlatError("forced hyperplane contains a flat of the family")
        return cut, tuple(x % fam.p for x in normal)
    if rng is None:
        raise ValueError("dilworth_truncate needs an rng or an explicit normal")
    for t in range(MAX_HYPERPLANE_RETRIES):
        cand = rng.nonzero_vector(fam.ambient, fam.p)
        cut = _truncate_all(fam, cand)
        if cut is not None:
            return cut, cand
    raise RuntimeError("could not find a hyperplane meeting every flat properly")


def _truncate_all(fam: FlatFamily, normal) -> Optional[FlatFamily]:
    new_flats: dict[str, Flat] = {}
    for fid in fam.order:
        cut = intersect_with_hyperplane(fam.flats[fid], normal, fam.p)
        if cut is None:
            return None
        new_flats[fid] = cut
    return FlatFamily(ambient=fam.ambient, p=fam.p, flats=new_flats, order=fam.order)


def three_hyperplanes_through_line(p: int) -> FlatFamily:
    """Three distinct rank-3 flats of F^4 whose pairwise meets are one rank-2 line.

    The family where truncation by a hyperplane through the shared line
    drops the span rank to 2 while the partition minimum stays 3.
    """
    e1, e2, e3, e4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    return flat_family(
        4,
        p,
        [
            ("A1", [e1, e2, e3]),
            ("A2", [e1, e2, e4]),
            ("A3", [e1, e2, (0, 0, 1, 1)]),
        ],
    )

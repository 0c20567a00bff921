"""Flat families cut by a hyperplane, with the primitives the truncated-union
builder uses: ``linalg.nullspace`` cuts a flat by a hyperplane and
``exterior.random_point_in_span`` draws a random point of a flat.

A family is an ordered mapping from a flat id to an independent basis of the
flat's subspace of F_p^N.  The two rank formulas checked here against their
exhaustive oracles:

  * generic representative points: one random point per flat has rank
    min over subsets F of |S \\ F| + span_rank(F);
  * Dilworth truncation: one random hyperplane cuts every flat, and the
    cut family's span rank is the partition minimum of sum (span_rank - 1).
"""

from rigikit import linalg
from rigikit.exterior import random_point_in_span
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.partitions import min_partition_table

P = DEFAULT_PRIME

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)

LINE = {"L": (E1, E2)}
DISJOINT_BLOCKS = {"A": (E1, E2), "B": (E3, E4)}
# three rank-3 flats of F^4 whose pairwise meets are one rank-2 line
THREE_HYPERPLANES_THROUGH_LINE = {
    "A1": (E1, E2, E3),
    "A2": (E1, E2, E4),
    "A3": (E1, E2, (0, 0, 1, 1)),
}


def span_rank(fam, ids=None, p=P):
    rows = [linalg.sparse(v, p) for fid in (fam if ids is None else ids) for v in fam[fid]]
    return linalg.rank(rows, p)


def truncation_rhs(fam):
    """Exact partition minimum of sum (span_rank(part) - 1)."""
    ids = list(fam)
    if not ids:
        return 0

    def cost(mask):
        return span_rank(fam, [f for i, f in enumerate(ids) if mask >> i & 1]) - 1

    return min_partition_table(len(ids), cost)[-1]


def generic_rank_bruteforce(fam, p=P):
    """min over subsets F of |S \\ F| + span_rank(F)."""
    ids = list(fam)
    n = len(ids)
    return min(
        n - bin(mask).count("1") + span_rank(fam, [f for i, f in enumerate(ids) if mask >> i & 1], p)
        for mask in range(1 << n)
    )


def generic_rank(fam, rng, trials):
    """Rank of one random point per flat, best of `trials`."""
    best = 0
    for t in range(trials):
        sub = rng.spawn(t)
        rows = [linalg.sparse(random_point_in_span(basis, sub, P), P) for basis in fam.values()]
        best = max(best, linalg.rank(rows, P))
    return best


def cut(basis, normal):
    """Basis of the flat cut by {x : normal . x = 0}, or None if it lies inside."""
    vals = [sum(a * b for a, b in zip(normal, vec)) % P for vec in basis]
    if not any(vals):
        return None
    return tuple(
        tuple(sum(c * vec[i] for c, vec in zip(coeffs, basis)) % P for i in range(len(normal)))
        for coeffs in linalg.nullspace([vals], len(vals), P)
    )


def truncate(fam, normal):
    cuts = {fid: cut(basis, normal) for fid, basis in fam.items()}
    return None if any(c is None for c in cuts.values()) else cuts


def random_truncate(fam, rng):
    """Cut by a random hyperplane, redrawn while one contains a flat."""
    ambient = len(next(iter(fam.values()))[0])
    for _ in range(64):
        cuts = truncate(fam, rng.nonzero_vector(ambient, P))
        if cuts is not None:
            return cuts
    raise AssertionError("no hyperplane met every flat properly")


def random_family(rng, n_flats=4, ambient=8, max_rank=3):
    fam = {}
    for i in range(n_flats):
        k = 1 + rng.below(max_rank)
        while True:
            basis = tuple(rng.vector(ambient, P) for _ in range(k))
            if linalg.rank([linalg.sparse(b, P) for b in basis], P) == k:
                break
        fam["f%d" % i] = basis
    return fam


def test_span_rank_examples():
    assert span_rank(LINE) == 2
    assert span_rank({"A": (E1, E2), "B": (E1, E2)}) == 2
    fam = THREE_HYPERPLANES_THROUGH_LINE
    assert span_rank(fam) == 4
    for pair in (["A1", "A2"], ["A2", "A3"], ["A1", "A3"]):
        assert span_rank(fam, pair) == 4  # pairwise spans fill the space
    for fid in fam:
        assert span_rank(fam, [fid]) == 3


def test_generic_matroid_rank_examples():
    rng = SplitMix64(21)
    copies = {"c%d" % i: (E1, E2) for i in range(5)}
    assert generic_rank(copies, rng, trials=3) == 2
    assert generic_rank_bruteforce(copies) == 2

    assert generic_rank(DISJOINT_BLOCKS, rng.spawn(1), trials=3) == 2
    assert generic_rank_bruteforce(DISJOINT_BLOCKS) == 2

    fam = THREE_HYPERPLANES_THROUGH_LINE
    assert generic_rank_bruteforce(fam) == 3
    assert generic_rank(fam, rng.spawn(2), trials=3) == 3


def test_generic_rank_upper_bound_any_points():
    # the subset bound holds even for deliberately degenerate point choices
    rng = SplitMix64(22)
    small_p = 5
    for case in range(20):
        sub = rng.spawn(case)
        fam = {}
        for i in range(4):
            k = 1 + sub.below(2)
            while True:
                basis = tuple(sub.vector(5, small_p) for _ in range(k))
                if linalg.rank([linalg.sparse(b, small_p) for b in basis], small_p) == k:
                    break
            fam["f%d" % i] = basis
        # worst case: always the first basis vector
        pts = [linalg.sparse(basis[0], small_p) for basis in fam.values()]
        assert linalg.rank(pts, small_p) <= generic_rank_bruteforce(fam, small_p)


def test_truncation_rhs_examples():
    assert truncation_rhs(DISJOINT_BLOCKS) == 2
    assert truncation_rhs(THREE_HYPERPLANES_THROUGH_LINE) == 3
    assert truncation_rhs({"A": (E1, E2, E3)}) == 2


def test_truncate_single_flat_to_point():
    cuts = random_truncate(LINE, SplitMix64(23))
    assert span_rank(cuts) == 1
    assert len(cuts["L"]) == 1


def test_truncate_rank1_flat_to_empty():
    cuts = random_truncate({"pt": ((1, 2, 3),)}, SplitMix64(24))
    assert cuts["pt"] == ()
    assert span_rank(cuts) == 0


def test_forced_hyperplane_through_shared_line():
    fam = THREE_HYPERPLANES_THROUGH_LINE
    cuts = truncate(fam, (0, 0, 1, P - 2))
    assert span_rank(cuts) == 2  # undercuts the partition minimum 3
    assert truncation_rhs(fam) == 3
    for fid in fam:
        assert len(cuts[fid]) == 2


def test_random_hyperplane_attains_minimum():
    cuts = random_truncate(THREE_HYPERPLANES_THROUGH_LINE, SplitMix64(25))
    assert span_rank(cuts) == 3


def test_truncation_le_direction_any_hyperplane():
    # for arbitrary proper hyperplanes the truncated rank never exceeds the minimum
    rng = SplitMix64(26)
    for case in range(25):
        fam = random_family(rng.spawn(case), n_flats=4, ambient=6)
        cuts = truncate(fam, rng.spawn(1000 + case).nonzero_vector(6, P))
        if cuts is None:
            continue
        assert span_rank(cuts) <= truncation_rhs(fam)


def test_random_truncation_matches_oracle():
    rng = SplitMix64(27)
    for case in range(25):
        fam = random_family(rng.spawn(case), n_flats=4, ambient=7)
        want = truncation_rhs(fam)
        got = -1
        for attempt in range(5):  # a miss triggers more trials before failing
            got = span_rank(random_truncate(fam, rng.spawn(10_000 + 10 * case + attempt)))
            if got == want:
                break
        assert got == want


def test_generic_points_match_oracle_randomized():
    rng = SplitMix64(28)
    for case in range(25):
        fam = random_family(rng.spawn(case), n_flats=5, ambient=8)
        want = generic_rank_bruteforce(fam)
        got = generic_rank(fam, rng.spawn(5000 + case), trials=3)
        if got != want:
            got = generic_rank(fam, rng.spawn(7000 + case), trials=10)
        assert got == want

import pytest

from rigikit import linalg
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.flats import (
    FlatError,
    dilworth_truncate,
    flat_family,
    generic_matroid_rank,
    generic_rank_bruteforce,
    intersect_with_hyperplane,
    span_rank,
    three_hyperplanes_through_line,
    truncation_rhs_bruteforce,
)

P = DEFAULT_PRIME

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def line_family():
    return flat_family(4, P, [("L", [E1, E2])])


def disjoint_blocks():
    return flat_family(4, P, [("A", [E1, E2]), ("B", [E3, E4])])


def random_family(rng, n_flats=4, ambient=8, max_rank=3):
    items = []
    for i in range(n_flats):
        k = 1 + rng.below(max_rank)
        while True:
            basis = [rng.vector(ambient, P) for _ in range(k)]
            if linalg.rank([linalg.sparse(b, P) for b in basis], P) == k:
                break
        items.append(("f%d" % i, basis))
    return flat_family(ambient, P, items)


def test_family_validation():
    with pytest.raises(FlatError, match="dependent"):
        flat_family(4, P, [("A", [E1, E1])])
    with pytest.raises(FlatError, match="duplicate"):
        flat_family(4, P, [("A", [E1]), ("A", [E2])])
    with pytest.raises(FlatError, match="length"):
        flat_family(4, P, [("A", [(1, 0)])])


def test_span_rank_examples():
    assert span_rank(line_family()) == 2
    dup = flat_family(4, P, [("A", [E1, E2]), ("B", [E1, E2])])
    assert span_rank(dup) == 2
    fam = three_hyperplanes_through_line(P)
    assert span_rank(fam) == 4
    for pair in (["A1", "A2"], ["A2", "A3"], ["A1", "A3"]):
        stacked = [linalg.sparse(v, P) for fid in pair for v in fam.flats[fid].basis]
        assert linalg.rank(stacked, P) == 4  # pairwise spans fill the space
    # pairwise intersections are the shared rank-2 line
    for fid in fam.order:
        assert fam.flats[fid].rank == 3


def test_generic_matroid_rank_examples():
    rng = SplitMix64(21)
    copies = flat_family(4, P, [("c%d" % i, [E1, E2]) for i in range(5)])
    assert generic_matroid_rank(copies, rng=rng, trials=3) == 2
    assert generic_rank_bruteforce(copies) == 2

    blocks = disjoint_blocks()
    assert generic_matroid_rank(blocks, rng=rng.spawn(1), trials=3) == 2
    assert generic_rank_bruteforce(blocks) == 2

    fam = three_hyperplanes_through_line(P)
    assert generic_rank_bruteforce(fam) == 3
    assert generic_matroid_rank(fam, rng=rng.spawn(2), trials=3) == 3


def test_generic_rank_upper_bound_any_points():
    # the subset bound holds even for deliberately degenerate point choices
    rng = SplitMix64(22)
    small_p = 5
    for case in range(20):
        sub = rng.spawn(case)
        items = []
        for i in range(4):
            k = 1 + sub.below(2)
            while True:
                basis = [sub.vector(5, small_p) for _ in range(k)]
                if linalg.rank([linalg.sparse(b, small_p) for b in basis], small_p) == k:
                    break
            items.append(("f%d" % i, basis))
        fam = flat_family(5, small_p, items)
        pts = []
        for fid in fam.order:
            flat = fam.flats[fid]
            # worst case: always the first basis vector
            pts.append(linalg.sparse(flat.basis[0], small_p))
        got = linalg.rank(pts, small_p)
        assert got <= generic_rank_bruteforce(fam)


def test_truncation_rhs_examples():
    assert truncation_rhs_bruteforce(disjoint_blocks()) == 2
    assert truncation_rhs_bruteforce(three_hyperplanes_through_line(P)) == 3
    single = flat_family(4, P, [("A", [E1, E2, E3])])
    assert truncation_rhs_bruteforce(single) == 2


def test_truncate_single_flat_to_point():
    rng = SplitMix64(23)
    cut, _ = dilworth_truncate(line_family(), rng)
    assert span_rank(cut) == 1
    assert cut.flats["L"].rank == 1


def test_truncate_rank1_flat_to_empty():
    fam = flat_family(3, P, [("pt", [(1, 2, 3)])])
    cut, _ = dilworth_truncate(fam, SplitMix64(24))
    assert cut.flats["pt"].rank == 0
    assert span_rank(cut) == 0


def test_forced_hyperplane_through_shared_line():
    fam = three_hyperplanes_through_line(P)
    cut, normal = dilworth_truncate(fam, normal=(0, 0, 1, P - 2))
    assert span_rank(cut) == 2  # undercuts the partition minimum 3
    assert truncation_rhs_bruteforce(fam) == 3
    for fid in fam.order:
        assert cut.flats[fid].rank == 2


def test_random_hyperplane_attains_minimum():
    fam = three_hyperplanes_through_line(P)
    cut, _ = dilworth_truncate(fam, SplitMix64(25))
    assert span_rank(cut) == 3


def test_forced_hyperplane_containing_flat_rejected():
    fam = line_family()
    with pytest.raises(FlatError, match="contains a flat"):
        dilworth_truncate(fam, normal=(0, 0, 1, 0))


def test_truncation_le_direction_any_hyperplane():
    # for arbitrary proper hyperplanes the truncated rank never exceeds the minimum
    rng = SplitMix64(26)
    for case in range(25):
        fam = random_family(rng.spawn(case), n_flats=4, ambient=6)
        normal = rng.spawn(1000 + case).nonzero_vector(6, P)
        cuts = [intersect_with_hyperplane(fam.flats[f], normal, P) for f in fam.order]
        if any(c is None for c in cuts):
            continue
        rows = [linalg.sparse(v, P) for c in cuts for v in c.basis]
        assert linalg.rank(rows, P) <= truncation_rhs_bruteforce(fam)


def test_random_truncation_matches_oracle():
    rng = SplitMix64(27)
    for case in range(25):
        fam = random_family(rng.spawn(case), n_flats=4, ambient=7)
        want = truncation_rhs_bruteforce(fam)
        got = -1
        for attempt in range(5):  # a miss triggers more trials before failing
            cut, _ = dilworth_truncate(fam, rng.spawn(10_000 + 10 * case + attempt))
            got = span_rank(cut)
            if got == want:
                break
        assert got == want


def test_generic_points_match_oracle_randomized():
    rng = SplitMix64(28)
    for case in range(25):
        fam = random_family(rng.spawn(case), n_flats=5, ambient=8)
        want = generic_rank_bruteforce(fam)
        got = generic_matroid_rank(fam, rng=rng.spawn(5000 + case), trials=3)
        if got != want:
            got = generic_matroid_rank(fam, rng=rng.spawn(7000 + case), trials=10)
        assert got == want


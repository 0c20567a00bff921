"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
whole suite is deterministic (fixed master seeds).
"""

import time

import pytest

from rigikit import linalg
from rigikit.analysis import count_side, fuzz_equivalence, linear_trial
from rigikit.analysis import random_multigraph
from rigikit.count_matroid import (
    p_components,
    rank_bruteforce_table,
    rank_value,
)
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.flats import (
    dilworth_truncate,
    flat_family,
    span_rank,
    three_hyperplanes_through_line,
    truncation_rhs_bruteforce,
)
from rigikit.graph import CountProfile, build_graph
from rigikit.rigidity import (
    kernel_basis,
    matrix_body_rod_bar,
    matrix_direction,
    required_rank_direction,
    sample_bar_config,
    sample_rod_config,
    verify_trivial_motions,
)

from helpers import cube_graph, random_kinded_graph

P = DEFAULT_PRIME


def report(n, ok, detail):
    print("[criterion %d] %s - %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared fuzz runs (criteria 3, 5 and 8 look at the same sampled configs)


@pytest.fixture(scope="module")
def body_rod_bar_runs():
    t0 = time.monotonic()
    runs = [
        fuzz_equivalence("body-rod-bar", 3, 100, seed=30_001, max_vertices=7),
        fuzz_equivalence("body-rod-bar", 4, 100, seed=30_002, max_vertices=7),
    ]
    return runs, time.monotonic() - t0


@pytest.fixture(scope="module")
def hinge_cases():
    rng = SplitMix64(50_001)
    results = []
    checked = violations = 0
    for case in range(50):
        sub = rng.spawn(case)
        graph = random_multigraph(sub.spawn(1), "body-hinge", max_vertices=6)
        cs = count_side(graph, "body-hinge", 3)
        count_rigid = cs.rank == cs.target
        best = 0
        trials = 3
        t = 0
        while t < trials:
            trial = linear_trial(graph, "body-hinge", 3, P, sub.spawn(100 + t))
            checked += trial.trivial.checked
            violations += trial.trivial.violations
            best = max(best, trial.rank)
            t += 1
            if t == trials and (best == cs.target) != count_rigid and trials < 10:
                trials = 10
        results.append((graph, count_rigid, best == cs.target))
    return results, checked, violations


def test_criterion_1_count_engine_soundness():
    t0 = time.monotonic()
    rng = SplitMix64(10_001)
    queries = 0
    for case in range(500):
        sub = rng.spawn(case)
        d = 2 + sub.below(3)
        prof = CountProfile.body_rod_bar(d)
        g = random_kinded_graph(sub, max_vertices=6, max_edges=10)
        order, table = rank_bruteforce_table(g, None, prof)
        n = len(order)
        for mask in range(1 << n):
            F = [order[i] for i in range(n) if mask >> i & 1]
            got = rank_value(g, F, prof)
            if got != table[mask]:
                report(1, False, "rank mismatch on case %d subset %r" % (case, F))
            queries += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        elapsed <= 120,
        "500 graphs, %d subset rank queries all match the partition "
        "minimum; %.1fs (limit 120s)" % (queries, elapsed),
    )


def test_criterion_2_body_bar_three_matroids_agree():
    summary = fuzz_equivalence("body-bar", 3, 100, seed=20_001, max_vertices=7)
    ok = summary.ok and summary.agreements == 100
    report(
        2,
        ok,
        "100/100 graphs: constrained matrix rank == free-coefficient matrix "
        "rank == count rank (%d escalations)" % summary.escalations,
    )


def test_criterion_3_body_rod_bar_equivalence(body_rod_bar_runs):
    runs, elapsed = body_rod_bar_runs
    agreements = sum(r.agreements for r in runs)
    failures = [f for r in runs for f in r.failures]
    subset_checks = sum(r.subset_checks for r in runs)
    ok = agreements == 200 and not failures and elapsed <= 300 and subset_checks > 0
    report(
        3,
        ok,
        "200/200 bipartitioned multigraphs agree (d=3 and d=4); "
        "%d polymatroid subset checks; %.1fs (limit 300s)"
        % (subset_checks, elapsed),
    )


def test_criterion_4_two_rods_four_bars():
    g = build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * 4)
    rng = SplitMix64(40_001)
    rods = sample_rod_config(g, 3, rng.spawn(0), P)
    bars = sample_bar_config(g, rods, rng.spawn(1), P)
    m = matrix_body_rod_bar(g, rods, bars)
    basis = kernel_basis(m, rods=rods)
    ok = m.rank() == 4 and basis.kernel_dim == 8 and basis.trivial_span_dim == 8
    count_ok = rank_value(g, None, CountProfile.body_rod_bar(3)) == 4 == len(g.edges)
    deletion_dims = []
    for e in g.edge_ids:
        keep = [x for x in g.edge_ids if x != e]
        sub = build_graph(
            [(v, g.kinds[v]) for v in g.vertex_ids],
            [(g.edge(x).u, g.edge(x).v, x) for x in keep],
        )
        sub_bars = type(bars)(d=3, p=P, bars={x: bars.bars[x] for x in keep})
        sub_m = matrix_body_rod_bar(sub, rods, sub_bars)
        deletion_dims.append(sub_m.kernel_dim())
    ok = ok and count_ok and deletion_dims == [9, 9, 9, 9]
    report(
        4,
        ok,
        "2 rods + 4 bars (d=3): minimally rigid, kernel dim 8 == D+|R|, "
        "every single-bar deletion gives kernel dim 9",
    )


def test_criterion_5_hinge_verdicts_match(hinge_cases):
    results, checked, violations = hinge_cases
    mismatches = [i for i, (_, c, l) in enumerate(results) if c != l]
    report(
        5,
        not mismatches,
        "50/50 bipartite body-hinge graphs: counting verdict on the "
        "(D-1)-fold expansion matches the expanded framework's matrix verdict",
    )


def test_criterion_6_direction_equivalence():
    s2 = fuzz_equivalence("direction", 2, 50, seed=60_001, max_vertices=7)
    s3 = fuzz_equivalence("direction", 3, 50, seed=60_002, max_vertices=7)
    k3 = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    joints = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    m = matrix_direction(k3, joints, 2, P)
    k3_ok = m.rank() == 3 == required_rank_direction(k3, 2)
    ok = s2.ok and s3.ok and s2.agreements == 50 and s3.agreements == 50 and k3_ok
    report(
        6,
        ok,
        "100/100 simple graphs (d=2,3): direction-matrix rank equals the "
        "d|V|-(d+1) polymatroid rank; K3 at d=2 is direction-rigid (rank 3)",
    )


def test_criterion_7_dilworth_truncation():
    rng = SplitMix64(70_001)
    matched = 0
    for case in range(50):
        sub = rng.spawn(case)
        ambient = 4 + sub.below(9)  # 4..12
        n_flats = 1 + sub.below(6)  # 1..6
        items = []
        for i in range(n_flats):
            k = 1 + sub.below(min(3, ambient - 1))
            while True:
                basis = [sub.vector(ambient, P) for _ in range(k)]
                if linalg.rank([linalg.sparse(b, P) for b in basis], P) == k:
                    break
            items.append(("f%d" % i, basis))
        fam = flat_family(ambient, P, items)
        want = truncation_rhs_bruteforce(fam)
        got = None
        for attempt in range(6):
            cut, _ = dilworth_truncate(fam, sub.spawn(900 + attempt))
            got = span_rank(cut)
            if got == want:
                break
        if got == want:
            matched += 1
    fam = three_hyperplanes_through_line(P)
    forced, _ = dilworth_truncate(fam, normal=(0, 0, 1, P - 2))
    randomized, _ = dilworth_truncate(fam, SplitMix64(70_002))
    footnote_ok = (
        span_rank(forced) == 2
        and truncation_rhs_bruteforce(fam) == 3
        and span_rank(randomized) == 3
    )
    ok = matched == 50 and footnote_ok
    report(
        7,
        ok,
        "50/50 random flat families: truncated span rank equals the "
        "partition minimum; shared-line family reproduces 2 vs 3 under a "
        "forced hyperplane and 3 = 3 under a random one",
    )


def test_criterion_8_trivial_motions(body_rod_bar_runs, hinge_cases):
    runs, _ = body_rod_bar_runs
    _, hinge_checked, hinge_violations = hinge_cases
    checked = sum(r.trivial_checked for r in runs) + hinge_checked
    violations = sum(r.trivial_violations for r in runs) + hinge_violations
    # the criterion-4 instance contributes too
    g = build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * 4)
    rng = SplitMix64(40_001)
    rods = sample_rod_config(g, 3, rng.spawn(0), P)
    bars = sample_bar_config(g, rods, rng.spawn(1), P)
    check = verify_trivial_motions(matrix_body_rod_bar(g, rods, bars), rods=rods)
    checked += check.checked
    violations += check.violations
    report(
        8,
        checked > 0 and violations == 0,
        "%d constant/rod-spin motions verified in the kernel across all "
        "sampled configurations, 0 violations" % checked,
    )


def test_criterion_9_cube_regression():
    dec = p_components(cube_graph(), CountProfile.body_rod_bar(2))
    per_vertex_ok = True
    g = cube_graph()
    for v in g.vertex_ids:
        touching = [
            c
            for c in dec.components
            if any(v in (g.edge(e).u, g.edge(e).v) for e in c)
        ]
        if len(touching) != 3:
            per_vertex_ok = False
    ok = (
        len(dec.components) == 12
        and all(len(c) == 1 for c in dec.components)
        and per_vertex_ok
    )
    report(
        9,
        ok,
        "cube graph at D=3: all 12 P-components trivial, every vertex spanned "
        "by exactly 3 of them",
    )

"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the
whole suite is deterministic (fixed master seeds).
"""

import time

import pytest

from rigikit.analysis import count_side, fuzz_equivalence, linear_trial
from rigikit.analysis import random_multigraph, truncate
from rigikit.count_matroid import (
    global_count_target,
    p_components,
    rank_bruteforce_table,
    rank_value,
)
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import CountProfile, build_graph
from rigikit.rigidity import (
    kernel_basis,
    matrix_body_rod_bar,
    matrix_direction,
    matrix_graphic_union,
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
        fuzz_equivalence("body-rod-bar", 3, 100, seed=30_001),
        fuzz_equivalence("body-rod-bar", 4, 100, seed=30_002),
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
            trial = linear_trial(cs.count_graph, "body-hinge", 3, P, sub.spawn(100 + t))
            checked += trial.trivial.checked
            violations += len(trial.trivial.missed)
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
    summary = fuzz_equivalence("body-bar", 3, 100, seed=20_001)
    ok = summary["ok"] and summary["agreements"] == 100
    report(
        2,
        ok,
        "100/100 graphs: constrained matrix rank == free-coefficient matrix "
        "rank == count rank (%d escalations)" % summary["escalations"],
    )


def test_criterion_3_body_rod_bar_equivalence(body_rod_bar_runs):
    runs, elapsed = body_rod_bar_runs
    agreements = sum(r["agreements"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    subset_checks = sum(r["subset_checks"] for r in runs)
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
    basis = kernel_basis(m, m.rank(), verify_trivial_motions(m))
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
        check = verify_trivial_motions(sub_m)
        deletion_dims.append(kernel_basis(sub_m, sub_m.rank(), check).kernel_dim)
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
    s2 = fuzz_equivalence("direction", 2, 50, seed=60_001)
    s3 = fuzz_equivalence("direction", 3, 50, seed=60_002)
    k3 = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    joints = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    m = matrix_direction(k3, joints, 2, P)
    k3_ok = m.rank() == 3 == global_count_target(k3, CountProfile.direction(2))
    ok = s2["ok"] and s3["ok"] and s2["agreements"] == 50 and s3["agreements"] == 50 and k3_ok
    report(
        6,
        ok,
        "100/100 simple graphs (d=2,3): direction-matrix rank equals the "
        "d|V|-(d+1) polymatroid rank; K3 at d=2 is direction-rigid (rank 3)",
    )


def test_criterion_7_dilworth_truncation():
    # the paper's induction on dense 2-4 vertex rod graphs, where the counts
    # bind: every step's truncated union has its count rank
    rng = SplitMix64(70_001)
    matched = binding = total = 0
    for case in range(50):
        sub = rng.spawn(case)
        d = 3 + case % 2
        D = d * (d + 1) // 2
        g = random_kinded_graph(sub.spawn(0), max_vertices=4, max_edges=3 * D)
        doc = truncate(g, "body-rod-bar", d, P, sub.seed, 3)
        steps = doc["steps"]
        total += len(steps)
        binding += sum(1 for s in steps if s["count_rank"] < len(g.edges))
        if doc["trials"]["run"] == 3 and all(
            s["best_rank"] == s["count_rank"] for s in steps
        ) and steps[-1]["pluecker_rank"] == steps[-1]["count_rank"]:
            matched += 1
    # genericity matters: two rods on D-1 = 5 parallel edges at d = 3
    g = build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * 5)
    n1, n2 = rng.spawn(100).nonzero_vector(6, P), rng.spawn(101).nonzero_vector(6, P)
    distinct = matrix_graphic_union(g, 3, rng.spawn(102), P, {"r1": n1, "r2": n2}).rank()
    shared = matrix_graphic_union(g, 3, rng.spawn(102), P, {"r1": n1, "r2": n1}).rank()
    count = rank_value(g, None, CountProfile.body_rod_bar(3))
    ok = matched == 50 and binding > 0 and (count, distinct, shared) == (4, 4, 5)
    report(
        7,
        ok,
        "50/50 rod graphs: the graphic union truncated at one rod after "
        "another has the count rank at every step (%d of %d steps bind) and "
        "the Pluecker rank at the last; two rods on 5 parallel edges: %d "
        "under distinct normals, %d under a shared one, count %d"
        % (binding, total, distinct, shared, count),
    )


def test_criterion_8_trivial_motions(body_rod_bar_runs, hinge_cases):
    runs, _ = body_rod_bar_runs
    _, hinge_checked, hinge_violations = hinge_cases
    checked = sum(r["trivial_checked"] for r in runs) + hinge_checked
    violations = sum(r["trivial_violations"] for r in runs) + hinge_violations
    # the criterion-4 instance contributes too
    g = build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * 4)
    rng = SplitMix64(40_001)
    rods = sample_rod_config(g, 3, rng.spawn(0), P)
    bars = sample_bar_config(g, rods, rng.spawn(1), P)
    check = verify_trivial_motions(matrix_body_rod_bar(g, rods, bars))
    checked += check.checked
    violations += len(check.missed)
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

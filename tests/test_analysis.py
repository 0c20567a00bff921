import dataclasses

import pytest

from rigikit import count_matroid as cm
from rigikit import rigidity as rg
from rigikit.analysis import (
    BAR_MODELS,
    ROD_MODELS,
    analyze,
    count_host,
    count_side,
    fuzz_case,
    fuzz_equivalence,
    random_multigraph,
)
from rigikit.count_matroid import rank_value
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import CountProfile, VertexKind, build_graph
from rigikit.rigidity import matrix_body_rod_bar, sample_bar_config, sample_rod_config

P = DEFAULT_PRIME


def two_rods(n):
    return build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * n)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_minimally_rigid_rod_bar():
    rep = analyze(two_rods(4), "rod-bar", 3, seed=1)
    assert rep.verdict == "minimally rigid"
    assert rep.agreement
    assert rep.count_rank == rep.max_linear_rank == 4
    assert rep.kernel_dim == 8
    assert rep.minimal is True
    assert rep.fhat_rank == 4
    assert all(r == 4 for r in rep.flat_ranks)


def test_analyze_redundantly_rigid_is_rigid_not_minimal():
    rep = analyze(two_rods(5), "rod-bar", 3, seed=1)
    assert rep.verdict == "rigid"
    assert rep.minimal is False
    assert rep.count_rank == 4


def test_analyze_body_bar_six_bars():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 6)
    rep = analyze(g, "body-bar", 3, seed=2)
    assert rep.verdict == "minimally rigid"
    assert rep.graphic_union_ranks and all(r == 6 for r in rep.graphic_union_ranks)


def test_analyze_direction_path_flexible():
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")], [("a", "b"), ("b", "c")]
    )
    rep = analyze(g, "direction", 2, seed=3)
    assert rep.verdict == "flexible"
    assert rep.count_rank == rep.max_linear_rank == 2
    assert rep.count_target == 3


def test_analyze_direction_with_fixed_joints():
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    joints = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    rep = analyze(g, "direction", 2, seed=4, joints=joints)
    assert rep.verdict == "minimally rigid"
    assert rep.max_linear_rank == 3


def test_analyze_single_vertex_trivially_rigid():
    for kinds, model in ((("a", "body"), "body-bar"), (("a", "rod"), "rod-bar")):
        g = build_graph([kinds], [])
        rep = analyze(g, model, 3, seed=5)
        assert rep.verdict == "trivially rigid"
        assert rep.count_rank == 0


def test_analyze_body_hinge_pair():
    g = build_graph(
        [("b1", "body"), ("b2", "body"), ("h", "hinge")], [("b1", "h"), ("b2", "h")]
    )
    rep = analyze(g, "body-hinge", 3, seed=6)
    assert rep.verdict == "flexible"
    assert rep.count_rank == 10 and rep.count_target == 11
    assert rep.agreement
    assert rep.trivial_motion_count == 6 + 1


def test_analyze_rejects_d2_rod_models():
    with pytest.raises(ValueError, match="d=2"):
        analyze(two_rods(2), "rod-bar", 2)
    with pytest.raises(ValueError, match="d=2"):
        fuzz_equivalence("body-rod-bar", 2, 1)


def test_analyze_rejects_malformed_settings():
    with pytest.raises(ValueError, match="trials"):
        analyze(two_rods(4), "rod-bar", 3, trials=0)
    with pytest.raises(ValueError, match="direction"):
        analyze(two_rods(4), "rod-bar", 3, joints={"r1": (0, 0, 0), "r2": (1, 0, 0)})


MODELS = ("body-bar", "rod-bar", "body-rod-bar", "body-hinge", "direction")


def test_analyze_matches_standalone_count_engine():
    rng = SplitMix64(303)
    for case in range(4):
        for model in MODELS:
            d = 2 + case % 2 if model in ("body-bar", "direction") else 3
            g = random_multigraph(rng.spawn(case).spawn(len(model)), model, max_vertices=5)
            rep = analyze(g, model, d, seed=case)
            cs = count_side(g, model, d)
            prof, host = count_host(g, model, d)
            cert = cm.rank(cs.count_graph, None, prof)
            assert (rep.certificate_free, rep.certificate_parts) == (cert.free_part, cert.parts)
            assert rep.p_components == cm.p_components(host, prof).components
            firsts = [g.edge_index[c[0]] for c in rep.p_components]
            assert firsts == sorted(firsts)  # the report lists them in edge order
            expected_fhat = cm.fhat(g, None, prof) if model in ROD_MODELS else None
            assert rep.fhat_rank == expected_fhat


def test_one_circuit_pass_per_matroid(monkeypatch):
    calls = []
    real = cm._components_via_circuits

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    rank_value_calls = []
    real_rank_value = cm.rank_value
    games = []
    real_init = cm.PebbleState.__init__

    def counted_rank_value(*args):
        rank_value_calls.append(args)
        return real_rank_value(*args)

    def counted_init(self, *args):
        games.append(args)
        real_init(self, *args)

    monkeypatch.setattr(cm, "_components_via_circuits", counted)
    monkeypatch.setattr(cm, "rank_value", counted_rank_value)
    monkeypatch.setattr(cm.PebbleState, "__init__", counted_init)
    rng = SplitMix64(404)
    for model in MODELS:
        g = random_multigraph(rng.spawn(len(model)), model, max_vertices=5)
        calls.clear()
        games.clear()
        rank_value_calls.clear()
        analyze(g, model, 3, seed=1)
        # bar models: the count matroid on the graph and the expansion's for
        # the P-components; otherwise the expansion is the count matroid
        assert len(calls) == (2 if model in BAR_MODELS else 1), model
        # one game each; certificate and minimality read that game's state
        assert len(games) == len(calls), model
        assert rank_value_calls == [], model
        calls.clear()
        fuzz_equivalence(model, 3, 2, seed=1)
        assert calls == []  # fuzz runs no circuit extraction


def braced(g, model, copies):
    """g's vertices joined by every pair the model allows (bar models: copies times)."""
    order = g.vertex_ids
    pairs = [
        (u, v)
        for i, u in enumerate(order)
        for v in order[i + 1:]
        if model != "body-hinge" or g.kinds[u] != g.kinds[v]
    ]
    vertices = [(v, g.kinds[v]) for v in order]
    return build_graph(vertices, pairs * (copies if model in BAR_MODELS else 1))


def test_rank_without_and_minimality_match_fresh_games():
    # sparse random graphs and their overbraced completions, over all five
    # models at every valid d: rank_without reads the one game's state
    rng = SplitMix64(505)
    verdicts = set()
    for model in MODELS:
        for d in (2, 3, 4) if model in ("body-bar", "direction") else (3, 4):
            for case in range(2):
                sparse = random_multigraph(rng.spawn(10 * d + case), model, max_vertices=4)
                for g in (sparse, braced(sparse, model, 3)):
                    cs = count_side(g, model, d)

                    def fresh(e):  # a new game over the count graph minus e's copies
                        drop = {e} if cs.copies is None else set(cs.copies[e])
                        keep = [x for x in cs.count_graph.edge_ids if x not in drop]
                        return rank_value(cs.count_graph, keep, cs.profile)

                    without = {e: fresh(e) for e in g.edge_ids}
                    assert {e: cs.rank_without(e) for e in g.edge_ids} == without
                    rep = analyze(g, model, d, seed=case)
                    rigid = rep.max_linear_rank == cs.target
                    minimal = rigid and all(r < cs.target for r in without.values())
                    assert rep.minimal == minimal, (model, d, case)
                    verdicts.add(rep.verdict)
    assert verdicts == {"flexible", "rigid", "minimally rigid"}


def test_analyze_escalates_on_unlucky_samples():
    # tiny field: first three samples miss the generic rank, escalation recovers
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 3)
    rep = analyze(g, "body-bar", 2, prime=3, seed=22, trials=3)
    assert rep.trials_run == 10
    assert rep.linear_ranks[:3] == (2, 2, 2)
    assert rep.max_linear_rank == 3
    assert rep.agreement


def test_trivial_family_applied_once_per_trial(monkeypatch):
    # each trial applies the trivial family once; kernel_basis reuses the
    # best trial's check instead of applying the family a second time
    applied = []
    real = rg.RigidityMatrix.apply

    def counted(self, vec):
        applied.append(vec)
        return real(self, vec)

    monkeypatch.setattr(rg.RigidityMatrix, "apply", counted)
    rng = SplitMix64(405)
    cases = [
        (random_multigraph(rng.spawn(len(model)), model, max_vertices=5), model, 3, P, 1)
        for model in MODELS
    ]
    # a tiny field escalates this one to 10 trials
    cases.append((build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 3),
                  "body-bar", 2, 3, 22))
    for g, model, d, prime, seed in cases:
        applied.clear()
        rep = analyze(g, model, d, prime=prime, seed=seed)
        assert rep.trivial_motion_count > 0
        assert len(applied) == rep.trivial_motion_count * rep.trials_run, model
        assert rep.trivial_checked == len(applied)
    assert rep.trials_run == 10


def test_analyze_oracle_crosscheck():
    rep = analyze(two_rods(4), "rod-bar", 3, seed=7, oracle=True)
    assert rep.oracle == {"checked": True, "agrees": True, "bruteforce_rank": 4}


def test_analyze_oracle_size_limited():
    g = build_graph(
        [("a", "body"), ("b", "body")], [("a", "b")] * 14
    )
    rep = analyze(g, "body-bar", 3, seed=8, oracle=True)
    assert rep.oracle["checked"] is False


def test_report_json_shape():
    rep = analyze(two_rods(4), "rod-bar", 3, seed=9)
    doc = rep.to_json_dict()
    assert doc["schema"] == 1
    assert doc["verdict"] == "minimally rigid"
    assert doc["combinatorial"]["rank"] == 4
    assert doc["linear"]["trivial_violations"] == 0
    assert doc["combinatorial"]["certificate"]["free"] == ["e0", "e1", "e2", "e3"]


def test_coloop_deletion_drops_both_ranks_by_one():
    rng = SplitMix64(77)
    prof = CountProfile.body_rod_bar(3)
    tested = 0
    for case in range(40):
        g = random_multigraph(rng.spawn(case), "body-rod-bar", max_vertices=5)
        full = rank_value(g, None, prof)
        coloops = [
            e
            for e in g.edge_ids
            if rank_value(g, [x for x in g.edge_ids if x != e], prof) == full - 1
        ]
        if not coloops or len(g.edges) < 2:
            continue
        e = coloops[0]
        keep = [x for x in g.edge_ids if x != e]
        sub = build_graph(
            [(v, g.kinds[v]) for v in g.vertex_ids],
            [(g.edge(x).u, g.edge(x).v, x) for x in keep],
        )
        r = SplitMix64(1000 + case)
        best_full = best_sub = 0
        for t in range(3):
            rods = sample_rod_config(g, 3, r.spawn(t), P)
            bars = sample_bar_config(g, rods, r.spawn(100 + t), P)
            best_full = max(best_full, matrix_body_rod_bar(g, rods, bars).rank())
            sub_bars_src = {eid: bars.bars[eid] for eid in keep}
            from rigikit.rigidity import BarConfig

            sub_bars = BarConfig(d=3, p=P, bars=sub_bars_src)
            best_sub = max(best_sub, matrix_body_rod_bar(sub, rods, sub_bars).rank())
        assert best_full == full
        assert best_sub == full - 1
        tested += 1
        if tested >= 5:
            break
    assert tested >= 3


# ---------------------------------------------------------------------------
# random graphs and the fuzz harness


def test_random_multigraph_respects_models():
    rng = SplitMix64(41)
    for case in range(30):
        sub = rng.spawn(case)
        for model in ("body-bar", "rod-bar", "body-rod-bar", "body-hinge", "direction"):
            g = random_multigraph(sub.spawn(hash(model) & 0xFFFF), model)
            assert 1 <= len(g.edges) <= 24
            assert 2 <= len(g.vertex_ids) <= 8
            kinds = {g.kinds[v] for v in g.vertex_ids}
            if model == "body-bar" or model == "direction":
                assert kinds == {VertexKind.BODY}
            if model == "rod-bar":
                assert kinds == {VertexKind.ROD}
            if model == "body-hinge":
                assert kinds == {VertexKind.BODY, VertexKind.HINGE}
                for e in g.edges:
                    assert g.kinds[e.u] != g.kinds[e.v]
            if model == "direction":
                pairs = {(e.u, e.v) for e in g.edges}
                assert len(pairs) == len(g.edges)  # simple


def test_count_side_targets():
    g = build_graph([("b", "body"), ("r", "rod")], [("b", "r")] * 5)
    cs = count_side(g, "body-rod-bar", 3)
    assert cs.target == 5 and cs.rank == 5
    gh = build_graph([("b", "body"), ("h", "hinge")], [("b", "h")])
    csh = count_side(gh, "body-hinge", 3)
    assert csh.target == 5 and csh.rank == 5
    gd = build_graph([("a", "body"), ("b", "body")], [("a", "b")])
    csd = count_side(gd, "direction", 2)
    assert csd.target == 1 and csd.rank == 1


def test_fuzz_small_runs_agree():
    s = fuzz_equivalence("body-rod-bar", 3, 12, seed=2024)
    assert s.ok and s.agreements == 12
    assert s.trivial_checked > 0 and s.trivial_violations == 0
    assert s.subset_checks > 0


def test_fuzz_deterministic_and_case_independent():
    a = fuzz_equivalence("body-rod-bar", 3, 8, seed=99)
    b = fuzz_equivalence("body-rod-bar", 3, 8, seed=99)
    assert a.to_json_dict() == b.to_json_dict()
    # case i depends only on (seed, i): running the cases backwards adds up
    # to the same summary
    master = SplitMix64(99)
    results = []
    for i in reversed(range(8)):
        case_rng = master.spawn(i)
        g = random_multigraph(case_rng.spawn(10_000), "body-rod-bar")
        results.append(fuzz_case(g, "body-rod-bar", 3, P, case_rng, 3))
    for key, total in (
        ("agrees", a.agreements),
        ("escalated", a.escalations),
        ("trivial_checked", a.trivial_checked),
        ("trivial_violations", a.trivial_violations),
        ("subset_checks", a.subset_checks),
    ):
        assert sum(r[key] for r in results) == total, key


def test_fuzz_case_failure_dump_replayable():
    # simulate a disagreement by lying about the combinatorial rank
    g = two_rods(4)
    cs = count_side(g, "rod-bar", 3)
    fake = dataclasses.replace(cs, rank=cs.rank + 1)  # unattainable rank
    from rigikit.analysis import _failure_dump

    dump = _failure_dump(g, "rod-bar", 3, 5, fake, [4], "synthetic")
    assert dump["reason"] == "synthetic"
    from rigikit.documents import parse_document

    graph, model, d, _ = parse_document(dump["document"])
    assert model == "rod-bar" and d == 3
    assert len(graph.edges) == 4


def test_fuzz_desk_scale_guard():
    with pytest.raises(ValueError, match="desk-scale"):
        fuzz_equivalence("body-bar", 3, 1, max_vertices=50)


def test_dump_document_replays_through_analyze():
    from rigikit.analysis import _dump
    from rigikit.documents import parse_document

    g = build_graph(
        [("b", "body"), ("h", "hinge")], [("b", "h")]
    )
    cs = count_side(g, "body-hinge", 3)
    dump = _dump(g, "body-hinge", 3, 11, cs, [5])
    graph, model, d, joints = parse_document(dump["document"])
    rep = analyze(graph, model, d, seed=dump["seed"])
    assert rep.count_rank == dump["count_rank"]
    assert rep.verdict == "minimally rigid"

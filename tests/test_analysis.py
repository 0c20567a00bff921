import ast
import types
from pathlib import Path

import pytest

from rigikit import analysis
from rigikit import count_matroid as cm
from rigikit import linalg
from rigikit import rigidity as rg
from rigikit.analysis import (
    BAR_MODELS,
    CountSide,
    ROD_MODELS,
    analyze,
    count_side,
    decompose,
    fuzz_case,
    fuzz_equivalence,
    random_multigraph,
)
from rigikit.count_matroid import rank_value
from rigikit.field import DEFAULT_PRIME, SplitMix64
from rigikit.graph import CountProfile, GraphError, VertexKind, build_graph, expand_f
from rigikit.rigidity import matrix_body_rod_bar, sample_bar_config, sample_rod_config

from helpers import subset_check_reference

P = DEFAULT_PRIME


def two_rods(n):
    return build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * n)


@pytest.fixture
def lying_oracle(monkeypatch):
    """rank_bruteforce reads one more than the true rank, so --oracle disagrees."""
    real = cm.rank_bruteforce

    def off_by_one(*args):
        cert = real(*args)
        return cert._replace(value=cert.value + 1)

    monkeypatch.setattr(cm, "rank_bruteforce", off_by_one)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_minimally_rigid_rod_bar():
    rep = analyze(two_rods(4), "rod-bar", 3, seed=1)
    assert rep["verdict"] == "minimally rigid"
    assert rep["agreement"]
    assert rep["combinatorial"]["rank"] == rep["linear"]["max_rank"] == 4
    assert rep["linear"]["kernel_dim"] == 8
    assert rep["minimal"] is True
    assert rep["combinatorial"]["fhat"] == 4
    assert all(r == 4 for r in rep["linear"]["flat_ranks"])


def test_only_linear_trial_samples_a_realization():
    """analysis.py samples, ranks and checks a realization in one place: no
    function but linear_trial names a sampler, the direction matrix or the
    trivial-motion check."""
    realization = {"sample_body_rod_bar", "sample_joints", "matrix_direction",
                   "verify_trivial_motions"}
    found = []
    for top in ast.parse(Path(analysis.__file__).read_text()).body:
        if isinstance(top, ast.FunctionDef) and top.name == "linear_trial":
            continue
        found.extend(
            "%s:%d" % (getattr(top, "name", "module"), node.lineno)
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr in realization
            or isinstance(node, ast.Name) and node.id in realization)
    assert not found, "a realization sampled outside linear_trial: %s" % ", ".join(found)


def test_only_count_side_picks_a_count_graph():
    """analysis.py picks a model's profile and host graph in one place: no
    function but count_side names CountProfile or expand_hinge."""
    picks = {"CountProfile", "expand_hinge"}
    found = [
        "%s:%d" % (top.name, node.lineno)
        for top in ast.parse(Path(analysis.__file__).read_text()).body
        if isinstance(top, ast.FunctionDef) and top.name != "count_side"
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in picks
        or isinstance(node, ast.Name) and node.id in picks
    ]
    assert not found, "a count profile or host graph picked outside count_side: %s" % (
        ", ".join(found))


def test_records_are_read_only():
    g = two_rods(4)
    trial = analysis.linear_trial(g, "rod-bar", 3, P, SplitMix64(1))
    records = [
        (analyze(g, "rod-bar", 3, seed=1), "verdict"),
        (count_side(g, "rod-bar", 3), "rank"),
        (trial, "rods"),
        (trial.matrix, "rows"),
        (trial.trivial, "missed"),
        (g, "edges"),
        (g.edges[0], "u"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_analyze_redundantly_rigid_is_rigid_not_minimal():
    rep = analyze(two_rods(5), "rod-bar", 3, seed=1)
    assert rep["verdict"] == "rigid"
    assert rep["minimal"] is False
    assert rep["combinatorial"]["rank"] == 4


def test_analyze_body_bar_six_bars():
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 6)
    rep = analyze(g, "body-bar", 3, seed=2)
    assert rep["verdict"] == "minimally rigid"
    union = rep["linear"]["graphic_union_ranks"]
    assert union and all(r == 6 for r in union)


def test_analyze_direction_path_flexible():
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")], [("a", "b"), ("b", "c")]
    )
    rep = analyze(g, "direction", 2, seed=3)
    assert rep["verdict"] == "flexible"
    assert rep["combinatorial"]["rank"] == rep["linear"]["max_rank"] == 2
    assert rep["combinatorial"]["target"] == 3


def test_analyze_direction_with_fixed_joints():
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    joints = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    rep = analyze(g, "direction", 2, seed=4, joints=joints)
    assert rep["verdict"] == "minimally rigid"
    assert rep["linear"]["max_rank"] == 3


def test_analyze_single_vertex_trivially_rigid():
    for kinds, model in ((("a", "body"), "body-bar"), (("a", "rod"), "rod-bar")):
        g = build_graph([kinds], [])
        rep = analyze(g, model, 3, seed=5)
        assert rep["verdict"] == "trivially rigid"
        assert rep["combinatorial"]["rank"] == 0


def test_analyze_body_hinge_pair():
    g = build_graph(
        [("b1", "body"), ("b2", "body"), ("h", "hinge")], [("b1", "h"), ("b2", "h")]
    )
    rep = analyze(g, "body-hinge", 3, seed=6)
    assert rep["verdict"] == "flexible"
    assert rep["combinatorial"]["rank"] == 10 and rep["combinatorial"]["target"] == 11
    assert rep["agreement"]
    assert rep["linear"]["trivial_motions"] == 6 + 1


@pytest.mark.parametrize("trials", [3, 5])
def test_body_hinge_rewrites_once_and_realizes_the_count_graph(monkeypatch, trials):
    # the hinge-to-rod rewrite runs once per instance, on the count side, not
    # once per trial; every trial realizes the count side's bar graph
    g = build_graph(
        [("b1", "body"), ("h1", "hinge"), ("b2", "body"), ("h2", "hinge")],
        [("b1", "h1"), ("h1", "b2"), ("b2", "h2"), ("h2", "b1"), ("b1", "h1")],
    )
    rewrites, realized = [], []
    real_rewrite, real_trial = rg.expand_hinge, analysis.linear_trial

    def rewrite(*args):
        rewrites.append(args)
        return real_rewrite(*args)

    def trial(*args, **kwargs):
        realized.append(real_trial(*args, **kwargs))
        return realized[-1]

    with monkeypatch.context() as mp:
        mp.setattr(rg, "expand_hinge", rewrite)
        mp.setattr(analysis, "linear_trial", trial)
        rep = analyze(g, "body-hinge", 3, seed=4, trials=trials)
    assert len(rewrites) == 1
    assert len(realized) == rep["trials"]["run"] >= trials
    bars = count_side(g, "body-hinge", 3).count_graph
    assert len(bars.edges) == 5 * len(g.edges)  # D - 1 parallel bars per edge
    for t in realized:
        assert t.matrix.vertex_order == bars.vertex_ids
        assert len(t.matrix.rows) == len(bars.edges)


def test_body_body_edge_is_rejected_before_any_trial(monkeypatch):
    g = build_graph([("b1", "body"), ("b2", "body"), ("h", "hinge")],
                    [("b1", "h"), ("b1", "b2")])
    monkeypatch.setattr(analysis, "linear_trial", lambda *a, **k: pytest.fail("a trial ran"))
    with pytest.raises(GraphError, match=r"^edge 'e1' must join a body to a hinge, got body-body$"):
        analyze(g, "body-hinge", 3)


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
            prof = cs.profile
            host = rg.expand_hinge(g) if model == "body-hinge" else g
            cert = cm.rank(cs.count_graph, None, prof)
            comb = rep["combinatorial"]
            assert comb["certificate"] == {"free": list(cert.free_part),
                                           "parts": [list(part) for part in cert.parts]}
            components = cm.p_components(host, prof).components
            assert comb["p_components"] == [list(c) for c in components]
            firsts = [g.edge_index[c[0]] for c in comb["p_components"]]
            assert firsts == sorted(firsts)  # the report lists them in edge order
            expected_fhat = cm.fhat(g, None, prof) if model in ROD_MODELS else None
            assert comb["fhat"] == expected_fhat


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
        games.clear()
        decompose(g, model, 3)
        # decompose reads the same count side as analyze, so the same games
        assert len(calls) == (2 if model in BAR_MODELS else 1), model
        assert len(games) == len(calls), model
        calls.clear()
        fuzz_equivalence(model, 3, 2, seed=1)
        # one circuit pass per case: the rank certificate of its count side;
        # fuzz reads no P-components
        assert len(calls) == 2, model


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


def rod_ring(n):
    """n rods on a cycle: two bars to the next rod and one to the rod after it."""
    edges = []
    for i in range(n):
        nxt, after = "r%d" % ((i + 1) % n), "r%d" % ((i + 2) % n)
        edges += [("r%d" % i, nxt), ("r%d" % i, nxt), ("r%d" % i, after)]
    return build_graph([("r%d" % i, "rod") for i in range(n)], edges)


def test_circuit_pass_replays_nothing(monkeypatch):
    # every circuit is read off a reach region: the certificate of a
    # finished game makes no insertion attempt and no released copy
    rng = SplitMix64(606)
    prof = CountProfile.body_rod_bar(3)
    # the rod ring's count matroid is free, its f-expansion is not
    ring, _ = expand_f(rod_ring(32), prof)
    states = [cm.pebble_game(ring, None, prof)]
    for model in MODELS:
        for k in range(20):  # the first overbraced instance of the model
            g = braced(random_multigraph(rng.spawn(k), model, max_vertices=5), model, 3)
            state = count_side(g, model, 3).state
            if state.rejected:
                break
        states.append(state)
    calls = []
    for name in ("try_insert", "released"):
        real = getattr(cm.PebbleState, name)

        def counted(self, *args, _real=real, _name=name):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(cm.PebbleState, name, counted)
    for state in states:
        assert state.rejected
        cm.certificate(state, None)
        assert calls == []


def test_minimality_of_single_copy_matroids_needs_no_deletion(monkeypatch):
    # bar models and d = 2 direction: each edge is one element of the count
    # matroid, so minimality is read off the rejected edges alone
    calls = []
    real = CountSide.rank_without

    def counted(self, e):
        calls.append(e)
        return real(self, e)

    monkeypatch.setattr(CountSide, "rank_without", counted)

    def pair(u, v, n):  # n parallel edges between u and v
        return build_graph([u, v], [(u[0], v[0])] * n)

    k4 = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
    bodies4 = [(v, "body") for v in "abcd"]
    # (model, d, graph, minimally rigid?): each rigid, minimal or overbraced
    cases = [
        (model, d, pair(u, v, n), n == need)
        for model, d, u, v, need in (
            ("body-bar", 2, ("a", "body"), ("b", "body"), 3),
            ("body-bar", 3, ("a", "body"), ("b", "body"), 6),
            ("body-bar", 4, ("a", "body"), ("b", "body"), 10),
            ("rod-bar", 3, ("r", "rod"), ("s", "rod"), 4),
            ("rod-bar", 4, ("r", "rod"), ("s", "rod"), 8),
            ("body-rod-bar", 3, ("a", "body"), ("r", "rod"), 5),
        )
        for n in (need, need + 1)
    ]
    cases += [("direction", 2, build_graph(bodies4, es), es is not k4) for es in (k4[:5], k4)]
    for model, d, g, minimal in cases:
        rep = analyze(g, model, d, seed=1)
        assert rep["verdict"] == ("minimally rigid" if minimal else "rigid"), (model, d)
    assert calls == []
    # where an edge has several copies the deletions still run
    rep = analyze(build_graph(bodies4, k4), "direction", 3, seed=1)
    assert rep["verdict"] == "rigid" and calls


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
                    rigid = rep["linear"]["max_rank"] == cs.target
                    minimal = rigid and all(r < cs.target for r in without.values())
                    assert rep["minimal"] == minimal, (model, d, case)
                    verdicts.add(rep["verdict"])
    assert verdicts == {"flexible", "rigid", "minimally rigid"}


def test_analyze_escalates_on_unlucky_samples():
    # tiny field: first three samples miss the generic rank, escalation recovers
    g = build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 3)
    rep = analyze(g, "body-bar", 2, prime=3, seed=22, trials=3)
    assert rep["trials"]["run"] == 10
    assert rep["linear"]["ranks"][:3] == [2, 2, 2]
    assert rep["linear"]["max_rank"] == 3
    assert rep["agreement"]


def shift_rank(monkeypatch, name, delta):
    """rg.flat_family_rank, or the rank of rg.matrix_graphic_union's matrix,
    reads delta off the true rank."""
    real = getattr(rg, name)
    if name == "flat_family_rank":
        monkeypatch.setattr(rg, name, lambda *args: real(*args) + delta)
    else:
        monkeypatch.setattr(rg, name, lambda *args: types.SimpleNamespace(
            rank=lambda: real(*args).rank() + delta))


@pytest.mark.parametrize(
    "model, d, ranked",
    [("rod-bar", 3, "flat_family_rank"), ("body-bar", 2, "matrix_graphic_union")],
)
def test_every_best_rank_decides_agreement(monkeypatch, model, d, ranked):
    # the max linear rank still meets the count; a second rank falls one short
    g = two_rods(4) if model == "rod-bar" else build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")], [("a", "b"), ("b", "c"), ("c", "a")]
    )
    assert analyze(g, model, d, seed=3)["agreement"]
    shift_rank(monkeypatch, ranked, -1)
    rep = analyze(g, model, d, seed=3)
    assert rep["trials"]["run"] == 10
    assert rep["linear"]["max_rank"] == rep["combinatorial"]["rank"]
    assert not rep["agreement"]


def test_graphic_union_rank_above_count_raises_at_once(monkeypatch):
    # the union of D graphic matroids has the body-bar count's rank, so no
    # sample can exceed it: the first such trial is a disagreement
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")], [("a", "b"), ("b", "c"), ("c", "a")]
    )
    shift_rank(monkeypatch, "matrix_graphic_union", 1)
    with pytest.raises(analysis.EngineDisagreement) as info:
        analyze(g, "body-bar", 2, seed=3)
    assert str(info.value) == "graphic-union rank 4 exceeds combinatorial rank 3"
    assert info.value.dump["linear_ranks"] == [3]


def test_oracle_disagreement_dumps_a_replayable_document(lying_oracle):
    with pytest.raises(analysis.EngineDisagreement) as info:
        analyze(two_rods(4), "rod-bar", 3, seed=7, oracle=True)
    dump = info.value.dump
    assert dump["reason"] == str(info.value) == "pebble rank 4 != brute-force rank 5"
    from rigikit.documents import parse_document

    graph, model, d, joints = parse_document(dump["document"])
    rep = analyze(graph, model, d, seed=dump["seed"], joints=joints)
    assert (model, d, rep["combinatorial"]["rank"]) == ("rod-bar", 3, dump["count_rank"])
    assert rep["linear"]["ranks"] == dump["linear_ranks"]


def test_oracle_disagreement_dump_keeps_fixed_joints(lying_oracle):
    # the dump is the failing input: a direction document replays with its
    # own joints, not with joints sampled from the seed
    g = build_graph(
        [("a", "body"), ("b", "body"), ("c", "body")],
        [("a", "b"), ("b", "c"), ("c", "a")],
    )
    fixed = {"a": (0, 0), "b": (1, 0), "c": (0, 1)}
    with pytest.raises(analysis.EngineDisagreement) as info:
        analyze(g, "direction", 2, seed=4, joints=fixed, oracle=True)
    from rigikit.documents import parse_document

    dump = info.value.dump
    graph, model, d, joints = parse_document(dump["document"])
    assert joints == fixed
    rep = analyze(graph, model, d, seed=dump["seed"], joints=joints)
    assert rep["linear"]["ranks"] == dump["linear_ranks"]


def test_trivial_family_applied_once_per_trial(monkeypatch):
    # each trial checks the trivial family in one pass over the rows;
    # kernel_basis reuses the best trial's check instead of running it again
    passes = []
    real_check, real_kernel = rg.verify_trivial_motions, rg.kernel_basis

    def counted(m):
        passes.append(real_check(m))
        return passes[-1]

    def no_second_pass(*args):
        before = len(passes)
        basis = real_kernel(*args)
        assert len(passes) == before
        return basis

    monkeypatch.setattr(rg, "verify_trivial_motions", counted)
    monkeypatch.setattr(rg, "kernel_basis", no_second_pass)
    rng = SplitMix64(405)
    cases = [
        (random_multigraph(rng.spawn(len(model)), model, max_vertices=5), model, 3, P, 1)
        for model in MODELS
    ]
    # a tiny field escalates this one to 10 trials
    cases.append((build_graph([("a", "body"), ("b", "body")], [("a", "b")] * 3),
                  "body-bar", 2, 3, 22))
    for g, model, d, prime, seed in cases:
        passes.clear()
        rep = analyze(g, model, d, prime=prime, seed=seed)
        lin, trials_run = rep["linear"], rep["trials"]["run"]
        assert lin["trivial_motions"] > 0
        assert len(passes) == trials_run, model
        assert [c.checked for c in passes] == [lin["trivial_motions"]] * trials_run
        assert lin["trivial_checked"] == sum(c.checked for c in passes)
    assert rep["trials"]["run"] == 10


def test_analyze_oracle_crosscheck():
    rep = analyze(two_rods(4), "rod-bar", 3, seed=7, oracle=True)
    assert rep["oracle"] == {"checked": True, "agrees": True, "bruteforce_rank": 4}


def test_analyze_oracle_size_limited():
    g = build_graph(
        [("a", "body"), ("b", "body")], [("a", "b")] * 14
    )
    rep = analyze(g, "body-bar", 3, seed=8, oracle=True)
    assert rep["oracle"]["checked"] is False


def test_report_json_shape():
    doc = analyze(two_rods(4), "rod-bar", 3, seed=9)
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
    assert s["ok"] and s["agreements"] == 12
    assert s["trivial_checked"] > 0 and s["trivial_violations"] == 0
    assert s["subset_checks"] > 0


def test_rod_trials_build_no_edge_flat_matrix(monkeypatch):
    # the flat rank is read off the kernel: a rod trial, and a fuzz run of
    # them, never builds the edge-flat matrix or solves for a nullspace
    g = random_multigraph(SplitMix64(7), "rod-bar", max_vertices=6)
    real, ranked = rg.flat_family_rank, []
    monkeypatch.setattr(rg, "flat_family_rank", lambda *args: ranked.append(args) or real(*args))

    def forbidden(*args, **kwargs):
        raise AssertionError("a rod trial built the edge-flat matrix")

    with monkeypatch.context() as mp:
        mp.setattr(rg, "matrix_edge_flats", forbidden)
        mp.setattr(linalg, "nullspace", forbidden)
        flat_ranks = analyze(g, "rod-bar", 3, seed=8)["linear"]["flat_ranks"]
        for model in ROD_MODELS:
            s = fuzz_equivalence(model, 3, 20, seed=5)
            assert s["ok"] and s["agreements"] == 20
    # each trial's flat rank is the edge-flat matrix's rank on its own rods
    expected = [rg.matrix_edge_flats(graph, rg.RodConfig(3, {}, m.normals), m.p).rank()
                for graph, m in ranked[:len(flat_ranks)]]
    assert flat_ranks == expected


def test_fuzz_deterministic_and_case_independent():
    a = fuzz_equivalence("body-rod-bar", 3, 8, seed=99)
    b = fuzz_equivalence("body-rod-bar", 3, 8, seed=99)
    assert a == b
    # case i depends only on (seed, i): running the cases backwards adds up
    # to the same summary
    master = SplitMix64(99)
    results = []
    for i in reversed(range(8)):
        case_rng = master.spawn(i)
        g = random_multigraph(case_rng.spawn(10_000), "body-rod-bar")
        results.append(fuzz_case(g, "body-rod-bar", 3, P, case_rng, 3))
    assert sum(r["failure"] is None for r in results) == a["agreements"]
    assert a["trivial_violations"] == 0
    for key, total in (
        ("escalated", a["escalations"]),
        ("trivial_checked", a["trivial_checked"]),
        ("subset_checks", a["subset_checks"]),
    ):
        assert sum(r[key] for r in results) == total, key


def test_fuzz_case_failure_dump_replayable(monkeypatch):
    # simulate a disagreement by lying about the combinatorial rank
    g = two_rods(4)
    cs = count_side(g, "rod-bar", 3)
    fake = cs._replace(rank=cs.rank + 1)  # unattainable rank
    monkeypatch.setattr(analysis, "count_side", lambda *args: fake)
    dump = fuzz_case(g, "rod-bar", 3, P, SplitMix64(5), 3)["failure"]
    assert dump["reason"] == "max linear rank 4 != combinatorial rank 5"
    assert dump["linear_ranks"] == [4] * analysis.ESCALATED_TRIALS
    from rigikit.documents import parse_document

    graph, model, d, _ = parse_document(dump["document"])
    assert model == "rod-bar" and d == 3
    assert len(graph.edges) == 4


@pytest.mark.parametrize("lowered, checks", [
    (None, 31), (("a", "c"), 10), (("e",), 16), (("b", "a", "d", "c", "e"), 31)])
def test_subset_check_fails_as_the_one_subset_at_a_time_loop(monkeypatch, lowered, checks):
    # the partition cost of one edge set is lowered, so every brute force
    # over a superset may read low: the game tree and the shared table stop
    # at the same subset, with the same reason, as one game and one brute
    # force per subset
    g = build_graph([("r1", "rod"), ("r2", "rod"), ("r3", "rod")],
                    [("r1", "r2", "b"), ("r1", "r2", "a"), ("r2", "r3", "d"),
                     ("r1", "r3", "c"), ("r1", "r3", "e")])
    prof = CountProfile.body_rod_bar(3)
    if lowered is not None:
        real = cm._mask_costs

        def lower(graph, prof, order):
            fmask = real(graph, prof, order)
            if set(lowered) <= set(order):
                fmask[sum(1 << order.index(e) for e in lowered)] -= 100
            return fmask

        monkeypatch.setattr(cm, "_mask_costs", lower)
    reference = subset_check_reference(g, prof)
    assert reference[0] == checks and (reference[1] is None) == (lowered is None)
    out = fuzz_case(g, "rod-bar", 3, P, SplitMix64(3), 1)
    assert (out["subset_checks"], (out["failure"] or {}).get("reason")) == reference


@pytest.mark.parametrize("model", ["rod-bar", "body-rod-bar"])
@pytest.mark.parametrize("n, fhat_calls", [(1, 0), (6, 0), (7, 1), (9, 1)])
def test_fuzz_case_takes_small_fhat_from_its_subset_tree(monkeypatch, model, n, fhat_calls):
    # up to SUBSET_CHECK_EDGES edges fhat(E) is the subset tree's last game,
    # and no separate game is played; above it one cm.fhat game is
    third = "body" if model == "body-rod-bar" else "rod"
    pairs = [("r1", "r2"), ("r2", "v3"), ("r1", "v3")] * 3
    g = build_graph([("r1", "rod"), ("r2", "rod"), ("v3", third)], pairs[:n])
    prof = CountProfile.body_rod_bar(3)
    checks = subset_check_reference(g, prof)[0] if n <= analysis.SUBSET_CHECK_EDGES else 0
    calls = []
    real = cm.fhat
    monkeypatch.setattr(cm, "fhat", lambda *args: calls.append(args) or real(*args))
    out = fuzz_case(g, model, 3, P, SplitMix64(3), 1)
    assert len(calls) == fhat_calls
    assert (out["subset_checks"], out["failure"]) == (checks, None)
    assert checks == (2**n - 1 if n <= 6 else 0)


def test_dump_document_replays_through_analyze(lying_oracle):
    from rigikit.documents import parse_document

    g = build_graph(
        [("b", "body"), ("h", "hinge")], [("b", "h")]
    )
    with pytest.raises(analysis.EngineDisagreement) as info:
        analyze(g, "body-hinge", 3, seed=11, oracle=True)
    dump = info.value.dump
    graph, model, d, joints = parse_document(dump["document"])
    rep = analyze(graph, model, d, seed=dump["seed"])
    assert rep["combinatorial"]["rank"] == dump["count_rank"]
    assert rep["verdict"] == "minimally rigid"

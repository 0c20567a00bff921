import gc
import json
import os
import subprocess
import sys

import pytest

import rigikit
from rigikit.cli import main
from rigikit.documents import MODELS, graph_document, parse_document
from rigikit.graph import build_graph


def write_doc(tmp_path, doc, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def two_rods_doc():
    return {
        "schema": 1,
        "model": "rod-bar",
        "dimension": 3,
        "vertices": [{"id": "r1", "kind": "rod"}, {"id": "r2", "kind": "rod"}],
        "edges": [["r1", "r2"]] * 4,
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_two_rods(tmp_path, capsys):
    path = write_doc(tmp_path, two_rods_doc())
    code, out, err = run(capsys, ["analyze", path, "--dim", "3", "--seed", "7"])
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "minimally rigid"
    assert rep["combinatorial"]["rank"] == 4
    assert rep["linear"]["max_rank"] == 4


def test_analyze_missing_file(capsys):
    code, out, err = run(capsys, ["analyze", "/nonexistent/graph.json"])
    assert code == 1
    assert "/nonexistent/graph.json" in err


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_unreadable_document_exits_1(command, tmp_path, capsys):
    code, out, err = run(capsys, [command, str(tmp_path)])  # a directory
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read %s" % tmp_path)


def test_analyze_schema_error(tmp_path, capsys):
    path = write_doc(tmp_path, {"schema": 1, "model": "nope"})
    code, out, err = run(capsys, ["analyze", path])
    assert code == 1
    assert "unknown model" in err
    for kind in (5, None, True, ["rod"]):
        doc = two_rods_doc()
        doc["vertices"][1]["kind"] = kind
        code, out, err = run(capsys, ["analyze", write_doc(tmp_path, doc)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "'r2' has unknown kind" in err


def test_analyze_loop_edge_rejected(tmp_path, capsys):
    doc = two_rods_doc()
    doc["edges"] = [["r1", "r1"]]
    code, out, err = run(capsys, ["analyze", write_doc(tmp_path, doc)])
    assert code == 1
    assert "loop" in err


def test_bad_prime_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, two_rods_doc())
    code, out, err = run(capsys, ["analyze", path, "--prime", "91"])
    assert (code, out) == (1, "")
    assert err == "error: modulus 91 is not prime\n"


def test_byte_identical_reports(tmp_path, capsys):
    path = write_doc(tmp_path, two_rods_doc())
    argv = ["analyze", path, "--seed", "123", "--trials", "2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_round_trip(tmp_path, capsys):
    from rigikit.analysis import analyze
    from rigikit.graph import build_graph

    g = build_graph([("r1", "rod"), ("r2", "rod")], [("r1", "r2")] * 4)
    rep = analyze(g, "rod-bar", 3, seed=7)
    path = write_doc(tmp_path, two_rods_doc())
    code, out, _ = run(capsys, ["analyze", path, "--seed", "7"])
    assert json.loads(out) == rep


def test_text_format(tmp_path, capsys):
    path = write_doc(tmp_path, two_rods_doc())
    code, out, _ = run(capsys, ["analyze", path, "--format", "text"])
    assert code == 0
    assert "minimally rigid" in out


def test_decompose(tmp_path, capsys):
    doc = {
        "schema": 1,
        "model": "body-rod-bar",
        "dimension": 3,
        "vertices": [
            {"id": "a", "kind": "body"},
            {"id": "b", "kind": "body"},
            {"id": "c", "kind": "body"},
        ],
        "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
    }
    code, out, _ = run(capsys, ["decompose", write_doc(tmp_path, doc)])
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == [["e0", "e1", "e2"]]


def test_decompose_checks_model_dimension(tmp_path, capsys):
    doc = {
        "schema": 1,
        "model": "body-rod-bar",
        "dimension": 3,
        "vertices": [{"id": "a", "kind": "body"}, {"id": "r", "kind": "rod"}],
        "edges": [["a", "r"]] * 5,
    }
    path = write_doc(tmp_path, doc)
    for command in ("analyze", "decompose"):
        code, out, err = run(capsys, [command, path, "--dim", "2"])
        assert code == 1, command
        assert out == "" and "needs dimension >= 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--model", "nope"],
        ["analyze"],
        ["fuzz", "--model", "body-bar", "--cases", "x"],
        ["fuzz", "--model", "body-bar", "--cases", "1", "--threads", "2"],
        [],
        ["decompose", "graph.json", "--seed", "0"],  # decompose samples nothing
        ["decompose", "graph.json", "--prime", "3"],
        ["fuzz", "--model", "body-bar", "--max-vertices", "1"],  # gone: fuzz draws <= 8 vertices
        ["fuzz", "--model", "body-bar", "--max-vertices", "99"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    # exit 2 is reserved for engine disagreement
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "DOC", "--trials", "0"], "trials must be at least 1"),
        (["analyze", "DOC", "--trials", "-2"], "trials must be at least 1"),
        (["fuzz", "--model", "body-bar", "--trials", "0"], "trials must be at least 1"),
        (["fuzz", "--model", "body-bar", "--cases", "-3"], "cases must be >= 0"),
        (["fuzz", "--model", "body-bar", "--prime", "91"], "modulus 91 is not prime"),
        (["truncate", "DOC", "--prime", "91"], "modulus 91 is not prime"),
        (["truncate", "DOC", "--trials", "0"], "trials must be at least 1"),
        (["truncate", "DOC", "--trials", "-2"], "trials must be at least 1"),
    ],
)
def test_malformed_settings_exit_1(argv, message, tmp_path, capsys):
    path = write_doc(tmp_path, two_rods_doc())
    code, out, err = run(capsys, [path if a == "DOC" else a for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_fuzz_cli(capsys):
    code, out, _ = run(
        capsys,
        ["fuzz", "--model", "body-bar", "--dim", "3", "--cases", "5", "--seed", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agreements"] == 5 and payload["ok"]


def test_fuzz_counterexample_exit_code(capsys, monkeypatch):
    from rigikit import cli

    failing = {
        "schema": 1, "kind": "fuzz-summary", "model": "body-bar", "dimension": 3, "cases": 1,
        "agreements": 0, "escalations": 0, "trivial_checked": 1, "trivial_violations": 0,
        "subset_checks": 0, "failures": [{"case": 0, "reason": "synthetic", "document": {}}],
        "ok": False,
    }
    monkeypatch.setattr(cli, "fuzz_equivalence", lambda *a, **k: failing)
    code, out, err = run(capsys, ["fuzz", "--model", "body-bar", "--cases", "1"])
    assert code == 2
    assert "disagreement" in err


@pytest.fixture
def kernel_miss_on_trial(monkeypatch):
    """kernel_miss_on_trial(t): trial t's check misses its last trivial motion."""
    from rigikit import rigidity as rg

    def patch(bad):
        calls = []

        def check(*args, **kwargs):
            found = real(*args, **kwargs)
            calls.append(found)
            if len(calls) - 1 == bad:
                found = found._replace(missed=(found.motions[-1][0],))
            return found

        monkeypatch.setattr(rg, "verify_trivial_motions", check)

    real = rg.verify_trivial_motions
    return patch


@pytest.mark.parametrize("trial", [0, 1])  # the best trial, and a later one of the same rank
def test_trivial_motion_outside_the_kernel_fails_analyze(trial, kernel_miss_on_trial,
                                                         tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, two_rods_doc())
    kernel_miss_on_trial(trial)
    code, out, err = run(capsys, ["analyze", path, "--seed", "7"])
    assert code == 2 and out == ""
    assert err.startswith("engine disagreement: rod-spin motion is not in the kernel\n")
    dump = json.loads(err.splitlines()[1])
    assert dump["document"] == two_rods_doc() and dump["seed"] == 7
    assert dump["reason"] == "rod-spin motion is not in the kernel"
    assert dump["linear_ranks"] == [4] * (trial + 1)
    monkeypatch.undo()  # the dump replays on the unpatched engines
    replay = ["analyze", write_doc(tmp_path, dump["document"], "dump.json"), "--seed", "7"]
    assert run(capsys, replay)[0] == 0


@pytest.mark.parametrize("trial", [0, 1])
def test_trivial_motion_outside_the_kernel_fails_fuzz(trial, kernel_miss_on_trial, capsys):
    kernel_miss_on_trial(trial)
    code, out, err = run(capsys, ["fuzz", "--model", "rod-bar", "--cases", "1"])
    assert code == 2
    assert err == "fuzz: 1 disagreement(s); dumps are replayable via `rigikit analyze`\n"
    summary = json.loads(out)
    assert (summary["agreements"], summary["trivial_violations"], summary["ok"]) == (0, 0, False)
    [dump] = summary["failures"]
    assert dump["case"] == 0 and dump["reason"] == "rod-spin motion is not in the kernel"
    assert len(dump["linear_ranks"]) == trial + 1
    assert parse_document(dump["document"])[1:3] == ("rod-bar", 3)


def truncation_steps(best, pluecker):
    """two_rods_doc's truncation steps with these best ranks, the last step's Pluecker rank."""
    return [{"k": k, "rod": rod, "count_rank": 4, "best_rank": rank,
             "pluecker_rank": pluecker if k == 2 else None}
            for k, (rod, rank) in enumerate(zip((None, "r1", "r2"), best))]


@pytest.mark.parametrize(
    "trial, steps",
    # over F_3 at seed 5 trial 0 falls short at steps 1 and 2 and trial 1 does
    # not: the dump's steps carry the best ranks of trials 0..t
    [(0, truncation_steps((4, 3, 2), 4)), (1, truncation_steps((4, 4, 4), 4))],
    ids=["0", "1"],
)
def test_trivial_motion_outside_the_kernel_fails_truncate(trial, steps, kernel_miss_on_trial,
                                                          tmp_path, capsys):
    path = write_doc(tmp_path, two_rods_doc())
    kernel_miss_on_trial(trial)
    code, out, err = run(capsys, ["truncate", path, "--prime", "3", "--seed", "5"])
    assert code == 2 and out == ""
    reason = "truncation step 2: Pluecker rod-spin motion is not in the kernel"
    assert err.startswith("engine disagreement: %s\n" % reason)
    dump = json.loads(err.splitlines()[1])
    assert dump == {"document": two_rods_doc(), "seed": 5, "reason": reason, "steps": steps}


@pytest.fixture
def bar_off_its_rod(monkeypatch):
    """sample_bar_config with the first bar at a rod replaced by a bar through
    two points of a stream of its own, which misses the rod."""
    from rigikit import rigidity as rg
    from rigikit.exterior import wedge2

    def moved(graph, rods, rng, p):
        config = real(graph, rods, rng, p)
        e = next(e for e in graph.edges if e.u in rods.spans or e.v in rods.spans)
        off = rng.spawn(len(graph.edges))
        x, y = (off.nonzero_vector(rods.d + 1, p) for _ in range(2))
        return config._replace(bars={**config.bars, e.id: wedge2(x, y, rods.d, p)})

    real = rg.sample_bar_config
    monkeypatch.setattr(rg, "sample_bar_config", moved)


def test_bar_off_its_rod_fails_analyze(bar_off_its_rod, tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, two_rods_doc())
    code, out, err = run(capsys, ["analyze", path, "--seed", "7"])
    assert code == 2 and out == ""
    assert err.startswith("engine disagreement: rod-spin motion is not in the kernel\n")
    dump = json.loads(err.splitlines()[1])
    assert dump == {"document": two_rods_doc(), "seed": 7,
                    "reason": "rod-spin motion is not in the kernel",
                    "count_rank": 4, "count_target": 4, "linear_ranks": [4]}
    monkeypatch.undo()  # the dump replays on the unpatched sampler
    replay = ["analyze", write_doc(tmp_path, dump["document"], "dump.json"), "--seed", "7"]
    assert run(capsys, replay)[0] == 0


def test_bar_off_its_rod_fails_fuzz(bar_off_its_rod, capsys):
    code, out, err = run(capsys, ["fuzz", "--model", "rod-bar", "--cases", "1"])
    assert code == 2
    assert err == "fuzz: 1 disagreement(s); dumps are replayable via `rigikit analyze`\n"
    summary = json.loads(out)
    assert (summary["agreements"], summary["ok"]) == (0, False)
    [dump] = summary["failures"]
    assert dump["case"] == 0 and dump["reason"] == "rod-spin motion is not in the kernel"
    assert len(dump["linear_ranks"]) == 1 and "seed" in dump
    assert parse_document(dump["document"])[1:3] == ("rod-bar", 3)


def test_bar_off_its_rod_fails_truncate(bar_off_its_rod, tmp_path, capsys):
    path = write_doc(tmp_path, two_rods_doc())
    code, out, err = run(capsys, ["truncate", path, "--seed", "11"])
    assert code == 2 and out == ""
    reason = "truncation step 2: Pluecker rod-spin motion is not in the kernel"
    assert err.startswith("engine disagreement: %s\n" % reason)
    dump = json.loads(err.splitlines()[1])
    assert dump == {
        "document": two_rods_doc(), "seed": 11, "reason": reason,
        "steps": [
            {"k": 0, "rod": None, "count_rank": 4, "best_rank": 4, "pluecker_rank": None},
            {"k": 1, "rod": "r1", "count_rank": 4, "best_rank": 4, "pluecker_rank": None},
            {"k": 2, "rod": "r2", "count_rank": 4, "best_rank": 4, "pluecker_rank": 4},
        ],
    }


def test_failed_count_self_check_in_decompose_exits_2_with_a_dump(tmp_path, capsys,
                                                                  monkeypatch):
    from rigikit import count_matroid as cm

    def broken(*args):
        raise RuntimeError("certificate value mismatch: 11 != 10")

    monkeypatch.setattr(cm.RankCertificate, "check", broken)
    path = write_doc(tmp_path, body_rod_bar_doc())
    code, out, err = run(capsys, ["decompose", path])
    assert code == 2 and out == ""
    assert err.startswith("engine disagreement: certificate value mismatch: 11 != 10\n")
    assert "Traceback" not in err
    dump = json.loads(err.splitlines()[1])  # decompose draws nothing: no seed
    assert dump == {"document": body_rod_bar_doc(),
                    "reason": "certificate value mismatch: 11 != 10"}
    assert run(capsys, ["analyze", path])[0] == 2  # as analyze on the same document


def test_failed_count_self_check_exits_2_with_a_dump(tmp_path, capsys, monkeypatch):
    from rigikit import count_matroid as cm

    def broken(*args):
        raise RuntimeError("certificate value mismatch: 5 != 4")

    monkeypatch.setattr(cm.RankCertificate, "check", broken)
    code, out, err = run(capsys, ["analyze", write_doc(tmp_path, two_rods_doc()), "--seed", "3"])
    assert code == 2 and out == ""
    assert err.startswith("engine disagreement: certificate value mismatch: 5 != 4\n")
    assert "Traceback" not in err
    dump = json.loads(err.splitlines()[1])
    assert dump == {"document": two_rods_doc(), "seed": 3,
                    "reason": "certificate value mismatch: 5 != 4",
                    "count_rank": 4, "count_target": 4, "linear_ranks": []}


def test_failed_count_self_check_in_fuzz_exits_2_with_a_dump(tmp_path, capsys, monkeypatch):
    from rigikit import count_matroid as cm

    def broken(*args):
        raise RuntimeError("certificate value mismatch: 12 != 7")

    monkeypatch.setattr(cm.RankCertificate, "check", broken)
    code, out, err = run(capsys, ["fuzz", "--model", "body-bar", "--cases", "2", "--seed", "4"])
    assert code == 2
    assert err.startswith("fuzz: 2 disagreement(s)")
    failures = json.loads(out)["failures"]
    assert [f["case"] for f in failures] == [0, 1]
    for failure in failures:
        # checked before any trial is drawn: the count ranks and no linear rank
        assert failure["reason"] == "certificate value mismatch: 12 != 7"
        assert failure["linear_ranks"] == []
        assert {"count_rank", "count_target"} <= set(failure)
        # the dump analyze builds for the same document and seed
        path = write_doc(tmp_path, failure["document"])
        code, _, err = run(capsys, ["analyze", path, "--seed", str(failure["seed"])])
        assert code == 2
        dump = {k: v for k, v in failure.items() if k != "case"}
        assert json.loads(err.splitlines()[1]) == dump


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "DOC", "--seed", "7"],
        ["fuzz", "--model", "body-bar", "--cases", "2"],
        ["truncate", "DOC", "--seed", "5"],
    ],
)
def test_warm_main_leaves_nothing_for_the_cycle_collector(argv, tmp_path, capsys):
    argv = [write_doc(tmp_path, two_rods_doc()) if a == "DOC" else a for a in argv]
    assert run(capsys, argv)[0] == 0  # warm-up: the parser is built here
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def body_rod_bar_doc():
    return {
        "schema": 1,
        "model": "body-rod-bar",
        "dimension": 3,
        "vertices": [{"id": "b", "kind": "body"}, {"id": "r1", "kind": "rod"},
                     {"id": "r2", "kind": "rod"}],
        "edges": [["b", "r1"]] * 5 + [["r1", "r2"]] * 4 + [["b", "r2"]] * 3,
    }


def hinge_doc():
    """Three bodies and two hinges at d = 3: the count graph has 25 bars, D-1 = 5 per edge."""
    return {
        "schema": 1,
        "model": "body-hinge",
        "dimension": 3,
        "vertices": [{"id": "b0", "kind": "body"}, {"id": "b1", "kind": "body"},
                     {"id": "b2", "kind": "body"}, {"id": "h0", "kind": "hinge"},
                     {"id": "h1", "kind": "hinge"}],
        "edges": [["b0", "h0"], ["h0", "b1"], ["b1", "h1"], ["h1", "b2"], ["b0", "h1"]],
    }


@pytest.mark.parametrize("doc", [two_rods_doc(), body_rod_bar_doc(), hinge_doc()],
                         ids=["rod-bar", "body-rod-bar", "body-hinge"])
def test_truncate(doc, tmp_path, capsys):
    from rigikit.analysis import truncate

    argv = ["truncate", write_doc(tmp_path, doc), "--seed", "11"]
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "truncation"
    assert payload["trials"] == {"requested": 3, "run": 3}
    g, _, d, _ = parse_document(doc)
    assert payload["steps"] == truncate(g, doc["model"], d, seed=11)["steps"]
    assert [s["k"] for s in payload["steps"]] == [0, 1, 2]
    assert all(s["best_rank"] == s["count_rank"] for s in payload["steps"])
    assert payload["steps"][-1]["pluecker_rank"] == payload["steps"][-1]["count_rank"]
    assert run(capsys, argv) == (0, out, "")  # the same argv, the same bytes


@pytest.mark.parametrize("command", ["analyze", "fuzz", "decompose", "truncate"])
def test_the_library_returns_the_document_the_cli_prints(command, tmp_path, capsys):
    from rigikit.analysis import analyze, decompose, fuzz_equivalence, truncate

    doc = body_rod_bar_doc()
    path = write_doc(tmp_path, doc)
    g, model, d, _ = parse_document(doc)
    argv, call = {
        "analyze": (["analyze", path, "--seed", "5"], lambda: analyze(g, model, d, seed=5)),
        "fuzz": (["fuzz", "--model", "rod-bar", "--cases", "4", "--seed", "7"],
                 lambda: fuzz_equivalence("rod-bar", 3, 4, seed=7)),
        "decompose": (["decompose", path], lambda: decompose(g, model, d)),
        "truncate": (["truncate", path, "--seed", "11"], lambda: truncate(g, model, d, seed=11)),
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.dumps(call(), sort_keys=True, separators=(",", ":")) + "\n" == out


@pytest.mark.parametrize("model, kind", [
    (model, kind.value) for model, (kinds, _) in MODELS.items()
    for kind in sorted(kinds, key=lambda k: k.value)
])
def test_a_lone_vertex_is_trivially_rigid_with_target_0(model, kind, tmp_path, capsys):
    # a lone rod, hinge or direction joint used to report target -1
    doc = {"schema": 1, "model": model, "dimension": MODELS[model][1],
           "vertices": [{"id": "v", "kind": kind}], "edges": []}
    code, out, err = run(capsys, ["analyze", write_doc(tmp_path, doc)])
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["combinatorial"]["target"] == rep["linear"]["max_rank"] == 0
    assert rep["verdict"] == "trivially rigid"


def escalating_doc():
    """Two rods and a body on 3 parallel edges per pair: over F_3 the first
    3 trials miss a rank at seed 3, and 10 recover every one."""
    return {
        "schema": 1,
        "model": "body-rod-bar",
        "dimension": 3,
        "vertices": [{"id": "r0", "kind": "rod"}, {"id": "r1", "kind": "rod"},
                     {"id": "b", "kind": "body"}],
        "edges": [["r0", "r1"]] * 3 + [["r0", "b"]] * 3 + [["r1", "b"]] * 3,
    }


@pytest.mark.parametrize(
    "doc, options, expected",
    [
        (two_rods_doc(), ["--seed", "11"],
         '{"dimension":3,"kind":"truncation","model":"rod-bar","prime":2147483647,'
         '"schema":1,"seed":11,"steps":['
         '{"best_rank":4,"count_rank":4,"k":0,"pluecker_rank":null,"rod":null},'
         '{"best_rank":4,"count_rank":4,"k":1,"pluecker_rank":null,"rod":"r1"},'
         '{"best_rank":4,"count_rank":4,"k":2,"pluecker_rank":4,"rod":"r2"}],'
         '"trials":{"requested":3,"run":3}}\n'),
        (escalating_doc(), ["--prime", "3", "--seed", "3"],
         '{"dimension":3,"kind":"truncation","model":"body-rod-bar","prime":3,'
         '"schema":1,"seed":3,"steps":['
         '{"best_rank":9,"count_rank":9,"k":0,"pluecker_rank":null,"rod":null},'
         '{"best_rank":9,"count_rank":9,"k":1,"pluecker_rank":null,"rod":"r0"},'
         '{"best_rank":9,"count_rank":9,"k":2,"pluecker_rank":9,"rod":"r1"}],'
         '"trials":{"requested":3,"run":10}}\n'),
    ],
    ids=["two-rods", "escalating"],
)
def test_truncate_stdout_is_pinned(doc, options, expected, tmp_path, capsys):
    assert run(capsys, ["truncate", write_doc(tmp_path, doc)] + options) == (0, expected, "")


def test_escalated_truncate_measures_each_trial_once(tmp_path, capsys, monkeypatch):
    # escalation continues at trial 3: 3 steps x 10 truncated unions, 10 Pluecker matrices
    from rigikit import rigidity as rg

    built = {"matrix_graphic_union": 0, "matrix_body_rod_bar": 0}
    for name in built:
        def counted(*args, _name=name, _real=getattr(rg, name), **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(rg, name, counted)
    argv = ["truncate", write_doc(tmp_path, escalating_doc()), "--prime", "3", "--seed", "3"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["trials"] == {"requested": 3, "run": 10}
    assert built == {"matrix_graphic_union": 30, "matrix_body_rod_bar": 10}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"schema": 1, "model": "direction", "dimension": 2,
          "vertices": [{"id": "a"}, {"id": "b"}], "edges": [["a", "b"]]},
         "got direction"),
    ],
    ids=["direction"],
)
def test_truncate_rejects_other_models(doc, message, tmp_path, capsys):
    # direction is not the paper's model; every body model truncates
    code, out, err = run(capsys, ["truncate", write_doc(tmp_path, doc)])
    assert code == 1 and out == ""
    assert err.startswith("error: truncate needs a body-bar, rod-bar, body-rod-bar")
    assert message in err


THREE_RODS = {
    "schema": 1, "model": "rod-bar", "dimension": 3,
    "vertices": [{"id": r, "kind": "rod"} for r in ("r0", "r1", "r2")],
    "edges": [["r0", "r1"]] * 4 + [["r1", "r2"]] * 3 + [["r0", "r2"]] * 3,
}
HINGE_PATH = {
    "schema": 1, "model": "body-hinge", "dimension": 3,
    "vertices": [{"id": "b0", "kind": "body"}, {"id": "h0", "kind": "hinge"},
                 {"id": "b1", "kind": "body"}, {"id": "h1", "kind": "hinge"}],
    "edges": [["b0", "h0"], ["h0", "b1"], ["b1", "h1"]],
}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["fuzz", "--model", "rod-bar", "--cases", "20"], None),
        (["truncate", "DOC"], THREE_RODS),
        (["analyze", "DOC"], HINGE_PATH),
    ],
    ids=["fuzz", "truncate", "analyze"],
)
def test_shortfall_at_a_tiny_prime_exits_1(argv, doc, tmp_path, capsys):
    # over F_2 a best rank stays short after escalation (fuzz case 8: 16
    # against 17; truncation step 2: 9 against 10; the hinge path: 14
    # against 15): the field is at fault, not an engine
    argv = [write_doc(tmp_path, doc) if a == "DOC" else a for a in argv]
    code, out, err = run(capsys, argv + ["--prime", "2"])
    assert code == 1 and out == ""
    assert err.startswith("error: prime 2 is too small for generic samples: ")
    assert "after 10 trials" in err


PRIME_ABOVE_2_64 = 2**64 + 13  # prime: no multiple of it fits in 64 bits


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["fuzz", "--model", "body-bar", "--cases", "1"], None),
        (["truncate", "DOC"], THREE_RODS),
        (["analyze", "DOC"], HINGE_PATH),
    ],
    ids=["fuzz", "truncate", "analyze"],
)
def test_a_prime_above_2_64_exits_1_at_once(argv, doc, tmp_path):
    # the draws' rejection limit 2^64 - 2^64 % p would be 0 and reject every
    # draw; a child process, so that a loop fails the test on its timeout
    from rigikit.field import is_prime

    assert is_prime(PRIME_ABOVE_2_64)
    argv = [write_doc(tmp_path, doc) if a == "DOC" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rigikit.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "rigikit"] + argv + ["--prime", str(PRIME_ABOVE_2_64)],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: draws need a bound in [1, 2^64], got %d\n" % PRIME_ABOVE_2_64


def test_fixed_joints_draw_nothing_at_a_prime_above_2_64(tmp_path, capsys):
    doc = {
        "schema": 1,
        "model": "direction",
        "dimension": 2,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
        "joints": {"a": [0, 0], "b": [1, 0], "c": [0, 1]},
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["analyze", path, "--prime", str(PRIME_ABOVE_2_64)])
    assert code == 0
    rep = json.loads(out)
    assert rep["prime"] == PRIME_ABOVE_2_64 and rep["verdict"] == "minimally rigid"


def test_collinear_fixed_joints_report_a_shortfall(tmp_path, capsys):
    # fixed joints are one realization, not a generic sample, so a shortfall
    # on them is reported (agreement false, exit 0), not an engine's fault
    doc = {
        "schema": 1,
        "model": "direction",
        "dimension": 2,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
        "joints": {"a": [0, 0], "b": [1, 0], "c": [2, 0]},
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["analyze", path])
    assert code == 0
    rep = json.loads(out)
    assert (rep["agreement"], rep["verdict"], rep["trials"]["run"]) == (False, "flexible", 10)
    assert rep["linear"]["ranks"] == [2] * 10 and rep["combinatorial"]["rank"] == 3
    code, out, _ = run(capsys, ["analyze", path, "--format", "text"])
    assert code == 0 and "verdict: flexible  [ENGINES DISAGREE]\n" in out


def test_rank_above_count_exits_2_even_at_a_tiny_prime(tmp_path, capsys, monkeypatch):
    # no sample lifts a rank above its count, so over F_3 too it is a disagreement
    from rigikit import rigidity as rg

    def over(graph, d, rng, p, normals=None):
        m = real(graph, d, rng, p, normals)  # plus e_0, which no two-block row space holds
        return m._replace(rows=m.rows + (((0, 1),),), two_block=False)

    real = rg.matrix_graphic_union
    monkeypatch.setattr(rg, "matrix_graphic_union", over)
    path = write_doc(tmp_path, two_rods_doc())
    code, out, err = run(capsys, ["truncate", path, "--prime", "3"])
    assert code == 2 and out == ""
    assert err.startswith(
        "engine disagreement: truncation step 0: best rank 5 exceeds count rank 4\n")


def test_truncate_mismatch_exits_2_with_a_replayable_dump(tmp_path, capsys, monkeypatch):
    from rigikit import rigidity as rg

    calls = []

    def short(graph, d, rng, p, normals=None):
        m = real(graph, d, rng, p, normals)
        if not normals:  # step 0 loses a row, so its best rank falls short
            calls.append(rng.seed)
            m = m._replace(rows=m.rows[1:])
        return m

    real = rg.matrix_graphic_union
    monkeypatch.setattr(rg, "matrix_graphic_union", short)
    path = write_doc(tmp_path, two_rods_doc())
    code, out, err = run(capsys, ["truncate", path, "--seed", "4"])
    assert code == 2 and out == ""
    assert len(set(calls)) == len(calls) == 10  # escalated before judging, each trial once
    dump = json.loads(err.splitlines()[1])
    assert dump["document"] == two_rods_doc() and dump["seed"] == 4
    assert dump["reason"] == "truncation step 0: best rank 3 != count rank 4"
    assert [s["best_rank"] for s in dump["steps"]] == [3, 4, 4]


def test_body_hinge_truncate_mismatch_exits_2_with_a_replayable_dump(tmp_path, capsys,
                                                                      monkeypatch):
    # the steps run on the count graph, 5 bars per hinge edge at d = 3; the
    # dump carries the hinge document, which replays to the same dump
    from rigikit import rigidity as rg

    def short(graph, d, rng, p, normals=None):
        m = real(graph, d, rng, p, normals)
        return m._replace(rows=m.rows[4:]) if len(normals) == 1 else m  # step 1 loses 4 rows

    real = rg.matrix_graphic_union
    monkeypatch.setattr(rg, "matrix_graphic_union", short)
    code, out, err = run(capsys, ["truncate", write_doc(tmp_path, hinge_doc()), "--seed", "6"])
    assert code == 2 and out == ""
    dump = json.loads(err.splitlines()[1])
    assert dump["document"] == hinge_doc() and dump["seed"] == 6
    assert dump["reason"] == "truncation step 1: best rank 21 != count rank 22"
    assert [(s["rod"], s["count_rank"], s["best_rank"]) for s in dump["steps"]] == [
        (None, 23, 23), ("h0", 22, 21), ("h1", 21, 21)]
    path = write_doc(tmp_path, dump["document"], "dump.json")
    code, _, again = run(capsys, ["truncate", path, "--seed", str(dump["seed"])])
    assert code == 2 and json.loads(again.splitlines()[1]) == dump


def test_failed_count_self_check_in_truncate_exits_2_with_a_dump(tmp_path, capsys,
                                                                 monkeypatch):
    from rigikit import count_matroid as cm
    from rigikit import rigidity as rg

    def broken(*args):
        raise RuntimeError("certificate value mismatch: 22 != 21")

    def drawn(*args, **kwargs):
        raise AssertionError("a matrix built before the count self-check")

    monkeypatch.setattr(cm.RankCertificate, "check", broken)
    monkeypatch.setattr(rg, "matrix_graphic_union", drawn)
    monkeypatch.setattr(rg, "sample_body_rod_bar", drawn)
    path = write_doc(tmp_path, hinge_doc())
    code, out, err = run(capsys, ["truncate", path, "--seed", "3"])
    assert code == 2 and out == ""
    assert err.startswith("engine disagreement: certificate value mismatch: 22 != 21\n")
    assert "Traceback" not in err
    dump = json.loads(err.splitlines()[1])  # checked before any trial: no linear rank
    assert dump == {"document": hinge_doc(), "seed": 3,
                    "reason": "certificate value mismatch: 22 != 21",
                    "count_rank": 21, "count_target": 22, "linear_ranks": []}
    code, _, err = run(capsys, ["analyze", path, "--seed", "3"])  # the dump analyze builds
    assert code == 2 and json.loads(err.splitlines()[1]) == dump


PINNED_DOCS = {
    "body-bar": {"schema": 1, "model": "body-bar", "dimension": 2,
                 "vertices": [{"id": v, "kind": "body"} for v in "abc"],
                 "edges": [["a", "b"]] * 2 + [["b", "c"]] * 2 + [["c", "a"]] * 2},
    "rod-bar": two_rods_doc(),
    "body-rod-bar": body_rod_bar_doc(),
    "body-hinge": HINGE_PATH,
    "direction": {"schema": 1, "model": "direction", "dimension": 2,
                  "vertices": [{"id": v} for v in "abcd"],
                  "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"], ["a", "c"]]},
}


@pytest.mark.parametrize(
    "model, options, expected",
    [
        ("body-bar", [],
         '{"D":3,"agreement":true,"combinatorial":{"certificate":{"free":["e0","e1","e2","e3",'
         '"e4","e5"],"parts":[]},"fhat":null,"p_components":[["e0","e1","e2","e3","e4","e5"]],'
         '"rank":6,"target":6},"dimension":2,"graph":{"bodies":3,"edges":6,"hinges":0,'
         '"rods":0,"vertices":3},"kind":"report","linear":{"flat_ranks":[],'
         '"graphic_union_ranks":[6,6,6],"kernel_dim":3,"max_rank":6,"nontrivial_dim":0,'
         '"ranks":[6,6,6],"trivial_checked":9,"trivial_motions":3,"trivial_span_dim":3,'
         '"trivial_violations":0},"minimal":true,"model":"body-bar","oracle":null,'
         '"prime":2147483647,"schema":1,"seed":5,"trials":{"requested":3,"run":3},'
         '"verdict":"minimally rigid"}\n'),
        ("rod-bar", [],
         '{"D":6,"agreement":true,"combinatorial":{"certificate":{"free":["e0","e1","e2",'
         '"e3"],"parts":[]},"fhat":4,"p_components":[["e0","e1","e2","e3"]],"rank":4,'
         '"target":4},"dimension":3,"graph":{"bodies":0,"edges":4,"hinges":0,"rods":2,'
         '"vertices":2},"kind":"report","linear":{"flat_ranks":[4,4,4],'
         '"graphic_union_ranks":[],"kernel_dim":8,"max_rank":4,"nontrivial_dim":0,"ranks":[4,'
         '4,4],"trivial_checked":24,"trivial_motions":8,"trivial_span_dim":8,'
         '"trivial_violations":0},"minimal":true,"model":"rod-bar","oracle":null,'
         '"prime":2147483647,"schema":1,"seed":5,"trials":{"requested":3,"run":3},'
         '"verdict":"minimally rigid"}\n'),
        ("body-rod-bar", [],
         '{"D":6,"agreement":true,"combinatorial":{"certificate":{"free":[],"parts":[["e0",'
         '"e1","e2","e3","e4","e5","e6","e7","e8","e9","e10","e11"]]},"fhat":10,'
         '"p_components":[["e0","e1","e2","e3","e4","e5","e6","e7","e8","e9","e10","e11"]],'
         '"rank":10,"target":10},"dimension":3,"graph":{"bodies":1,"edges":12,"hinges":0,'
         '"rods":2,"vertices":3},"kind":"report","linear":{"flat_ranks":[10,10,10],'
         '"graphic_union_ranks":[],"kernel_dim":8,"max_rank":10,"nontrivial_dim":0,'
         '"ranks":[10,10,10],"trivial_checked":24,"trivial_motions":8,"trivial_span_dim":8,'
         '"trivial_violations":0},"minimal":false,"model":"body-rod-bar","oracle":null,'
         '"prime":2147483647,"schema":1,"seed":5,"trials":{"requested":3,"run":3},'
         '"verdict":"rigid"}\n'),
        ("body-hinge", [],
         '{"D":6,"agreement":true,"combinatorial":{"certificate":{"free":["e0~0","e0~1",'
         '"e0~2","e0~3","e0~4","e1~0","e1~1","e1~2","e1~3","e1~4","e2~0","e2~1","e2~2","e2~3",'
         '"e2~4"],"parts":[]},"fhat":null,"p_components":[["e0"],["e1"],["e2"]],"rank":15,'
         '"target":16},"dimension":3,"graph":{"bodies":2,"edges":3,"hinges":2,"rods":0,'
         '"vertices":4},"kind":"report","linear":{"flat_ranks":[],"graphic_union_ranks":[],'
         '"kernel_dim":9,"max_rank":15,"nontrivial_dim":1,"ranks":[15,15,15],'
         '"trivial_checked":24,"trivial_motions":8,"trivial_span_dim":8,'
         '"trivial_violations":0},"minimal":false,"model":"body-hinge","oracle":null,'
         '"prime":2147483647,"schema":1,"seed":5,"trials":{"requested":3,"run":3},'
         '"verdict":"flexible"}\n'),
        ("direction", ["--oracle"],
         '{"D":3,"agreement":true,"combinatorial":{"certificate":{"free":["e0~0","e1~0",'
         '"e2~0","e3~0","e4~0"],"parts":[]},"fhat":null,"p_components":[["e0"],["e1"],["e2"],'
         '["e3"],["e4"]],"rank":5,"target":5},"dimension":2,"graph":{"bodies":4,"edges":5,'
         '"hinges":0,"rods":0,"vertices":4},"kind":"report","linear":{"flat_ranks":[],'
         '"graphic_union_ranks":[],"kernel_dim":3,"max_rank":5,"nontrivial_dim":0,"ranks":[5,'
         '5,5],"trivial_checked":9,"trivial_motions":3,"trivial_span_dim":3,'
         '"trivial_violations":0},"minimal":true,"model":"direction","oracle":{"agrees":true,'
         '"bruteforce_rank":5,"checked":true},"prime":2147483647,"schema":1,"seed":5,'
         '"trials":{"requested":3,"run":3},"verdict":"minimally rigid"}\n'),
    ],
)
def test_analyze_stdout_is_pinned(model, options, expected, tmp_path, capsys):
    argv = ["analyze", write_doc(tmp_path, PINNED_DOCS[model]), "--seed", "5"] + options
    assert run(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize(
    "model, expected",
    [
        ("body-bar",
         '{"agreements":4,"cases":4,"dimension":3,"escalations":0,"failures":[],'
         '"kind":"fuzz-summary","model":"body-bar","ok":true,"schema":1,"subset_checks":0,'
         '"trivial_checked":72,"trivial_violations":0}\n'),
        ("rod-bar",
         '{"agreements":4,"cases":4,"dimension":3,"escalations":0,"failures":[],'
         '"kind":"fuzz-summary","model":"rod-bar","ok":true,"schema":1,"subset_checks":71,'
         '"trivial_checked":138,"trivial_violations":0}\n'),
        ("body-rod-bar",
         '{"agreements":4,"cases":4,"dimension":3,"escalations":0,"failures":[],'
         '"kind":"fuzz-summary","model":"body-rod-bar","ok":true,"schema":1,'
         '"subset_checks":22,"trivial_checked":90,"trivial_violations":0}\n'),
        ("body-hinge",
         '{"agreements":4,"cases":4,"dimension":3,"escalations":0,"failures":[],'
         '"kind":"fuzz-summary","model":"body-hinge","ok":true,"schema":1,"subset_checks":0,'
         '"trivial_checked":96,"trivial_violations":0}\n'),
        ("direction",
         '{"agreements":4,"cases":4,"dimension":2,"escalations":0,"failures":[],'
         '"kind":"fuzz-summary","model":"direction","ok":true,"schema":1,"subset_checks":0,'
         '"trivial_checked":36,"trivial_violations":0}\n'),
    ],
)
def test_fuzz_stdout_is_pinned(model, expected, capsys):
    argv = ["fuzz", "--model", model, "--cases", "4", "--seed", "7"]
    assert run(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize(
    "model, options, expected",
    [
        ("body-bar", ["--dim", "3"],
         '{"components":[["e0","e1","e2","e3","e4","e5"]],"dimension":3,'
         '"kind":"decomposition","model":"body-bar","nontrivial":[["e0","e1","e2","e3","e4",'
         '"e5"]],"schema":1}\n'),
        ("rod-bar", [],
         '{"components":[["e0","e1","e2","e3"]],"dimension":3,"kind":"decomposition",'
         '"model":"rod-bar","nontrivial":[["e0","e1","e2","e3"]],"schema":1}\n'),
        ("body-rod-bar", [],
         '{"components":[["e0","e1","e2","e3","e4","e5","e6","e7","e8","e9","e10","e11"]],'
         '"dimension":3,"kind":"decomposition","model":"body-rod-bar","nontrivial":[["e0",'
         '"e1","e2","e3","e4","e5","e6","e7","e8","e9","e10","e11"]],"schema":1}\n'),
        ("body-hinge", [],
         '{"components":[["e0"],["e1"],["e2"]],"dimension":3,"kind":"decomposition",'
         '"model":"body-hinge","nontrivial":[],"schema":1}\n'),
        ("direction", [],
         '{"components":[["e0"],["e1"],["e2"],["e3"],["e4"]],"dimension":2,'
         '"kind":"decomposition","model":"direction","nontrivial":[],"schema":1}\n'),
    ],
)
def test_decompose_stdout_is_pinned(model, options, expected, tmp_path, capsys):
    argv = ["decompose", write_doc(tmp_path, PINNED_DOCS[model])] + options
    assert run(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize(
    "model, options, expected",
    [
        ("body-bar", [],
         "model body-bar, d=2 (D=3), prime 2147483647, seed 5\n"
         "graph: 3 vertices (3 bodies, 0 rods, 0 hinges), 6 edges\n"
         "combinatorial rank 6 / target 6\n"
         "linear ranks [6, 6, 6] -> max 6 (3 trial(s))\n"
         "trivial motions: 3 tagged, kernel dim 3, nontrivial dim 0\n"
         "verdict: minimally rigid\n"
         "P-components: [['e0', 'e1', 'e2', 'e3', 'e4', 'e5']]\n"),
        ("body-rod-bar", [],
         "model body-rod-bar, d=3 (D=6), prime 2147483647, seed 5\n"
         "graph: 3 vertices (1 bodies, 2 rods, 0 hinges), 12 edges\n"
         "combinatorial rank 10 / target 10\n"
         "linear ranks [10, 10, 10] -> max 10 (3 trial(s))\n"
         "trivial motions: 8 tagged, kernel dim 8, nontrivial dim 0\n"
         "verdict: rigid\n"
         "P-components: [['e0', 'e1', 'e2', 'e3', 'e4', 'e5', 'e6', 'e7', 'e8', 'e9', 'e10', "
         "'e11']]\n"),
        ("body-hinge", [],
         "model body-hinge, d=3 (D=6), prime 2147483647, seed 5\n"
         "graph: 4 vertices (2 bodies, 0 rods, 2 hinges), 3 edges\n"
         "combinatorial rank 15 / target 16\n"
         "linear ranks [15, 15, 15] -> max 15 (3 trial(s))\n"
         "trivial motions: 8 tagged, kernel dim 9, nontrivial dim 1\n"
         "verdict: flexible\n"
         "P-components: [['e0'], ['e1'], ['e2']]\n"),
        ("direction", ["--oracle"],
         "model direction, d=2 (D=3), prime 2147483647, seed 5\n"
         "graph: 4 vertices (4 bodies, 0 rods, 0 hinges), 5 edges\n"
         "combinatorial rank 5 / target 5\n"
         "linear ranks [5, 5, 5] -> max 5 (3 trial(s))\n"
         "trivial motions: 3 tagged, kernel dim 3, nontrivial dim 0\n"
         "verdict: minimally rigid\n"
         "P-components: [['e0'], ['e1'], ['e2'], ['e3'], ['e4']]\n"
         "oracle: {'checked': True, 'agrees': True, 'bruteforce_rank': 5}\n"),
    ],
)
def test_analyze_text_is_pinned(model, options, expected, tmp_path, capsys):
    argv = ["analyze", write_doc(tmp_path, PINNED_DOCS[model]), "--seed", "5",
            "--format", "text"] + options
    assert run(capsys, argv) == (0, expected, "")


def test_fuzz_text_is_pinned(capsys):
    argv = ["fuzz", "--model", "rod-bar", "--cases", "4", "--seed", "7", "--format", "text"]
    expected = "4/4 agree (0 escalated, 138 trivial-motion checks, 0 violations)\n"
    assert run(capsys, argv) == (0, expected, "")


def test_fuzz_counterexample_text_is_pinned(capsys, monkeypatch):
    from rigikit import analysis

    failure = {"reason": "synthetic", "document": {}}
    monkeypatch.setattr(analysis, "fuzz_case", lambda *a, **k: {
        "escalated": False, "trivial_checked": 1, "subset_checks": 0, "failure": failure})
    argv = ["fuzz", "--model", "body-bar", "--cases", "1", "--format", "text"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "0/1 agree (0 escalated, 1 trivial-motion checks, 0 violations)\n"
                              "counterexample in case 0: synthetic\n")
    assert err == ("fuzz: 1 disagreement(s); dumps are replayable via `rigikit analyze`\n")


def test_decompose_text_is_pinned(tmp_path, capsys):
    argv = ["decompose", write_doc(tmp_path, PINNED_DOCS["body-hinge"]), "--format", "text"]
    assert run(capsys, argv) == (0, "P-components (3):\n  ['e0']\n  ['e1']\n  ['e2']\n", "")


def test_truncate_text_is_pinned(tmp_path, capsys):
    argv = ["truncate", write_doc(tmp_path, two_rods_doc()), "--seed", "11", "--format", "text"]
    expected = ("k=0 rod=-: count rank 4, truncated union 4, Pluecker -\n"
                "k=1 rod=r1: count rank 4, truncated union 4, Pluecker -\n"
                "k=2 rod=r2: count rank 4, truncated union 4, Pluecker 4\n")
    assert run(capsys, argv) == (0, expected, "")


def test_body_hinge_truncate_text_is_pinned(tmp_path, capsys):
    # each hinge truncated as a rod; the last step's Pluecker rank is
    # analyze's combinatorial rank, 21
    argv = ["truncate", write_doc(tmp_path, hinge_doc()), "--seed", "11", "--format", "text"]
    expected = ("k=0 rod=-: count rank 23, truncated union 23, Pluecker -\n"
                "k=1 rod=h0: count rank 22, truncated union 22, Pluecker -\n"
                "k=2 rod=h1: count rank 21, truncated union 21, Pluecker 21\n")
    assert run(capsys, argv) == (0, expected, "")
    code, out, _ = run(capsys, ["analyze", argv[1], "--seed", "11"])
    assert code == 0 and json.loads(out)["combinatorial"]["rank"] == 21


def test_import_builds_no_dataclass():
    # start-up cost: importing the CLI loads neither dataclasses nor the
    # inspect module it pulls in
    src = os.path.dirname(os.path.dirname(rigikit.__file__))
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "import rigikit.cli\n"
        "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "assert not loaded, loaded\n" % src
    )
    subprocess.run([sys.executable, "-S", "-c", code], check=True, timeout=60)


def test_direction_doc_with_joints(tmp_path, capsys):
    doc = {
        "schema": 1,
        "model": "direction",
        "dimension": 2,
        "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
        "joints": {"a": [0, 0], "b": [1, 0], "c": [0, 1]},
    }
    code, out, _ = run(capsys, ["analyze", write_doc(tmp_path, doc)])
    assert code == 0
    assert json.loads(out)["verdict"] == "minimally rigid"


@pytest.mark.parametrize(
    "doc, what",
    [
        (  # 5 joints with pairwise distinct positions in F_2^2, which has 4 points
            {"schema": 1, "model": "direction", "dimension": 2,
             "vertices": [{"id": "v%d" % i} for i in range(5)],
             "edges": [["v%d" % i, "v%d" % j] for i in range(5) for j in range(i + 1, 5)]},
            "distinct joints",
        ),
        (  # 40 distinct lines of projective 3-space over F_2, which has 35
            {"schema": 1, "model": "rod-bar", "dimension": 3,
             "vertices": [{"id": "r%d" % i, "kind": "rod"} for i in range(40)],
             "edges": [["r%d" % i, "r%d" % (i + 1)] for i in range(39)]},
            "distinct rods",
        ),
    ],
)
def test_sampling_out_of_retries_exits_1(tmp_path, doc, what):
    # a sampler that gives up names the prime and exits 1 with no traceback
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rigikit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rigikit", "analyze", write_doc(tmp_path, doc),
         "--prime", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: could not sample %s at prime 2" % what)
    assert "Traceback" not in proc.stderr


def test_document_round_trip():
    g = build_graph(
        [("a", "body"), ("h", "hinge")], [("a", "h"), ("a", "h")]
    )
    doc = graph_document(g, "body-hinge", 3)
    g2, model, d, joints = parse_document(doc)
    assert model == "body-hinge" and d == 3 and joints is None
    assert g2.vertex_ids == g.vertex_ids
    assert [(e.u, e.v) for e in g2.edges] == [(e.u, e.v) for e in g.edges]
    assert graph_document(g2, model, d) == doc


def test_document_joint_validation():
    doc = {
        "schema": 1,
        "model": "direction",
        "dimension": 2,
        "vertices": [{"id": "a"}, {"id": "b"}],
        "edges": [["a", "b"]],
        "joints": {"a": [0, 0]},
    }
    with pytest.raises(Exception, match="missing"):
        parse_document(doc)
    doc["joints"] = {"a": [0, 0], "b": [1]}
    with pytest.raises(Exception, match="coordinates"):
        parse_document(doc)
    doc["joints"] = {"a": [0, 0], "b": [True, False]}
    with pytest.raises(Exception, match="'b' has non-integer coordinates"):
        parse_document(doc)


def test_hinge_kind_rejected_for_bar_models():
    doc = {
        "schema": 1,
        "model": "body-rod-bar",
        "dimension": 3,
        "vertices": [{"id": "a", "kind": "hinge"}, {"id": "b", "kind": "body"}],
        "edges": [["a", "b"]],
    }
    with pytest.raises(Exception, match="not allowed"):
        parse_document(doc)


def test_body_body_edge_in_a_hinge_document_exits_1(tmp_path, capsys):
    doc = {
        "schema": 1,
        "model": "body-hinge",
        "dimension": 3,
        "vertices": [{"id": "a", "kind": "body"}, {"id": "b", "kind": "body"},
                     {"id": "h", "kind": "hinge"}],
        "edges": [["a", "b"], ["a", "h"], ["b", "h"]],
    }
    path = write_doc(tmp_path, doc)
    for command in ("analyze", "decompose"):
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (1, ""), command
        assert err == "error: edge 'e0' must join a body to a hinge, got body-body\n"

import json

import pytest

from rigikit.cli import main
from rigikit.documents import graph_document, parse_document
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
    assert code == 1
    assert "not prime" in err


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
    assert json.loads(out) == rep.to_json_dict()


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
        (["fuzz", "--model", "body-bar", "--max-vertices", "1"], "max_vertices"),
        (["fuzz", "--model", "body-bar", "--rod-bias", "7"], "rod_bias"),
        (["truncate-demo", "--trials", "0"], "trials must be at least 1"),
        (["truncate-demo", "--trials", "-2"], "trials must be at least 1"),
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
    from rigikit.analysis import FuzzSummary

    failing = FuzzSummary(
        model="body-bar", d=3, cases=1, agreements=0, escalations=0,
        trivial_checked=1, trivial_violations=0, subset_checks=0,
        failures=[{"case": 0, "reason": "synthetic", "document": {}}],
    )
    monkeypatch.setattr(cli, "fuzz_equivalence", lambda *a, **k: failing)
    code, out, err = run(capsys, ["fuzz", "--model", "body-bar", "--cases", "1"])
    assert code == 2
    assert "disagreement" in err


def test_truncate_demo(capsys):
    code, out, _ = run(capsys, ["truncate-demo", "--seed", "5"])
    assert code == 0
    payload = json.loads(out)
    steps = {s["name"]: s for s in payload["steps"]}
    shared = steps["three hyperplanes through a common line"]
    assert shared["forced_truncated_rank"] == 2
    assert shared["partition_minimum"] == 3
    assert shared["random_truncated_rank"] == 3
    assert steps["single rank-2 flat"]["truncated_rank"] == 1


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

"""One statement of each model's input rules: documents.MODELS with
check_model and check_graph, shared by the document parser, the CLI and the
library entry points that take a graph without a document."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

import rigikit
from rigikit.analysis import analyze, decompose, fuzz_equivalence, random_multigraph, truncate
from rigikit.cli import main
from rigikit.documents import MODELS, SchemaError, check_graph, check_model, parse_document
from rigikit.field import SplitMix64
from rigikit.graph import build_graph

SRC = Path(rigikit.__file__).resolve().parent
RULE_MESSAGES = ("unknown model", "not allowed for model", "needs dimension >=",
                 "needs dimension <=", "joints are only meaningful", "joints missing",
                 "integer coordinates")

TRIANGLE = [["a", "b"], ["b", "c"], ["c", "a"]]


def document(model, d, kinds, edges, joints=None):
    doc = {"schema": 1, "model": model, "dimension": d,
           "vertices": [{"id": v, "kind": k} for v, k in kinds], "edges": edges}
    if joints is not None:
        doc["joints"] = joints
    return doc


def graph_of(doc):
    return build_graph([(v["id"], v["kind"]) for v in doc["vertices"]], doc["edges"])


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# rule -> (document, the parser's message, or None where the parser leaves
# the rule to the run because --dim may still move the dimension)
RULES = {
    "unknown model": (
        document("nope", 3, [("a", "body"), ("b", "body")], [["a", "b"]]),
        "unknown model 'nope'"),
    "least dimension": (
        document("rod-bar", 2, [("r1", "rod"), ("r2", "rod")], [["r1", "r2"]] * 4), None),
    "greatest dimension": (
        document("body-bar", 7, [("a", "body"), ("b", "body")], [["a", "b"]]), None),
    "kind": (
        document("body-bar", 3, [("r1", "rod"), ("r2", "rod")], [["r1", "r2"]] * 8),
        "vertex 'r1' has kind 'rod', not allowed for model body-bar"),
    "joints on a non-direction model": (
        document("body-bar", 2, [("a", "body"), ("b", "body")], [["a", "b"]] * 3,
                 {"a": [0, 0], "b": [1, 0]}),
        "joints are only meaningful for the direction model"),
    "missing joint": (
        document("direction", 2, [(v, "body") for v in "abc"], TRIANGLE,
                 {"a": [0, 0], "b": [1, 0]}),
        "joints missing for vertices ['c']"),
    "short joint": (
        document("direction", 2, [(v, "body") for v in "abc"], TRIANGLE,
                 {"a": [0, 0], "b": [1], "c": [0, 1]}),
        "joint 'b' needs 2 integer coordinates, got [1]"),
    "boolean joint": (
        document("direction", 2, [(v, "body") for v in "abc"], TRIANGLE,
                 {"a": [0, 0], "b": [True, False], "c": [0, 1]}),
        "joint 'b' has non-integer coordinates"),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_parser_cli_and_library_raise_one_message(rule, tmp_path, capsys):
    doc, parsed = RULES[rule]
    graph, model, d = graph_of(doc), doc["model"], doc["dimension"]
    joints = doc.get("joints")
    with pytest.raises(SchemaError) as info:
        analyze(graph, model, d, joints=joints)
    message = str(info.value)
    assert parsed in (None, message)
    if parsed is None:
        parse_document(doc)  # the dimension rule waits for --dim
    else:
        with pytest.raises(SchemaError) as info:
            parse_document(doc)
        assert str(info.value) == message
    with pytest.raises(SchemaError) as info:
        decompose(graph, model, d, joints)
    assert str(info.value) == message
    if joints is None:  # truncate takes no joints
        with pytest.raises(SchemaError) as info:
            truncate(graph, model, d)
        assert str(info.value) == message
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "decompose", "truncate"):
        assert run(capsys, [command, str(path)]) == (1, "", "error: %s\n" % message), command


def test_library_calls_without_a_document_fail_with_the_parser_message():
    rods = graph_of(RULES["kind"][0])
    with pytest.raises(SchemaError, match="^vertex 'r1' has kind 'rod', not allowed for "
                                          "model body-bar$"):
        analyze(rods, "body-bar", 3)  # was a false graphic-union disagreement
    triangle = build_graph([(v, "body") for v in "abc"], TRIANGLE)
    with pytest.raises(SchemaError, match=r"^joints missing for vertices \['c'\]$"):
        analyze(triangle, "direction", 2, joints={"a": (0, 0), "b": (1, 0)})  # was KeyError
    with pytest.raises(SchemaError, match=r"^joint 'a' needs 3 integer coordinates, "
                                          r"got \[0, 0\]$"):
        analyze(triangle, "direction", 3,
                joints={"a": (0, 0), "b": (1, 0), "c": (0, 1)})  # was IndexError
    hinged = build_graph([("a", "body"), ("h", "hinge")], [("a", "h")] * 3)
    with pytest.raises(SchemaError, match="^vertex 'h' has kind 'hinge', not allowed for "
                                          "model body-bar$"):
        truncate(hinged, "body-bar", 3)  # was counted as a body
    with pytest.raises(SchemaError, match="^unknown model 'nope'$"):
        fuzz_equivalence("nope", 3, 0)  # returned a summary


def test_dim_raises_a_document_dimension_the_model_needs(tmp_path, capsys):
    two_rods = document("rod-bar", 3, [("r1", "rod"), ("r2", "rod")], [["r1", "r2"]] * 4)
    pinned = tmp_path / "d3.json"
    pinned.write_text(json.dumps(two_rods))
    raised = tmp_path / "d2.json"
    raised.write_text(json.dumps(dict(two_rods, dimension=2)))
    code, out, err = run(capsys, ["analyze", str(raised), "--dim", "3", "--seed", "5"])
    assert (code, err) == (0, "")
    assert out == run(capsys, ["analyze", str(pinned), "--seed", "5"])[1]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8b42e7cee1b23cddc3360536c8cb444998543ff4e3eac62f0f2ec71256538200")


def test_dim_outside_the_range_fails_with_the_rule_message(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(
        document("body-bar", 3, [("a", "body"), ("b", "body")], [["a", "b"]])))
    above = (1, "", "error: model body-bar needs dimension <= 6\n")
    for command in ("analyze", "decompose"):
        assert run(capsys, [command, str(path), "--dim", "7"]) == above, command
    assert run(capsys, ["fuzz", "--model", "body-bar", "--dim", "7"]) == above
    # the d=2 clause belongs to models whose least dimension is above 2
    assert run(capsys, ["fuzz", "--model", "body-bar", "--dim", "1"]) == (
        1, "", "error: model body-bar needs dimension >= 2\n")
    assert run(capsys, ["fuzz", "--model", "rod-bar", "--dim", "2"]) == (
        1, "", "error: model rod-bar needs dimension >= 3; d=2 is supported only for "
        "body-bar and direction frameworks\n")


def test_dim_against_file_joints_names_the_joint(tmp_path, capsys):
    doc = document("direction", 2, [(v, "body") for v in "abc"], TRIANGLE,
                   {"a": [0, 0], "b": [1, 0], "c": [0, 1]})
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    for command in ("analyze", "decompose"):
        assert run(capsys, [command, str(path), "--dim", "3"]) == (
            1, "", "error: joint 'a' needs 3 integer coordinates, got [0, 0]\n"), command


@pytest.mark.parametrize("model", sorted(MODELS))
def test_fuzz_draws_obey_the_model_table(model):
    dims = [d for d in range(2, 5) if d >= MODELS[model][1]]
    master = SplitMix64(1)
    for i in range(200):  # fuzz_equivalence's draws at seed 1
        graph = random_multigraph(master.spawn(i).spawn(10_000), model)
        for d in dims:
            check_model(model, d)
            check_graph(graph, model, d)


def test_rule_messages_are_raised_only_in_documents():
    """Each model rule is stated once: its message appears in a raise only
    in documents.py, next to MODELS."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "documents.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                found.extend(
                    "%s:%d %r" % (path.name, node.lineno, text.value)
                    for text in ast.walk(node)
                    if isinstance(text, ast.Constant) and isinstance(text.value, str)
                    and any(m in text.value for m in RULE_MESSAGES))
    assert not found, "a model rule raised outside documents.py: %s" % ", ".join(found)

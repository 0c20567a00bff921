"""The JSON graph document shared by the CLI and the fuzz counterexample dumps.

Schema (version 1):

    {
      "schema": 1,
      "model": "body-bar" | "rod-bar" | "body-rod-bar" | "body-hinge" | "direction",
      "dimension": int,
      "vertices": [{"id": str, "kind": "body" | "rod" | "hinge"}, ...],
      "edges": [[u, v], ...],          # ids assigned by position: e0, e1, ...
      "joints": {id: [int, ...], ...}  # optional; direction model only
    }

MODELS maps each model to (the vertex kinds its graphs may use, its least
dimension), and every model's dimension is at most graph.MAX_DIMENSION.
check_model and check_graph state every input rule once, for documents
(parse_document ends with check_graph) and library graphs alike;
rigidity.expand_hinge checks that a body-hinge edge joins a body to a hinge.
The dimension's range is left to check_model, after any --dim.  Parsing is
strict: unknown keys are tolerated, wrong types are SchemaError.
"""

from __future__ import annotations

from typing import Optional

from .graph import (
    MAX_DIMENSION, MIN_DIMENSION, GraphError, Multigraph, VertexKind, build_graph,
)

MODELS = {
    "body-bar": ({VertexKind.BODY}, 2),
    "rod-bar": ({VertexKind.ROD}, 3),
    "body-rod-bar": ({VertexKind.BODY, VertexKind.ROD}, 3),
    "body-hinge": ({VertexKind.BODY, VertexKind.HINGE}, 3),
    "direction": ({VertexKind.BODY, VertexKind.ROD}, 2),
}


class SchemaError(ValueError):
    pass


def _rule(model) -> tuple:
    if not isinstance(model, str) or model not in MODELS:
        raise SchemaError("unknown model %r" % model)
    return MODELS[model]


def check_model(model, d: int) -> None:
    """Reject an unknown model and a dimension outside [the model's least,
    MAX_DIMENSION]."""
    least = _rule(model)[1]
    if d < least:
        why = ""
        if least > MIN_DIMENSION:
            lowest = " and ".join(m for m, (_, n) in MODELS.items() if n == MIN_DIMENSION)
            why = "; d=%d is supported only for %s frameworks" % (MIN_DIMENSION, lowest)
        raise SchemaError("model %s needs dimension >= %d%s" % (model, least, why))
    if d > MAX_DIMENSION:
        raise SchemaError("model %s needs dimension <= %d" % (model, MAX_DIMENSION))


def check_graph(graph: Multigraph, model, d: int, joints=None) -> None:
    """Reject a vertex kind the model does not take, joints off the direction
    model, a vertex without a joint and a joint that is not d integers."""
    allowed = _rule(model)[0]
    for v in graph.vertex_ids:
        if graph.kinds[v] not in allowed:
            raise SchemaError("vertex %r has kind %r, not allowed for model %s"
                              % (v, graph.kinds[v].value, model))
    if joints is None:
        return
    if model != "direction":
        raise SchemaError("joints are only meaningful for the direction model")
    missing = [v for v in graph.vertex_ids if v not in joints]
    if missing:
        raise SchemaError("joints missing for vertices %r" % missing)
    for v in graph.vertex_ids:
        coords = joints[v]
        if not isinstance(coords, (list, tuple)) or len(coords) != d:
            raise SchemaError("joint %r needs %d integer coordinates, got %r" % (
                v, d, list(coords) if isinstance(coords, tuple) else coords))  # as in JSON
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in coords):
            raise SchemaError("joint %r has non-integer coordinates" % v)


def parse_document(doc) -> tuple[Multigraph, str, int, Optional[dict]]:
    """Validate a document dict; returns (graph, model, dimension, joints)."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != 1:
        raise SchemaError("unsupported schema version %r" % doc.get("schema"))
    model = doc.get("model")
    _rule(model)
    d = doc.get("dimension")
    if not isinstance(d, int) or isinstance(d, bool):
        raise SchemaError("dimension must be an integer, got %r" % d)

    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise SchemaError("vertices must be a nonempty list")
    vertices = []
    for item in raw_vertices:
        if not isinstance(item, dict) or "id" not in item:
            raise SchemaError("each vertex needs an object with an id, got %r" % item)
        vertices.append((str(item["id"]), item.get("kind", "body")))

    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list of [u, v] pairs")
    edges = []
    for pos, pair in enumerate(raw_edges):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SchemaError("edge %d must be a [u, v] pair, got %r" % (pos, pair))
        edges.append((str(pair[0]), str(pair[1]), "e%d" % pos))

    try:
        graph = build_graph(vertices, edges)
    except GraphError as exc:
        raise SchemaError(str(exc))

    joints = doc.get("joints")
    if joints is not None:
        if not isinstance(joints, dict):
            raise SchemaError("joints must map vertex ids to coordinate lists")
        for vid in joints:
            if str(vid) not in graph.kinds:
                raise SchemaError("joints name unknown vertex %r" % vid)
        joints = {str(vid): coords for vid, coords in joints.items()}
    check_graph(graph, model, d, joints)
    return graph, model, d, joints and {v: tuple(c) for v, c in joints.items()}


def graph_document(graph: Multigraph, model: str, d: int, joints=None) -> dict:
    """Serialize back to the schema; parse(graph_document(...)) round-trips."""
    doc = {
        "schema": 1,
        "model": model,
        "dimension": d,
        "vertices": [
            {"id": v, "kind": graph.kinds[v].value} for v in graph.vertex_ids
        ],
        "edges": [[e.u, e.v] for e in graph.edges],
    }
    if joints is not None:
        doc["joints"] = {v: list(joints[v]) for v in graph.vertex_ids}
    return doc

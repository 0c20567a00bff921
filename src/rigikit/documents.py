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

Vertex kinds must match the model: bar models take body/rod mixes as named,
body-hinge takes body+hinge, and the direction model ignores kinds (but
rejects hinge); rigidity.expand_hinge checks that a body-hinge edge joins a
body to a hinge.  Parsing is strict: unknown keys are tolerated, wrong
types and inconsistent kinds are SchemaError with the offending element named.
"""

from __future__ import annotations

from typing import Optional

from .graph import GraphError, Multigraph, VertexKind, build_graph

MODELS = ("body-bar", "rod-bar", "body-rod-bar", "body-hinge", "direction")

_ALLOWED_KINDS = {
    "body-bar": {VertexKind.BODY},
    "rod-bar": {VertexKind.ROD},
    "body-rod-bar": {VertexKind.BODY, VertexKind.ROD},
    "body-hinge": {VertexKind.BODY, VertexKind.HINGE},
    "direction": {VertexKind.BODY, VertexKind.ROD},
}


class SchemaError(ValueError):
    pass


def parse_document(doc) -> tuple[Multigraph, str, int, Optional[dict]]:
    """Validate a document dict; returns (graph, model, dimension, joints)."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    if doc.get("schema") != 1:
        raise SchemaError("unsupported schema version %r" % doc.get("schema"))
    model = doc.get("model")
    if model not in MODELS:
        raise SchemaError("unknown model %r" % model)
    d = doc.get("dimension")
    if not isinstance(d, int) or not 2 <= d <= 6:
        raise SchemaError("dimension must be an integer in [2, 6], got %r" % d)

    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise SchemaError("vertices must be a nonempty list")
    vertices = []
    for item in raw_vertices:
        if not isinstance(item, dict) or "id" not in item:
            raise SchemaError("each vertex needs an object with an id, got %r" % item)
        kind = item.get("kind", "body")
        vertices.append((str(item["id"]), kind))

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

    allowed = _ALLOWED_KINDS[model]
    for v in graph.vertex_ids:
        if graph.kinds[v] not in allowed:
            raise SchemaError(
                "vertex %r has kind %r, not allowed for model %s"
                % (v, graph.kinds[v].value, model)
            )

    joints = None
    if "joints" in doc and doc["joints"] is not None:
        if model != "direction":
            raise SchemaError("joints are only meaningful for the direction model")
        raw = doc["joints"]
        if not isinstance(raw, dict):
            raise SchemaError("joints must map vertex ids to coordinate lists")
        joints = {}
        for vid, coords in raw.items():
            if str(vid) not in graph.kinds:
                raise SchemaError("joints name unknown vertex %r" % vid)
            if not isinstance(coords, list) or len(coords) != d:
                raise SchemaError(
                    "joint %r needs %d integer coordinates, got %r" % (vid, d, coords)
                )
            if not all(isinstance(c, int) and not isinstance(c, bool) for c in coords):
                raise SchemaError("joint %r has non-integer coordinates" % vid)
            joints[str(vid)] = tuple(coords)
        missing = [v for v in graph.vertex_ids if v not in joints]
        if missing:
            raise SchemaError("joints missing for vertices %r" % missing)
    return graph, model, d, joints


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

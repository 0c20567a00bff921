"""src/ defines only what it runs: every definition has a reader in src/.

A top-level function or class of src/rigikit/*.py must be referenced by
name somewhere in src/ (a Name, an Attribute or an import alias), and a
method, property or typing.NamedTuple field must be read as an attribute
(``x.name``): a bare local of the same name, a constructor keyword or a
``_replace`` does not count.  Either may instead be exported in
rigikit.__all__, or be a dunder.  A helper that only
tests read belongs in tests/.  The only exemptions are argparse's error
hook and the names the benchmark's tracer patches; a tracer exemption holds
only while perfbench/tracer.py names it.

Every name a module imports is read in that module, except the
``from __future__`` features and the package's re-exports in __init__.py.
"""

import ast
from pathlib import Path

import rigikit

SRC = Path(rigikit.__file__).resolve().parent
TRACER = SRC.parents[1] / "perfbench" / "tracer.py"
TRACED = "patched by the tracer"  # the reason of an exemption the tracer keeps
ARGPARSE = "argparse's error hook"

# Read only outside src/, each kept for its reason: argparse's hook or the tracer.
EXEMPT = {
    # argparse calls it on a usage error; nothing in src/ names it
    "_Parser.error": ARGPARSE,
    # the brute-force reference the tests compare against; the tracer patches it
    "rank_bruteforce_table": "brute-force reference, " + TRACED,
    # rows times a dense vector; perfbench/tracer.py patches it by name
    "mat_vec": "sparse product the tests use, " + TRACED,
    # the edge-flat matrix; analysis ranks the family with flat_family_rank,
    # and perfbench/tracer.py patches this builder by name
    "matrix_edge_flats": "reference of flat_family_rank, " + TRACED,
}


def _definitions(tree):
    """(qualified name, bare name) of each top-level def/class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "%s.%s" % (node.name, item.name), item.name


def _references(tree, bare, attributes):
    """Add the names tree reads bare or imports to bare, those it reads as x.name to attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            bare.add(node.name.rsplit(".", 1)[-1])


def test_every_src_definition_has_a_src_reader():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    bare, attributes = set(), set()
    defined = set()
    for tree in trees.values():
        _references(tree, bare, attributes)
        defined.update(qual for qual, _ in _definitions(tree))
    assert set(EXEMPT) <= defined, "stale exemptions: %s" % sorted(set(EXEMPT) - defined)
    exported = set(rigikit.__all__)
    unread = [
        "%s:%s" % (fname[:-3], qual)
        for fname, tree in trees.items()
        for qual, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in attributes
        and ("." in qual or name not in bare)
        and name not in exported
        and qual not in EXEMPT
    ]
    assert not unread, "defined in src/ but read only outside it: %s" % ", ".join(unread)


def _namedtuple_fields(tree):
    """(class, field) of each field a typing.NamedTuple class of the module declares."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                for base in node.bases):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id


def test_every_namedtuple_field_is_read_in_src():
    # a field only written (a constructor keyword, _replace) is a dead field
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    attributes = set()
    for tree in trees:
        _references(tree, set(), attributes)
    fields = [pair for tree in trees for pair in _namedtuple_fields(tree)]
    assert fields, "no NamedTuple field found under %s" % SRC
    unread = ["%s.%s" % pair for pair in fields if pair[1] not in attributes]
    assert not unread, "NamedTuple fields src/ never reads as x.field: %s" % ", ".join(unread)


def test_only_argparse_and_the_tracer_keep_an_exemption():
    # a reference only the tests read lives in tests/helpers.py
    other = sorted(q for q, reason in EXEMPT.items()
                   if reason != ARGPARSE and not reason.endswith(TRACED))
    assert not other, "exempt for another reason, move it to tests/: %s" % other


def _tracer_paths():
    """The attribute paths of perfbench/tracer.py's SPANS and COUNTERS, read
    from the file's source, not imported."""
    paths = set()
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTERS") for t in node.targets):
            paths.update(path for _, path in ast.literal_eval(node.value).values())
    return paths


def test_tracer_exemptions_follow_the_tracer():
    paths = _tracer_paths()
    assert paths, "no SPANS or COUNTERS read from %s" % TRACER
    traced = {qual for qual, reason in EXEMPT.items() if reason.endswith(TRACED)}
    unpinned = sorted(traced - paths)
    assert not unpinned, "exempt for the tracer, which no longer patches: %s" % unpinned


def _imported_names(tree):
    """(bound name, line) of each import in the module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def test_every_src_import_is_read_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue  # its imports are the package's re-exports
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend("%s:%d %s" % (path.name, line, name)
                      for name, line in _imported_names(tree) if name not in read)
    assert not unused, "imported in src/ but never read there: %s" % ", ".join(unused)

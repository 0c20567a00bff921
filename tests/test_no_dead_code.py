"""src/ defines only what it runs: every definition has a reader in src/.

A top-level function or class of src/rigikit/*.py must be read in src/:
named bare in its own module, imported by name from its module, or read as
``alias.name`` where alias is an import of its module (``from . import
linalg``, then ``linalg.rank``).  Another module's attribute of the same
name (``m.rank()``) does not count.  A method, property or
typing.NamedTuple field must be read as an attribute (``x.name``): a bare
local of the same name, a constructor keyword or a ``_replace`` does not
count.  A dunder needs no reader, and a re-export in __init__.py is an
import by name.  A helper that only tests read belongs in tests/.  The
only exemptions are argparse's error hook and the names the benchmark's
tracer patches; a tracer exemption holds only while perfbench/tracer.py
names it.

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
    # count-engine calls the package no longer exports; the tracer patches them
    "is_independent": "unexported count call, " + TRACED,
    "m_components": "unexported count call, " + TRACED,
    "fhat_bruteforce": "brute-force reference, " + TRACED,
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


def _attributes(tree):
    """The names tree reads as x.name."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _module_reads(module, tree):
    """The (module, name) pairs of the package's top-level names that module
    reads: bare in itself, imported by name, or as alias.name on an import of
    the name's module."""
    reads, aliases = set(), {}  # aliases: local name -> package module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads.add((module, node.id))
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            reads.add((aliases[node.value.id], node.attr))
    return reads


def _unread(trees, exempt):
    """module:qualified name of each definition in trees with no reader in them."""
    reads, attributes = set(), set()
    for module, tree in trees.items():
        reads |= _module_reads(module, tree)
        attributes |= _attributes(tree)
    return [
        "%s:%s" % (module, qual)
        for module, tree in trees.items()
        for qual, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and (name not in attributes if "." in qual else (module, name) not in reads)
        and qual not in exempt
    ]


def _src_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_src_definition_has_a_src_reader():
    trees = _src_trees()
    defined = {qual for tree in trees.values() for qual, _ in _definitions(tree)}
    assert set(EXEMPT) <= defined, "stale exemptions: %s" % sorted(set(EXEMPT) - defined)
    unread = _unread(trees, EXEMPT)
    assert not unread, "defined in src/ but read only outside it: %s" % ", ".join(unread)


def test_only_a_read_of_its_own_module_keeps_a_top_level_name():
    # another module's attribute of the same name (m.rank()) reads nothing;
    # a bare name in its module, an import by name or alias.rank does
    trees = {"linalg": ast.parse("def rank(rows):\n    return len(rows)\n"),
             "rigidity": ast.parse("def size(m):\n    return m.rank()\n\nsize(None)\n")}
    assert _unread(trees, {}) == ["linalg:rank"]
    for reader in ("from . import linalg\nlinalg.rank(())\n",
                   "from . import linalg as la\nla.rank(())\n",
                   "from .linalg import rank\n"):
        assert _unread({**trees, "analysis": ast.parse(reader)}, {}) == []
    trees["linalg"] = ast.parse("def rank(rows):\n    return len(rows)\n\nrank(())\n")
    assert _unread(trees, {}) == []


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
    trees = _src_trees().values()
    attributes = set().union(*map(_attributes, trees))
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

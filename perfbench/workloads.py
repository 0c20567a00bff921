"""Workload generators and output checks for the rigikit benchmark.

Every workload is a fixed list of items made from one workload seed.  An
item is the argv of one ``rigikit`` CLI call plus, for ``analyze`` items,
the graph document it reads and the verdict the report must carry.  The
generators use only the standard library, so the inputs do not depend on
the code under test.

Workloads (why each one is here is in README.md):

* ``braced``: generic 2-D direction frameworks built by random Henneberg
  moves.  25 items of 20-32 joints are minimally rigid (2n - 3 edges); 20
  items of 24 joints carry 12-16 redundant braces and are rigid but not
  minimal.
* ``mechanisms``: 25 flexible body-rod-bar frameworks at d=3, random trees
  of 6 bodies and 5 rods with 1-2 bars per adjacency and 3 extra bars.
* ``fuzz_mix``: ``rigikit fuzz`` over every model at every valid d in
  2..4, in 60 rounds; a round is one 3-case call per model/d pair, so
  every pair runs 180 cases.  The round is the unit of latency.  Fuzz
  cases vary widely in cost, so the workload is one long pass of many
  distinct cases rather than several passes over few: its total then
  varies less from one seed to the next.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("braced", "mechanisms", "fuzz_mix")
DEFAULT_SEED = 1
PRIME = 2**31 - 1

# Sizes and brace counts cycle instead of being drawn, so every seed gives
# the same mix of work and only the graphs differ.  With 25 minimal and 20
# overbraced items, the median latency falls inside the group of largest
# minimal items and the tail (10 items beyond it) on the middle overbraced
# one; all overbraced items share one size so that their costs form one
# cluster.
BRACED_JOINTS = (20, 24, 28, 32)  # minimal items
BRACED_OVER_JOINTS = 24
BRACED_EXTRA = (12, 13, 14, 15, 16)
BRACED_ITEMS = 45
BRACED_OVER = (1, 3, 5, 7)  # item i is overbraced when i % 9 is in this set

MECH_ITEMS = 25
MECH_VERTICES = 11
MECH_EXTRA_BARS = 3

FUZZ_PAIRS = (
    ("body-bar", 2), ("body-bar", 3), ("body-bar", 4),
    ("rod-bar", 3), ("rod-bar", 4),
    ("body-rod-bar", 3), ("body-rod-bar", 4),
    ("body-hinge", 3), ("body-hinge", 4),
    ("direction", 2), ("direction", 3), ("direction", 4),
)
FUZZ_ROUNDS = 60
FUZZ_CASES_PER_CALL = 3


@dataclass
class Item:
    """One CLI call of a workload; ``doc`` is written to ``doc_name``.

    Calls with the same ``group`` form one unit of latency; by default each
    call is its own unit.
    """

    name: str
    argv: list
    group: Optional[str] = None
    doc: Optional[dict] = None
    doc_name: Optional[str] = None
    verdict: Optional[str] = None  # expected verdict of an analyze report
    cases: int = 1  # analyses or fuzz cases the call completes


# ---------------------------------------------------------------------------
# Graph generators


def henneberg_edges(n: int, rng: random.Random) -> list:
    """A Laman graph on joints 0..n-1 by random Henneberg I/II moves.

    Starts from a triangle; every move adds one joint and two net edges,
    so the result has exactly 2n - 3 edges and no parallel edges.
    """
    if n < 3:
        raise ValueError("a Henneberg construction needs at least 3 joints")
    edges = [(0, 1), (0, 2), (1, 2)]
    for w in range(3, n):
        if rng.random() < 0.5:
            u, v = rng.sample(range(w), 2)
            edges += [(u, w), (v, w)]
        else:
            u, v = edges.pop(rng.randrange(len(edges)))
            x = rng.choice([y for y in range(w) if y not in (u, v)])
            edges += [(u, w), (v, w), (x, w)]
    return edges


def add_braces(n: int, edges: list, k: int, rng: random.Random) -> list:
    """k extra edges between distinct non-adjacent joint pairs."""
    present = {frozenset(e) for e in edges}
    free = [(u, v) for u in range(n) for v in range(u + 1, n)
            if frozenset((u, v)) not in present]
    return edges + rng.sample(free, k)


def braced_document(n: int, extra: int, rng: random.Random) -> dict:
    edges = add_braces(n, henneberg_edges(n, rng), extra, rng)
    rng.shuffle(edges)
    return {
        "schema": 1,
        "model": "direction",
        "dimension": 2,
        "vertices": [{"id": "j%d" % i, "kind": "body"} for i in range(n)],
        "edges": [["j%d" % u, "j%d" % v] for u, v in edges],
    }


def mechanism_document(n: int, extra: int, rng: random.Random) -> dict:
    """Random tree of n//2 rods and the rest bodies, plus extra bars.

    Half the tree edges (rounded down) carry two bars, the rest one; the
    extra bars join random vertex pairs.
    """
    kinds = ["rod"] * (n // 2) + ["body"] * (n - n // 2)
    rng.shuffle(kinds)
    doubled = [2] * ((n - 1) // 2) + [1] * (n - 1 - (n - 1) // 2)
    rng.shuffle(doubled)
    edges = []
    for w in range(1, n):
        edges += [(rng.randrange(w), w)] * doubled[w - 1]
    for _ in range(extra):
        edges.append(tuple(rng.sample(range(n), 2)))
    rng.shuffle(edges)
    return {
        "schema": 1,
        "model": "body-rod-bar",
        "dimension": 3,
        "vertices": [{"id": "v%d" % i, "kind": kinds[i]} for i in range(n)],
        "edges": [["v%d" % u, "v%d" % v] for u, v in edges],
    }


# ---------------------------------------------------------------------------
# Workloads


def _analyze_item(name: str, doc: dict, verdict: str, rng: random.Random) -> Item:
    doc_name = name + ".json"
    argv = ["analyze", doc_name, "--seed", str(rng.randrange(2**31)),
            "--prime", str(PRIME)]
    return Item(name=name, argv=argv, doc=doc, doc_name=doc_name, verdict=verdict)


def build(workload: str, seed: int) -> list:
    """The item list of a workload; the same seed gives the same items.

    Analyze argv name the document by its bare file name; the caller
    writes ``item.doc`` there and rewrites the path.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    items = []
    if workload == "braced":
        made = [0, 0]  # minimal, overbraced items so far
        for i in range(BRACED_ITEMS):
            over = i % 9 in BRACED_OVER
            k = made[over]
            made[over] += 1
            if over:
                n, extra = BRACED_OVER_JOINTS, BRACED_EXTRA[k % len(BRACED_EXTRA)]
            else:
                n, extra = BRACED_JOINTS[k % len(BRACED_JOINTS)], 0
            doc = braced_document(n, extra, rng)
            verdict = "minimally rigid" if extra == 0 else "rigid"
            items.append(_analyze_item("braced-%02d" % i, doc, verdict, rng))
    elif workload == "mechanisms":
        for i in range(MECH_ITEMS):
            doc = mechanism_document(MECH_VERTICES, MECH_EXTRA_BARS, rng)
            items.append(_analyze_item("mech-%02d" % i, doc, "flexible", rng))
    elif workload == "fuzz_mix":
        for r in range(FUZZ_ROUNDS):
            for model, d in FUZZ_PAIRS:
                argv = ["fuzz", "--model", model, "--dim", str(d),
                        "--cases", str(FUZZ_CASES_PER_CALL),
                        "--seed", str(rng.randrange(2**31)), "--prime", str(PRIME)]
                items.append(Item(name="fuzz-%02d-%s-d%d" % (r, model, d), argv=argv,
                                  group="round-%02d" % r, cases=FUZZ_CASES_PER_CALL))
    else:
        raise ValueError("unknown workload %r" % workload)
    return items


# ---------------------------------------------------------------------------
# Output checks


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def check_output(item: Item, code: int, stdout: str,
                 expected_digest: Optional[str] = None) -> list:
    """Problems with one CLI call's result; an empty list means it passed.

    The properties hold for every seed.  When a digest recorded for the
    default seed is given, the canonical JSON must also match it byte for
    byte.
    """
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    try:
        out = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not one JSON document"]
    if item.verdict is not None:
        lin = out.get("linear", {})
        if out.get("verdict") != item.verdict:
            problems.append("verdict %r, expected %r" % (out.get("verdict"), item.verdict))
        if out.get("agreement") is not True:
            problems.append("engines disagree")
        if lin.get("trivial_violations") != 0:
            problems.append("trivial-motion violations %r" % lin.get("trivial_violations"))
        kdim, triv = lin.get("kernel_dim"), lin.get("trivial_motions")
        if not isinstance(kdim, int) or not isinstance(triv, int) or kdim < triv:
            problems.append("kernel_dim %r < trivial_motions %r" % (kdim, triv))
    else:
        if out.get("ok") is not True:
            problems.append("fuzz summary not ok")
        if out.get("cases") != item.cases:
            problems.append("fuzz ran %r cases, expected %d" % (out.get("cases"), item.cases))
    if expected_digest is not None and digest(stdout) != expected_digest:
        problems.append("report differs from the digest recorded for the default seed")
    return problems

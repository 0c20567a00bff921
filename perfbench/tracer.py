"""In-memory span tracing of rigikit's layers, installed from outside.

``install`` replaces the public functions of each rigikit module (and a
few class methods) by wrappers that record a span: its name, the span
that was open when it started, and its start and end times.  Hot methods
that run up to a million times per pass (``PebbleState``'s constructor and
``try_insert``) only bump a counter.  Spans stay in
memory until the pass ends; ``layer_metrics`` turns them into the
per-layer figures.  Nothing in rigikit itself is changed on disk.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute path); "Class.method" patches the class.
SPANS = {
    "cli.main": ("cli", "main"),
    "cli.emit": ("cli", "_emit"),
    "documents.parse": ("documents", "parse_document"),
    "analysis.analyze": ("analysis", "analyze"),
    "analysis.fuzz_equivalence": ("analysis", "fuzz_equivalence"),
    "analysis.fuzz_case": ("analysis", "fuzz_case"),
    "analysis.count_side": ("analysis", "count_side"),
    "analysis.linear_trial": ("analysis", "linear_trial"),
    "analysis.random_multigraph": ("analysis", "random_multigraph"),
    "analysis.minimality": ("analysis", "CountSide.rank_without"),
    "count_matroid.rank_value": ("count_matroid", "rank_value"),
    "count_matroid.is_independent": ("count_matroid", "is_independent"),
    "count_matroid.rank": ("count_matroid", "rank"),
    "count_matroid.m_components": ("count_matroid", "m_components"),
    "count_matroid.p_components": ("count_matroid", "p_components"),
    "count_matroid.fhat": ("count_matroid", "fhat"),
    "count_matroid.fhat_bruteforce": ("count_matroid", "fhat_bruteforce"),
    "count_matroid.rank_bruteforce": ("count_matroid", "rank_bruteforce"),
    "count_matroid.rank_bruteforce_table": ("count_matroid", "rank_bruteforce_table"),
    "partitions.min_partition": ("partitions", "min_partition"),
    "partitions.min_partition_table": ("partitions", "min_partition_table"),
    "graph.expand_f": ("graph", "expand_f"),
    "graph.build_graph": ("graph", "build_graph"),
    "rigidity.sample_rod_config": ("rigidity", "sample_rod_config"),
    "rigidity.sample_bar_config": ("rigidity", "sample_bar_config"),
    "rigidity.sample_joints": ("rigidity", "sample_joints"),
    "rigidity.expand_hinge": ("rigidity", "expand_hinge"),
    "rigidity.matrix_body_bar": ("rigidity", "matrix_body_bar"),
    "rigidity.matrix_graphic_union": ("rigidity", "matrix_graphic_union"),
    "rigidity.matrix_body_rod_bar": ("rigidity", "matrix_body_rod_bar"),
    "rigidity.matrix_edge_flats": ("rigidity", "matrix_edge_flats"),
    "rigidity.matrix_direction": ("rigidity", "matrix_direction"),
    "rigidity.matrix_rank": ("rigidity", "RigidityMatrix.rank"),
    "rigidity.verify_trivial_motions": ("rigidity", "verify_trivial_motions"),
    "rigidity.kernel_basis": ("rigidity", "kernel_basis"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.mat_vec": ("linalg", "mat_vec"),
}

# counter name -> (module, attribute path); counted, not timed.
COUNTERS = {
    "count_matroid.games": ("count_matroid", "PebbleState.__init__"),
    "count_matroid.try_insert": ("count_matroid", "PebbleState.try_insert"),
}

SPAN_GROUPS = {
    "rigidity.sample": ("rigidity.sample_rod_config", "rigidity.sample_bar_config",
                        "rigidity.sample_joints", "rigidity.expand_hinge"),
    "rigidity.assemble": ("rigidity.matrix_body_bar", "rigidity.matrix_graphic_union",
                          "rigidity.matrix_body_rod_bar", "rigidity.matrix_edge_flats",
                          "rigidity.matrix_direction"),
    "partitions.oracle": ("count_matroid.fhat_bruteforce", "count_matroid.rank_bruteforce",
                          "count_matroid.rank_bruteforce_table",
                          "partitions.min_partition", "partitions.min_partition_table"),
}

# Modules whose summed self time is reported as a layer share; the brute-force
# oracles live in count_matroid but are reported with partitions.
LAYERS = ("cli", "documents", "analysis", "count_matroid", "partitions", "graph",
          "rigidity", "linalg")

TRIALS = 3  # the CLI's default --trials; more linear trials means an escalation


class Tracer:
    """Spans as [name, parent index, start, end], in start order."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    def wrap_span(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, stack[-1] if stack else -1, perf_counter(), None]
            spans.append(rec)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = perf_counter()

        return traced

    def wrap_counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _observe_rref(tracer, fn):
    def observed(rows, p):
        if rows:
            tracer.counts["linalg.rref.cells"] += len(rows) * len(rows[0])
        return fn(rows, p)

    return observed


def _observe_count_side(tracer, fn):
    def observed(*args, **kwargs):
        cs = fn(*args, **kwargs)
        tracer.counts["count_graph_edges"] += len(cs.count_graph.edges)
        return cs

    return observed


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it.

    A module-level function is replaced wherever a rigikit module holds a
    reference to it, so calls through ``from .x import f`` are caught too.
    """
    mods = {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith("rigikit.")}
    undo = []

    def patch(module, path, make):
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mods[module], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            undo.append(lambda: setattr(cls, meth, orig))
            return
        orig = getattr(mods[module], path)
        new = make(orig)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    undo.append(lambda mod=mod, attr=attr: setattr(mod, attr, orig))

    for name, (module, path) in SPANS.items():
        def make(fn, name=name):
            if name == "linalg.rref":
                fn = _observe_rref(tracer, fn)
            elif name == "analysis.count_side":
                fn = _observe_count_side(tracer, fn)
            return tracer.wrap_span(name, fn)

        patch(module, path, make)
    for name, (module, path) in COUNTERS.items():
        patch(module, path, lambda fn, name=name: tracer.wrap_counter(name, fn))

    def uninstall():
        for restore in reversed(undo):
            restore()

    return uninstall


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: dict = {}
    for i, (_, parent, t0, t1) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = []
    for i, (_, _, t0, t1) in enumerate(spans):
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def group_total(spans, names) -> float:
    """Wall time inside spans of the given names, nested ones counted once."""
    names = set(names)
    total = 0.0
    for name, parent, t0, t1 in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            total += t1 - t0
    return total


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no such percentile exists; the maximum is
    returned as the 100th percentile.
    """
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 10
    return xs[k - 1], 100.0 * k / len(xs)


def layer_metrics(spans, counts, items: int) -> dict:
    """Per-layer figures of one traced pass over ``items`` analyses or fuzz cases."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_of: Counter = Counter()
    layer_self: Counter = Counter()
    for (name, _, _, _), s in zip(spans, selfs):
        calls[name] += 1
        self_of[name] += s
        layer = name.split(".")[0]
        if name in SPAN_GROUPS["partitions.oracle"]:
            layer = "partitions"
        layer_self[layer] += s

    def total(*names):
        return group_total(spans, names)

    case_times = [t1 - t0 for name, _, t0, t1 in spans if name == "analysis.fuzz_case"]
    case_p50 = statistics.median(case_times) if case_times else 0.0
    case_tail = tail(case_times)[0] if case_times else 0.0

    trials_of: Counter = Counter()
    for name, parent, _, _ in spans:
        if name == "analysis.linear_trial" and parent >= 0:
            trials_of[parent] += 1
    escalations = sum(1 for n in trials_of.values() if n > TRIALS)

    edges = counts["count_graph_edges"]
    metrics = {
        "count_matroid.rank.self_s": self_of["count_matroid.rank"],
        "count_matroid.p_components.self_s": self_of["count_matroid.p_components"],
        "count_matroid.rank_value.calls": calls["count_matroid.rank_value"],
        "count_matroid.rank_value.s": total("count_matroid.rank_value"),
        "analysis.minimality.s": total("analysis.minimality"),
        "count_matroid.games": counts["count_matroid.games"] / items,
        "count_matroid.try_insert.calls": counts["count_matroid.try_insert"],
        "count_matroid.inserts_per_edge":
            counts["count_matroid.try_insert"] / edges if edges else 0.0,
        "graph.expand_f.calls": calls["graph.expand_f"],
        "graph.expand_f.s": total("graph.expand_f"),
        "rigidity.kernel_basis.self_s": self_of["rigidity.kernel_basis"],
        "rigidity.kernel_basis.s": total("rigidity.kernel_basis"),
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.s": total("linalg.rref"),
        "linalg.rref.cells": counts["linalg.rref.cells"],
        "rigidity.matrix_rank.s": total("rigidity.matrix_rank"),
        "analysis.linear_trial.calls": calls["analysis.linear_trial"],
        "analysis.linear_trial.s": total("analysis.linear_trial"),
        "rigidity.sample.s": total(*SPAN_GROUPS["rigidity.sample"]),
        "rigidity.assemble.s": total(*SPAN_GROUPS["rigidity.assemble"]),
        "rigidity.verify_trivial.s": total("rigidity.verify_trivial_motions"),
        "count_matroid.fhat.s": total("count_matroid.fhat"),
        "partitions.oracle_s": total(*SPAN_GROUPS["partitions.oracle"]),
        "analysis.fuzz_case.p50_s": case_p50,
        "analysis.fuzz_case.tail_s": case_tail,
        "analysis.analyze.self_s": self_of["analysis.analyze"],
        "documents.parse.s": total("documents.parse"),
        "cli.emit.s": total("cli.emit"),
        "analysis.trials_per_item": calls["analysis.linear_trial"] / items,
        "analysis.escalations": escalations,
    }
    for layer in LAYERS:
        metrics["%s.self_s" % layer] = layer_self[layer]
    return metrics


# name -> (unit, better) for every per-layer metric, in report order.
PER_LAYER = {
    "count_matroid.rank.self_s": ("s", "lower"),
    "count_matroid.p_components.self_s": ("s", "lower"),
    "count_matroid.rank_value.calls": ("count", "lower"),
    "count_matroid.rank_value.s": ("s", "lower"),
    "analysis.minimality.s": ("s", "lower"),
    "count_matroid.games": ("count/item", "lower"),
    "count_matroid.try_insert.calls": ("count", "lower"),
    "count_matroid.inserts_per_edge": ("ratio", "lower"),
    "graph.expand_f.calls": ("count", "lower"),
    "graph.expand_f.s": ("s", "lower"),
    "rigidity.kernel_basis.self_s": ("s", "lower"),
    "rigidity.kernel_basis.s": ("s", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.s": ("s", "lower"),
    "linalg.rref.cells": ("cells", "lower"),
    "rigidity.matrix_rank.s": ("s", "lower"),
    "analysis.linear_trial.calls": ("count", "lower"),
    "analysis.linear_trial.s": ("s", "lower"),
    "rigidity.sample.s": ("s", "lower"),
    "rigidity.assemble.s": ("s", "lower"),
    "rigidity.verify_trivial.s": ("s", "lower"),
    "count_matroid.fhat.s": ("s", "lower"),
    "partitions.oracle_s": ("s", "lower"),
    "analysis.fuzz_case.p50_s": ("s", "lower"),
    "analysis.fuzz_case.tail_s": ("s", "lower"),
    "analysis.analyze.self_s": ("s", "lower"),
    "documents.parse.s": ("s", "lower"),
    "cli.emit.s": ("s", "lower"),
    "analysis.trials_per_item": ("count/item", "lower"),
    "analysis.escalations": ("count", "lower"),
    "tracing.overhead_s": ("s", "lower"),
    **{"%s.self_s" % layer: ("s", "lower") for layer in LAYERS},
}

"""Tests of the benchmark itself: generators, span arithmetic, output checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from rigikit import cli, count_matroid as cm  # noqa: E402
from rigikit.documents import parse_document  # noqa: E402
from rigikit.graph import CountProfile  # noqa: E402


def _as_data(items):
    return [(i.name, i.argv, i.doc, i.verdict, i.cases) for i in items]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert _as_data(wl.build(workload, 5)) == _as_data(wl.build(workload, 5))
    assert _as_data(wl.build(workload, 5)) != _as_data(wl.build(workload, 6))


def _count_side(doc):
    graph, model, d, _ = parse_document(doc)
    prof = CountProfile.direction(d) if model == "direction" else CountProfile.body_rod_bar(d)
    return graph, prof


def test_henneberg_graphs_are_laman():
    rng = random.Random(0)
    for n in (3, 4, 7, 12):
        edges = wl.henneberg_edges(n, rng)
        assert len(edges) == 2 * n - 3
        assert len({frozenset(e) for e in edges}) == len(edges)
        assert all(u != v for u, v in edges)
        graph, prof = _count_side(wl.braced_document(n, 0, random.Random(n)))
        assert cm.rank_value(graph, None, prof) == 2 * n - 3  # independent and spanning


def test_braced_structure_and_verdict_class():
    items = wl.build("braced", 9)
    assert len(items) == wl.BRACED_ITEMS
    for i, item in enumerate(items):
        n = len(item.doc["vertices"])
        extra = len(item.doc["edges"]) - (2 * n - 3)
        assert n in wl.BRACED_JOINTS + (wl.BRACED_OVER_JOINTS,)
        assert len({frozenset(e) for e in item.doc["edges"]}) == len(item.doc["edges"])
        if i % 9 in wl.BRACED_OVER:
            assert extra in wl.BRACED_EXTRA and item.verdict == "rigid"
        else:
            assert extra == 0 and item.verdict == "minimally rigid"
    verdicts = Counter(item.verdict for item in items)
    assert verdicts == {"minimally rigid": 25, "rigid": 20}
    # one overbraced item through the count engine: spanning, with redundancy
    graph, prof = _count_side(items[1].doc)
    n = len(graph.vertex_ids)
    assert cm.rank_value(graph, None, prof) == 2 * n - 3 < len(graph.edges)


def test_mechanisms_structure_and_verdict_class():
    n = wl.MECH_VERTICES
    for item in wl.build("mechanisms", 9):
        kinds = Counter(v["kind"] for v in item.doc["vertices"])
        assert kinds == {"rod": n // 2, "body": n - n // 2}
        assert len(item.doc["edges"]) == (n - 1) + (n - 1) // 2 + wl.MECH_EXTRA_BARS
        assert item.verdict == "flexible"
        graph, prof = _count_side(item.doc)
        assert cm.rank_value(graph, None, prof) < cm.global_count_target(graph, prof)


def test_fuzz_mix_covers_every_model_and_dimension():
    items = wl.build("fuzz_mix", 9)
    pairs = Counter((i.argv[2], int(i.argv[4])) for i in items)
    assert set(pairs) == set(wl.FUZZ_PAIRS) and len(wl.FUZZ_PAIRS) == 12
    assert set(pairs.values()) == {wl.FUZZ_ROUNDS}
    assert all(i.cases == wl.FUZZ_CASES_PER_CALL for i in items)
    rounds = Counter(i.group for i in items)
    assert len(rounds) == wl.FUZZ_ROUNDS and set(rounds.values()) == {12}


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a", 1, 2.0, 3.0],  # nested in the first "a"
        ["b", 0, 5.0, 7.0],
    ]
    assert tr.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert tr.group_total(spans, ["a"]) == pytest.approx(3.0)
    assert tr.group_total(spans, ["a", "b"]) == pytest.approx(5.0)
    assert tr.group_total(spans, ["root", "b"]) == pytest.approx(10.0)


def test_tail_has_ten_samples_beyond_it():
    assert tr.tail(list(range(1, 26))) == (15, 60.0)
    assert tr.tail([3, 1, 2]) == (3, 100.0)


def _small_item(tmp_path):
    doc = wl.braced_document(7, 2, random.Random(1))
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    return {"name": "g", "group": "g", "argv": ["analyze", str(path), "--seed", "4"],
            "doc_path": str(path), "cases": 1, "verdict": "rigid"}


def test_mutated_report_fails_the_digest_and_counts_as_failed(tmp_path):
    raw = _small_item(tmp_path)
    _, code, stdout = worker.call(cli, raw["argv"])
    assert code == 0
    entry = worker.Entry(dict(raw, digest=wl.digest(stdout)))
    assert wl.check_output(entry.item, code, stdout, entry.expected_digest) == []

    mutated = stdout.replace('"seed":4', '"seed":5')
    assert mutated != stdout
    problems = wl.check_output(entry.item, code, mutated, entry.expected_digest)
    assert problems and "digest" in problems[0]

    class Mutating:
        @staticmethod
        def main(argv):
            sys.stdout.write(mutated)
            return 0

    tally = worker.Tally([entry])
    tally.run_pass(cli)
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.run_pass(Mutating)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_each_pass_is_scaled_by_its_own_reference_samples(monkeypatch):
    entries = [worker.Entry({"name": n, "group": g, "argv": [n], "cases": 1})
               for n, g in (("a", "u1"), ("b", "u1"), ("c", "u2"))]
    ref = worker.REFERENCE_S
    samples = iter([ref / 2, ref / 2, 2 * ref, 2 * ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(worker, "reference_sample", lambda: next(samples))
    monkeypatch.setattr(worker, "call", lambda cli, argv: (1.0, 0, "{}"))
    tally = worker.Tally(entries)
    for _ in range(3):  # one sample per unit: the first pass ran at twice the speed
        tally.run_pass(None)
    assert tally.walls == [3.0, 3.0, 3.0]
    assert tally.latencies == {"u1": [4.0, 1.0, 1.0], "u2": [2.0, 0.5, 0.5]}
    res = tally.end_to_end()
    assert res["wall_s"] == pytest.approx(1.5)
    assert res["raw_wall_s"] == pytest.approx(3.0)
    assert res["items_per_s"] == pytest.approx(2.0)


def test_wrong_verdict_and_failed_fuzz_are_problems():
    item = wl.Item(name="x", argv=[], verdict="rigid")
    report = {"verdict": "flexible", "agreement": True,
              "linear": {"trivial_violations": 0, "kernel_dim": 5, "trivial_motions": 3}}
    assert wl.check_output(item, 0, json.dumps(report)) == [
        "verdict 'flexible', expected 'rigid'"]
    fuzz = wl.Item(name="f", argv=[], cases=25)
    assert wl.check_output(fuzz, 2, json.dumps({"ok": False, "cases": 25})) == [
        "exit code 2", "fuzz summary not ok"]


def test_traced_call_records_nested_spans_and_restores_rigikit(tmp_path):
    raw = _small_item(tmp_path)
    original = cm.rank_value
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    try:
        _, code, _ = worker.call(cli, raw["argv"])
    finally:
        uninstall()
    assert code == 0 and cm.rank_value is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][1] == -1
    analyze = names.index("analysis.analyze")
    assert tracer.spans[analyze][1] == 0
    assert tracer.counts["count_matroid.try_insert"] > 0
    metrics = tr.layer_metrics(tracer.spans, tracer.counts, items=1)
    assert set(metrics) | {"tracing.overhead_s"} == set(tr.PER_LAYER)
    assert metrics["analysis.trials_per_item"] == 3


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tr.PER_LAYER


def test_digests_cover_every_item_of_the_default_seed():
    stored = json.loads(run.DIGESTS.read_text())
    for workload in wl.WORKLOADS:
        assert set(stored[workload]) == {i.name for i in wl.build(workload, wl.DEFAULT_SEED)}

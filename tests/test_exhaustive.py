"""The bounded-exhaustive tier: every multigraph on 2 and 3 vertices
(helpers.small_multigraphs) through analysis.fuzz_case, graph i with its
samples drawn from SplitMix64(i), and the rod models' graphs through
analysis.truncate, graph i with seed i.

Random fuzz graphs at d >= 3 are almost never dependent, so there the cross
check compares |E| with |E|.  On these graphs every bar pair runs up to D+1
parallel bars, so both engines meet dependent, rigid and minimally rigid
instances, and each must agree on all of them.  rod-bar and body-rod-bar at
d = 4 (333 and 1,691 graphs) are left out for time: on a 2-core VM they
took 1.0 and 4.5 s, more than twice the 2.3 s of the four runs kept.

The truncation tier runs the paper's induction, one rod truncated at a
time, and every step must have its count rank.  A step binds when its count
rank is below |E|, and the count rank drops when it is below the step
before.  rod-bar at d = 4 (333 graphs) is left out for time: it took 4.0 s
on a 2-core VM, against 0.7 and 2.1 s for the two runs kept.
"""

import pytest

from rigikit.analysis import EngineDisagreement, count_side, fuzz_case, truncate
from rigikit.field import DEFAULT_PRIME, SplitMix64

from helpers import small_multigraphs

# (model, d) -> (graphs, dependent graphs, rigid graphs)
COUNTS = {
    ("body-bar", 3): (126, 53, 49),
    ("rod-bar", 3): (126, 92, 63),
    ("body-rod-bar", 3): (581, 361, 257),
    ("body-bar", 4): (333, 91, 76),
}


@pytest.mark.parametrize("model, d", sorted(COUNTS))
def test_every_small_multigraph_agrees(model, d):
    graphs = dependent = rigid = minimal = flexible = 0
    failures = []
    for i, graph in enumerate(small_multigraphs(model, d)):
        out = fuzz_case(graph, model, d, DEFAULT_PRIME, SplitMix64(i), 3)
        if out["failure"] is not None:
            failures.append(out["failure"])
        cs = count_side(graph, model, d)
        graphs += 1
        dependent += bool(cs.state.rejected)
        rigid += cs.rank == cs.target
        minimal += cs.rank == cs.target and not cs.state.rejected
        flexible += cs.rank < cs.target
    assert failures == []
    assert (graphs, dependent, rigid) == COUNTS[model, d]
    assert minimal and flexible


# (model, d) -> (graphs, steps, binding steps, count-rank drops)
TRUNCATION_COUNTS = {
    ("rod-bar", 3): (126, 497, 281, 216),
    ("body-rod-bar", 3): (581, 1449, 768, 482),
}


@pytest.mark.parametrize("model, d", sorted(TRUNCATION_COUNTS))
def test_every_small_rod_graph_truncates_to_its_count_rank(model, d):
    graphs = steps = binding = drops = 0
    failures = []
    for i, graph in enumerate(small_multigraphs(model, d)):
        graphs += 1
        try:
            doc = truncate(graph, model, d, DEFAULT_PRIME, i, 3)
        except EngineDisagreement as exc:
            failures.append(exc.dump)
            continue
        ranks = [step["count_rank"] for step in doc["steps"]]
        steps += len(ranks)
        binding += sum(rank < len(graph.edges) for rank in ranks)
        drops += sum(b < a for a, b in zip(ranks, ranks[1:]))
    assert failures == []
    assert (graphs, steps, binding, drops) == TRUNCATION_COUNTS[model, d]

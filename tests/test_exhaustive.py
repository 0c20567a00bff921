"""The bounded-exhaustive tier: every multigraph on 2 and 3 vertices
(helpers.small_multigraphs) through analysis.fuzz_case, graph i with its
samples drawn from SplitMix64(i).

Random fuzz graphs at d >= 3 are almost never dependent, so there the cross
check compares |E| with |E|.  On these graphs every bar pair runs up to D+1
parallel bars, so both engines meet dependent, rigid and minimally rigid
instances, and each must agree on all of them.  rod-bar and body-rod-bar at
d = 4 (333 and 1,691 graphs) are left out for time: on a 2-core VM they
took 1.0 and 4.5 s, more than twice the 2.3 s of the four runs kept.
"""

import pytest

from rigikit.analysis import count_side, fuzz_case
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

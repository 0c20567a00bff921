"""The draw stream, pinned: every seed replays the same realization.

SplitMix64 is checked against the textbook splitmix64 step and against
literal first draws, and the samplers that draw a whole vector at a time
against their one-call-per-coordinate references in helpers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigikit import rigidity as rg
from rigikit.analysis import random_multigraph
from rigikit.exterior import random_point_in_span, sample_span, wedge2
from rigikit.field import SplitMix64

from helpers import (
    bar_config_reference,
    below_reference,
    random_point_in_span_reference,
    splitmix64_step,
    wedge2_reference,
)

P = 2**31 - 1
STREAM = settings(derandomize=True, max_examples=100, deadline=None, database=None)
SEEDS = st.integers(0, 2**64 - 1)
PRIMES = st.sampled_from((2, 3, 5, 7, 257, P))

# seed -> p -> first draws: below(p) three times, then vector(4, p), then
# nonzero_vector(3, p); and below(p) of spawn(0), spawn(1) and spawn(7)
PINNED = {
    0: {
        P: ([1063198245, 2125112010, 227671936],
            (1667494720, 136021872, 471195908, 2018142301),
            (1411305908, 1066695652, 503136706),
            [455555280, 2117204212, 853251362]),
        5: ([0, 0, 4], (4, 2, 0, 3), (0, 4, 0), [0, 0, 4]),
    },
    20261019: {
        P: ([1485704475, 1995238196, 46079321],
            (1264607551, 2137536481, 1586914186, 2041758898),
            (60506526, 26449522, 334704517),
            [1055704574, 2020270232, 1524981950]),
        5: ([3, 1, 1], (0, 1, 2, 0), (2, 4, 3), [0, 1, 3]),
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
@pytest.mark.parametrize("p", [P, 5])
def test_first_draws_are_pinned(seed, p):
    below, vector, nonzero, spawned = PINNED[seed][p]
    rng = SplitMix64(seed)
    assert [rng.below(p) for _ in range(3)] == below
    assert rng.vector(4, p) == vector
    assert rng.nonzero_vector(3, p) == nonzero
    assert [SplitMix64(seed).spawn(i).below(p) for i in (0, 1, 7)] == spawned


def u64(rng):
    """The stream's next raw output: a draw below 2^64 rejects nothing."""
    return rng.vector(1, 2**64)[0]


def test_first_output_is_the_textbook_one():
    # splitmix64 seeded with 0 starts 0xe220a8397b1dcdaf
    assert u64(SplitMix64(0)) == splitmix64_step(0)[1] == 0xE220A8397B1DCDAF


@STREAM
@given(SEEDS, st.integers(0, 12), PRIMES)
def test_stream_is_the_textbook_step(seed, n, p):
    rng, state = SplitMix64(seed), seed
    for _ in range(n):
        state, x = splitmix64_step(state)
        assert u64(rng) == x
    draws = []
    for _ in range(n):
        state, x = below_reference(state, p)
        draws.append(x)
    assert rng.vector(n, p) == tuple(draws)
    # spawn(i) seeds its child with output i + 1 of a fresh stream
    outputs, state = [], seed
    for _ in range(4):
        state, x = splitmix64_step(state)
        outputs.append(x)
    assert [SplitMix64(seed).spawn(i).seed for i in range(4)] == outputs


@STREAM
@given(SEEDS, st.integers(0, 12), PRIMES)
def test_vector_is_below_once_per_coordinate(seed, n, p):
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert a.vector(n, p) == tuple(b.below(p) for _ in range(n))
    assert u64(a) == u64(b)  # both streams stop at the same place


@STREAM
@given(SEEDS, st.integers(2, 5), PRIMES)
def test_point_in_span_and_wedge2_match_their_references(seed, d, p):
    rng = SplitMix64(seed)
    for k in range(1, d + 1):
        vectors, _ = sample_span(d, k, rng, p)
        a, b = SplitMix64(seed).spawn(k), SplitMix64(seed).spawn(k)
        assert random_point_in_span(vectors, a, p) == random_point_in_span_reference(
            vectors, b, p)
        assert u64(a) == u64(b)
    x, y = rng.vector(d + 1, p), rng.vector(d + 1, p)
    assert wedge2(x, y, d, p) == wedge2_reference(x, y, d, p)
    ints = [c - p // 2 for c in x], [c - p // 2 for c in y]  # signs kept, reduced mod P
    assert wedge2(*ints, d, P) == wedge2_reference(*ints, d, P)


@STREAM
@given(SEEDS, st.sampled_from(("rod-bar", "body-rod-bar")), st.integers(3, 4),
       st.sampled_from((5, 7, P)))
def test_bar_config_matches_its_reference(seed, model, d, p):
    rng = SplitMix64(seed)
    graph = random_multigraph(rng.spawn(0), model)
    rods = rg.sample_rod_config(graph, d, rng.spawn(1), p)
    bars = rg.sample_bar_config(graph, rods, rng.spawn(2), p)
    assert bars.bars == bar_config_reference(graph, rods, rng.spawn(2), p)


@STREAM
@given(SEEDS, st.integers(2, 4), st.sampled_from((5, P)))
def test_joints_spawn_per_attempt_and_vertex(seed, d, p):
    rng = SplitMix64(seed)
    graph = random_multigraph(rng.spawn(0), "direction")
    joints = rg.sample_joints(graph, d, rng, p)
    attempt = next(
        t for t in range(64)
        if all(rng.spawn(t).spawn(graph.vertex_ids.index(e.u)).vector(d, p)
               != rng.spawn(t).spawn(graph.vertex_ids.index(e.v)).vector(d, p)
               for e in graph.edges)
    )
    assert joints == {v: rng.spawn(attempt).spawn(i).vector(d, p)
                      for i, v in enumerate(graph.vertex_ids)}

"""Cross-validation harness: count engine vs exact randomized matrices.

Each entry point returns the JSON document its subcommand prints; no other
module knows the layout of a printed document.  analyze() runs both engines
on one graph and returns its report; fuzz_equivalence() compares the ranks
and fhat of random graphs; decompose() lists the P-components; truncate()
runs the paper's induction on one body-model graph's count graph: the
union of D graphic matroids, truncated one rod (or hinge) at a time, has
the count rank at every step.
All but decompose sample through one realization, linear_trial, and one
trial loop, _escalate, which keeps every trial's ranks and is the one place
they are judged: a trial whose formal trivial motions are not all in the
kernel, or a best rank above its count, is an immediate EngineDisagreement,
and a single unlucky sample never fails a run, because a rank short of its
count escalates the run to 10 trials.  A shortfall left after that is a
ConfigError below the prime 2^16; above it analyze reports it as agreement
false and fuzz and truncate as a disagreement.  count_side plays the one
game per model that all four read, and _certified re-checks its rank
certificate for each (and the P-components for analyze and decompose); a
failed count-engine self-check is a disagreement too.
_disagreement builds every dump, a document replayable with the seed it
carries.  analyze, decompose, truncate and fuzz_equivalence check their
input with documents.check_model and check_graph first; the helpers they
call assume it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import count_matroid as cm
from . import rigidity as rg
from .documents import check_graph, check_model, graph_document
from .field import SplitMix64, check_prime, DEFAULT_PRIME
from .graph import (
    CountProfile,
    Multigraph,
    VertexKind,
    build_graph,
    expand_f,
    f_value,
)

ESCALATED_TRIALS = 10
GENERIC_PRIME_FLOOR = 2**16  # a shortfall below it blames the field; see _escalate
FUZZ_MAX_VERTICES = 8
FUZZ_MAX_EDGES = 24
SUBSET_CHECK_EDGES = 6  # full polymatroid equality is checked below this size

BAR_MODELS = ("body-bar", "rod-bar", "body-rod-bar")
# bar models with rods: they report fhat and the ranks of the edge flats
ROD_MODELS = ("rod-bar", "body-rod-bar")


class EngineDisagreement(RuntimeError):
    """The two engines (or an engine and its oracle) disagree; carries a dump."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


def _check_run_settings(model: str, d: int, prime: int, trials: int) -> None:
    check_prime(prime)
    check_model(model, d)
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)


class CountSide(NamedTuple):
    """Combinatorial side of one instance, normalized across models."""

    profile: CountProfile
    count_graph: Multigraph  # the graph the matroid actually lives on
    copies: Optional[dict]  # original edge -> copy ids (expanded models)
    rank: int
    target: int
    state: cm.PebbleState  # the one game over every edge of count_graph

    def rank_without(self, original_edge: str) -> int:
        """Rank of the count graph minus the original edge's copies."""
        drop = [original_edge] if self.copies is None else self.copies[original_edge]
        return self.state.rank_without(drop)


def _every_edge_needed(graph: Multigraph, cs: CountSide) -> bool:
    """Does deleting any edge lower the count rank of a rigid instance?

    Rigid means the count rank is the target.  With nothing rejected every
    copy is in the basis, so each deletion lowers the rank.  When every edge
    has one copy, a rejected edge's deletion keeps the basis and the rank.
    Otherwise each edge's copies are released in turn.
    """
    if not cs.state.rejected:
        return True
    if cs.copies is None or all(len(c) == 1 for c in cs.copies.values()):
        return False
    return all(cs.rank_without(e) < cs.target for e in graph.edge_ids)


def count_side(graph: Multigraph, model: str, d: int) -> CountSide:
    """The count matroid of a checked model, the one place that chooses its
    profile, host graph and count graph.

    Bar and direction models count on the graph itself; body-hinge counts on
    rigidity.expand_hinge's rewrite, each hinge a rod, which also rejects an
    edge that does not join a body to a hinge.  Bar models play the game on
    the host graph, the others on its f-expansion.
    """
    if model == "direction":
        prof, host = CountProfile.direction(d), graph
    else:
        prof = CountProfile.body_rod_bar(d)
        host = rg.expand_hinge(graph) if model == "body-hinge" else graph
    count_graph, copies = (host, None) if model in BAR_MODELS else expand_f(host, prof)
    state = cm.pebble_game(count_graph, None, prof)
    return CountSide(
        profile=prof,
        count_graph=count_graph,
        copies=copies,
        rank=len(state.inserted),
        target=cm.global_count_target(host, prof),
        state=state,
    )


def _certified(cs: CountSide, fail, components: bool = True) -> tuple:
    """(rank certificate, P-components) of a count side, each re-checked by
    the count engine; a failed check (a RuntimeError) raises fail(reason).

    The P-components (None unless components) take one path per model.  On
    bar models they live on the host graph's expansion, a second matroid,
    and p_components certifies fhat(E) as their sum of f.  Otherwise the
    count matroid is the expansion itself, and the certificate's
    M-components pull back to them.
    """
    try:
        cert = cm.certificate(cs.state, None)
        if not components:
            return cert, None
        if cs.copies is None:
            return cert, cm.p_components(cs.count_graph, cs.profile)
        return cert, cm.p_components_of_expansion((cs.count_graph, cs.copies), cert, cs.profile)
    except RuntimeError as exc:
        raise fail(str(exc))


class LinearTrial(NamedTuple):
    rank: int
    trivial: rg.TrivialCheck
    matrix: rg.RigidityMatrix


def linear_trial(
    graph: Multigraph,
    model: str,
    d: int,
    p: int,
    rng: SplitMix64,
    joints=None,
) -> LinearTrial:
    """The one sampled realization of graph: sample it, rank its matrix and
    check its formal trivial motions, which the matrix records, against the
    kernel.

    A direction trial places graph on joints, drawn from rng.spawn(2) unless
    fixed.  Every body model realizes graph as a body-rod-bar (Pluecker)
    framework from sample_body_rod_bar(rng), whose matrix records its rods.
    analyze and fuzz pass direction the document's graph and a body model
    the graph its count side counts on (CountSide.count_graph: the
    document's graph for bar models, and for body-hinge the bar graph with
    D-1 parallel bars per edge), and so does truncate's last step.
    """
    if model == "direction":
        if joints is None:
            joints = rg.sample_joints(graph, d, rng.spawn(2), p)
        m = rg.matrix_direction(graph, joints, d, p)
    else:
        m = rg.sample_body_rod_bar(graph, d, rng, p)
    return LinearTrial(m.rank(), rg.verify_trivial_motions(m), m)


def _escalate(trials: int, prime: int, measure, counts: dict, fail) -> tuple:
    """The one trial loop, ledger and verdict: (trials run, ranks per label,
    shortfall reasons).

    counts maps each label to (count label, count), in row order.
    measure(t) samples trial t from its own spawn and returns its rank per
    label, leaving out a label it did not measure, and the reason if a
    formal trivial motion missed the kernel, else None.  The ranks are
    appended first; then a miss, or a best rank above its count, raises
    fail(reason, ranks) at once.  If a best rank falls short of its count
    after the requested trials, the run goes on at trial `trials` to
    ESCALATED_TRIALS.  A shortfall left after that raises ConfigError below
    GENERIC_PRIME_FLOOR; above it the reasons are returned for the caller
    to judge.  Why 2^16: a rank falls short only where a generically
    nonzero minor vanishes, a polynomial of degree at most 6r in the
    sampled coordinates (r the rank; an entry has degree at most 6 once
    denominators are cleared: a bar's Pluecker coordinates 4, as the wedge
    of two points of degree at most 2, a rod normal d - 1 <= 5, a direction
    row 1).  By Schwartz-Zippel one trial misses with probability at most
    6r / p.  A fuzz case has at most 8 blocks of D <= 21 columns at
    d <= MAX_DIMENSION = 6, so r <= 168: at p >= 2^16 a trial misses below
    1/65 and ten all miss below 10^-18, so a shortfall is an engine's
    fault.  That argument covers fuzz-sized instances; at the default prime
    2^31-1 the ten-trial bound (6r/p)^10 stays below 10^-18 up to r of about
    5.6 million.  At the smallest primes the bound exceeds 1: a shortfall
    blames the field.
    """
    ranks = {label: [] for label in counts}

    def rows():  # (label, best rank, count label, count) per label measured so far
        return [(label, max(ranks[label]), what, count)
                for label, (what, count) in counts.items() if ranks[label]]

    def judged(t):
        measured, missed = measure(t)
        for label, rank in measured.items():
            ranks[label].append(rank)
        if missed:
            raise fail(missed, ranks)
        for label, best, what, count in rows():
            if best > count:
                raise fail("%s rank %d exceeds %s rank %d" % (label, best, what, count), ranks)

    def shortfalls():
        return ["%s rank %d != %s rank %d" % (label, best, what, count)
                for label, best, what, count in rows() if best != count]

    for t in range(trials):
        judged(t)
    n = ESCALATED_TRIALS if trials < ESCALATED_TRIALS and shortfalls() else trials
    for t in range(trials, n):  # unlucky samples: escalate before judging
        judged(t)
    short = shortfalls()
    if short and prime < GENERIC_PRIME_FLOOR:
        raise rg.ConfigError(
            "prime %d is too small for generic samples: %s after %d trials; "
            "use a prime of at least 2^16" % (prime, short[0], n)
        )
    return n, ranks, short


def run_trials(
    graph: Multigraph,
    model: str,
    d: int,
    prime: int,
    rng: SplitMix64,
    trials: int,
    cs: CountSide,
    fhat_rank: Optional[int],
    joints=None,
) -> tuple:
    """Run and judge the linear trials of one instance through _escalate:
    (ranks per label, best trial, shortfall reasons).

    The max linear rank and the graphic-union rank (D graphic matroids
    unite to the body-bar count) meet the combinatorial rank, the
    flat-family rank meets fhat; a label the model does not measure keeps
    no ranks.  Trial t samples from rng.spawn(t); its flat-family rank is
    read from the rods its matrix records, its graphic-union rank from a
    matrix drawn from rng.spawn(t).spawn(3).  Only the best trial, the
    first of the highest linear rank, is kept.  Body models realize
    cs.count_graph, direction the document's graph.
    """
    realized = graph if model == "direction" else cs.count_graph
    best = None

    def fail(reason, ranks):
        return _disagreement(graph, model, d, rng.seed, reason, joints,
                             **_rank_evidence(cs, ranks["max linear"]))

    def measure(t):
        nonlocal best
        trial_rng = rng.spawn(t)
        trial = linear_trial(realized, model, d, prime, trial_rng, joints=joints)
        if best is None or trial.rank > best.rank:
            best = trial
        measured = {"max linear": trial.rank}
        if model in ROD_MODELS:
            measured["flat-family"] = rg.flat_family_rank(realized, trial.matrix)
        elif model == "body-bar":
            measured["graphic-union"] = rg.matrix_graphic_union(
                realized, d, trial_rng.spawn(3), prime).rank()
        missed = trial.trivial.missed
        return measured, "%s motion is not in the kernel" % missed[0] if missed else None

    counts = {"max linear": ("combinatorial", cs.rank),
              "flat-family": ("polymatroid", fhat_rank),
              "graphic-union": ("combinatorial", cs.rank)}
    _, ranks, reasons = _escalate(trials, prime, measure, counts, fail)
    return ranks, best, reasons


# ---------------------------------------------------------------------------
# Single-instance report


def _graph_summary(graph: Multigraph) -> dict:
    kinds = [graph.kinds[v] for v in graph.vertex_ids]
    return {
        "vertices": len(graph.vertex_ids),
        "bodies": sum(1 for k in kinds if k == VertexKind.BODY),
        "rods": sum(1 for k in kinds if k == VertexKind.ROD),
        "hinges": sum(1 for k in kinds if k == VertexKind.HINGE),
        "edges": len(graph.edges),
    }


def analyze(
    graph: Multigraph,
    model: str,
    d: int,
    prime: int = DEFAULT_PRIME,
    seed: int = 0,
    trials: int = 3,
    joints=None,
    oracle: bool = False,
) -> dict:
    """Run both engines on one instance and reconcile them into its report
    document, the JSON object `rigikit analyze` prints."""
    _check_run_settings(model, d, prime, trials)
    check_graph(graph, model, d, joints)
    cs = count_side(graph, model, d)
    prof = cs.profile
    cert, pdec = _certified(cs, lambda reason: _disagreement(
        graph, model, d, seed, reason, joints, **_rank_evidence(cs, ())))
    fhat_rank = None
    if model in ROD_MODELS:
        fhat_rank = sum(f_value(graph, c, prof) for c in pdec.components)

    ranks, best, reasons = run_trials(
        graph, model, d, prime, SplitMix64(seed), trials, cs, fhat_rank, joints=joints
    )
    linear = ranks["max linear"]
    max_rank = max(linear)
    basis = rg.kernel_basis(best.matrix, best.rank, best.trivial)

    nv = len(graph.vertex_ids)
    rigid = nv <= 1 or (max_rank == cs.target)
    minimal: Optional[bool] = None
    if nv > 1 and graph.edges:
        minimal = rigid and _every_edge_needed(graph, cs)
    if nv <= 1:
        verdict = "trivially rigid"
    elif rigid:
        verdict = "minimally rigid" if minimal else "rigid"
    else:
        verdict = "flexible"

    return {
        "schema": 1,
        "kind": "report",
        "model": model,
        "dimension": d,
        "D": prof.D,
        "prime": prime,
        "seed": seed,
        "trials": {"requested": trials, "run": len(linear)},
        "graph": _graph_summary(graph),
        "combinatorial": {
            "rank": cs.rank,
            "target": cs.target,
            "certificate": {
                "free": list(cert.free_part),
                "parts": [list(part) for part in cert.parts],
            },
            "p_components": [list(c) for c in pdec.components],
            "fhat": fhat_rank,
        },
        "linear": {
            "ranks": linear,
            "max_rank": max_rank,
            "flat_ranks": ranks["flat-family"],
            "graphic_union_ranks": ranks["graphic-union"],
            "kernel_dim": basis.kernel_dim,
            "trivial_motions": best.trivial.checked,
            "trivial_span_dim": basis.trivial_span_dim,
            "nontrivial_dim": basis.nontrivial_dim,
            "trivial_checked": len(linear) * best.trivial.checked,
            "trivial_violations": 0,  # a trivial motion outside the kernel fails the run
        },
        "verdict": verdict,
        "minimal": minimal,
        "agreement": not reasons,
        "oracle": _run_oracle(graph, model, d, seed, cs, linear, joints) if oracle else None,
    }


def _run_oracle(graph, model, d, seed, cs: CountSide, ranks, joints) -> dict:
    """Brute-force cross-checks, skipped (with a note) beyond the size limit."""
    n = len(cs.count_graph.edges)
    if n > cm.BRUTEFORCE_LIMIT:
        return {"checked": False, "reason": "edge count %d exceeds limit" % n}
    bf = cm.rank_bruteforce(cs.count_graph, None, cs.profile)
    if bf.value != cs.rank:
        raise _disagreement(
            graph, model, d, seed, "pebble rank %d != brute-force rank %d" % (cs.rank, bf.value),
            joints, **_rank_evidence(cs, ranks),
        )
    return {"checked": True, "agrees": True, "bruteforce_rank": bf.value}


def _disagreement(graph, model, d, seed, reason: str, joints=None, **evidence):
    """The disagreement with its dump: the input document (fixed joints
    included), the seed that replays it (None: nothing drawn, no key), the
    reason and the evidence."""
    dump = {"document": graph_document(graph, model, d, joints), "reason": reason}
    if seed is not None:
        dump["seed"] = seed
    dump.update(evidence)
    return EngineDisagreement(reason, dump)


def _rank_evidence(cs: CountSide, ranks) -> dict:
    """A trial's evidence: the count side's rank and target, the linear ranks."""
    return {"count_rank": cs.rank, "count_target": cs.target, "linear_ranks": list(ranks)}


def decompose(graph: Multigraph, model: str, d: int, joints=None) -> dict:
    """The P-components of the model's count polymatroid, read off its count
    side as analyze reads them, as the decomposition document `rigikit
    decompose` prints; a failed count self-check is a disagreement with a
    seedless dump."""
    check_model(model, d)
    check_graph(graph, model, d, joints)
    cs = count_side(graph, model, d)
    _, dec = _certified(cs, lambda reason: _disagreement(graph, model, d, None, reason, joints))
    return {
        "schema": 1,
        "kind": "decomposition",
        "model": model,
        "dimension": d,
        "components": [list(c) for c in dec.components],
        "nontrivial": [list(c) for c in dec.nontrivial],
    }


# ---------------------------------------------------------------------------
# The paper's induction: the graphic union truncated one rod at a time


def truncate(graph: Multigraph, model: str, d: int, prime: int = DEFAULT_PRIME,
             seed: int = 0, trials: int = 3) -> dict:
    """The paper's induction over the rods of graph's count side, as the
    truncation document `rigikit truncate` prints.

    It re-checks the rank certificate of cs = count_side(graph, model, d)
    and runs on cs.count_graph, the bar graph analyze realizes (a body-hinge
    graph's hinges are its rods); direction is not the paper's model.  With
    rng = SplitMix64(seed), rod i (vertex order) gets the normal
    rng.spawn(1).spawn(i).  Step k = 0..n_r has the first k rods truncated
    and the other rods made bodies: its count rank (cs.rank at k = n_r),
    the k-th rod (None at k = 0) and the best rank of matrix_graphic_union
    with their normals, trial t from rng.spawn(2).spawn(t).  The last step
    adds the best Pluecker rank: trial t is linear_trial(cs.count_graph,
    model, d, prime, rng.spawn(3).spawn(t)), the trial analyze runs, whose
    formal trivial motions, the rod spins among them, must lie in its
    kernel; the other steps' is None.  Generically each rank is its count
    rank; the trials run through _escalate, and a disagreement dumps the
    steps.
    """
    _check_run_settings(model, d, prime, trials)
    check_graph(graph, model, d)
    if model == "direction":
        raise ValueError("truncate needs a body-bar, rod-bar, body-rod-bar or body-hinge "
                         "document, got direction")
    cs = count_side(graph, model, d)
    _certified(cs, lambda reason: _disagreement(
        graph, model, d, seed, reason, **_rank_evidence(cs, ())), components=False)
    bars, rng = cs.count_graph, SplitMix64(seed)
    rods = [v for v in bars.vertex_ids if bars.kinds[v] == VertexKind.ROD]
    normals = {v: rng.spawn(1).spawn(i).nonzero_vector(cs.profile.D, prime)
               for i, v in enumerate(rods)}
    cuts = [{v: normals[v] for v in rods[:k]} for k in range(len(rods) + 1)]
    labels = ["truncation step %d: best" % k for k in range(len(cuts))]
    pluecker = "truncation step %d: Pluecker" % len(rods)
    counts = {}
    for label, kept in zip(labels[:-1], cuts):  # matrices need only the normals, counts the kinds
        gk = bars._replace(kinds={
            v: VertexKind.ROD if v in kept else VertexKind.BODY for v in bars.vertex_ids
        })
        counts[label] = ("count", cm.rank_value(gk, None, cs.profile))
    counts[labels[-1]] = counts[pluecker] = ("count", cs.rank)  # every rod kept: cs's own game

    def steps(ranks):
        return [{"k": k, "rod": rods[k - 1] if k else None, "count_rank": counts[label][1],
                 "best_rank": max(ranks[label]),
                 "pluecker_rank": max(ranks[pluecker]) if k == len(rods) else None}
                for k, label in enumerate(labels)]

    def fail(reason, ranks):
        return _disagreement(graph, model, d, seed, reason, steps=steps(ranks))

    def measure(t):
        measured = {
            label: rg.matrix_graphic_union(bars, d, rng.spawn(2).spawn(t), prime, kept).rank()
            for label, kept in zip(labels, cuts)
        }
        trial = linear_trial(bars, model, d, prime, rng.spawn(3).spawn(t))
        measured[pluecker] = trial.rank
        missed = trial.trivial.missed
        return measured, ("truncation step %d: Pluecker %s motion is not in the kernel"
                          % (len(rods), missed[0]) if missed else None)

    n, ranks, reasons = _escalate(trials, prime, measure, counts, fail)
    if reasons:
        raise fail(reasons[0], ranks)
    return {
        "schema": 1,
        "kind": "truncation",
        "model": model,
        "dimension": d,
        "prime": prime,
        "seed": seed,
        "trials": {"requested": trials, "run": n},
        "steps": steps(ranks),
    }


# ---------------------------------------------------------------------------
# Random graph distribution


def random_multigraph(
    rng: SplitMix64,
    model: str,
    max_vertices: int = FUZZ_MAX_VERTICES,
    max_edges: int = FUZZ_MAX_EDGES,
) -> Multigraph:
    """Erdos-Renyi base plus parallel-edge injection (probability 0.3).

    Vertex kinds of the mixed models are i.i.d., a rod (or hinge) with
    probability 1/2; simple graphs for the direction model; bipartite
    body-hinge for the hinge model.  At least one edge is always present.
    """
    nv = 2 + rng.below(max_vertices - 1)
    if model == "rod-bar":
        kinds = [VertexKind.ROD] * nv
    elif model in ("body-rod-bar", "body-hinge"):
        mixed = VertexKind.ROD if model == "body-rod-bar" else VertexKind.HINGE
        kinds = [mixed if rng.below(100) < 50 else VertexKind.BODY for _ in range(nv)]
        if model == "body-hinge":
            kinds[0], kinds[-1] = VertexKind.BODY, VertexKind.HINGE
    else:
        kinds = [VertexKind.BODY] * nv

    names = ["v%d" % i for i in range(nv)]
    pairs = []
    for i in range(nv):
        for j in range(i + 1, nv):
            if model == "body-hinge" and kinds[i] == kinds[j]:
                continue
            pairs.append((names[i], names[j]))
    edges = [pair for pair in pairs if rng.below(100) < 40]
    if not edges and pairs:
        edges.append(pairs[rng.below(len(pairs))])
    if model not in ("direction", "body-hinge"):
        for pair in list(edges):  # parallel-edge injection
            while len(edges) < max_edges and rng.below(100) < 30:
                edges.append(pair)
                if rng.below(100) < 50:
                    break
    del edges[max_edges:]
    return build_graph(list(zip(names, kinds)), edges)


# ---------------------------------------------------------------------------
# Fuzz harness


def fuzz_case(
    graph: Multigraph,
    model: str,
    d: int,
    prime: int,
    case_rng: SplitMix64,
    trials: int,
) -> dict:
    """One fuzz case; returns counters and (on disagreement) a failure dump."""
    out = {"escalated": False, "trivial_checked": 0, "subset_checks": 0, "failure": None}
    cs = count_side(graph, model, d)
    prof = cs.profile
    fhat_total = games = None
    if model in ROD_MODELS and 0 < len(graph.edges) <= SUBSET_CHECK_EDGES:
        # small cases: games[mask] is the subset's parent's (less its top edge)
        # with the top edge's copies offered, the same moves as a fresh game in
        # edge order; the last one is the game cm.fhat plays on every edge.
        exp_graph, copies = expand_f(graph, prof)
        games = [cm.PebbleState(exp_graph, prof)]
        for mask in range(1, 1 << len(graph.edges)):
            top = mask.bit_length() - 1
            game = games[mask ^ (1 << top)].released(())
            for cid in copies[graph.edge_ids[top]]:
                game.try_insert(cid)
            games.append(game)
        fhat_total = len(games[-1].inserted)
    elif model in ROD_MODELS:
        fhat_total = cm.fhat(graph, None, prof)
    try:  # the rank certificate only: no P-components, minimality or kernel basis
        _certified(cs, lambda reason: _disagreement(
            graph, model, d, case_rng.seed, reason, **_rank_evidence(cs, ())), components=False)
        ranks, best, reasons = run_trials(graph, model, d, prime, case_rng, trials, cs,
                                          fhat_total)
        linear = ranks["max linear"]
        out["escalated"] = len(linear) > trials
        out["trivial_checked"] = len(linear) * best.trivial.checked
        if reasons:
            raise _disagreement(graph, model, d, case_rng.seed, "; ".join(reasons),
                                **_rank_evidence(cs, linear))
        if games is not None:  # each subset's game against the partition oracle, in mask order
            order, _, brute = cm.bruteforce_tables(graph, None, prof)
            for mask in range(1, len(brute)):
                lhs, rhs = len(games[mask].inserted), brute[mask]
                out["subset_checks"] += 1
                if lhs != rhs:
                    F = [e for i, e in enumerate(order) if mask >> i & 1]
                    raise _disagreement(graph, model, d, case_rng.seed,
                                        "fhat(%r) = %d != brute force %d" % (F, lhs, rhs),
                                        **_rank_evidence(cs, linear))
    except EngineDisagreement as exc:
        out["failure"] = exc.dump
    return out


def fuzz_equivalence(
    model: str,
    d: int,
    cases: int,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
    trials: int = 3,
) -> dict:
    """Random-instance equivalence run, as its fuzz-summary document; see the
    module docstring for policy.

    Case i draws its graph, of at most FUZZ_MAX_VERTICES vertices, and its
    samples from master.spawn(i) alone, so it depends only on (seed, i).
    """
    _check_run_settings(model, d, prime, trials)
    if cases < 0:
        raise ValueError("cases must be >= 0, got %d" % cases)
    master = SplitMix64(seed)
    escalations = trivial_checked = subset_checks = 0
    failures = []
    for i in range(cases):
        case_rng = master.spawn(i)
        graph = random_multigraph(case_rng.spawn(10_000), model)
        res = fuzz_case(graph, model, d, prime, case_rng, trials)
        escalations += res["escalated"]
        trivial_checked += res["trivial_checked"]
        subset_checks += res["subset_checks"]
        if res["failure"] is not None:
            failures.append({**res["failure"], "case": i})
    return {
        "schema": 1,
        "kind": "fuzz-summary",
        "model": model,
        "dimension": d,
        "cases": cases,
        "agreements": cases - len(failures),
        "escalations": escalations,
        "trivial_checked": trivial_checked,
        "trivial_violations": 0,  # a trivial motion outside the kernel is a failure
        "subset_checks": subset_checks,
        "failures": failures,
        "ok": not failures,
    }

"""Cross-validation harness: count engine vs exact randomized matrices.

analyze() runs both engines on one graph and fills a Report; the linear
side is sampled over a number of trials and its best rank compared to the
combinatorial rank.  fuzz_equivalence() hammers the matroid equalities on
random graphs.  Both go through run_trials: every per-trial linear rank
must stay at or below the combinatorial rank, and every flat-family rank
at or below fhat (a violation is an immediate EngineDisagreement).  A
single unlucky sample never fails a run: trials escalate (to 10) before a
fuzz case is declared a counterexample, and counterexamples are dumped as
replayable documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import count_matroid as cm
from . import rigidity as rg
from .documents import graph_document
from .field import SplitMix64, check_prime, DEFAULT_PRIME
from .graph import (
    CountProfile,
    Multigraph,
    VertexKind,
    build_graph,
    expand_f,
    f_value,
    hinges_as_rods,
)

ESCALATED_TRIALS = 10
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


def _check_model_dimension(model: str, d: int) -> None:
    if model in ("rod-bar", "body-rod-bar", "body-hinge") and d < 3:
        raise ValueError(
            "model %s needs dimension >= 3; d=2 is supported only for "
            "body-bar and direction frameworks" % model
        )


def _check_run_settings(model: str, d: int, prime: int, trials: int) -> None:
    check_prime(prime)
    _check_model_dimension(model, d)
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)


def count_host(graph: Multigraph, model: str, d: int):
    """(profile, host graph) of the model's count polymatroid.

    Bar and direction models count on the graph itself; body-hinge counts
    each hinge as a rod, as rigidity.expand_hinge does on the linear side.
    """
    _check_model_dimension(model, d)
    if model == "direction":
        return CountProfile.direction(d), graph
    if model in BAR_MODELS:
        return CountProfile.body_rod_bar(d), graph
    if model == "body-hinge":
        return CountProfile.body_rod_bar(d), hinges_as_rods(graph)
    raise ValueError("unknown model %r" % model)


@dataclass(frozen=True)
class CountSide:
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


def count_side(graph: Multigraph, model: str, d: int) -> CountSide:
    """The model's count matroid: on the host graph for bar models, else on its f-expansion."""
    prof, host = count_host(graph, model, d)
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


@dataclass
class LinearTrial:
    rank: int
    trivial: rg.TrivialCheck
    matrix: rg.RigidityMatrix
    rods: Optional[rg.RodConfig] = None
    joints: Optional[dict] = None
    flat_rank: Optional[int] = None
    graphic_union_rank: Optional[int] = None


def linear_trial(
    graph: Multigraph,
    model: str,
    d: int,
    p: int,
    rng: SplitMix64,
    joints=None,
) -> LinearTrial:
    """Sample one configuration and measure the matrix ranks for it."""
    rods = None
    if model == "direction":
        if joints is None:
            joints = rg.sample_joints(graph, d, rng.spawn(2), p)
        m = rg.matrix_direction(graph, joints, d, p)
    elif model == "body-hinge":
        exp = rg.expand_hinge(graph, d, rng, p)
        rods = exp.rods
        m = rg.matrix_body_rod_bar(exp.graph, rods, exp.bars)
    else:
        rods = rg.sample_rod_config(graph, d, rng.spawn(0), p)
        bars = rg.sample_bar_config(graph, rods, rng.spawn(1), p)
        m = rg.matrix_body_rod_bar(graph, rods, bars)
    trial = LinearTrial(
        rank=m.rank(),
        trivial=rg.verify_trivial_motions(m, rods=rods, joints=joints),
        matrix=m,
        rods=rods,
        joints=joints,
    )
    if model in ROD_MODELS:
        trial.flat_rank = rg.matrix_edge_flats(graph, rods, p).rank()
    elif model == "body-bar":
        dg = rg.matrix_graphic_union(graph, d, rng.spawn(3), p)
        trial.graphic_union_rank = dg.rank()
    return trial


@dataclass
class TrialRun:
    """The linear trials of one instance, as run_trials leaves them."""

    ranks: list = field(default_factory=list)
    flat_ranks: list = field(default_factory=list)
    graphic_union_ranks: list = field(default_factory=list)
    trivial_checked: int = 0
    trivial_violations: int = 0
    escalated: bool = False
    best: Optional[LinearTrial] = None  # first trial of the highest rank

    def mismatches(self, count_rank: int, fhat_rank: Optional[int]) -> list:
        """One message per best rank that misses its count; empty if all agree."""
        out = []
        if max(self.ranks) != count_rank:
            out.append(
                "max linear rank %d != combinatorial rank %d"
                % (max(self.ranks), count_rank)
            )
        if self.flat_ranks and max(self.flat_ranks) != fhat_rank:
            out.append(
                "flat-family rank %d != polymatroid rank %d"
                % (max(self.flat_ranks), fhat_rank)
            )
        if self.graphic_union_ranks and max(self.graphic_union_ranks) != count_rank:
            out.append(
                "graphic-union rank %d != combinatorial rank %d"
                % (max(self.graphic_union_ranks), count_rank)
            )
        return out


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
) -> TrialRun:
    """Run, check and escalate the linear trials of one instance.

    A trial rank above the combinatorial rank, or a flat-family rank above
    fhat, cannot come from any sample and raises EngineDisagreement at
    once.  When the requested trials end with some best rank short of its
    count, the run escalates to ESCALATED_TRIALS before anything is judged.
    """
    run = TrialRun()
    n_trials = trials
    t = 0
    while t < n_trials:
        trial = linear_trial(graph, model, d, prime, rng.spawn(t), joints=joints)
        run.trivial_checked += trial.trivial.checked
        run.trivial_violations += trial.trivial.violations
        run.ranks.append(trial.rank)
        if trial.rank > cs.rank:
            raise _disagreement(
                graph, model, d, rng.seed, cs, run.ranks,
                "per-trial linear rank %d exceeds combinatorial rank %d"
                % (trial.rank, cs.rank),
            )
        if trial.flat_rank is not None:
            if trial.flat_rank > fhat_rank:
                raise _disagreement(
                    graph, model, d, rng.seed, cs, run.ranks,
                    "flat-family rank %d exceeds polymatroid rank %d"
                    % (trial.flat_rank, fhat_rank),
                )
            run.flat_ranks.append(trial.flat_rank)
        if trial.graphic_union_rank is not None:
            run.graphic_union_ranks.append(trial.graphic_union_rank)
        if run.best is None or trial.rank > run.best.rank:
            run.best = trial
        t += 1
        if (
            t == n_trials
            and n_trials < ESCALATED_TRIALS
            and run.mismatches(cs.rank, fhat_rank)
        ):
            n_trials = ESCALATED_TRIALS  # unlucky samples: escalate before judging
            run.escalated = True
    return run


# ---------------------------------------------------------------------------
# Single-instance report


@dataclass
class Report:
    model: str
    d: int
    D: int
    prime: int
    seed: int
    trials_requested: int
    trials_run: int
    graph_summary: dict
    count_rank: int
    count_target: int
    certificate_free: tuple
    certificate_parts: tuple
    p_components: tuple
    linear_ranks: tuple
    max_linear_rank: int
    flat_ranks: tuple
    fhat_rank: Optional[int]
    graphic_union_ranks: tuple
    kernel_dim: int
    trivial_motion_count: int
    trivial_span_dim: int
    nontrivial_dim: int
    trivial_checked: int
    trivial_violations: int
    verdict: str
    minimal: Optional[bool]
    agreement: bool
    oracle: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "report",
            "model": self.model,
            "dimension": self.d,
            "D": self.D,
            "prime": self.prime,
            "seed": self.seed,
            "trials": {"requested": self.trials_requested, "run": self.trials_run},
            "graph": self.graph_summary,
            "combinatorial": {
                "rank": self.count_rank,
                "target": self.count_target,
                "certificate": {
                    "free": list(self.certificate_free),
                    "parts": [list(part) for part in self.certificate_parts],
                },
                "p_components": [list(c) for c in self.p_components],
                "fhat": self.fhat_rank,
            },
            "linear": {
                "ranks": list(self.linear_ranks),
                "max_rank": self.max_linear_rank,
                "flat_ranks": list(self.flat_ranks),
                "graphic_union_ranks": list(self.graphic_union_ranks),
                "kernel_dim": self.kernel_dim,
                "trivial_motions": self.trivial_motion_count,
                "trivial_span_dim": self.trivial_span_dim,
                "nontrivial_dim": self.nontrivial_dim,
                "trivial_checked": self.trivial_checked,
                "trivial_violations": self.trivial_violations,
            },
            "verdict": self.verdict,
            "minimal": self.minimal,
            "agreement": self.agreement,
            "oracle": self.oracle,
        }


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
) -> Report:
    """Run both engines on one instance and reconcile them into a Report."""
    _check_run_settings(model, d, prime, trials)
    if joints is not None and model != "direction":
        raise ValueError("joints are only meaningful for the direction model")
    D = d * (d + 1) // 2
    cs = count_side(graph, model, d)
    prof = cs.profile
    cert = cm.certificate(cs.state, None)
    fhat_rank = None
    if cs.copies is None:
        # bar models: the P-components live on the graph's expansion, a second
        # matroid, and p_components certifies fhat(E) as their sum of f
        pdec = cm.p_components(graph, prof)
        if model in ROD_MODELS:
            fhat_rank = sum(f_value(graph, c, prof) for c in pdec.components)
    else:
        # the count matroid is the expansion itself: its certificate's
        # M-components pull back to the P-components
        pdec = cm.p_components_of_expansion((cs.count_graph, cs.copies), cert, prof)

    run = run_trials(
        graph, model, d, prime, SplitMix64(seed), trials, cs, fhat_rank, joints=joints
    )
    max_rank = max(run.ranks)
    best = run.best
    basis = rg.kernel_basis(best.matrix, rods=best.rods, joints=best.joints, check=best.trivial)

    nv = len(graph.vertex_ids)
    rigid = nv <= 1 or (max_rank == cs.target)
    minimal: Optional[bool] = None
    if nv > 1 and graph.edges:
        minimal = rigid and all(cs.rank_without(e) < cs.target for e in graph.edge_ids)
    if nv <= 1:
        verdict = "trivially rigid"
    elif rigid:
        verdict = "minimally rigid" if minimal else "rigid"
    else:
        verdict = "flexible"

    oracle_result = None
    if oracle:
        oracle_result = _run_oracle(model, cs)

    return Report(
        model=model,
        d=d,
        D=D,
        prime=prime,
        seed=seed,
        trials_requested=trials,
        trials_run=len(run.ranks),
        graph_summary=_graph_summary(graph),
        count_rank=cs.rank,
        count_target=cs.target,
        certificate_free=cert.free_part,
        certificate_parts=cert.parts,
        p_components=pdec.components,
        linear_ranks=tuple(run.ranks),
        max_linear_rank=max_rank,
        flat_ranks=tuple(run.flat_ranks),
        fhat_rank=fhat_rank,
        graphic_union_ranks=tuple(run.graphic_union_ranks),
        kernel_dim=basis.kernel_dim,
        trivial_motion_count=len(basis.entries) - basis.nontrivial_dim,
        trivial_span_dim=basis.trivial_span_dim,
        nontrivial_dim=basis.nontrivial_dim,
        trivial_checked=run.trivial_checked,
        trivial_violations=run.trivial_violations,
        verdict=verdict,
        minimal=minimal,
        agreement=(cs.rank == max_rank),
        oracle=oracle_result,
    )


def _run_oracle(model, cs: CountSide) -> dict:
    """Brute-force cross-checks, skipped (with a note) beyond the size limit."""
    n = len(cs.count_graph.edges)
    if n > cm.BRUTEFORCE_LIMIT:
        return {"checked": False, "reason": "edge count %d exceeds limit" % n}
    bf = cm.rank_bruteforce(cs.count_graph, None, cs.profile)
    agrees = bf.value == cs.rank
    if not agrees:
        raise EngineDisagreement(
            "pebble rank %d != brute-force rank %d" % (cs.rank, bf.value),
            {"model": model, "bruteforce": bf.value, "pebble": cs.rank},
        )
    return {"checked": True, "agrees": True, "bruteforce_rank": bf.value}


def _dump(graph, model, d, seed, cs: CountSide, ranks) -> dict:
    return {
        "document": graph_document(graph, model, d),
        "seed": seed,
        "count_rank": cs.rank,
        "count_target": cs.target,
        "linear_ranks": list(ranks),
    }


# ---------------------------------------------------------------------------
# Random graph distribution


def random_multigraph(
    rng: SplitMix64,
    model: str,
    max_vertices: int = FUZZ_MAX_VERTICES,
    max_edges: int = FUZZ_MAX_EDGES,
    rod_bias: float = 0.5,
) -> Multigraph:
    """Erdos-Renyi base plus parallel-edge injection (probability 0.3).

    Vertex kinds are i.i.d. with the given rod (or hinge) bias; simple
    graphs for the direction model; bipartite body-hinge for the hinge
    model.  At least one edge is always present.
    """
    nv = 2 + rng.below(max_vertices - 1)
    bias_pct = int(rod_bias * 100)
    if model == "body-bar":
        kinds = [VertexKind.BODY] * nv
    elif model == "rod-bar":
        kinds = [VertexKind.ROD] * nv
    elif model == "body-rod-bar":
        kinds = [
            VertexKind.ROD if rng.below(100) < bias_pct else VertexKind.BODY
            for _ in range(nv)
        ]
    elif model == "body-hinge":
        kinds = [
            VertexKind.HINGE if rng.below(100) < bias_pct else VertexKind.BODY
            for _ in range(nv)
        ]
        kinds[0] = VertexKind.BODY
        kinds[-1] = VertexKind.HINGE
    elif model == "direction":
        kinds = [VertexKind.BODY] * nv
    else:
        raise ValueError("unknown model %r" % model)

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


@dataclass
class FuzzSummary:
    model: str
    d: int
    cases: int
    agreements: int
    escalations: int
    trivial_checked: int
    trivial_violations: int
    subset_checks: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and self.trivial_violations == 0

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "fuzz-summary",
            "model": self.model,
            "dimension": self.d,
            "cases": self.cases,
            "agreements": self.agreements,
            "escalations": self.escalations,
            "trivial_checked": self.trivial_checked,
            "trivial_violations": self.trivial_violations,
            "subset_checks": self.subset_checks,
            "failures": self.failures,
            "ok": self.ok,
        }


def fuzz_case(
    graph: Multigraph,
    model: str,
    d: int,
    prime: int,
    case_rng: SplitMix64,
    trials: int,
) -> dict:
    """One fuzz case; returns counters and (on disagreement) a failure dump."""
    out = {
        "agrees": True,
        "escalated": False,
        "trivial_checked": 0,
        "trivial_violations": 0,
        "subset_checks": 0,
        "failure": None,
    }
    cs = count_side(graph, model, d)
    prof = cs.profile
    fhat_total = expansion = None
    if model in ROD_MODELS:
        expansion = expand_f(graph, prof)
        fhat_total = cm.fhat(graph, None, prof, expanded=expansion)
    try:
        run = run_trials(graph, model, d, prime, case_rng, trials, cs, fhat_total)
        out["escalated"] = run.escalated
        out["trivial_checked"] = run.trivial_checked
        out["trivial_violations"] = run.trivial_violations
        reasons = run.mismatches(cs.rank, fhat_total)
        if reasons:
            raise _disagreement(
                graph, model, d, case_rng.seed, cs, run.ranks, "; ".join(reasons)
            )
        # small cases: full polymatroid equality against the partition oracle
        if expansion is not None and 0 < len(graph.edges) <= SUBSET_CHECK_EDGES:
            order = graph.edge_ids
            n = len(order)
            for mask in range(1, 1 << n):
                F = [order[i] for i in range(n) if mask >> i & 1]
                lhs = cm.fhat(graph, F, prof, expanded=expansion)
                rhs = cm.fhat_bruteforce(graph, F, prof)
                out["subset_checks"] += 1
                if lhs != rhs:
                    raise _disagreement(
                        graph, model, d, case_rng.seed, cs, run.ranks,
                        "fhat(%r) = %d != brute force %d" % (F, lhs, rhs),
                    )
    except EngineDisagreement as exc:
        out["agrees"] = False
        out["failure"] = exc.dump
    return out


def _failure_dump(graph, model, d, seed, cs: CountSide, ranks, reason: str) -> dict:
    dump = _dump(graph, model, d, seed, cs, ranks)
    dump["reason"] = reason
    return dump


def _disagreement(graph, model, d, seed, cs: CountSide, ranks, reason: str):
    return EngineDisagreement(
        reason, _failure_dump(graph, model, d, seed, cs, ranks, reason)
    )


def fuzz_equivalence(
    model: str,
    d: int,
    cases: int,
    seed: int = 0,
    prime: int = DEFAULT_PRIME,
    trials: int = 3,
    max_vertices: int = FUZZ_MAX_VERTICES,
    rod_bias: float = 0.5,
) -> FuzzSummary:
    """Random-instance equivalence run; see the module docstring for policy.

    Case i draws its graph and samples from master.spawn(i) alone, so it
    depends only on (seed, i).
    """
    _check_run_settings(model, d, prime, trials)
    if cases < 0:
        raise ValueError("cases must be >= 0, got %d" % cases)
    if not 2 <= max_vertices <= FUZZ_MAX_VERTICES:
        raise ValueError(
            "fuzz is desk-scale: max_vertices must be in [2, %d], got %d"
            % (FUZZ_MAX_VERTICES, max_vertices)
        )
    if not 0 <= rod_bias <= 1:
        raise ValueError("rod_bias must be in [0, 1], got %r" % rod_bias)
    master = SplitMix64(seed)
    summary = FuzzSummary(model=model, d=d, cases=cases, agreements=0, escalations=0,
                          trivial_checked=0, trivial_violations=0, subset_checks=0)
    for i in range(cases):
        case_rng = master.spawn(i)
        graph = random_multigraph(
            case_rng.spawn(10_000), model, max_vertices=max_vertices, rod_bias=rod_bias
        )
        res = fuzz_case(graph, model, d, prime, case_rng, trials)
        summary.agreements += 1 if res["agrees"] else 0
        summary.escalations += 1 if res["escalated"] else 0
        summary.trivial_checked += res["trivial_checked"]
        summary.trivial_violations += res["trivial_violations"]
        summary.subset_checks += res["subset_checks"]
        if res["failure"] is not None:
            failure = dict(res["failure"])
            failure["case"] = i
            summary.failures.append(failure)
    return summary

"""Command-line front end.

Subcommands:
  analyze FILE      both engines on one graph document, emit a report
  fuzz              random-instance equivalence run (exit 2 on disagreement)
  decompose FILE    P-connected components of the document's count polymatroid
  truncate-demo     Dilworth-truncation showcase incl. the shared-line family

Reports go to stdout, diagnostics to stderr.  JSON output is canonical
(sorted keys, fixed separators): identical argv, including --seed, gives
byte-identical bytes.  Text output is human-oriented and not stable.
Exit codes: 0 ok, 1 bad input, schema or usage, 2 engine disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import count_matroid as cm
from . import flats as fl
from .analysis import (
    EngineDisagreement,
    analyze,
    count_host,
    fuzz_equivalence,
)
from .documents import MODELS, SchemaError, parse_document
from .field import DEFAULT_PRIME, SplitMix64, check_prime
from .graph import GraphError


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit 1: exit 2 means engine disagreement."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        sys.stdout.write(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        )
    else:
        sys.stdout.write(text)


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc))
    return parse_document(doc)


def _report_text(rep) -> str:
    lines = [
        "model %s, d=%d (D=%d), prime %d, seed %d"
        % (rep.model, rep.d, rep.D, rep.prime, rep.seed),
        "graph: %(vertices)d vertices (%(bodies)d bodies, %(rods)d rods, "
        "%(hinges)d hinges), %(edges)d edges" % rep.graph_summary,
        "combinatorial rank %d / target %d" % (rep.count_rank, rep.count_target),
        "linear ranks %s -> max %d (%d trial(s))"
        % (list(rep.linear_ranks), rep.max_linear_rank, rep.trials_run),
        "trivial motions: %d tagged, kernel dim %s, nontrivial dim %s"
        % (rep.trivial_motion_count, rep.kernel_dim, rep.nontrivial_dim),
        "verdict: %s%s" % (rep.verdict, "" if rep.agreement else
                           "  [ENGINES DISAGREE]"),
        "P-components: %s" % [list(c) for c in rep.p_components],
    ]
    if rep.oracle is not None:
        lines.append("oracle: %s" % rep.oracle)
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    graph, model, d, joints = _load_document(args.file)
    if args.dim is not None:
        d = args.dim
        if joints is not None and any(len(c) != d for c in joints.values()):
            raise SchemaError("--dim %d conflicts with the joints in the file" % d)
    rep = analyze(
        graph,
        model,
        d,
        prime=args.prime,
        seed=args.seed,
        trials=args.trials,
        joints=joints,
        oracle=args.oracle,
    )
    _emit(args, rep.to_json_dict(), _report_text(rep))
    return 0


def _cmd_decompose(args) -> int:
    graph, model, d, _ = _load_document(args.file)
    if args.dim is not None:
        d = args.dim
    prof, host = count_host(graph, model, d)
    dec = cm.p_components(host, prof)
    payload = {
        "schema": 1,
        "kind": "decomposition",
        "model": model,
        "dimension": d,
        "components": [list(c) for c in dec.components],
        "nontrivial": [list(c) for c in dec.nontrivial],
    }
    text = "P-components (%d):\n" % len(dec.components) + "".join(
        "  %s\n" % list(c) for c in dec.components
    )
    _emit(args, payload, text)
    return 0


def _cmd_fuzz(args) -> int:
    summary = fuzz_equivalence(
        args.model,
        args.dim,
        args.cases,
        seed=args.seed,
        prime=args.prime,
        trials=args.trials,
        max_vertices=args.max_vertices,
        rod_bias=args.rod_bias,
    )
    text = "%d/%d agree (%d escalated, %d trivial-motion checks, %d violations)\n" % (
        summary.agreements,
        summary.cases,
        summary.escalations,
        summary.trivial_checked,
        summary.trivial_violations,
    )
    for failure in summary.failures:
        text += "counterexample in case %d: %s\n" % (failure["case"], failure["reason"])
    _emit(args, summary.to_json_dict(), text)
    if not summary.ok:
        sys.stderr.write(
            "fuzz: %d disagreement(s); dumps are replayable via `rigikit analyze`\n"
            % len(summary.failures)
        )
        return 2
    return 0


def _cmd_truncate_demo(args) -> int:
    p = args.prime
    rng = SplitMix64(args.seed)
    steps = []

    single = fl.flat_family(4, p, [("A", [(1, 0, 0, 0), (0, 1, 0, 0)])])
    cut, _ = fl.dilworth_truncate(single, rng.spawn(0))
    steps.append(
        {
            "name": "single rank-2 flat",
            "truncated_rank": fl.span_rank(cut),
            "partition_minimum": fl.truncation_rhs_bruteforce(single),
        }
    )

    disjoint = fl.flat_family(
        4,
        p,
        [
            ("A", [(1, 0, 0, 0), (0, 1, 0, 0)]),
            ("B", [(0, 0, 1, 0), (0, 0, 0, 1)]),
        ],
    )
    cut, _ = fl.dilworth_truncate(disjoint, rng.spawn(1))
    steps.append(
        {
            "name": "two disjoint-block rank-2 flats",
            "truncated_rank": fl.span_rank(cut),
            "partition_minimum": fl.truncation_rhs_bruteforce(disjoint),
        }
    )

    family = fl.three_hyperplanes_through_line(p)
    forced_cut, normal = fl.dilworth_truncate(family, normal=(0, 0, 1, p - 2))
    random_cut, _ = fl.dilworth_truncate(family, rng.spawn(2))
    steps.append(
        {
            "name": "three hyperplanes through a common line",
            "partition_minimum": fl.truncation_rhs_bruteforce(family),
            "forced_hyperplane": list(normal),
            "forced_truncated_rank": fl.span_rank(forced_cut),
            "random_truncated_rank": fl.span_rank(random_cut),
            "note": "a hyperplane through the shared line undercuts the "
            "partition minimum; a random one attains it",
        }
    )

    points_rank = fl.generic_matroid_rank(family, rng=rng.spawn(3), trials=args.trials)
    steps.append(
        {
            "name": "generic representative points of the same family",
            "points_rank": points_rank,
            "subset_minimum": fl.generic_rank_bruteforce(family),
        }
    )

    payload = {"schema": 1, "kind": "truncate-demo", "prime": p, "seed": args.seed,
               "steps": steps}
    text = ""
    for s in steps:
        text += "%s\n" % s["name"]
        for k in sorted(s):
            if k != "name":
                text += "  %s: %s\n" % (k, s[k])
    _emit(args, payload, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rigikit",
        description="Rigidity of body/rod/hinge/direction frameworks, two ways: "
        "count matroids and exact randomized matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_trials=True):
        sp.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help="field modulus (default %d)" % DEFAULT_PRIME)
        sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
        if with_trials:
            sp.add_argument("--trials", type=int, default=3,
                            help="random configurations per instance (default 3)")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("analyze", help="analyze one graph document")
    sp.add_argument("file")
    sp.add_argument("--dim", type=int, default=None,
                    help="override the document's dimension")
    sp.add_argument("--oracle", action="store_true",
                    help="cross-check against the brute-force oracles (size-limited)")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("decompose", help="P-connected components of a document")
    sp.add_argument("file")
    sp.add_argument("--dim", type=int, default=None)
    common(sp, with_trials=False)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("fuzz", help="random equivalence fuzzing")
    sp.add_argument("--model", choices=MODELS, required=True)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--cases", type=int, default=100)
    sp.add_argument("--max-vertices", type=int, default=8)
    sp.add_argument("--rod-bias", type=float, default=0.5,
                    help="probability a vertex is a rod/hinge (default 0.5)")
    common(sp)
    sp.set_defaults(func=_cmd_fuzz)

    sp = sub.add_parser("truncate-demo", help="Dilworth truncation showcase")
    common(sp)
    sp.set_defaults(func=_cmd_truncate_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fuzz" and args.dim is None:
        args.dim = 3 if args.model != "direction" else 2
    try:
        check_prime(args.prime)
        return args.func(args)
    except (SchemaError, GraphError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except EngineDisagreement as exc:
        sys.stderr.write("engine disagreement: %s\n" % exc)
        sys.stderr.write(json.dumps(exc.dump, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

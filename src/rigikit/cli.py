"""Command-line front end.

Subcommands:
  analyze FILE      both engines on one graph document, emit a report
  fuzz              random-instance equivalence run (exit 2 on disagreement)
  decompose FILE    P-connected components of the document's count polymatroid
  truncate FILE     per k rods truncated, the count rank and the rank of the
                    union of D graphic matroids cut at them (body models)

Reports go to stdout, diagnostics to stderr.  JSON output is canonical
(sorted keys, fixed separators): identical argv, including --seed, gives
byte-identical bytes.  Text output is human-oriented and not stable.
Exit codes: 0 ok, 1 bad input, schema or usage, 2 engine disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import (
    EngineDisagreement,
    analyze,
    decompose,
    fuzz_equivalence,
    truncate,
)
from .documents import MODELS, SchemaError, parse_document
from .field import DEFAULT_PRIME


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
    except OSError as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc.strerror or exc))
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (path, exc))
    return parse_document(doc)


def _report_text(rep: dict) -> str:
    comb, lin = rep["combinatorial"], rep["linear"]
    lines = [
        "model %(model)s, d=%(dimension)d (D=%(D)d), prime %(prime)d, seed %(seed)d" % rep,
        "graph: %(vertices)d vertices (%(bodies)d bodies, %(rods)d rods, "
        "%(hinges)d hinges), %(edges)d edges" % rep["graph"],
        "combinatorial rank %(rank)d / target %(target)d" % comb,
        "linear ranks %s -> max %d (%d trial(s))"
        % (lin["ranks"], lin["max_rank"], rep["trials"]["run"]),
        "trivial motions: %(trivial_motions)d tagged, kernel dim %(kernel_dim)s, "
        "nontrivial dim %(nontrivial_dim)s" % lin,
        "verdict: %s%s" % (rep["verdict"], "" if rep["agreement"] else
                           "  [ENGINES DISAGREE]"),
        "P-components: %s" % comb["p_components"],
    ]
    if rep["oracle"] is not None:
        lines.append("oracle: %s" % rep["oracle"])
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    graph, model, d, joints = _load_document(args.file)
    d = d if args.dim is None else args.dim
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
    _emit(args, rep, _report_text(rep))
    return 0


def _cmd_decompose(args) -> int:
    graph, model, d, joints = _load_document(args.file)
    d = d if args.dim is None else args.dim
    dec = decompose(graph, model, d, joints)
    text = "P-components (%d):\n" % len(dec["components"]) + "".join(
        "  %s\n" % c for c in dec["components"]
    )
    _emit(args, dec, text)
    return 0


def _cmd_fuzz(args) -> int:
    summary = fuzz_equivalence(
        args.model,
        args.dim,
        args.cases,
        seed=args.seed,
        prime=args.prime,
        trials=args.trials,
    )
    text = ("%(agreements)d/%(cases)d agree (%(escalations)d escalated, "
            "%(trivial_checked)d trivial-motion checks, 0 violations)\n" % summary)
    for failure in summary["failures"]:
        text += "counterexample in case %d: %s\n" % (failure["case"], failure["reason"])
    _emit(args, summary, text)
    if not summary["ok"]:
        sys.stderr.write(
            "fuzz: %d disagreement(s); dumps are replayable via `rigikit analyze`\n"
            % len(summary["failures"])
        )
        return 2
    return 0


def _cmd_truncate(args) -> int:
    graph, model, d, _ = _load_document(args.file)
    doc = truncate(graph, model, d, prime=args.prime, seed=args.seed, trials=args.trials)
    text = "".join(
        "k=%d rod=%s: count rank %d, truncated union %d, Pluecker %s\n"
        % (s["k"], s["rod"] or "-", s["count_rank"], s["best_rank"],
           "-" if s["pluecker_rank"] is None else s["pluecker_rank"])
        for s in doc["steps"]
    )
    _emit(args, doc, text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged."""
    parser = _Parser(
        prog="rigikit",
        description="Rigidity of body/rod/hinge/direction frameworks, two ways: "
        "count matroids and exact randomized matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help="field modulus (default %d)" % DEFAULT_PRIME)
        sp.add_argument("--seed", type=int, default=0, help="master RNG seed")
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
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("fuzz", help="random equivalence fuzzing")
    sp.add_argument("--model", choices=MODELS, required=True)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--cases", type=int, default=100)
    common(sp)
    sp.set_defaults(func=_cmd_fuzz)

    sp = sub.add_parser("truncate", help="the rods (or hinges) of a body-model document "
                        "truncated one at a time")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=_cmd_truncate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fuzz" and args.dim is None:
        args.dim = 3 if args.model != "direction" else 2
    try:
        return args.func(args)
    except ValueError as exc:  # SchemaError, GraphError and ConfigError among them
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except EngineDisagreement as exc:
        sys.stderr.write("engine disagreement: %s\n" % exc)
        sys.stderr.write(json.dumps(exc.dump, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

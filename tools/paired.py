"""Paired A/B CPU time of two rigikit checkouts on the benchmark's workloads.

    python3 tools/paired.py --other ../parent --workload fuzz_mix
    python3 tools/paired.py --other ../parent --workload all --seed 7 --limit 24
    python3 tools/paired.py --other ../parent --workload braced --rounds 3

Side A is the ``src/rigikit`` of the checkout named by ``--other``, imported
as the package ``rigikit_a``; side B is this checkout's, imported as
``rigikit_b``.  Both run the same calls: the items of a workload of this
checkout's ``perfbench/workloads.py``, with the analyze documents written
to a temporary directory.  Each call runs ``cli.main(argv)`` in process on
both sides, back to back, A first on even calls and B first on odd ones,
with stdout captured.  Each side's call is timed in CPU seconds
(``time.process_time``), and the two stdouts must be byte-identical: a
difference raises.  One untimed call per side warms both up first.

A shared machine's speed drifts 20-40% from minute to minute, so two
single runs, even calibrated ones, differ by that much.  Here both sides of
every call run under the same drift, and the alternation cancels the cost
of going first, so B/A holds where single runs do not.  ``--rounds N``
repeats the alternated run N times per workload, one line per round.  The
report gives, per workload, the call count of one round, each side's CPU
seconds over all rounds, every round's B/A and their median as B/A.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402


def load_cli(src: Path, name: str):
    """The cli module of the rigikit package under src, imported as package name."""
    pkg = src / "rigikit"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def timed_call(cli, argv) -> tuple:
    """(CPU seconds, exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = process_time()
        code = cli.main(list(argv))
        t = process_time() - t0
    return t, code, out.getvalue()


def paired_call(cli_a, cli_b, argv, a_first: bool) -> tuple:
    """(A seconds, B seconds) of one call on both sides; raises if the outputs differ."""
    if a_first:
        ta, code_a, out_a = timed_call(cli_a, argv)
        tb, code_b, out_b = timed_call(cli_b, argv)
    else:
        tb, code_b, out_b = timed_call(cli_b, argv)
        ta, code_a, out_a = timed_call(cli_a, argv)
    if (code_a, out_a) != (code_b, out_b):
        raise AssertionError("outputs differ on %s: A exit %d, B exit %d"
                             % (" ".join(argv), code_a, code_b))
    return ta, tb


def workload_argvs(workload: str, seed: int, workdir: Path, limit=None) -> list:
    """The argv of every item of the workload, documents written under workdir."""
    argvs = []
    for item in wl.build(workload, seed)[:limit]:
        argv = list(item.argv)
        if item.doc is not None:
            path = workdir / item.doc_name
            path.write_text(json.dumps(item.doc), encoding="utf-8")
            argv[argv.index(item.doc_name)] = str(path)
        argvs.append(argv)
    return argvs


def compare(cli_a, cli_b, argvs) -> dict:
    """Both sides over every argv, alternating which goes first; the sums and B/A."""
    paired_call(cli_a, cli_b, argvs[0], True)  # warm-up, untimed
    a = b = 0.0
    for i, argv in enumerate(argvs):
        ta, tb = paired_call(cli_a, cli_b, argv, i % 2 == 0)
        a += ta
        b += tb
    return {"calls": len(argvs), "a_s": round(a, 3), "b_s": round(b, 3),
            "b_over_a": round(b / a, 4) if a else None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", type=Path, required=True,
                    help="root of the checkout to compare against (side A)")
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first LIMIT items of each workload")
    ap.add_argument("--rounds", type=int, default=1,
                    help="repeat the alternated run ROUNDS times per workload")
    args = ap.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        ap.error("--limit must be at least 1")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    cli_a = load_cli(args.other.resolve() / "src", "rigikit_a")
    cli_b = load_cli(ROOT / "src", "rigikit_b")
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            argvs = workload_argvs(name, args.seed, Path(tmp), args.limit)
            rounds = []
            for r in range(args.rounds):
                res = compare(cli_a, cli_b, argvs)
                rounds.append(res)
                print("%-10s round %d/%d  calls %4d  A %8.3f s  B %8.3f s  B/A %.4f"
                      % (name, r + 1, args.rounds, res["calls"], res["a_s"], res["b_s"],
                         res["b_over_a"]))
            ratios = [res["b_over_a"] for res in rounds]
            results[name] = {
                "calls": len(argvs),
                "a_s": round(sum(res["a_s"] for res in rounds), 3),
                "b_s": round(sum(res["b_s"] for res in rounds), 3),
                "rounds": ratios,
                "b_over_a": statistics.median(ratios),
            }
            print("%-10s median B/A %.4f over %d rounds" % (name, results[name]["b_over_a"],
                                                             args.rounds))
    print(json.dumps({"seed": args.seed, "workloads": results}, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed early, as `| head -1` does: the lines it took are
        # the output.  Point stdout at devnull so the exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)

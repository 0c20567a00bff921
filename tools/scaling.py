"""Scaling curves of ``analyze`` on fixed instance families.

    python3 tools/scaling.py --label change --out BENCH_scaling.json
    python3 tools/scaling.py --sizes 8 --runs 1 --out /tmp/scaling.json

Each family is built at every size n (16, 32, 64, 128 and 256 by default)
with a fixed generator seed, and analysed in process with seed 1 and the
default prime and trial count.  Per instance the script records:

* the median ``analyze`` time of ``--runs`` untraced runs, raw
  (``raw_analyze_s``) and calibrated (``analyze_s``);
* the stage spans of one more run under ``perfbench/tracer.py``: the
  trivial-motion check, the matrix ranks, the P-components and the count
  side (``analysis.count_side``, where hinge and direction models play
  the f-expansion game), calibrated.
  The ``rank`` stage is the ``RigidityMatrix.rank`` spans.  The rod models'
  flat-family rank (``rigidity.flat_family_rank``) builds no matrix, so
  since it replaced the edge-flat matrix the stage no longer holds it;
  runs recorded before that change counted it there.  The ``p_components``
  stage times only the bar models' second game, so the direction and
  body-hinge families, which read their P-components off the count
  matroid's own certificate, read 0 there;
* ``peak_alloc_mb``, the peak of Python allocations over one more
  untimed run under ``tracemalloc``, started after a ``gc.collect()`` so
  that the figure does not depend on what ran before it in the process,
  and so that a change which keeps more matrices alive shows;
* the SHA-256 of the canonical JSON report, the bytes that
  ``rigikit analyze`` prints.

Times are calibrated as the benchmark's are (``perfbench/worker.py``):
before every timed run the script takes one reference sample, a fixed
loop that runs no rigikit code, and scales the run's seconds by
``worker.calibration`` of that sample.  A shared machine drifts 20-40%
from minute to minute, and the reference drifts with it.  Each instance
also records ``reference_s``, the median of its samples.

Per family it fits a growth exponent for ``analyze`` and for each stage:
the least-squares slope of log(calibrated time) against log(n), over
every size run.  The run also records the time to import ``rigikit.cli``
(the start-up every CLI call pays) in 3 x ``--runs`` fresh ``python -S``
processes, each beside a reference sample of its own: the calibrated median
``import_s`` and the raw median ``raw_import_s``.  Last come the Python
version and the core count.  The file
keeps one run per ``--label``; a run replaces the one of its label and
leaves the others as they are, so the same file can hold the runs of two
commits side by side.

Families (d = 3 except ``direction-2d``):

* ``rod-bar-ring``, ``body-bar-ring``: n vertices on a cycle, two bars to
  the next vertex and one to the one after, all rods or all bodies;
* ``body-rod-bar-tree``: ``workloads.mechanism_document(n, 3, Random(n))``,
  a random tree of rods and bodies with three extra bars;
* ``body-hinge-ladder``: n bodies in a path, each consecutive pair sharing
  one hinge;
* ``direction-2d``: ``workloads.braced_document(n, 0, Random(n))``, a
  minimally rigid framework built by Henneberg moves;
* ``direction-3d``: n joints added one at a time, each joined to three
  earlier ones (all of them while fewer exist) drawn from ``Random(n)``.

rigikit is imported from the ``src`` directory beside this file's parent,
and the generators, the tracer and the reference loop from its
``perfbench``; neither is changed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402
from rigikit import cli  # noqa: E402,F401  (the tracer patches every rigikit module)
from rigikit.analysis import analyze  # noqa: E402
from rigikit.documents import parse_document  # noqa: E402

SIZES = (16, 32, 64, 128, 256)
SEED = 1

# timed in a fresh process: python -S, so no site packages are imported first
IMPORT_CODE = """\
import sys, time
sys.path.insert(0, %r)
t0 = time.perf_counter()
import rigikit.cli
print(time.perf_counter() - t0)
"""

# stage name -> the tracer spans it sums, nested ones counted once
STAGES = {
    "trivial": ("rigidity.verify_trivial_motions",),
    "rank": ("rigidity.matrix_rank",),
    "p_components": ("count_matroid.p_components",),
    "count_side": ("analysis.count_side",),
}


def ring_document(n: int, kind: str, model: str) -> dict:
    """n vertices of one kind on a cycle: 2 bars to the next vertex, 1 to the one after."""
    edges = []
    for i in range(n):
        edges += [[i, (i + 1) % n]] * 2 + [[i, (i + 2) % n]]
    return {
        "schema": 1,
        "model": model,
        "dimension": 3,
        "vertices": [{"id": "v%d" % i, "kind": kind} for i in range(n)],
        "edges": [["v%d" % u, "v%d" % v] for u, v in edges],
    }


def hinge_ladder_document(n: int) -> dict:
    """n bodies in a path, each consecutive pair sharing one hinge."""
    edges = [pair for i in range(n - 1) for pair in (["b%d" % i, "h%d" % i],
                                                      ["h%d" % i, "b%d" % (i + 1)])]
    return {
        "schema": 1,
        "model": "body-hinge",
        "dimension": 3,
        "vertices": [{"id": "b%d" % i, "kind": "body"} for i in range(n)]
        + [{"id": "h%d" % i, "kind": "hinge"} for i in range(n - 1)],
        "edges": edges,
    }


def direction_3d_document(n: int) -> dict:
    """n joints added one at a time, each joined to three earlier ones."""
    rng = random.Random(n)
    edges = [["j%d" % u, "j%d" % v]
             for v in range(1, n) for u in rng.sample(range(v), min(v, 3))]
    return {
        "schema": 1,
        "model": "direction",
        "dimension": 3,
        "vertices": [{"id": "j%d" % i, "kind": "body"} for i in range(n)],
        "edges": edges,
    }


FAMILIES = {
    "rod-bar-ring": lambda n: ring_document(n, "rod", "rod-bar"),
    "body-bar-ring": lambda n: ring_document(n, "body", "body-bar"),
    "body-rod-bar-tree": lambda n: wl.mechanism_document(n, 3, random.Random(n)),
    "body-hinge-ladder": hinge_ladder_document,
    "direction-2d": lambda n: wl.braced_document(n, 0, random.Random(n)),
    "direction-3d": direction_3d_document,
}


def report_hash(rep: dict) -> str:
    """SHA-256 of the report as ``rigikit analyze`` prints it."""
    text = json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def measure(doc: dict, runs: int) -> dict:
    """One instance: median untraced time, raw and calibrated; calibrated
    traced stage spans; peak traced allocation; report hash."""
    graph, model, d, joints = parse_document(doc)

    def once():
        return analyze(graph, model, d, seed=SEED, joints=joints)

    raw, calibrated, samples = [], [], []
    for _ in range(runs):
        samples.append(worker.reference_sample())
        t0 = perf_counter()
        rep = once()
        raw.append(perf_counter() - t0)
        calibrated.append(raw[-1] * worker.calibration(samples[-1:]))
    tracer = tr.Tracer()
    uninstall = tr.install(tracer)
    samples.append(worker.reference_sample())
    try:
        traced = once()
    finally:
        uninstall()
    gc.collect()  # no earlier run's garbage, so the peak depends on the instance alone
    tracemalloc.start()
    try:
        allocated = once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = report_hash(rep)
    if report_hash(traced) != digest or report_hash(allocated) != digest:
        raise RuntimeError("a traced report differs from the untraced one")
    scale = worker.calibration(samples[-1:])
    return {
        "edges": len(graph.edges),
        "raw_analyze_s": round(statistics.median(raw), 4),
        "analyze_s": round(statistics.median(calibrated), 4),
        "reference_s": round(statistics.median(samples), 5),
        "stages_s": {
            stage: round(tr.group_total(tracer.spans, names) * scale, 4)
            for stage, names in STAGES.items()
        },
        "peak_alloc_mb": round(peak / 2**20, 3),
        "report_sha256": digest,
    }


def growth_exponent(sizes, times):
    """Least-squares slope of log(time) against log(n); None below two usable points."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if t > 0]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return round(sum((x - mx) * (y - my) for x, y in pts) / sxx, 3)


def import_seconds(runs: int) -> tuple[float, float]:
    """(raw, calibrated) median seconds to import rigikit.cli in a fresh
    ``python -S`` process, each import scaled by a reference sample taken
    just before it."""
    code = IMPORT_CODE % str(ROOT / "src")
    raw, calibrated = [], []
    for _ in range(runs):
        sample = worker.reference_sample()
        raw.append(float(subprocess.run([sys.executable, "-S", "-c", code], check=True,
                                        capture_output=True, text=True, timeout=60).stdout))
        calibrated.append(raw[-1] * worker.calibration([sample]))
    return round(statistics.median(raw), 4), round(statistics.median(calibrated), 4)


def run(sizes, runs: int) -> dict:
    out = {}
    for name in FAMILIES:
        instances = []
        for n in sizes:
            inst = {"n": n, **measure(FAMILIES[name](n), runs)}
            instances.append(inst)
            print("%-18s n=%-4d analyze %.4f s (raw %.4f)  %s  peak %.3f MB" % (
                name, n, inst["analyze_s"], inst["raw_analyze_s"],
                "  ".join("%s %.4f" % kv for kv in inst["stages_s"].items()),
                inst["peak_alloc_mb"]), file=sys.stderr)
        exponents = {"analyze": growth_exponent(sizes, [i["analyze_s"] for i in instances])}
        for stage in STAGES:
            exponents[stage] = growth_exponent(
                sizes, [i["stages_s"][stage] for i in instances])
        out[name] = {"instances": instances, "exponents": exponents}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    ap.add_argument("--runs", type=int, default=3, help="untraced runs per instance")
    ap.add_argument("--label", default="change",
                    help="key of this run in the output file (default change)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    args = ap.parse_args(argv)
    if args.runs < 1 or min(args.sizes) < 4:
        ap.error("--runs must be at least 1 and every size at least 4")
    families = run(args.sizes, args.runs)
    raw_import_s, import_s = import_seconds(3 * args.runs)
    result = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "runs": args.runs,
        "sizes": args.sizes,
        "families": families,
        "import_runs": 3 * args.runs,
        "import_s": import_s,
        "raw_import_s": raw_import_s,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    doc["runs"][args.label] = result
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

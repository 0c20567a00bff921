"""rigikit benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload braced --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, every metric

Run from the root of a checkout.  The benchmark makes the workload's
inputs from --seed, writes them under perfbench/.work/, and runs each
workload in fresh child processes (perfbench/worker.py) with
RIGIKIT_THREADS removed from the environment: five that only time set-up,
then one that measures.  It prints every metric as "name value unit", and
as its last line one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
It exits 1 without a result when rigikit's sources are missing or a child
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from worker import REFERENCE_S  # noqa: E402

DIGESTS = HERE / "digests.json"
SETUP_RUNS = 5
RUN_LIMIT_S = 170  # every run must end within 180 s

# name -> (unit, better, bound); bound is the share by which the parent's
# median may worsen before a change counts as a regression.  Times are
# calibrated against a reference computation (worker.py).  Even so, on a
# shared 2-core machine they keep a few percent of drift, so every timing
# gets the widest bound allowed.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "item_p50_s": ("s", "lower", 0.25),
    "item_tail_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's documents and a manifest of its calls."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    items = wl.build(workload, seed)
    recorded = {}
    if seed == wl.DEFAULT_SEED and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(workload, {})
    manifest = []
    for item in items:
        argv = list(item.argv)
        raw = {"name": item.name, "group": item.group or item.name,
               "verdict": item.verdict, "cases": item.cases,
               "digest": recorded.get(item.name)}
        if item.doc is not None:
            path = workdir / item.doc_name
            path.write_text(json.dumps(item.doc), encoding="utf-8")
            raw["doc_path"] = str(path)
            argv[argv.index(item.doc_name)] = str(path)
        raw["argv"] = argv
        manifest.append(raw)
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def child(args: list, deadline: float) -> dict:
    """Run the worker in a fresh interpreter and parse its last stdout line."""
    env = dict(os.environ)
    env.pop("RIGIKIT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    timeout = max(deadline - perf_counter(), 1.0)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=env,
                          cwd=str(ROOT), capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker %s failed (exit %d):\n%s"
                           % (args[0], proc.returncode, proc.stderr.strip()))
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    workdir = HERE / ".work" / workload
    prepare(workload, seed, workdir)
    setups = [child(["setup", str(workdir)], deadline) for _ in range(SETUP_RUNS)]
    res = child(["run", str(workdir), str(seconds), "1" if trace else "0"], deadline)
    res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    res["setup_runs"] = [s["raw_setup_s"] for s in setups]
    return res


def metrics_of(res: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": res["per_layer"][name], "unit": unit}
                for name, (unit, _) in tr.PER_LAYER.items()}
    return {name: {"value": res[name], "unit": unit}
            for name, (unit, _, _) in END_TO_END.items()}


def report(workload: str, seed: int, res: dict, metrics: dict) -> None:
    print("# workload %s  seed %d  python %s  nproc %d  prime %d"
          % (workload, seed, platform.python_version(), os.cpu_count() or 1, wl.PRIME))
    print("# %d pass(es); tail = p%.1f of %d per-item medians; raw setup runs %s"
          % (res["passes"], res["tail_percentile"], res["tail_samples"],
             " ".join("%.4f" % s for s in res["setup_runs"])))
    print("# times are calibrated: reference sample %.5f s here, %.3f s nominal; "
          "raw wall_s %.4f s" % (res["reference_s"], REFERENCE_S, res["raw_wall_s"]))
    for name, m in metrics.items():
        print("%-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-40s %14.6g %s" % ("failed_frac", res["failed"] / res["attempted"], "ratio"))
    for problem in res["problems"]:
        print("# FAILED %s" % problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the report digests of --seed (the default seed)")
    args = parser.parse_args(argv)
    trace = args.trace == 1
    if not (ROOT / "src" / "rigikit" / "__init__.py").is_file():
        print("error: no rigikit sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 1
    workloads = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + RUN_LIMIT_S * len(workloads)

    combined, attempted, failed = {}, 0, 0
    for workload in workloads:
        try:
            res = measure(workload, args.seed, args.seconds, trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print("error: %s: %s" % (workload, exc), file=sys.stderr)
            return 1
        metrics = metrics_of(res, trace)
        report(workload, args.seed, res, metrics)
        attempted += res["attempted"]
        failed += res["failed"]
        if len(workloads) == 1:
            combined = metrics
        else:
            combined.update({"%s.%s" % (workload, k): v for k, v in metrics.items()})
        if args.record_digests:
            if args.seed != wl.DEFAULT_SEED or res["failed"]:
                print("error: digests are recorded only for a clean run of the "
                      "default seed", file=sys.stderr)
                return 1
            stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            stored[workload] = res["digests"]
            DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

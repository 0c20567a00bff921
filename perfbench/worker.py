"""Child process of the benchmark: set up, run passes, check, report.

    python3 perfbench/worker.py setup WORKDIR
    python3 perfbench/worker.py run WORKDIR SECONDS TRACE

``setup`` times one set-up (importing rigikit, then loading and parsing
the workload's inputs) and prints it.  ``run`` sets up, then drives
``rigikit.cli.main`` in process over every item of the manifest, pass
after pass, for about SECONDS seconds, checks every output, and prints one
JSON object.  With TRACE=1 it makes one untraced and one traced pass and
adds the per-layer figures.  rigikit is imported from the ``src``
directory of the checkout that holds this file, never from elsewhere.

End-to-end times are calibrated: a fixed reference computation that does
not touch rigikit is timed before every latency unit, and each pass's times
are scaled by REFERENCE_S over the median of its reference samples.  A
shared machine's speed drifts by 20% and more from one minute to the next;
the program and the reference slow down largely together, so the scaled
times follow the program much more than the machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# A reference sample is a fixed loop of integer arithmetic in the
# interpreter; it touches none of rigikit's code.  Calibrated seconds are
# seconds on a machine where one sample takes REFERENCE_S, about what it
# takes on an idle 2-core x86 VM with Python 3.11.  Of the references
# tried (this loop, a small row reduction over F_p, random lookups in a
# large dict), this one followed rigikit's run times most closely.
REFERENCE_LOOP = 100_000
REFERENCE_S = 0.008
SETUP_REFERENCE_SAMPLES = 9


def reference_sample() -> float:
    """Seconds that the reference loop takes now."""
    t0 = perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i % 7
    return perf_counter() - t0


def calibration(samples) -> float:
    """The factor that turns seconds measured beside these reference samples
    into calibrated seconds."""
    return REFERENCE_S / statistics.median(samples)


class Entry:
    """A manifest item: argv, the checks its output must pass, its work size."""

    def __init__(self, raw: dict):
        self.name = raw["name"]
        self.group = raw["group"]
        self.argv = raw["argv"]
        self.doc_path = raw.get("doc_path")
        self.cases = raw["cases"]
        self.expected_digest = raw.get("digest")
        self.item = wl.Item(name=self.name, argv=self.argv, verdict=raw.get("verdict"),
                            cases=self.cases)


def setup(workdir: Path):
    """Import rigikit and load and parse every input; returns (cli, entries, seconds)."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import rigikit
    from rigikit import cli, documents

    if not Path(rigikit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError("rigikit was imported from %s, not from %s"
                          % (rigikit.__file__, SRC))
    with open(workdir / "manifest.json", encoding="utf-8") as fh:
        entries = [Entry(raw) for raw in json.load(fh)]
    for e in entries:
        if e.doc_path is not None:
            with open(e.doc_path, encoding="utf-8") as fh:
                documents.parse_document(json.load(fh))
    return cli, entries, perf_counter() - t0


def call(cli, argv):
    """(seconds, exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed item, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
    return perf_counter() - t0, code, out.getvalue()


class Tally:
    """Calibrated latency of each unit (an item or a group of calls) in
    every pass, raw pass walls, reference samples, and failed checks."""

    def __init__(self, entries):
        self.entries = entries
        self.latencies = {e.group: [] for e in entries}
        self.walls: list = []
        self.references: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: dict = {}

    def check(self, e, code, stdout):
        self.digests[e.name] = wl.digest(stdout)
        self.attempted += 1
        found = wl.check_output(e.item, code, stdout, e.expected_digest)
        if found:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("%s: %s" % (e.name, "; ".join(found)))

    def warm_up(self, cli):
        """Run the calls of the first unit once, checked but not timed."""
        for e in self.entries:
            if e.group == self.entries[0].group:
                _, code, stdout = call(cli, e.argv)
                self.check(e, code, stdout)

    def run_pass(self, cli):
        units = dict.fromkeys(self.latencies, 0.0)
        samples = []
        group = None
        for e in self.entries:
            if e.group != group:
                samples.append(reference_sample())
                group = e.group
            dt, code, stdout = call(cli, e.argv)
            units[e.group] += dt
            self.check(e, code, stdout)
        self.walls.append(sum(units.values()))
        self.references += samples
        scale = calibration(samples)
        for unit, dt in units.items():
            self.latencies[unit].append(dt * scale)

    def end_to_end(self) -> dict:
        """Medians over passes per unit; wall_s sums them, so that a burst of
        load on the machine during one pass does not count.  raw_wall_s is
        the median pass without calibration, and reference_s the median
        reference sample."""
        per_item = [statistics.median(v) for v in self.latencies.values()]
        wall = sum(per_item)
        tail_value, tail_pct = tr.tail(per_item)
        return {
            "raw_wall_s": statistics.median(self.walls),
            "reference_s": statistics.median(self.references),
            "wall_s": wall,
            "items_per_s": sum(e.cases for e in self.entries) / wall,
            "item_p50_s": statistics.median(per_item),
            "item_tail_s": tail_value,
            "tail_percentile": tail_pct,
            "tail_samples": len(per_item),
            "passes": len(self.walls),
        }


def run(workdir: Path, seconds: float, trace: bool) -> dict:
    cli, entries, setup_s = setup(workdir)
    tally = Tally(entries)
    tally.warm_up(cli)
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        tally.run_pass(cli)
        longest = max(longest, perf_counter() - t0)
        if trace:
            break
        if perf_counter() - start + longest > seconds:
            break
    result = tally.end_to_end()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer = tr.Tracer()
        uninstall = tr.install(tracer)
        try:
            tally.run_pass(cli)
        finally:
            uninstall()
        items = sum(e.cases for e in entries)
        layers = tr.layer_metrics(tracer.spans, tracer.counts, items)
        # calibrated, so that the machine's drift between the passes cancels
        untraced, traced = (sum(v[i] for v in tally.latencies.values()) for i in (-2, -1))
        layers["tracing.overhead_s"] = traced - untraced
        result["per_layer"] = layers
        result["traced_wall_s"] = tally.walls[-1]
    result.update(setup_s=setup_s, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems, digests=tally.digests)
    return result


def main(argv) -> int:
    mode, workdir = argv[0], Path(argv[1])
    if mode == "setup":
        _, _, seconds = setup(workdir)
        samples = [reference_sample() for _ in range(SETUP_REFERENCE_SAMPLES)]
        print(json.dumps({"setup_s": seconds * calibration(samples),
                          "raw_setup_s": seconds}))
    elif mode == "run":
        print(json.dumps(run(workdir, float(argv[2]), argv[3] == "1")))
    else:
        raise SystemExit("unknown mode %r" % mode)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

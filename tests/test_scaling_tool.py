"""tools/scaling.py end to end at one small size: the file it writes."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from rigikit.documents import parse_document

ROOT = Path(__file__).resolve().parents[1]


def test_scaling_script_runs_small(tmp_path, monkeypatch):
    out = tmp_path / "scaling.json"
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scaling.py"), "--sizes", "8",
         "--runs", "1", "--label", "smoke", "--out", str(out)],
        check=True, capture_output=True, timeout=60,
    )
    assert time.perf_counter() - t0 < 2.0
    run = json.loads(out.read_text())["runs"]["smoke"]
    assert run["sizes"] == [8] and run["nproc"] >= 1 and run["python"]
    assert run["import_runs"] == 3 and run["import_s"] > 0 and run["raw_import_s"] > 0
    assert 0.1 < run["import_s"] / run["raw_import_s"] < 10
    assert set(run["families"]) == {
        "rod-bar-ring", "body-bar-ring", "body-rod-bar-tree", "body-hinge-ladder",
        "direction-2d", "direction-3d"}
    for fam in run["families"].values():
        (inst,) = fam["instances"]
        assert inst["n"] == 8 and inst["analyze_s"] > 0 and inst["raw_analyze_s"] > 0
        # calibrated seconds are raw seconds scaled by REFERENCE_S over the
        # reference sample taken beside the run
        assert inst["reference_s"] > 0
        assert 0.1 < inst["analyze_s"] / inst["raw_analyze_s"] < 10
        assert set(inst["stages_s"]) == {"trivial", "rank", "p_components", "count_side"}
        assert 0 < inst["peak_alloc_mb"] < 100
        assert len(inst["report_sha256"]) == 64
        assert fam["exponents"]["analyze"] is None  # one size fits no slope

    # the hash is of the bytes `rigikit analyze --seed 1` prints
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import scaling

    doc = tmp_path / "ring.json"
    doc.write_text(json.dumps(scaling.ring_document(8, "rod", "rod-bar")))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    printed = subprocess.run(
        [sys.executable, "-m", "rigikit", "analyze", str(doc), "--seed", "1"],
        check=True, capture_output=True, timeout=60, env=env,
    ).stdout
    (ring,) = run["families"]["rod-bar-ring"]["instances"]
    assert hashlib.sha256(printed).hexdigest() == ring["report_sha256"]

    # the new families: n bodies and n - 1 hinges in a path; joint v joined
    # to min(v, 3) earlier ones
    ladder = parse_document(scaling.hinge_ladder_document(8))[0]
    assert [len(ladder.vertex_ids), len(ladder.edges)] == [15, 14]
    joints = parse_document(scaling.direction_3d_document(8))[0]
    assert [len(joints.vertex_ids), len(joints.edges)] == [8, 3 * 8 - 6]
    assert {(e.u, e.v) for e in joints.edges} >= {("j0", "j1"), ("j0", "j2"), ("j1", "j2")}


def test_each_import_is_scaled_by_its_own_reference_sample(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import scaling

    ref = scaling.worker.REFERENCE_S
    samples = iter([ref / 2, ref * 2, ref * 2])  # calibration factors 2, 0.5, 0.5
    imports = iter(["0.02", "0.05", "0.08"])
    monkeypatch.setattr(scaling.worker, "reference_sample", lambda: next(samples))
    monkeypatch.setattr(scaling.subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(a, 0, next(imports)))
    # raw median 0.05; each scaled by its own sample: 0.04, 0.025, 0.04.  One
    # factor for all (the median sample's 0.5) or a shifted pairing reads 0.025
    assert scaling.import_seconds(3) == (0.05, 0.04)

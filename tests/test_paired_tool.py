"""tools/paired.py: both sides in one process, outputs compared byte for byte."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def fake_cli(text, code=0):
    def main(argv):
        sys.stdout.write(text)
        return code

    return types.SimpleNamespace(main=main)


def test_paired_call_requires_identical_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import paired

    for a_first in (True, False):
        ta, tb = paired.paired_call(fake_cli("{}\n"), fake_cli("{}\n"), ["fuzz"], a_first)
        assert ta >= 0 and tb >= 0
        with pytest.raises(AssertionError, match="outputs differ on fuzz"):
            paired.paired_call(fake_cli("{}\n"), fake_cli("{ }\n"), ["fuzz"], a_first)
        with pytest.raises(AssertionError, match="A exit 0, B exit 1"):
            paired.paired_call(fake_cli("{}\n"), fake_cli("{}\n", 1), ["fuzz"], a_first)


def test_paired_script_runs_this_checkout_against_itself():
    printed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired.py"), "--other", str(ROOT),
         "--workload", "mechanisms", "--limit", "2"],
        check=True, capture_output=True, text=True, timeout=60,
    ).stdout
    result = json.loads(printed.splitlines()[-1])
    (name, res), = result["workloads"].items()
    assert name == "mechanisms" and result["seed"] == 1
    assert res["calls"] == 2 and res["a_s"] > 0 and res["b_s"] > 0 and res["b_over_a"] > 0


def test_paired_script_is_quiet_when_its_reader_closes_early():
    # as `tools/paired.py --other . --workload mechanisms --limit 2 | head -1`,
    # with the pipe closed before the first line is written
    with subprocess.Popen(
        [sys.executable, str(ROOT / "tools" / "paired.py"), "--other", ".",
         "--workload", "mechanisms", "--limit", "2"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipe" not in err

"""README.md's "Library sketch" runs as written, so it cannot go stale."""

import re
import types
from pathlib import Path

import rigikit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs_as_written():
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```",
                       README.read_text(encoding="utf-8"), re.S)
    assert sketch, "README.md has no Library sketch block"
    exec(compile(sketch.group(1), "README.md (Library sketch)", "exec"), {})


def _public_names():
    """The names README.md's "Library sketch" lists as exported, in order:
    the backquoted names that open each bullet, before its colon."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    bullets = re.search(r"exports these names(?s:.*?)\n\n((?:- .*\n(?:  .*\n)*)+)", section)
    assert bullets, "README.md's Library sketch lists no exported names"
    return [name for head in re.findall(r"^- (.*?):", bullets.group(1), re.M)
            for name in re.findall(r"`(\w+)`", head)]


def test_readme_names_every_public_name_and_no_other():
    listed = _public_names()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(rigikit.__all__)
    public = {name for name, value in vars(rigikit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(rigikit.__all__)
